package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"convexcache/internal/cached"
)

// server is one cached serve child process on loopback.
type server struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan struct{}
	waitErr error
	client  *http.Client
}

// freeAddr picks a free loopback port. The listener is closed before the
// server binds it; a collision makes the launch fail loudly, not silently.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches bin with args (addr is substituted for the
// "-addr" value) and waits until /healthz answers. The server's log goes to
// a file in dir.
func startServer(bin, dir string, gomaxprocs int, args func(addr string) []string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logPath := filepath.Join(dir, "server.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args(addr)...)
	cmd.Dir = dir
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{
		cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{}),
		client: &http.Client{Timeout: 60 * time.Second},
	}
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited during start-up (%v): %s", s.waitErr, s.logTail())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server not healthy after 60s: %s", s.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.client.CloseIdleConnections()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// logTail returns the end of the server's log for error messages.
func (s *server) logTail() string {
	b, _ := os.ReadFile(s.logPath)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(bytes.TrimSpace(b))
}

// stats fetches /v1/cache/stats.
func (s *server) stats() (cached.Stats, error) {
	var st cached.Stats
	resp, err := s.client.Get(s.base + "/v1/cache/stats")
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d: %s", resp.StatusCode, clip(body))
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("stats: decode: %w", err)
	}
	return st, nil
}

// verify posts /v1/cache/verify and returns the report and its wall time.
// A divergence answers 500 with the report; both statuses are decoded so
// the check, not the transport, judges cleanliness.
func (s *server) verify() (*cached.VerifyReport, time.Duration, error) {
	start := time.Now()
	resp, err := s.client.Post(s.base+"/v1/cache/verify", "text/plain", nil)
	if err != nil {
		return nil, 0, fmt.Errorf("verify: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("verify: %w", err)
	}
	var rep cached.VerifyReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, 0, fmt.Errorf("verify: status %d: %s", resp.StatusCode, clip(body))
	}
	return &rep, d, nil
}

// metrics scrapes /metrics and sums each family over its label sets.
func (s *server) metrics() (map[string]int64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	maxes := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue // float-valued series (histogram sums) are not used
		}
		out[name] += v
		if v > maxes[name] {
			maxes[name] = v
		}
	}
	for name, v := range maxes {
		out[name+":max"] = v
	}
	return out, sc.Err()
}

// procCPU returns the user+sys CPU time of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// Fields 14 and 15 of stat (utime, stime) in clock ticks; Linux
	// reports them at USER_HZ = 100.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns VmHWM of pid in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func clip(b []byte) string {
	if len(b) > 256 {
		return string(b[:256]) + "…"
	}
	return string(bytes.TrimSpace(b))
}

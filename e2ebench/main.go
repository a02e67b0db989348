// Command e2ebench is the repository's end-to-end benchmark. It launches
// `cached serve` as a child process on loopback, drives it in a closed loop
// from a seeded workload, checks every reply and the server's own
// accounting, and prints the metrics as one JSON line:
//
//	bash e2ebench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
// and prints the per-layer ledger instead. See README.md in this directory.
package main

import (
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"convexcache/internal/costfn"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // the checkout the run reads and writes in
	cached   string // the cached binary under test
	// tamper, when set, may alter an observation before it is checked.
	// The self-tests use it to prove a wrong count fails the run.
	tamper func(stage string, v any)
	// sp overrides the named workload (self-tests shrink it).
	sp *spec
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance says what was measured, on what, with which inputs.
type provenance struct {
	Workload         spec    `json:"workload"`
	Seed             int64   `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Trace            bool    `json:"trace"`
	Commit           string  `json:"commit"`
	Dirty            *bool   `json:"dirty"`
	GoVersion        string  `json:"go_version"`
	NumCPU           int     `json:"nproc"`
	ClientGOMAXPROCS int     `json:"client_gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	Fsync            string  `json:"fsync"`
	// LatencySamples is the batch round-trip count behind each round's
	// p50_ms and p99_ms.
	LatencySamples []int `json:"latency_samples"`
	// Rounds holds every round\'s values behind the reported medians.
	Rounds           []roundResult `json:"rounds,omitempty"`
	RecoverLoopbackS float64       `json:"recover_loopback_s,omitempty"`
	// PeakRSSMB is the server's VmHWM after verification, which
	// server_rss_mb (read before it) leaves out.
	PeakRSSMB float64  `json:"server_peak_rss_after_verify_mb,omitempty"`
	Client    tally    `json:"client"`
	Checks    []string `json:"checks"`
	Error     string   `json:"error,omitempty"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt   options
		trace int
	)
	fs.StringVar(&opt.workload, "workload", "hot-read", "workload name: hot-read, churn-wal or adaptive-shift")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured work, in seconds at the workload's nominal batch rate")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	fs.StringVar(&opt.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	fs.StringVar(&opt.cached, "cached", "", "path of the cached binary to launch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "--trace must be 0 or 1")
		return 2
	}
	opt.trace = trace == 1
	if opt.cached == "" {
		fmt.Fprintln(stderr, "--cached is required")
		return 2
	}
	res, prov, err := run(opt)
	pj, _ := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		// No result: the provenance goes to stderr so that no JSON line on
		// stdout can be mistaken for one.
		fmt.Fprintln(stderr, string(pj))
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(pj))
	rj, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(rj))
	if !res.Correct {
		return 1
	}
	return 0
}

// errCheck marks a failed correctness check, as opposed to a failure to
// run the benchmark at all.
type errCheck struct{ err error }

func (e errCheck) Error() string { return "check failed: " + e.err.Error() }

// runner holds one run's inputs and bookkeeping.
type runner struct {
	opt     options
	sp      spec
	in      *input
	costs   []costfn.Func
	workdir string
	prov    provenance
	spans   *spanLog
	procs   int
}

// run performs one benchmark run. A failed check yields a result with
// Correct false; any other error yields no result.
func run(opt options) (*result, provenance, error) {
	sp, ok := specs()[opt.workload]
	if opt.sp != nil {
		sp, ok = *opt.sp, true
	}
	r := &runner{opt: opt, sp: sp, procs: runtime.NumCPU(), spans: newSpanLog()}
	r.prov = provenance{
		Workload: sp, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		NumCPU: runtime.NumCPU(), ClientGOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: r.procs,
		Fsync: sp.Fsync, Checks: []string{}, Client: newTally(sp.Tenants),
	}
	r.prov.Commit, r.prov.Dirty, r.prov.GoVersion = buildProvenance(opt.cached)
	if !ok {
		return nil, r.prov, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if r.prov.Fsync == "" {
		r.prov.Fsync = "none"
	}
	var err error
	if r.costs, err = sp.costFuncs(); err != nil {
		return nil, r.prov, err
	}
	if r.in, err = generate(sp, opt.seed); err != nil {
		return nil, r.prov, err
	}
	scratch := filepath.Join(opt.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, r.prov, err
	}
	if r.workdir, err = os.MkdirTemp(scratch, "run-"+sp.Name+"-"); err != nil {
		return nil, r.prov, err
	}
	defer os.RemoveAll(r.workdir)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	if opt.trace {
		err = r.traced(res)
	} else {
		err = r.endToEnd(res)
	}
	res.Attempted, res.Failed = r.prov.Client.Batches, r.prov.Client.Failed
	var ce errCheck
	if errors.As(err, &ce) {
		res.Correct = false
		r.prov.Error = err.Error()
		return res, r.prov, nil
	}
	if err != nil {
		r.prov.Error = err.Error()
		return nil, r.prov, err
	}
	if opt.trace {
		path := filepath.Join(opt.root, ".bench_build", "spans",
			fmt.Sprintf("%s-seed%d.json", sp.Name, opt.seed))
		if err := r.spans.write(path, r.prov); err != nil {
			return nil, r.prov, err
		}
	}
	return res, r.prov, nil
}

// check runs one named correctness check, recording it on success.
func (r *runner) check(name string, err error) error {
	if err != nil {
		return errCheck{fmt.Errorf("%s: %w", name, err)}
	}
	r.prov.Checks = append(r.prov.Checks, name)
	return nil
}

// tamper passes an observation through the self-test hook, if any.
func (r *runner) tamper(stage string, v any) {
	if r.opt.tamper != nil {
		r.opt.tamper(stage, v)
	}
}

// buildProvenance reads the commit, dirty flag and Go version embedded in
// the binary under test. Builds outside a git work tree carry no VCS
// stamp; the commit is then "unknown" and the dirty flag null.
func buildProvenance(bin string) (commit string, dirty *bool, goVersion string) {
	commit, goVersion = "unknown", runtime.Version()
	bi, err := buildinfo.ReadFile(bin)
	if err != nil {
		return commit, nil, goVersion
	}
	goVersion = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			d := s.Value == "true"
			dirty = &d
		}
	}
	return commit, dirty, goVersion
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile of sorted durations by the nearest-rank rule.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

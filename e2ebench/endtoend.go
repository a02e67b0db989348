package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"convexcache/internal/cached"
)

// launch starts a server for the workload in dir (its WAL, if any, lives
// in dir/wal). The free port is picked before the server binds it, so a
// launch that loses the port to another process is retried on a new one.
func (r *runner) launch(dir string, recover bool) (*server, error) {
	walDir := filepath.Join(dir, "wal")
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var srv *server
		srv, err = startServer(r.opt.cached, dir, r.procs, func(addr string) []string {
			return r.sp.serverArgs(addr, walDir, recover)
		})
		if err == nil {
			return srv, nil
		}
	}
	return nil, err
}

// setUp launches a fresh server in its own directory and serves the
// warm-up prefix; the returned duration is the set-up time.
func (r *runner) setUp(name string) (*server, *loadgen, time.Duration, error) {
	dir := filepath.Join(r.workdir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	srv, err := r.launch(dir, false)
	if err != nil {
		return nil, nil, 0, err
	}
	d := newLoadgen(r.sp, r.in, srv)
	if err := d.warmup(); err != nil {
		d.close()
		srv.kill()
		r.prov.Client.add(d.total())
		return nil, nil, 0, errCheck{fmt.Errorf("%s warm-up: %w", name, err)}
	}
	return srv, d, time.Since(start), nil
}

// retire stops a load generator and its server and books its batches.
func (r *runner) retire(d *loadgen) {
	d.close()
	d.srv.kill()
	r.prov.Client.add(d.total())
}

// reconcile reads the server's stats and metrics and checks them against
// the client's tally.
func (r *runner) reconcile(stage string, d *loadgen) (cached.Stats, error) {
	st, err := d.srv.stats()
	if err != nil {
		return st, err
	}
	m, err := d.srv.metrics()
	if err != nil {
		return st, err
	}
	cl := d.total()
	r.tamper("client", &cl)
	return st, r.check(stage+": client = stats = /metrics", checkConservation(cl, st, m))
}

func perTenantMisses(st cached.Stats) []int64 {
	out := make([]int64, len(st.PerTenant))
	for t, ts := range st.PerTenant {
		out[t] = ts.Misses
	}
	return out
}

func (r *runner) objective(misses []int64) float64 { return objective(r.costs, misses) }

// verify posts /v1/cache/verify and checks the report against st.
func (r *runner) verify(stage string, srv *server, st cached.Stats) (time.Duration, error) {
	rep, took, err := srv.verify()
	if err != nil {
		return 0, err
	}
	r.tamper("verify", rep)
	return took, r.check(stage+": verify clean, objective live = replay", checkVerify(rep, st, r.objective))
}

// roundResult is what one round measured.
type roundResult struct {
	Setup      float64 `json:"setup_s"`
	Throughput float64 `json:"throughput_rps"`
	P50        float64 `json:"p50_ms"`
	P90        float64 `json:"p90_ms"`
	P99        float64 `json:"p99_ms"`
	CPU        float64 `json:"server_cpu_ns_per_req"`
	RSS        float64 `json:"server_rss_mb"`
	Objective  float64 `json:"objective"`
	Verify     float64 `json:"verify_s"`
}

// endToEnd is the untraced run: Rounds fresh servers, each set up, driven
// through the same fixed measured work and verified; each metric is the
// median over rounds. With a WAL the last round also crashes and recovers.
func (r *runner) endToEnd(res *result) error {
	var rounds []roundResult
	for i := 0; i < r.sp.Rounds; i++ {
		rr, err := r.round(i, i == r.sp.Rounds-1 && r.sp.Fsync != "")
		if err != nil {
			return err
		}
		rounds = append(rounds, rr)
	}
	r.prov.Rounds = rounds

	med := func(f func(roundResult) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, rr := range rounds {
			xs[i] = f(rr)
		}
		return median(xs)
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", med(func(rr roundResult) float64 { return rr.Setup }))
	put("throughput_rps", "req/s", med(func(rr roundResult) float64 { return rr.Throughput }))
	put("p50_ms", "ms", med(func(rr roundResult) float64 { return rr.P50 }))
	put("p90_ms", "ms", med(func(rr roundResult) float64 { return rr.P90 }))
	put("server_cpu_ns_per_req", "ns", med(func(rr roundResult) float64 { return rr.CPU }))
	put("server_rss_mb", "MiB", med(func(rr roundResult) float64 { return rr.RSS }))
	put("objective", "cost", med(func(rr roundResult) float64 { return rr.Objective }))
	put("verify_s", "s", med(func(rr roundResult) float64 { return rr.Verify }))
	return nil
}

// round sets up one server, measures the fixed work, verifies and, with
// crash, runs the crash-and-recover drill before the server is retired.
func (r *runner) round(i int, crash bool) (roundResult, error) {
	var rr roundResult
	name := fmt.Sprintf("round-%d", i)
	defer os.RemoveAll(filepath.Join(r.workdir, name))
	_, d, took, err := r.setUp(name)
	if err != nil {
		return rr, err
	}
	defer r.retire(d)
	srv := d.srv
	st, err := r.reconcile(name+" warm-up", d)
	if err != nil {
		return rr, err
	}
	rr.Setup = took.Seconds()
	rr.Objective = r.objective(perTenantMisses(st))

	// Measured phase: the fixed batches after the warm-up prefix.
	d.next.Store(int64(r.sp.WarmupBatches))
	stop := r.sp.WarmupBatches + r.sp.measuredBatches(r.opt.seconds)
	before := d.total().Requests
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return rr, err
	}
	start := time.Now()
	d.run(stop, start, true)
	wall := time.Since(start)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return rr, err
	}
	if err := d.failed(); err != nil {
		return rr, errCheck{fmt.Errorf("%s measured phase: %w", name, err)}
	}
	acked := float64(d.total().Requests - before)
	rr.Throughput = acked / wall.Seconds()
	rr.CPU = float64((cpu1 - cpu0).Nanoseconds()) / acked
	lat := r.latency(d)
	rr.P50, rr.P90, rr.P99 = lat[0], lat[1], lat[2]
	if rr.RSS, err = peakRSS(srv.pid()); err != nil {
		return rr, err
	}
	if st, err = r.reconcile(name+" measured", d); err != nil {
		return rr, err
	}
	verify, err := r.verify(name, srv, st)
	if err != nil {
		return rr, err
	}
	rr.Verify = verify.Seconds()
	peak, err := peakRSS(srv.pid())
	if err != nil {
		return rr, err
	}
	r.prov.PeakRSSMB = max(r.prov.PeakRSSMB, peak)
	if crash {
		return rr, r.crashDrill(d, name, st)
	}
	return rr, nil
}

// crashDrill SIGKILLs the server, relaunches it with -recover on the same
// WAL, and demands the recovered stats equal the last acknowledged ones and
// a second verify is clean.
func (r *runner) crashDrill(d *loadgen, name string, last cached.Stats) error {
	d.close()
	d.srv.kill()
	start := time.Now()
	srv, err := r.launch(filepath.Join(r.workdir, name), true)
	if err != nil {
		return err
	}
	r.prov.RecoverLoopbackS = time.Since(start).Seconds()
	defer srv.kill()
	st, err := srv.stats()
	if err != nil {
		return err
	}
	if err := r.check("recovered stats = last acknowledged", checkSameStats("recovered vs acknowledged", st, last)); err != nil {
		return err
	}
	_, err = r.verify("recovered", srv, st)
	return err
}

// latency returns the p50, p90 and p99 batch round trip of the samples
// the load generator recorded since the last call, in ms, and records the sample
// count: a p99 rests on at least 10 samples beyond it once there are 1000.
func (r *runner) latency(d *loadgen) [3]float64 {
	var rtts []time.Duration
	for _, c := range d.conns {
		for _, s := range c.samples {
			rtts = append(rtts, s.rtt)
		}
		c.samples = c.samples[:0]
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	r.prov.LatencySamples = append(r.prov.LatencySamples, len(rtts))
	return [3]float64{ms(percentile(rtts, 0.50)), ms(percentile(rtts, 0.90)), ms(percentile(rtts, 0.99))}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

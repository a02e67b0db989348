package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"convexcache/internal/cached"
	"convexcache/internal/core"
	"convexcache/internal/mrclive"
	"convexcache/internal/obs"
	"convexcache/internal/runspec"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// traced is the traced run: a loopback pass with and without client spans,
// then the in-process per-layer ledger on the workload's own batches. No
// end-to-end metric is taken from it.
func (r *runner) traced(res *result) error {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if err := r.tracedLoopback(put); err != nil {
		return err
	}
	return r.layers(put)
}

// tracedLoopback serves one round's measured work in short equal
// slices: untraced and traced (one client.post span per batch) slices
// alternate, and the overhead compares their median rates, so periodic
// server work (checkpoints, segment rotation) that lands in a few slices
// weighs on neither side. A last slice also scrapes /metrics every 64
// batches for the shard mailbox depth. The untraced slices' round trips
// give loopback.p99_ms.
func (r *runner) tracedLoopback(put func(string, string, float64)) error {
	_, d, _, err := r.setUp("traced")
	if err != nil {
		return err
	}
	defer r.retire(d)
	if _, err := r.reconcile("traced warm-up", d); err != nil {
		return err
	}
	const slices = 32
	per := max(1, r.sp.measuredBatches(r.opt.seconds)/(slices+1))
	from := r.sp.WarmupBatches
	var rates [2][]float64
	cpu0 := selfCPU()
	before := d.total().Requests
	for k := 0; k <= slices; k++ {
		traced := k%2 == 1 || k == slices
		for _, c := range d.conns {
			c.spans = nil
			if traced {
				c.spans = r.spans
			}
		}
		if k == slices {
			d.scrapeEvery = 64
		}
		d.next.Store(int64(from))
		start := time.Now()
		d.run(from+per, start, !traced)
		if k < slices {
			rates[k%2] = append(rates[k%2], float64(per)/time.Since(start).Seconds())
		}
		from += per
	}
	cpu := selfCPU() - cpu0
	if err := d.failed(); err != nil {
		return errCheck{fmt.Errorf("traced loopback: %w", err)}
	}
	st, err := r.reconcile("traced loopback", d)
	if err != nil {
		return err
	}
	if _, err := r.verify("traced loopback", d.srv, st); err != nil {
		return err
	}
	if r.prov.PeakRSSMB, err = peakRSS(d.srv.pid()); err != nil {
		return err
	}
	put("client.cpu_ns_per_req", "ns", float64(cpu.Nanoseconds())/float64(d.total().Requests-before))
	put("client.trace_overhead_frac", "ratio", 1-median(rates[1])/median(rates[0]))
	put("cached.mailbox_depth_max", "count", float64(d.mailboxMax.Load()))
	put("loopback.p99_ms", "ms", r.latency(d)[2])
	return nil
}

// selfCPU is this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs reads the cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// pass times fn on batches [0, n): one span per batch under a root span
// for the whole pass. prep, when set, runs untimed before each call. It
// returns the summed batch time and heap allocations.
func (r *runner) pass(name string, n int, prep func(i int), fn func(i int) error) (time.Duration, uint64, error) {
	runtime.GC()
	root := r.spans.add(name+".pass", time.Now(), time.Now(), -1, -1)
	var total time.Duration
	var allocs uint64
	for i := 0; i < n; i++ {
		if prep != nil {
			prep(i)
		}
		a0 := heapAllocs()
		t0 := time.Now()
		err := fn(i)
		t1 := time.Now()
		allocs += heapAllocs() - a0
		if err != nil {
			return 0, 0, fmt.Errorf("%s batch %d: %w", name, i, err)
		}
		r.spans.add(name, t0, t1, root, i)
		total += t1.Sub(t0)
	}
	r.spans.finish(root, time.Now())
	return total, allocs, nil
}

// config kinds for the in-process services.
const (
	kindWorkload  = iota // the workload's own engine
	kindClassic          // -policy alg
	kindPartition        // partition mode, MRC sampler off
	kindPartMRC          // partition mode, MRC sampler on
)

// config builds a cached.Config equivalent to the server's flags.
func (r *runner) config(kind, shards int) (cached.Config, error) {
	sp := r.sp
	if kind == kindWorkload {
		kind = kindClassic
		if sp.Adaptive {
			kind = kindPartMRC
		}
	}
	cfg := cached.Config{K: sp.K, Shards: shards, Tenants: sp.Tenants, Registry: obs.NewRegistry()}
	switch kind {
	case kindClassic:
		sc := runspec.Scenario{Policies: []runspec.PolicySpec{{Name: "alg"}}, Seed: 1}
		compiled, err := sc.CompilePolicies(sp.K, sp.Tenants, r.costs)
		if err != nil {
			return cfg, err
		}
		cfg.NewPolicy = compiled[0].New
	default:
		cfg.Quotas = make([]int, sp.Tenants)
		for t := range cfg.Quotas {
			cfg.Quotas[t] = sp.K / sp.Tenants
			if t < sp.K%sp.Tenants {
				cfg.Quotas[t]++
			}
		}
		cfg.Costs = r.costs
		cfg.ReserveFloor = 1
		if kind == kindPartMRC {
			cfg.MRC = &mrclive.Config{MaxSize: sp.K, Rate: 1, Seed: 1, WindowEpochs: 8, EpochRequests: 4096}
		}
	}
	return cfg, nil
}

// applyPass serves the layer batches through Service.Apply on a fresh
// service and returns it (still open) with the pass's time and allocations.
func (r *runner) applyPass(name string, cfg cached.Config, reqs [][]cached.Request) (*cached.Service, time.Duration, uint64, error) {
	svc, err := cached.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	took, allocs, err := r.pass(name, len(reqs), nil, func(i int) error {
		_, err := svc.Apply(reqs[i])
		return err
	})
	if err != nil {
		svc.Close()
		return nil, 0, 0, err
	}
	return svc, took, allocs, nil
}

// layers replays the workload's first LayerBatches batches through each
// layer's public call and fills the per-layer ledger.
func (r *runner) layers(put func(string, string, float64)) error {
	sp := r.sp
	n := sp.LayerBatches
	reqs, err := r.in.parsed(n, sp.Tenants)
	if err != nil {
		return err
	}
	N := float64(n * sp.Batch)
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / N }

	// Wire parse.
	parse, parseAllocs, err := r.pass("wire.parse", n, nil, func(i int) error {
		_, err := cached.ParseBatch(r.in.batch(i), sp.Tenants)
		return err
	})
	if err != nil {
		return err
	}
	put("wire.parse_ns_per_req", "ns", perReq(parse))
	put("wire.parse_allocs_per_req", "allocs", float64(parseAllocs)/N)

	// Service.Apply with the workload's engine at its shard count and at
	// one shard.
	cfg, err := r.config(kindWorkload, sp.Shards)
	if err != nil {
		return err
	}
	svc, apply, applyAllocs, err := r.applyPass("cached.apply", cfg, reqs)
	if err != nil {
		return err
	}
	st := svc.Stats()
	pages := 0
	for _, sh := range st.Shards {
		pages += sh.Pages
	}
	put("cached.apply_ns_per_req", "ns", perReq(apply))
	put("cached.apply_allocs_per_req", "allocs", float64(applyAllocs)/N)
	put("cached.keys_per_req", "ratio", float64(pages)/N)
	if err := r.verifyLayer(svc, st, reqs, put); err != nil {
		svc.Close()
		return err
	}
	svc.Close()

	cfg1, err := r.config(kindWorkload, 1)
	if err != nil {
		return err
	}
	svc1, apply1, _, err := r.applyPass("cached.apply1", cfg1, reqs)
	if err != nil {
		return err
	}
	ref := svc1.Stats()
	svc1.Close()
	put("cached.apply1_ns_per_req", "ns", perReq(apply1))
	put("cached.shard_speedup", "x", float64(apply1)/float64(apply))
	if sp.Adaptive {
		// core.Open is the classic engine; its reference is a classic
		// single-shard service on the same batches.
		cfgA, err := r.config(kindClassic, 1)
		if err != nil {
			return err
		}
		svcA, _, _, err := r.applyPass("cached.apply1.classic", cfgA, reqs)
		if err != nil {
			return err
		}
		ref = svcA.Stats()
		svcA.Close()
	}
	access, err := r.coreLayer(reqs, ref, put)
	if err != nil {
		return err
	}
	selfApply := apply1
	if !sp.Adaptive {
		selfApply -= access
	}
	put("cached.self_ns_per_req", "ns", perReq(selfApply))

	// The HTTP handler in-process, with an in-memory recorder.
	if err := r.handlerLayer(reqs, parse, apply, put); err != nil {
		return err
	}

	// Partition mode with the MRC sampler off and on.
	part, err := r.partitionLayer(reqs, put)
	if err != nil {
		return err
	}
	put("cached.partition_apply_ns_per_req", "ns", perReq(part))

	// The WAL under each fsync policy, then recovery from the interval one.
	return r.walLayer(reqs, apply, put)
}

// coreLayer steps core.Open directly at total k on page ids interned here
// in first-appearance order, and checks its counts against ref, the stats
// of a single-shard classic service on the same requests.
func (r *runner) coreLayer(reqs [][]cached.Request, ref cached.Stats, put func(string, string, float64)) (time.Duration, error) {
	sp := r.sp
	pages := intern(reqs, sp.Tenants)
	o, err := core.NewOpen(core.Options{Costs: r.costs}, sp.Tenants, sp.K, 1, 0)
	if err != nil {
		return 0, err
	}
	hits := make([]int64, sp.Tenants)
	evictions := make([]int64, sp.Tenants)
	took, _, err := r.pass("core.access", len(reqs), nil, func(i int) error {
		for j, p := range pages[i] {
			t := reqs[i][j].Tenant
			hit, vo, err := o.Access(p, t)
			if err != nil {
				return err
			}
			if hit {
				hits[t]++
			} else if vo >= 0 {
				evictions[vo]++
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var h, e int64
	for t := range hits {
		h += hits[t]
		e += evictions[t]
	}
	r.tamper("core", &h)
	var cerr error
	for t, ts := range ref.PerTenant {
		if ts.Hits != hits[t] || ts.Evictions != evictions[t] {
			cerr = fmt.Errorf("tenant %d: core.Open %d hits / %d evictions, service %d / %d",
				t, hits[t], evictions[t], ts.Hits, ts.Evictions)
			break
		}
	}
	if cerr == nil && (h != ref.Hits || e != ref.Evictions) {
		cerr = fmt.Errorf("core.Open %d hits / %d evictions, service %d / %d", h, e, ref.Hits, ref.Evictions)
	}
	if err := r.check("core counts = service counts", cerr); err != nil {
		return 0, err
	}
	N := float64(len(reqs) * sp.Batch)
	put("core.access_ns_per_req", "ns", float64(took.Nanoseconds())/N)
	put("core.hit_ratio", "ratio", float64(h)/N)
	put("core.evictions_per_req", "ratio", float64(e)/N)
	return took, nil
}

// intern numbers the tenant-scoped keys of reqs in first-appearance order,
// as a single-shard service does.
func intern(reqs [][]cached.Request, tenants int) [][]trace.PageID {
	ids := make([]map[string]trace.PageID, tenants)
	for t := range ids {
		ids[t] = map[string]trace.PageID{}
	}
	pages := make([][]trace.PageID, len(reqs))
	next := trace.PageID(0)
	for i, batch := range reqs {
		pages[i] = make([]trace.PageID, len(batch))
		for j, q := range batch {
			p, ok := ids[q.Tenant][string(q.Key)]
			if !ok {
				p = next
				next++
				ids[q.Tenant][string(q.Key)] = p
			}
			pages[i][j] = p
		}
	}
	return pages
}

// verifyLayer times Service.Verify on svc and a plain sim replay of the
// same stream.
func (r *runner) verifyLayer(svc *cached.Service, st cached.Stats, reqs [][]cached.Request, put func(string, string, float64)) error {
	sp := r.sp
	start := time.Now()
	rep, err := svc.Verify(context.Background())
	end := time.Now()
	if err != nil {
		return err
	}
	r.spans.add("cached.verify", start, end, -1, -1)
	r.tamper("verify", rep)
	if err := r.check("in-process verify clean", checkVerify(rep, st, r.objective)); err != nil {
		return err
	}
	b := trace.NewBuilder()
	for i, p := range intern(reqs, sp.Tenants) {
		for j, q := range reqs[i] {
			b.Add(q.Tenant, p[j])
		}
	}
	tr, err := b.Build()
	if err != nil {
		return err
	}
	cfg, err := r.config(kindClassic, 1)
	if err != nil {
		return err
	}
	runtime.GC()
	rs := time.Now()
	if _, err := sim.RunContext(context.Background(), tr, cfg.NewPolicy(), sim.Config{K: sp.K}); err != nil {
		return err
	}
	re := time.Now()
	r.spans.add("sim.replay", rs, re, -1, -1)
	replay := re.Sub(rs)
	put("verify.s", "s", end.Sub(start).Seconds())
	put("sim.replay_ns_per_req", "ns", float64(replay.Nanoseconds())/float64(tr.Len()))
	put("verify.self_s", "s", (end.Sub(start) - replay).Seconds())
	return nil
}

// handlerLayer serves the batches through the full HTTP handler with an
// in-memory recorder. Self time is handler − parse − apply.
func (r *runner) handlerLayer(reqs [][]cached.Request, parse, apply time.Duration, put func(string, string, float64)) error {
	sp := r.sp
	cfg, err := r.config(kindWorkload, sp.Shards)
	if err != nil {
		return err
	}
	svc, err := cached.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	h := svc.Handler(cached.HTTPConfig{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	var (
		req       *http.Request
		rec       *httptest.ResponseRecorder
		respBytes int
	)
	took, allocs, err := r.pass("http.handler", len(reqs), func(i int) {
		req = httptest.NewRequest(http.MethodPost, "/v1/cache", bytes.NewReader(r.in.batch(i)))
		rec = httptest.NewRecorder()
	}, func(i int) error {
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, clip(rec.Body.Bytes()))
		}
		respBytes += rec.Body.Len()
		return nil
	})
	if err != nil {
		return err
	}
	N := float64(len(reqs) * sp.Batch)
	put("http.handler_ns_per_req", "ns", float64(took.Nanoseconds())/N)
	put("http.handler_allocs_per_req", "allocs", float64(allocs)/N)
	put("http.self_ns_per_req", "ns", float64((took-parse-apply).Nanoseconds())/N)
	put("http.resp_bytes_per_req", "B", float64(respBytes)/N)
	return nil
}

// partitionLayer runs partition mode with the sampler off and on, then
// times one MRC merge and one controller step. Returns the sampler-off
// pass time.
func (r *runner) partitionLayer(reqs [][]cached.Request, put func(string, string, float64)) (time.Duration, error) {
	sp := r.sp
	N := float64(len(reqs) * sp.Batch)
	cfgOff, err := r.config(kindPartition, sp.Shards)
	if err != nil {
		return 0, err
	}
	svcOff, off, _, err := r.applyPass("cached.partition_apply", cfgOff, reqs)
	if err != nil {
		return 0, err
	}
	svcOff.Close()
	cfgOn, err := r.config(kindPartMRC, sp.Shards)
	if err != nil {
		return 0, err
	}
	svc, on, _, err := r.applyPass("mrclive.partition_apply", cfgOn, reqs)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	put("mrclive.sampler_ns_per_req", "ns", float64((on-off).Nanoseconds())/N)

	var merges []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := svc.MRCLive(); err != nil {
			return 0, err
		}
		t1 := time.Now()
		r.spans.add("mrclive.merge", t0, t1, -1, -1)
		merges = append(merges, ms(t1.Sub(t0)))
	}
	put("mrclive.merge_ms", "ms", median(merges))
	before := svc.Quotas()
	t0 := time.Now()
	after, _, err := svc.RebalanceOnce()
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	r.spans.add("mrclive.rebalance", t0, t1, -1, -1)
	moved := 0
	for t := range after {
		moved += max(after[t]-before[t], before[t]-after[t])
	}
	put("mrclive.rebalance_ms", "ms", ms(t1.Sub(t0)))
	put("mrclive.pages_moved", "pages", float64(moved))
	return off, nil
}

// walLayer serves the batches with a WAL under each fsync policy. The
// interval run is then crashed and recovered in-process.
func (r *runner) walLayer(reqs [][]cached.Request, apply time.Duration, put func(string, string, float64)) error {
	sp := r.sp
	N := float64(len(reqs) * sp.Batch)
	for _, policy := range []cached.FsyncPolicy{cached.FsyncOff, cached.FsyncAlways, cached.FsyncInterval} {
		dir := filepath.Join(r.workdir, "wal-"+string(policy))
		cfg, err := r.config(kindWorkload, sp.Shards)
		if err != nil {
			return err
		}
		cfg.WAL = &cached.WALConfig{Dir: dir, Fsync: policy, SegmentBytes: int64(sp.SegmentBytes), CheckpointEvery: sp.CheckpointEvery}
		svc, took, _, err := r.applyPass("wal.apply."+string(policy), cfg, reqs)
		if err != nil {
			return err
		}
		put("wal.apply_ns_per_req."+string(policy), "ns", float64(took.Nanoseconds())/N)
		if policy != cached.FsyncInterval {
			svc.Close()
			os.RemoveAll(dir)
			continue
		}
		put("wal.self_ns_per_req", "ns", float64((took-apply).Nanoseconds())/N)
		put("wal.checkpoints", "count", float64(cfg.Registry.Counter("cached_checkpoints_total").Value()))
		last := svc.Stats()
		svc.Crash()
		var bytesOnDisk int64
		segments := 0
		err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			bytesOnDisk += info.Size()
			if strings.HasSuffix(path, ".seg") {
				segments++
			}
			return nil
		})
		if err != nil {
			return err
		}
		put("wal.bytes_per_req", "B", float64(bytesOnDisk)/N)
		put("wal.segments", "count", float64(segments))

		cfg.WAL.Recover = true
		cfg.Registry = obs.NewRegistry()
		t0 := time.Now()
		rec, err := cached.New(cfg)
		t1 := time.Now()
		if err != nil {
			return err
		}
		r.spans.add("recover", t0, t1, -1, -1)
		got := rec.Stats()
		replayed := rec.Recovery().Replayed
		rec.Close()
		if err := r.check("in-process recovery = pre-crash stats", checkSameStats("recovered vs pre-crash", got, last)); err != nil {
			return err
		}
		put("recover.s", "s", t1.Sub(t0).Seconds())
		put("recover.replayed", "count", float64(replayed))
		os.RemoveAll(dir)
	}
	return nil
}

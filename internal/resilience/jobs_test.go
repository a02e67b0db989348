// External test package: these tests pull in the internal/check oracles,
// which since PR 7 transitively import internal/cached and hence
// internal/resilience itself — legal only from outside the package.
package resilience_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"convexcache/internal/check"
	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/obs"
	"convexcache/internal/resilience"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// testTrace builds a deterministic multi-tenant trace long enough to cross
// several checkpoint and cancellation-check boundaries.
func testTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	b := trace.NewBuilder()
	for i := 0; i < n; i++ {
		tn := trace.Tenant(rng.Intn(3))
		// Per-tenant page universe with a skewed-ish reuse pattern.
		p := trace.PageID(int64(tn)*1000 + int64(rng.Intn(200)))
		b.Add(tn, p)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testOptions() core.Options {
	return core.Options{Costs: []costfn.Func{
		costfn.Linear{W: 1}, costfn.Linear{W: 2}, costfn.Linear{W: 0.5},
	}}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestRunCheckpointedMatchesSimRun(t *testing.T) {
	tr := testTrace(t, 20_000)
	const k = 64
	ref, err := sim.Run(tr, core.NewFast(testOptions()), sim.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resilience.RunCheckpointed(context.Background(), tr, core.NewFast(testOptions()), k, 1000, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("uninterrupted RunCheckpointed diverged from sim.Run:\nref %+v\ngot %+v", ref, got)
	}
}

func TestRunCheckpointedResumeBitIdentical(t *testing.T) {
	tr := testTrace(t, 20_000)
	const k, every = 64, 1000

	// The snapshot machinery itself must be sound on this workload — the
	// internal/check differential oracle is the ground truth for that.
	if err := check.SnapshotRoundTrip(tr, k, testOptions(), []float64{0.25, 0.5, 0.75}); err != nil {
		t.Fatalf("snapshot oracle rejects workload: %v", err)
	}

	refFast := core.NewFast(testOptions())
	ref, err := sim.Run(tr, refFast, sim.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	refSnap, err := json.Marshal(refFast.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once a mid-trace checkpoint has been taken.
	// The next cancellation check (every sim.CheckEverySteps steps) aborts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cp *resilience.Checkpoint
	_, err = resilience.RunCheckpointed(ctx, tr, core.NewFast(testOptions()), k, every, nil,
		func(c resilience.Checkpoint) {
			if c.Step >= 5000 && cp == nil {
				cp = &c
				cancel()
			}
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	if cp == nil || cp.Step >= tr.Len() {
		t.Fatalf("no usable mid-trace checkpoint (cp = %+v)", cp)
	}

	// Resume from the checkpoint with a fresh policy instance, as a process
	// restart would.
	resumedFast := core.NewFast(testOptions())
	got, err := resilience.RunCheckpointed(context.Background(), tr, resumedFast, k, every, cp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("resumed result diverged from uninterrupted run:\nref %+v\ngot %+v", ref, got)
	}
	gotSnap, err := json.Marshal(resumedFast.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(refSnap) != string(gotSnap) {
		t.Fatal("final policy snapshots differ between resumed and uninterrupted runs")
	}
}

func TestJobsLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	js := resilience.NewJobs(resilience.JobsConfig{Workers: 2, MaxJobs: 8, CheckpointEvery: 1000}, reg)
	defer js.Close()
	tr := testTrace(t, 20_000)
	const k = 64

	ref, err := sim.Run(tr, core.NewFast(testOptions()), sim.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}

	st, err := js.Submit(resilience.JobSpec{
		Label: "alg", Trace: tr, K: k,
		NewFast: func() *core.Fast { return core.NewFast(testOptions()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		s, err := js.Status(st.ID)
		return err == nil && s.State == resilience.JobDone
	})
	res, _, ok, err := js.Result(st.ID)
	if err != nil || !ok {
		t.Fatalf("Result: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatalf("job result diverged:\nref %+v\ngot %+v", ref, res)
	}
	if got := reg.Counter(`resilience_jobs_finished_total{state="done"}`).Value(); got != 1 {
		t.Errorf("finished counter = %d, want 1", got)
	}
}

// TestJobsFinishedCounterBeforeDone pins the publication order of finish:
// by the time Status reports a job done, the finished counter must already
// count it. The test polls Status without sleeping and reads the counter in
// the same iteration that first sees the job done, over many tiny jobs, so
// a counter bumped after the state flips shows up as a lag.
func TestJobsFinishedCounterBeforeDone(t *testing.T) {
	reg := obs.NewRegistry()
	js := resilience.NewJobs(resilience.JobsConfig{Workers: 1, MaxJobs: 8}, reg)
	defer js.Close()
	tr := testTrace(t, 64)
	finished := reg.Counter(`resilience_jobs_finished_total{state="done"}`)
	for i := int64(1); i <= 200; i++ {
		st, err := js.Submit(resilience.JobSpec{
			Label: "alg", Trace: tr, K: 8,
			NewFast: func() *core.Fast { return core.NewFast(testOptions()) },
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			s, err := js.Status(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if s.State == resilience.JobDone {
				if got := finished.Value(); got != i {
					t.Fatalf("job %d seen done with the finished counter at %d", i, got)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never finished", i)
			}
		}
	}
}

// gatedPolicy blocks its first insert until the gate closes, so tests can
// hold a worker busy deterministically.
type gatedPolicy struct {
	gate    chan struct{}
	blocked chan struct{}
	once    bool
}

func (g *gatedPolicy) Name() string                    { return "gated" }
func (g *gatedPolicy) OnHit(step int, r trace.Request) {}
func (g *gatedPolicy) OnInsert(step int, r trace.Request) {
	if !g.once {
		g.once = true
		close(g.blocked)
		<-g.gate
	}
}
func (g *gatedPolicy) Victim(step int, r trace.Request) trace.PageID { return r.Page - 1 }
func (g *gatedPolicy) OnEvict(step int, p trace.PageID)              {}
func (g *gatedPolicy) Reset()                                        {}

func TestJobsCancelQueuedAndResume(t *testing.T) {
	js := resilience.NewJobs(resilience.JobsConfig{Workers: 1, MaxJobs: 8}, nil)
	defer js.Close()
	tr := testTrace(t, 64)

	gate := make(chan struct{})
	blocked := make(chan struct{})
	// K = trace length: the cache never fills, so the gated policy's Victim
	// is never consulted and the job completes cleanly.
	blocker, err := js.Submit(resilience.JobSpec{
		Label: "gated", Trace: tr, K: 64,
		NewPolicy: func() sim.Policy { return &gatedPolicy{gate: gate, blocked: blocked} },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-blocked // the single worker is now busy

	queued, err := js.Submit(resilience.JobSpec{
		Label: "lru-ish", Trace: tr, K: 64,
		NewFast: func() *core.Fast { return core.NewFast(core.Options{}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := js.Cancel(queued.ID); err != nil || st.State != resilience.JobCancelled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	if _, err := js.Resume(queued.ID); err != nil {
		t.Fatalf("resume: %v", err)
	}
	close(gate)
	waitFor(t, func() bool {
		s, err := js.Status(queued.ID)
		return err == nil && s.State == resilience.JobDone
	})
	s, _ := js.Status(queued.ID)
	if s.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", s.Resumes)
	}
	waitFor(t, func() bool {
		s, err := js.Status(blocker.ID)
		return err == nil && s.State == resilience.JobDone
	})
}

// panicPolicy crashes mid-replay to prove job isolation.
type panicPolicy struct{}

func (panicPolicy) Name() string                                  { return "panic" }
func (panicPolicy) OnHit(step int, r trace.Request)               {}
func (panicPolicy) OnInsert(step int, r trace.Request)            { panic("injected job panic") }
func (panicPolicy) Victim(step int, r trace.Request) trace.PageID { return -1 }
func (panicPolicy) OnEvict(step int, p trace.PageID)              {}
func (panicPolicy) Reset()                                        {}

func TestJobsPanicBecomesFailedJob(t *testing.T) {
	reg := obs.NewRegistry()
	js := resilience.NewJobs(resilience.JobsConfig{Workers: 1, MaxJobs: 4}, reg)
	defer js.Close()
	tr := testTrace(t, 64)

	st, err := js.Submit(resilience.JobSpec{
		Label: "panic", Trace: tr, K: 8,
		NewPolicy: func() sim.Policy { return panicPolicy{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		s, err := js.Status(st.ID)
		return err == nil && s.State == resilience.JobFailed
	})
	s, _ := js.Status(st.ID)
	if !strings.Contains(s.Error, "job crashed") {
		t.Errorf("error = %q, want crash report", s.Error)
	}
	if got := reg.Counter("resilience_job_panics_total").Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}

	// The worker must survive the crash and serve the next job.
	ok, err := js.Submit(resilience.JobSpec{
		Label: "alg", Trace: tr, K: 8,
		NewFast: func() *core.Fast { return core.NewFast(core.Options{}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		s, err := js.Status(ok.ID)
		return err == nil && s.State == resilience.JobDone
	})
}

func TestJobsStoreBoundSheds(t *testing.T) {
	js := resilience.NewJobs(resilience.JobsConfig{Workers: 1, MaxJobs: 2}, nil)
	defer js.Close()
	tr := testTrace(t, 64)

	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	mk := func() (resilience.JobStatus, error) {
		blocked := make(chan struct{})
		return js.Submit(resilience.JobSpec{
			Label: "gated", Trace: tr, K: 64,
			NewPolicy: func() sim.Policy { return &gatedPolicy{gate: gate, blocked: blocked} },
		})
	}
	if _, err := mk(); err != nil {
		t.Fatal(err)
	}
	if _, err := mk(); err != nil {
		t.Fatal(err)
	}
	_, err := mk()
	var shed *resilience.Shed
	if !errors.As(err, &shed) || shed.Reason != resilience.ReasonJobStoreFull {
		t.Fatalf("err = %v, want job_store_full shed", err)
	}
	close(gate)
	// Once jobs finish, their slots become evictable again.
	waitFor(t, func() bool {
		_, err := mk()
		return err == nil
	})
}

package cached

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

// benchRequests builds a zipf-ish multi-tenant request stream in wire shape.
func benchRequests(b *testing.B, tenants, pages, length int) []Request {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	reqs := make([]Request, length)
	// One arena backs every key so the request set is a handful of heap
	// objects, not `length` of them — the benchmark should weigh the
	// service, not the collector marking its input.
	arena := make([]byte, 0, 8*length)
	for i := range reqs {
		t := trace.Tenant(rng.Intn(tenants))
		// Squared draw concentrates mass on low pages, cheap zipf stand-in.
		p := rng.Intn(pages)
		p = (p * p) / pages
		base := len(arena)
		arena = fmt.Appendf(arena, "p%d", p)
		reqs[i] = Request{Op: OpGet, Tenant: t, Key: arena[base:len(arena):len(arena)]}
	}
	return reqs
}

func benchService(b *testing.B, mapStep bool) func() *Service {
	b.Helper()
	costs := []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 2},
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 4},
	}
	return func() *Service {
		svc, err := New(Config{
			K: 4096, Shards: 1, Tenants: 4, MapStep: mapStep,
			NewPolicy: func() sim.Policy { return core.NewFast(core.Options{Costs: costs}) },
		})
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
}

func benchApply(b *testing.B, mapStep bool) {
	reqs := benchRequests(b, 4, 4096, 200_000)
	mk := benchService(b, mapStep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := mk()
		for lo := 0; lo < len(reqs); lo += 512 {
			hi := min(lo+512, len(reqs))
			if _, err := svc.Apply(reqs[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		svc.Close()
	}
	b.SetBytes(int64(len(reqs)))
}

// BenchmarkApplyDense is the live fast path: single shard on the dense core.
func BenchmarkApplyDense(b *testing.B) { benchApply(b, false) }

// BenchmarkApplyMapStep is the retained map-mode reference step.
func BenchmarkApplyMapStep(b *testing.B) { benchApply(b, true) }

// hotReadBodies builds n wire bodies of batch GETs in the end-to-end
// benchmark's hot-read shape: 4 tenants, each Zipf(0.9) over 4096 keys
// named "k<offset>".
func hotReadBodies(b *testing.B, n, batch int) [][]byte {
	b.Helper()
	const tenants = 4
	keys := make([]workload.Stream, tenants)
	for t := range keys {
		s, _, err := workload.ParseStream("zipf:4096,0.9", int64(t+1))
		if err != nil {
			b.Fatal(err)
		}
		keys[t] = s
	}
	pick := rand.New(rand.NewSource(7))
	bodies := make([][]byte, n)
	for i := range bodies {
		var buf []byte
		for j := 0; j < batch; j++ {
			t := pick.Intn(tenants)
			buf = append(buf, "GET "...)
			buf = strconv.AppendInt(buf, int64(t), 10)
			buf = append(buf, " k"...)
			buf = strconv.AppendInt(buf, keys[t].Next(), 10)
			buf = append(buf, '\n')
		}
		bodies[i] = buf
	}
	return bodies
}

// benchBody is a reusable request body, so the benchmark loop builds no
// request per iteration.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchWriter is a ResponseWriter that keeps only the status.
type benchWriter struct {
	h      http.Header
	status int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(code int)        { w.status = code }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkHandler is the in-process front end on hot-read-shaped traffic:
// Service.Handler(...).ServeHTTP on 1024-request wire bodies over 2 shards
// with k = 32768, warmed so every request hits. It mirrors cmd/bench's
// live/handler/n=2/k=32768 row; one op is one body.
func BenchmarkHandler(b *testing.B) {
	const batch = 1024
	bodies := hotReadBodies(b, 64, batch)
	costs := []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 3},
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 3},
	}
	svc, err := New(Config{
		K: 32768, Shards: 2, Tenants: 4,
		NewPolicy: func() sim.Policy { return core.NewFast(core.Options{Costs: costs}) },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler(quietHTTP())
	body := &benchBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/cache", nil)
	req.Body = body
	w := &benchWriter{h: http.Header{}}
	serve := func(i int) {
		p := bodies[i%len(bodies)]
		body.Reset(p)
		req.ContentLength = int64(len(p))
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	for i := range bodies {
		serve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkAppendBatch is the wire parse alone on the same hot-read bodies,
// into one reused request slice; one op is one body.
func BenchmarkAppendBatch(b *testing.B) {
	const batch = 1024
	bodies := hotReadBodies(b, 64, batch)
	var reqs []Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if reqs, err = AppendBatch(reqs[:0], bodies[i%len(bodies)], 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkVerify is Verify on a hot-read-shaped log: 2 shards, k = 32768,
// 4 tenants, 2^20 logged requests built from the hot-read bodies. One op is
// one Verify call; ns/req is per logged request. It mirrors cmd/bench's
// live/verify/n=2/k=32768 row.
func BenchmarkVerify(b *testing.B) {
	const batch, passes = 1024, 16
	bodies := hotReadBodies(b, 64, batch)
	costs := []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 3},
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 3},
	}
	svc, err := New(Config{
		K: 32768, Shards: 2, Tenants: 4,
		NewPolicy: func() sim.Policy { return core.NewFast(core.Options{Costs: costs}) },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	var reqs []Request
	for p := 0; p < passes; p++ {
		for _, body := range bodies {
			if reqs, err = AppendBatch(reqs[:0], body, 4); err != nil {
				b.Fatal(err)
			}
			if _, err := svc.Apply(reqs); err != nil {
				b.Fatal(err)
			}
		}
	}
	logged := passes * len(bodies) * batch
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := svc.Verify(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean || rep.Requests != logged {
			b.Fatalf("verify: clean=%v requests=%d, want %d", rep.Clean, rep.Requests, logged)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*logged), "ns/req")
}

// BenchmarkCheckpoint is one shard checkpoint write on a shard with a full
// cache and a long history: one shard, k = 16384, 4 tenants, 2^18 distinct
// keys interned (16x k). One op is one writeCheckpoint — encode, frame,
// write, rename, prune — with fsync off, so the number is the checkpoint's
// own CPU and allocation cost, not the disk's.
func BenchmarkCheckpoint(b *testing.B) {
	const k, tenants, keys, batch = 16384, 4, 1 << 18, 1024
	costs := []costfn.Func{
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 3},
		costfn.Monomial{C: 1, Beta: 2}, costfn.Linear{W: 3},
	}
	svc, err := New(Config{
		K: k, Shards: 1, Tenants: tenants,
		NewPolicy: func() sim.Policy { return core.NewFast(core.Options{Costs: costs}) },
		WAL:       &WALConfig{Dir: b.TempDir(), Fsync: FsyncOff, SegmentBytes: 64 << 20, CheckpointEvery: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]Request, batch)
	for lo := 0; lo < keys; lo += batch {
		for i := range reqs {
			reqs[i] = Request{Op: OpPut, Tenant: trace.Tenant((lo + i) % tenants), Key: fmt.Appendf(nil, "key-%d", lo+i)}
		}
		if _, err := svc.Apply(reqs); err != nil {
			b.Fatal(err)
		}
	}
	// Close stops the shard loop, so the benchmark goroutine owns the shard.
	svc.Close()
	sh := svc.shards[0]
	if sh.pages != keys || sh.occupancy() != k {
		b.Fatalf("shard holds %d pages (%d resident), want %d (%d)", sh.pages, sh.occupancy(), keys, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sh.writeCheckpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

package mrclive

import (
	"fmt"
	"math/rand"
	"testing"

	"convexcache/internal/trace"
	"convexcache/internal/workload"
)

// shiftShard is the request stream shard 0 of 2 sees in the end-to-end
// adaptive-shift shape: 8 tenants, each a hot set of 512–4096 pages in a
// 32768-page universe that shifts every 12000–26000 requests, tenants drawn
// uniformly. Keys of even offset route to shard 0, and the shard interns
// each (tenant, key) on first appearance to 0, 2, 4, …
func shiftShard(b *testing.B, length int) ([]trace.Tenant, []trace.PageID) {
	b.Helper()
	const tenants = 8
	streams := make([]workload.Stream, tenants)
	for t := range streams {
		hot := []int{512, 1024, 2048, 4096}[t%4]
		s, _, err := workload.ParseStream(fmt.Sprintf("hotset:32768,%d,0.9,%d", hot, 12000+2000*t), int64(t+1))
		if err != nil {
			b.Fatal(err)
		}
		streams[t] = s
	}
	rng := rand.New(rand.NewSource(11))
	ids := make(map[[2]int64]trace.PageID)
	ts := make([]trace.Tenant, 0, length)
	ps := make([]trace.PageID, 0, length)
	for len(ps) < length {
		t := rng.Intn(tenants)
		key := streams[t].Next()
		if key%2 != 0 {
			continue
		}
		id, ok := ids[[2]int64{int64(t), key}]
		if !ok {
			id = trace.PageID(2 * len(ids))
			ids[[2]int64{int64(t), key}] = id
		}
		ts = append(ts, trace.Tenant(t))
		ps = append(ps, id)
	}
	return ts, ps
}

// BenchmarkObserve is the sampler's per-request cost in the serving
// configuration of the adaptive-shift workload (k = 16384 tracked sizes,
// rate 1, 8 × 4096-request epochs, Scale 2), one op per request.
func BenchmarkObserve(b *testing.B) {
	ts, ps := shiftShard(b, 1<<20)
	s, err := NewSampler(Config{Tenants: 8, MaxSize: 16384, Rate: 1, Seed: 1,
		WindowEpochs: 8, EpochRequests: 4096, Scale: 2})
	if err != nil {
		b.Fatal(err)
	}
	// One pass first, so the table and stacks are at steady-state size.
	for i := range ps {
		if err := s.Observe(ts[i], ps[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(ps) - 1)
		if err := s.Observe(ts[j], ps[j]); err != nil {
			b.Fatal(err)
		}
	}
}

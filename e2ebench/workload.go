package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"convexcache/internal/cached"
	"convexcache/internal/costfn"
	"convexcache/internal/runspec"
	"convexcache/internal/workload"
)

// spec is one benchmark workload: the server configuration, the traffic mix
// and the fixed request counts of each phase. Everything a run sends is a
// function of the spec and the seed.
type spec struct {
	Name    string   `json:"name"`
	Tenants int      `json:"tenants"`
	Shards  int      `json:"shards"`
	K       int      `json:"k"`
	Batch   int      `json:"batch"`
	Conns   int      `json:"conns"`
	PutFrac float64  `json:"put_frac"`
	Streams []string `json:"streams"` // one workload.ParseStream spec per tenant
	Costs   []string `json:"costs"`   // one costfn spec per tenant
	// Adaptive selects partition mode (quotaLRU per tenant + live MRC
	// sampler + capacity controller) instead of -policy alg.
	Adaptive bool `json:"adaptive"`
	// WAL runs the server with a write-ahead log at the given fsync policy
	// ("" = no WAL).
	Fsync string `json:"fsync,omitempty"`
	// PoolBatches distinct batches are generated and cycled through.
	PoolBatches int `json:"pool_batches"`
	// WarmupBatches is the fixed prefix every set-up serves; objective is
	// read at its end.
	WarmupBatches int `json:"warmup_batches"`
	// RebalanceEvery posts /v1/cache/rebalance after every that many
	// batches (adaptive only; 0 = never). Counted in batches, never in time.
	RebalanceEvery int `json:"rebalance_every,omitempty"`
	// LayerBatches is how many batches each in-process layer call of the
	// traced run replays.
	LayerBatches int `json:"layer_batches"`
	// Rounds is how many fresh servers a run sets up, measures and
	// verifies; every end-to-end metric is the median over rounds.
	Rounds int `json:"rounds"`
	// BatchesPerSecond is the nominal rate that converts --seconds into
	// measured work: each round sends seconds/Rounds*BatchesPerSecond
	// batches after the warm-up, so a faster server does the same work
	// in less time instead of growing its log, its memory and its verify.
	BatchesPerSecond float64 `json:"batches_per_second"`
	// SegmentBytes and CheckpointEvery size the WAL so that one round
	// rotates several segments and writes several checkpoints per shard.
	SegmentBytes    int `json:"segment_bytes,omitempty"`
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// specs returns the benchmark's workloads by name.
func specs() map[string]spec {
	hotCosts := make([]string, 4)
	for t := range hotCosts {
		hotCosts[t] = []string{"monomial:1,2", "linear:3"}[t%2]
	}
	hotStreams := make([]string, 4)
	for t := range hotStreams {
		hotStreams[t] = "zipf:4096,0.9"
	}

	churnStreams := make([]string, 32)
	churnCosts := make([]string, 32)
	for t := range churnStreams {
		churnStreams[t] = []string{"zipf:65536,0.8", "uniform:65536", "hotset:65536,4096,0.8,200000"}[t%3]
		churnCosts[t] = []string{"monomial:1,2", "linear:2", "monomial:0.5,3", "linear:1"}[t%4]
	}

	shiftStreams := make([]string, 8)
	shiftCosts := make([]string, 8)
	for t := range shiftStreams {
		hot := []int{512, 1024, 2048, 4096}[t%4]
		shiftStreams[t] = fmt.Sprintf("hotset:32768,%d,0.9,%d", hot, 12000+2000*t)
		shiftCosts[t] = []string{"monomial:1,2", "linear:4", "monomial:2,2", "monomial:1,3"}[t%4]
	}

	return map[string]spec{
		"hot-read": {
			Name: "hot-read", Tenants: 4, Shards: 2, K: 32768, Batch: 1024, Conns: 2,
			Streams: hotStreams, Costs: hotCosts,
			// The warm-up is one full pass over the pool, so every key the
			// measured phase sends is already resident: all hits.
			PoolBatches: 256, WarmupBatches: 256, LayerBatches: 1024,
			Rounds: 8, BatchesPerSecond: 2200,
		},
		"churn-wal": {
			Name: "churn-wal", Tenants: 32, Shards: 2, K: 16384, Batch: 256, Conns: 2,
			PutFrac: 0.5, Streams: churnStreams, Costs: churnCosts, Fsync: "interval",
			PoolBatches: 8192, WarmupBatches: 1024, LayerBatches: 4096,
			Rounds: 5, BatchesPerSecond: 1400, SegmentBytes: 2 << 20, CheckpointEvery: 1 << 17,
		},
		"adaptive-shift": {
			Name: "adaptive-shift", Tenants: 8, Shards: 2, K: 16384, Batch: 512, Conns: 2,
			Streams: shiftStreams, Costs: shiftCosts, Adaptive: true,
			PoolBatches: 4096, WarmupBatches: 1024, RebalanceEvery: 256, LayerBatches: 2048,
			Rounds: 8, BatchesPerSecond: 1700,
		},
	}
}

// subSeed derives an independent seed for one named part of the input from
// the run seed, in the manner of a partitioned RNG: each (part, index) pair
// owns its stream, so changing one tenant's stream leaves every other
// tenant's draws untouched.
func subSeed(seed int64, part string, index int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(index))
	h.Write(b[:])
	h.Write([]byte(part))
	return int64(h.Sum64() >> 1)
}

// input is the generated traffic of one run: a pool of wire-format batches
// of Batch requests each.
type input struct {
	batches [][]byte
	tenants []uint8 // tenant of request j of pool batch b at b*Batch+j
}

// generate builds the pool of batches for sp from seed. Tenant picks come
// from one stream, and each tenant's keys and op mix from streams of its
// own.
func generate(sp spec, seed int64) (*input, error) {
	keys := make([]workload.Stream, sp.Tenants)
	ops := make([]*rand.Rand, sp.Tenants)
	for t := range keys {
		s, _, err := workload.ParseStream(sp.Streams[t], subSeed(seed, "keys", t))
		if err != nil {
			return nil, err
		}
		keys[t] = s
		ops[t] = rand.New(rand.NewSource(subSeed(seed, "ops", t)))
	}
	pick := rand.New(rand.NewSource(subSeed(seed, "pick", 0)))
	in := &input{
		batches: make([][]byte, sp.PoolBatches),
		tenants: make([]uint8, sp.PoolBatches*sp.Batch),
	}
	for b := range in.batches {
		var buf []byte
		for i := 0; i < sp.Batch; i++ {
			t := pick.Intn(sp.Tenants)
			in.tenants[b*sp.Batch+i] = uint8(t)
			if ops[t].Float64() < sp.PutFrac {
				buf = append(buf, "PUT "...)
			} else {
				buf = append(buf, "GET "...)
			}
			buf = strconv.AppendInt(buf, int64(t), 10)
			buf = append(buf, " k"...)
			buf = strconv.AppendInt(buf, keys[t].Next(), 10)
			buf = append(buf, '\n')
		}
		in.batches[b] = buf
	}
	return in, nil
}

// measuredBatches is the fixed work of one round's measured phase.
func (sp spec) measuredBatches(seconds float64) int {
	return max(1, int(math.Round(seconds/float64(sp.Rounds)*sp.BatchesPerSecond)))
}

// batch returns the i-th batch of the unbounded stream: the pool, cycled.
func (in *input) batch(i int) []byte { return in.batches[i%len(in.batches)] }

// parsed returns the first n batches of the stream as request slices.
func (in *input) parsed(n, tenants int) ([][]cached.Request, error) {
	out := make([][]cached.Request, n)
	for i := range out {
		reqs, err := cached.ParseBatch(in.batch(i), tenants)
		if err != nil {
			return nil, err
		}
		out[i] = reqs
	}
	return out, nil
}

// objective is the paper's Σ_i f_i(misses_i) under the workload's costs.
func objective(costs []costfn.Func, misses []int64) float64 {
	sum := 0.0
	for t, m := range misses {
		sum += costs[t].Value(float64(m))
	}
	return sum
}

// costFuncs parses the per-tenant cost specs.
func (sp spec) costFuncs() ([]costfn.Func, error) {
	return runspec.Costs(sp.Costs, sp.Tenants)
}

// serverArgs is the cached serve command line for sp.
func (sp spec) serverArgs(addr, walDir string, recover bool) []string {
	args := []string{"serve", "-addr", addr,
		"-k", strconv.Itoa(sp.K), "-shards", strconv.Itoa(sp.Shards),
		"-tenants", strconv.Itoa(sp.Tenants), "-seed", "1",
		"-verify-on-shutdown=false",
		"-mrc-window", "8", "-mrc-epoch", "4096", "-mrc-rate", "1", "-reserve", "1"}
	for _, c := range sp.Costs {
		args = append(args, "-costs", c)
	}
	if sp.Adaptive {
		args = append(args, "-adaptive", "-rebalance-every", "0")
	} else {
		args = append(args, "-policy", "alg")
	}
	if sp.Fsync != "" {
		args = append(args, "-wal", walDir, "-fsync", sp.Fsync,
			"-segment-bytes", strconv.Itoa(sp.SegmentBytes), "-checkpoint-every", strconv.Itoa(sp.CheckpointEvery))
		if recover {
			args = append(args, "-recover")
		}
	}
	return args
}

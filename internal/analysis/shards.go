package analysis

import (
	"errors"

	"convexcache/internal/trace"
)

// ApproxResult is a sampled approximation of a miss-ratio curve in the
// spirit of SHARDS (Waldspurger et al., FAST 2015): only pages whose hash
// falls under a threshold are tracked, and measured stack distances are
// rescaled by the inverse sampling rate. Exact Mattson is O(T log T); the
// sampled variant processes only ~rate*T requests, enabling MRCs for traces
// far beyond what the experiments need.
type ApproxResult struct {
	// Rate is the effective sampling rate in (0, 1].
	Rate float64
	// SampledRequests counts the requests that survived sampling.
	SampledRequests int64
	// HitsAt[c] estimates LRU hits at cache size c+1: the integer sampled
	// hit count rescaled once by 1/Rate and clamped to Requests.
	HitsAt []float64
	// Requests is the full trace length.
	Requests int64
}

// MissRatioAt estimates the LRU miss ratio at cache size c.
func (r ApproxResult) MissRatioAt(c int) float64 {
	if r.Requests == 0 {
		return 0
	}
	if c < 1 {
		return 1
	}
	if c > len(r.HitsAt) {
		c = len(r.HitsAt)
	}
	miss := float64(r.Requests) - r.HitsAt[c-1]
	if miss < 0 {
		miss = 0
	}
	return miss / float64(r.Requests)
}

// hashPage is a 64-bit mix (splitmix64 finalizer) used for spatial
// sampling; deterministic across runs.
func hashPage(p trace.PageID, seed uint64) uint64 {
	x := uint64(p) + seed + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SampleFilter is the SHARDS spatial-sampling predicate: a page is kept
// when its 64-bit hash falls under rate * 2^63 (the threshold lives in the
// top 63 bits so rate 1.0 needs no float->uint64 overflow special case).
// The filter is a pure function of (page, seed), so every consumer that
// shares a seed — the offline ApproxMattson pass, the live per-shard
// samplers of internal/mrclive — samples exactly the same page population.
type SampleFilter struct {
	// Rate is the sampling rate in (0, 1].
	Rate float64
	// Seed perturbs the page hash; distinct seeds give independent samples.
	Seed uint64

	threshold uint64
}

// NewSampleFilter validates the rate and builds the filter.
func NewSampleFilter(rate float64, seed uint64) (SampleFilter, error) {
	if rate <= 0 || rate > 1 {
		return SampleFilter{}, errors.New("analysis: sampling rate must be in (0, 1]")
	}
	return SampleFilter{Rate: rate, Seed: seed, threshold: uint64(rate * float64(uint64(1)<<63))}, nil
}

// Keep reports whether the page survives sampling.
func (f SampleFilter) Keep(p trace.PageID) bool {
	if f.Rate >= 1 {
		return true
	}
	return hashPage(p, f.Seed)>>1 < f.threshold
}

// ApproxMattson runs spatially sampled stack-distance analysis: pages are
// kept when hash(page) < rate * 2^64; measured distances are scaled by
// 1/rate at bucketing time. Hit counts accumulate as exact integers per
// sampled request and are rescaled by 1/rate once at the end, with a clamp
// at Requests — so the estimate can never exceed the trace length and, at
// rate 1.0, is bit-identical to exact Mattson (no float drift from summing
// T copies of 1/rate).
func ApproxMattson(tr *trace.Trace, maxSize int, rate float64, seed uint64) (ApproxResult, error) {
	if maxSize <= 0 {
		return ApproxResult{}, errors.New("analysis: maxSize must be positive")
	}
	filter, err := NewSampleFilter(rate, seed)
	if err != nil {
		return ApproxResult{}, err
	}
	T := tr.Len()
	res := ApproxResult{
		Rate:     rate,
		HitsAt:   make([]float64, maxSize),
		Requests: int64(T),
	}
	ft := NewFenwick(T)
	lastPos := make(map[trace.PageID]int)
	hitsAtDistance := make([]int64, maxSize)
	for t, r := range tr.Requests() {
		if !filter.Keep(r.Page) {
			continue
		}
		res.SampledRequests++
		if prev, ok := lastPos[r.Page]; ok {
			sampledDist := len(lastPos) - ft.Prefix(prev)
			// Rescale: each sampled distinct page stands for 1/rate pages.
			dist := int(float64(sampledDist) / rate)
			if dist < maxSize {
				hitsAtDistance[dist]++
			}
			ft.Add(prev, -1)
		}
		ft.Add(t, 1)
		lastPos[r.Page] = t
	}
	var cum int64
	for c := 0; c < maxSize; c++ {
		cum += hitsAtDistance[c]
		est := float64(cum) / rate
		if est > float64(res.Requests) {
			est = float64(res.Requests)
		}
		res.HitsAt[c] = est
	}
	return res, nil
}

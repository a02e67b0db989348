// Package analysis provides trace analysis tools: Mattson's stack-distance
// algorithm for exact LRU miss-ratio curves (hit counts for every cache
// size in one pass), per-tenant reuse-distance histograms, and an optimal
// static-partition solver that combines per-tenant miss-ratio curves with
// convex cost functions — the strongest "static allocation" baseline the
// paper's introduction argues against.
package analysis

import (
	"errors"

	"convexcache/internal/costfn"
	"convexcache/internal/trace"
)

// StackResult holds the outcome of a Mattson pass.
type StackResult struct {
	// HitsAt[c] is the number of hits an LRU cache of size c+1 would score
	// on the trace (size 0 is omitted: it always scores zero).
	HitsAt []int64
	// ColdMisses counts first references (misses at every size).
	ColdMisses int64
	// Requests is the trace length.
	Requests int64
	// Distances holds the reuse (stack) distance of every non-cold request
	// in trace order: the number of distinct pages referenced since the
	// previous access to the same page.
	Distances []int
}

// MissesAt returns the LRU miss count for cache size c (>= 1).
func (r StackResult) MissesAt(c int) int64 {
	if c < 1 {
		return r.Requests
	}
	if c > len(r.HitsAt) {
		c = len(r.HitsAt)
	}
	return r.Requests - r.HitsAt[c-1]
}

// MissRatioCurve returns the LRU miss ratio for sizes 1..maxSize.
func (r StackResult) MissRatioCurve(maxSize int) []float64 {
	out := make([]float64, maxSize)
	for c := 1; c <= maxSize; c++ {
		out[c-1] = float64(r.MissesAt(c)) / float64(r.Requests)
	}
	return out
}

// Mattson computes exact LRU stack distances for the whole trace in
// O(T log T) using a Fenwick tree over last-access slots. maxSize bounds
// the size range of HitsAt (distances beyond it are still recorded in
// Distances).
func Mattson(tr *trace.Trace, maxSize int) (StackResult, error) {
	if maxSize <= 0 {
		return StackResult{}, errors.New("analysis: maxSize must be positive")
	}
	T := tr.Len()
	res := StackResult{
		HitsAt:   make([]int64, maxSize),
		Requests: int64(T),
	}
	ft := NewFenwick(T)
	lastPos := make(map[trace.PageID]int, tr.NumPages())
	hitsAtDistance := make([]int64, maxSize) // hits with stack distance d+1 <= maxSize
	for t, r := range tr.Requests() {
		if prev, ok := lastPos[r.Page]; ok {
			// Stack distance = #distinct pages touched in (prev, t) = number
			// of active slots strictly after prev. Every distinct page seen
			// so far holds exactly one active slot, so the active total is
			// len(lastPos).
			dist := len(lastPos) - ft.Prefix(prev)
			res.Distances = append(res.Distances, dist)
			if dist < maxSize {
				hitsAtDistance[dist]++
			}
			ft.Add(prev, -1)
		} else {
			res.ColdMisses++
		}
		ft.Add(t, 1)
		lastPos[r.Page] = t
	}
	// A cache of size c hits every request with stack distance < c.
	var cum int64
	for c := 0; c < maxSize; c++ {
		cum += hitsAtDistance[c]
		res.HitsAt[c] = cum
	}
	return res, nil
}

// PerTenant splits the trace into per-tenant sub-traces and runs Mattson on
// each. Tenants with no requests get a zero-valued entry.
func PerTenant(tr *trace.Trace, maxSize int) ([]StackResult, error) {
	n := tr.NumTenants()
	out := make([]StackResult, n)
	builders := make([]*trace.Builder, n)
	for i := range builders {
		builders[i] = trace.NewBuilder()
	}
	counts := make([]int, n)
	for _, r := range tr.Requests() {
		builders[r.Tenant].Add(r.Tenant, r.Page)
		counts[r.Tenant]++
	}
	for i := range out {
		if counts[i] == 0 {
			out[i] = StackResult{HitsAt: make([]int64, maxSize)}
			continue
		}
		sub, err := builders[i].Build()
		if err != nil {
			return nil, err
		}
		res, err := Mattson(sub, maxSize)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// OptimalStaticPartition allocates k cache pages among tenants to minimize
// the total convex cost sum_i f_i(LRUMisses_i(quota_i)), given each tenant's
// exact miss-count curve from PerTenant. It solves the allocation by
// dynamic programming over tenants and budgets in O(n k^2) — exact for the
// given curves, no convexity of the curves required.
func OptimalStaticPartition(curves []StackResult, costs []costfn.Func, k int) ([]int, float64, error) {
	n := len(curves)
	if n == 0 || k < 0 {
		return nil, 0, errors.New("analysis: need tenants and non-negative k")
	}
	costAt := func(i, quota int) float64 {
		var misses int64
		if quota <= 0 {
			misses = curves[i].Requests
		} else {
			misses = curves[i].MissesAt(quota)
		}
		if i < len(costs) && costs[i] != nil {
			return costs[i].Value(float64(misses))
		}
		return float64(misses)
	}
	const inf = 1e300
	// dp[b] = min cost of allocating b pages among tenants seen so far.
	dp := make([]float64, k+1)
	choice := make([][]int, n)
	for b := range dp {
		dp[b] = inf
	}
	dp[0] = 0
	prev := append([]float64(nil), dp...)
	for i := 0; i < n; i++ {
		choice[i] = make([]int, k+1)
		cur := make([]float64, k+1)
		for b := 0; b <= k; b++ {
			cur[b] = inf
			for q := 0; q <= b; q++ {
				if prev[b-q] >= inf {
					continue
				}
				v := prev[b-q] + costAt(i, q)
				if v < cur[b] {
					cur[b] = v
					choice[i][b] = q
				}
			}
		}
		prev = cur
	}
	// Pick the budget b <= k with minimal cost (unused pages are free).
	bestB, bestV := 0, inf
	for b := 0; b <= k; b++ {
		if prev[b] < bestV {
			bestB, bestV = b, prev[b]
		}
	}
	quotas := make([]int, n)
	b := bestB
	for i := n - 1; i >= 0; i-- {
		quotas[i] = choice[i][b]
		b -= quotas[i]
	}
	return quotas, bestV, nil
}

// Package mrclive maintains streaming per-tenant miss-ratio curves over a
// sliding window of live requests. It fuses the repo's offline MRC machinery
// into an always-on estimator cheap enough for the request path:
//
//   - SHARDS spatial sampling (Waldspurger et al., FAST 2015): only pages
//     passing analysis.SampleFilter are tracked, so the per-request work is
//     O(1) expected and the stack holds ~rate·WSS entries. The filter is the
//     exact hash/threshold used by analysis.ApproxMattson, so a live sampler
//     and an offline pass with the same seed sample the same pages.
//   - An incremental Mattson stack per tenant: an analysis.Fenwick over an
//     append-cursor slot array yields the reuse stack distance of every
//     sampled access in O(log n), the same quantity analysis.Mattson
//     computes offline.
//   - A sliding window: page liveness is bucketed into a ring of
//     WindowEpochs epochs; advancing the ring expires pages untouched for a
//     full window and subtracts the hit mass their epoch added to the one
//     running window histogram, so the curve tracks phase shifts instead of
//     averaging over all history.
//
// Page ids are dense. internal/cached shard s of n interns pages as s, s+n,
// s+2n, …, and Config.Scale is n, so page/Scale indexes one flat shard-wide
// table of 16-byte page records: no map on the request path. Observe
// therefore requires every sampled page of one sampler to share a residue
// modulo Scale and to belong to one tenant for life, and it refuses any
// other page with an error. Its memory is bounded by the largest sampled
// id: 16 B per dense index up to it, so a caller that passes only interned
// ids (as the shard does: ids below its allocator position) pays 16 B per
// interned page, plus 8 B per stack slot (at most twice the peak live
// pages) and per sampled request in the window, plus 8·Tenants·MaxSize
// bytes for the window histogram.
//
// A Sampler is single-owner by design — internal/cached gives one to each
// shard goroutine, which calls Observe inline with no locks; a collector
// merges per-shard Snapshots into per-tenant TenantCurves on demand. The
// cache-shard partition itself acts as a second spatial sampling layer:
// tenant pages spread ~uniformly over n shards, so a shard-local stack
// distance estimates 1/n of the true distance and is rescaled by Scale = n
// at bucketing time. With one shard and Rate 1 the estimator degenerates to
// exact incremental Mattson, which the tests pin bit-for-bit against the
// offline analysis.
package mrclive

import (
	"errors"
	"fmt"
	"math"

	"convexcache/internal/analysis"
	"convexcache/internal/trace"
)

// Config sizes a Sampler.
type Config struct {
	// Tenants is the tenant universe size.
	Tenants int
	// MaxSize is the largest tracked capacity in pages; curves report hit
	// counts at capacities 1..MaxSize. <= 0 selects 256.
	MaxSize int
	// Rate is the SHARDS sampling rate in (0, 1]; 0 selects 1.0 (track
	// every page).
	Rate float64
	// Seed perturbs the sampling hash; all shards of one service must share
	// it so they sample one consistent page population.
	Seed uint64
	// WindowEpochs is the sliding-window length in epochs (the current
	// partial epoch plus WindowEpochs-1 complete ones). <= 0 selects 8.
	WindowEpochs int
	// EpochRequests advances the epoch ring every that many observed
	// requests — deterministic in the request stream, independent of wall
	// clock. <= 0 selects 4096.
	EpochRequests int
	// Scale multiplies measured stack distances: the shard count when each
	// sampler sees only a 1/Scale page partition. <= 0 selects 1.
	Scale int
}

// normalize applies defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.Tenants <= 0 {
		return c, errors.New("mrclive: tenant count must be positive")
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 256
	}
	if c.Rate == 0 {
		c.Rate = 1
	}
	if c.Rate < 0 || c.Rate > 1 {
		return c, fmt.Errorf("mrclive: sampling rate %g outside (0, 1]", c.Rate)
	}
	if c.WindowEpochs <= 0 {
		c.WindowEpochs = 8
	}
	if c.EpochRequests <= 0 {
		c.EpochRequests = 4096
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if int64(c.Tenants)*int64(c.MaxSize) > math.MaxInt32 {
		return c, fmt.Errorf("mrclive: %d tenants × max size %d exceeds 2^31-1 histogram buckets", c.Tenants, c.MaxSize)
	}
	return c, nil
}

// pageRef is one dense page's sampler record, indexed by page/Scale in the
// sampler's shard-wide table.
type pageRef struct {
	// slot is the stack slot of the page's last sampled access; -1 while
	// the page is not on its tenant's stack (expired).
	slot int32
	// owner is the page's tenant plus one; 0 marks a never-sampled index.
	owner int32
	// epoch is the epoch of the last sampled access.
	epoch int64
}

// tenantStack is one tenant's incremental Mattson stack: pages occupy slots
// in access order behind a write cursor, a Fenwick tree counts live slots,
// and the reuse distance of an access is the number of live slots after the
// page's previous position. Each slot holds its page's dense index, so
// compaction and expiry fix the page's record without a lookup. Compaction
// (triggered when the cursor reaches the end) packs live slots to the front
// in slot order — deterministic, in place — and doubles capacity while more
// than half the slots are live.
type tenantStack struct {
	fen    analysis.Fenwick
	slots  []int32 // dense page index per slot, freeSlot when empty
	cursor int
	live   int
}

const freeSlot = int32(-1)

func newTenantStack() tenantStack {
	const initialCap = 256
	st := tenantStack{
		fen:   analysis.NewFenwick(initialCap),
		slots: make([]int32, initialCap),
	}
	for i := range st.slots {
		st.slots[i] = freeSlot
	}
	return st
}

// access records one sampled access of the page at dense index idx and
// returns the reuse stack distance (distinct sampled pages since the
// previous access), or -1 when the page is not on the stack.
func (st *tenantStack) access(refs []pageRef, idx int32, epoch int64) int64 {
	ref := &refs[idx]
	dist := int64(-1)
	if ref.slot >= 0 {
		// live counts every live slot, so this is the number after ref.slot.
		dist = int64(st.live - st.fen.Prefix(int(ref.slot)))
		st.fen.Add(int(ref.slot), -1)
		st.slots[ref.slot] = freeSlot
		st.live--
	}
	if st.cursor == len(st.slots) {
		st.compact(refs)
	}
	st.fen.Add(st.cursor, 1)
	st.slots[st.cursor] = idx
	ref.slot = int32(st.cursor)
	ref.epoch = epoch
	st.cursor++
	st.live++
	return dist
}

// remove expires the page ref from the stack.
func (st *tenantStack) remove(ref *pageRef) {
	st.fen.Add(int(ref.slot), -1)
	st.slots[ref.slot] = freeSlot
	ref.slot = -1
	st.live--
}

// compact packs live slots densely at the front, preserving slot (= LRU)
// order, growing the slot array while it is more than half live, and
// refills the Fenwick tree in O(n).
func (st *tenantStack) compact(refs []pageRef) {
	w := 0
	for _, idx := range st.slots {
		if idx != freeSlot {
			st.slots[w] = idx
			refs[idx].slot = int32(w)
			w++
		}
	}
	n := len(st.slots)
	if st.live*2 > n {
		n *= 2
		st.slots = append(st.slots, make([]int32, n-len(st.slots))...)
	}
	for i := w; i < n; i++ {
		st.slots[i] = freeSlot
	}
	st.fen.Refill(n, st.live)
	st.cursor = st.live
}

// touchRec marks a sampled access for lazy window expiry: the page's dense
// index and the window histogram bucket the access incremented (-1 for a
// first touch or a distance beyond MaxSize).
type touchRec struct {
	idx    int32
	bucket int32
}

// Sampler is one shard's streaming MRC estimator. It is deliberately NOT
// safe for concurrent use: internal/cached embeds one per single-writer
// shard goroutine, keeping the hit path lock-free; merge concurrency lives
// entirely in the collector.
type Sampler struct {
	cfg    Config
	filter analysis.SampleFilter
	stacks []tenantStack
	// refs is the page table, indexed by page/Scale and grown by doubling.
	refs []pageRef
	// residue is page mod Scale shared by every sampled page; -1 until the
	// first one.
	residue int64

	// window[t*MaxSize+d] counts tenant t's sampled reuses at scaled
	// distance d over the whole window: advance subtracts what the expiring
	// epoch added, so it always equals the sum of per-epoch histograms.
	window []int64
	// Ring of WindowEpochs epochs; slot e%W holds epoch e's entries.
	observed [][]int64 // [W][Tenants] all observed requests (exact)
	sampled  [][]int64 // [W][Tenants] sampled requests
	touched  [][]touchRec

	cur        int // ring slot of the current epoch, absEpoch % WindowEpochs
	absEpoch   int64
	reqInEpoch int
}

// NewSampler validates the config and builds a sampler.
func NewSampler(cfg Config) (*Sampler, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	filter, err := analysis.NewSampleFilter(cfg.Rate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Sampler{
		cfg:      cfg,
		filter:   filter,
		stacks:   make([]tenantStack, cfg.Tenants),
		residue:  -1,
		window:   make([]int64, cfg.Tenants*cfg.MaxSize),
		observed: make([][]int64, cfg.WindowEpochs),
		sampled:  make([][]int64, cfg.WindowEpochs),
		touched:  make([][]touchRec, cfg.WindowEpochs),
	}
	for t := range s.stacks {
		s.stacks[t] = newTenantStack()
	}
	for e := 0; e < cfg.WindowEpochs; e++ {
		s.observed[e] = make([]int64, cfg.Tenants)
		s.sampled[e] = make([]int64, cfg.Tenants)
	}
	return s, nil
}

// Config returns the normalized configuration.
func (s *Sampler) Config() Config { return s.cfg }

// Observe records one request. Called inline on the owner's request path.
// The page must be non-negative; a sampled page must lie in the residue
// class modulo Scale of the sampler's first sampled page, have a dense
// index page/Scale below 2^31, and keep the tenant it was first sampled
// under. internal/cached guarantees all of it: a shard interns each
// (tenant, key) to a fresh id of its own class. Anything else is refused
// with an error before any state changes — two pages sharing a dense index
// would silently merge their stacks. The page table grows to the largest
// sampled dense index, 16 B per index, so the sampler's memory is bounded
// by the caller's id allocator, not by the request count.
func (s *Sampler) Observe(t trace.Tenant, p trace.PageID) error {
	if t < 0 || int(t) >= s.cfg.Tenants || p < 0 {
		return fmt.Errorf("mrclive: request (tenant %d, page %d) outside tenants [0, %d) or negative", t, p, s.cfg.Tenants)
	}
	keep := s.filter.Keep(p)
	var idx int32
	if keep {
		var err error
		if idx, err = s.index(t, p); err != nil {
			return err
		}
	}
	cur := s.cur
	s.observed[cur][t]++
	s.reqInEpoch++
	if keep {
		s.sampled[cur][t]++
		bucket := int32(-1)
		if dist := s.stacks[t].access(s.refs, idx, s.absEpoch); dist >= 0 {
			// Each sampled resident page stands for Scale/Rate true pages:
			// 1/Rate from hash sampling, Scale from the shard partition.
			scaled := int(float64(dist) * float64(s.cfg.Scale) / s.cfg.Rate)
			if scaled < s.cfg.MaxSize {
				bucket = int32(int(t)*s.cfg.MaxSize + scaled)
				s.window[bucket]++
			}
		}
		s.touched[cur] = append(s.touched[cur], touchRec{idx: idx, bucket: bucket})
	}
	if s.reqInEpoch >= s.cfg.EpochRequests {
		s.advance()
	}
	return nil
}

// index checks a sampled page against the id contract, claims its record
// for tenant t on first sight (growing the table when needed) and returns
// its dense index.
func (s *Sampler) index(t trace.Tenant, p trace.PageID) (int32, error) {
	scale := int64(s.cfg.Scale)
	q := int64(p) / scale
	if q > math.MaxInt32 {
		return 0, fmt.Errorf("mrclive: page %d: dense index %d exceeds 2^31-1", p, q)
	}
	if r := int64(p) - q*scale; r != s.residue {
		if s.residue >= 0 {
			return 0, fmt.Errorf("mrclive: page %d is %d mod %d, not in the sampler's residue class %d", p, r, scale, s.residue)
		}
		s.residue = r
	}
	if int(q) >= len(s.refs) {
		s.grow(int(q))
	}
	ref := &s.refs[q]
	switch ref.owner {
	case int32(t) + 1:
	case 0:
		ref.owner = int32(t) + 1
		ref.slot = -1
	default:
		return 0, fmt.Errorf("mrclive: page %d sampled under tenant %d but owned by tenant %d", p, t, ref.owner-1)
	}
	return int32(q), nil
}

// grow extends the page table to cover dense index idx, at least doubling
// it. Indices need not arrive in first-appearance order (a sampler built
// after WAL recovery first sees whatever ids the traffic brings), so the
// target is the index itself, not the next one.
func (s *Sampler) grow(idx int) {
	n := max(2*len(s.refs), idx+1, 1024)
	s.refs = append(s.refs, make([]pageRef, n-len(s.refs))...)
}

// advance rotates the epoch ring: the slot about to be reused holds the
// epoch that just fell out of the window, so its reuses are subtracted from
// the window histogram and every page whose last touch was in that epoch is
// expired from its stack (pages touched again since have a newer epoch and
// survive).
func (s *Sampler) advance() {
	s.absEpoch++
	s.reqInEpoch = 0
	s.cur++
	if s.cur == s.cfg.WindowEpochs {
		s.cur = 0
	}
	expired := s.absEpoch - int64(s.cfg.WindowEpochs)
	for _, tr := range s.touched[s.cur] {
		if tr.bucket >= 0 {
			s.window[tr.bucket]--
		}
		ref := &s.refs[tr.idx]
		if ref.slot >= 0 && ref.epoch <= expired {
			s.stacks[ref.owner-1].remove(ref)
		}
	}
	s.touched[s.cur] = s.touched[s.cur][:0]
	for t := 0; t < s.cfg.Tenants; t++ {
		s.observed[s.cur][t] = 0
		s.sampled[s.cur][t] = 0
	}
}

// TenantWindow is one tenant's window accounting from one sampler.
type TenantWindow struct {
	// Observed counts all window requests of the tenant at this sampler —
	// exact, not sampled.
	Observed int64
	// Sampled counts the requests that passed the SHARDS filter.
	Sampled int64
	// Hist[d] counts sampled reuses at scaled stack distance d.
	Hist []int64
}

// Snapshot copies the window into per-tenant accounting. Call from the
// goroutine that owns the sampler (internal/cached does so via a shard
// mailbox message, putting the snapshot on a batch boundary).
func (s *Sampler) Snapshot() []TenantWindow {
	M := s.cfg.MaxSize
	hist := append([]int64(nil), s.window...)
	out := make([]TenantWindow, s.cfg.Tenants)
	for t := range out {
		out[t].Hist = hist[t*M : (t+1)*M : (t+1)*M]
		for e := 0; e < s.cfg.WindowEpochs; e++ {
			out[t].Observed += s.observed[e][t]
			out[t].Sampled += s.sampled[e][t]
		}
	}
	return out
}

// TenantCurve is a merged per-tenant window miss-ratio curve.
type TenantCurve struct {
	// Tenant is the tenant id.
	Tenant int `json:"tenant"`
	// Requests counts the tenant's window requests across all shards
	// (exact: every request is observed by exactly one shard).
	Requests int64 `json:"requests"`
	// Sampled counts window requests that passed the SHARDS filter.
	Sampled int64 `json:"sampled"`
	// Rate echoes the sampling rate the curve was rescaled by.
	Rate float64 `json:"rate"`
	// HitsAt[c] estimates window hits at capacity c+1 pages: integer
	// sampled counts rescaled once by 1/Rate and clamped to Requests
	// (mirroring analysis.ApproxMattson's accumulation).
	HitsAt []float64 `json:"hits_at"`
}

// MissesAt predicts the tenant's window misses at capacity q pages; the
// curve is non-increasing in q and flat beyond MaxSize.
func (c TenantCurve) MissesAt(q int) float64 {
	if q < 1 || len(c.HitsAt) == 0 {
		return float64(c.Requests)
	}
	if q > len(c.HitsAt) {
		q = len(c.HitsAt)
	}
	m := float64(c.Requests) - c.HitsAt[q-1]
	if m < 0 {
		return 0
	}
	return m
}

// MissRatioAt is MissesAt normalized by window requests (0 when idle).
func (c TenantCurve) MissRatioAt(q int) float64 {
	if c.Requests == 0 {
		return 0
	}
	return c.MissesAt(q) / float64(c.Requests)
}

// Merge combines per-shard sampler snapshots into per-tenant curves:
// integer counts sum across shards (each request and each sampled reuse is
// counted by exactly one shard), then one 1/rate rescale with a clamp at
// the exact observed request count.
//
// scale is the distance rescaling factor the samplers applied (the shard
// count); together with rate it fixes the estimator's distance resolution
// g = ceil(scale/rate): a sampled reuse bucketed at scaled distance d only
// locates the true distance inside [d, d+g). Its hit mass therefore ramps
// linearly over capacities (d, d+g] instead of landing as a step at d+1 —
// without the ramp every capacity off the g-grid would show a zero
// marginal hit gain, an artifact a greedy capacity planner reads as "no
// use for one more page". At g = 1 the ramp degenerates to the exact step
// function, keeping the one-shard full-rate curve bit-identical to
// incremental Mattson.
func Merge(snaps [][]TenantWindow, tenants, maxSize int, rate float64, scale int) []TenantCurve {
	if rate <= 0 {
		rate = 1
	}
	if scale < 1 {
		scale = 1
	}
	g := int(math.Ceil(float64(scale)/rate - 1e-9))
	if g < 1 {
		g = 1
	}
	out := make([]TenantCurve, tenants)
	for t := range out {
		out[t] = TenantCurve{Tenant: t, Rate: rate, HitsAt: make([]float64, maxSize)}
		hist := make([]int64, maxSize)
		for _, snap := range snaps {
			if t >= len(snap) {
				continue
			}
			out[t].Requests += snap[t].Observed
			out[t].Sampled += snap[t].Sampled
			for d, v := range snap[t].Hist {
				if d < maxSize {
					hist[d] += v
				}
			}
		}
		// Difference array over per-capacity slopes: bucket d spreads
		// hist[d]/g per capacity across HitsAt indices [d, d+g-1]; two
		// prefix passes turn slopes into the cumulative hit curve.
		slope := make([]float64, maxSize+1)
		for d, v := range hist {
			if v == 0 {
				continue
			}
			m := float64(v) / float64(g)
			slope[d] += m
			if d+g <= maxSize {
				slope[d+g] -= m
			}
		}
		run := 0.0
		cum := 0.0
		for c := 0; c < maxSize; c++ {
			run += slope[c]
			cum += run
			est := cum / rate
			if est > float64(out[t].Requests) {
				est = float64(out[t].Requests)
			}
			out[t].HitsAt[c] = est
		}
	}
	return out
}

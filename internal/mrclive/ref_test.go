package mrclive

import (
	"convexcache/internal/analysis"
	"convexcache/internal/trace"
)

// The map-keyed sampler the dense one replaced, kept (renamed, and on the
// shared analysis.Fenwick) as the differential reference of
// TestSamplerMatchesReference and FuzzSampler: per-tenant stacks keyed by
// map[trace.PageID], a full-tree prefix walk for every distance, a fresh
// slice pair and n log n adds per compaction, and a [WindowEpochs] ring of
// histograms cleared on every advance. Fed the same tenant-disjoint stream,
// both must produce bit-equal Snapshots.

type refPageRef struct {
	slot  int
	epoch int64
}

type refTenantStack struct {
	fen    analysis.Fenwick
	slots  []trace.PageID
	cursor int
	live   int
	refs   map[trace.PageID]refPageRef
}

const refFreeSlot = trace.PageID(-1)

func newRefTenantStack() *refTenantStack {
	const initialCap = 256
	st := &refTenantStack{
		fen:   analysis.NewFenwick(initialCap),
		slots: make([]trace.PageID, initialCap),
		refs:  make(map[trace.PageID]refPageRef),
	}
	for i := range st.slots {
		st.slots[i] = refFreeSlot
	}
	return st
}

func (st *refTenantStack) access(p trace.PageID, epoch int64) int64 {
	dist := int64(-1)
	if ref, ok := st.refs[p]; ok {
		dist = int64(st.fen.Prefix(len(st.slots)-1) - st.fen.Prefix(ref.slot))
		st.fen.Add(ref.slot, -1)
		st.slots[ref.slot] = refFreeSlot
		st.live--
	}
	if st.cursor == len(st.slots) {
		st.compact()
	}
	st.fen.Add(st.cursor, 1)
	st.slots[st.cursor] = p
	st.refs[p] = refPageRef{slot: st.cursor, epoch: epoch}
	st.cursor++
	st.live++
	return dist
}

func (st *refTenantStack) remove(p trace.PageID, ref refPageRef) {
	st.fen.Add(ref.slot, -1)
	st.slots[ref.slot] = refFreeSlot
	delete(st.refs, p)
	st.live--
}

func (st *refTenantStack) compact() {
	newCap := len(st.slots)
	if st.live*2 > newCap {
		newCap *= 2
	}
	pages := make([]trace.PageID, 0, st.live)
	for _, p := range st.slots {
		if p != refFreeSlot {
			pages = append(pages, p)
		}
	}
	st.slots = make([]trace.PageID, newCap)
	for i := range st.slots {
		st.slots[i] = refFreeSlot
	}
	st.fen = analysis.NewFenwick(newCap)
	for i, p := range pages {
		st.slots[i] = p
		st.fen.Add(i, 1)
		r := st.refs[p]
		r.slot = i
		st.refs[p] = r
	}
	st.cursor = st.live
}

type refTouchRec struct {
	t trace.Tenant
	p trace.PageID
}

type refSampler struct {
	cfg    Config
	filter analysis.SampleFilter
	stacks []*refTenantStack

	hist     [][]int64
	observed [][]int64
	sampled  [][]int64
	touched  [][]refTouchRec

	absEpoch   int64
	reqInEpoch int
}

func newRefSampler(cfg Config) (*refSampler, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	filter, err := analysis.NewSampleFilter(cfg.Rate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &refSampler{
		cfg:      cfg,
		filter:   filter,
		stacks:   make([]*refTenantStack, cfg.Tenants),
		hist:     make([][]int64, cfg.WindowEpochs),
		observed: make([][]int64, cfg.WindowEpochs),
		sampled:  make([][]int64, cfg.WindowEpochs),
		touched:  make([][]refTouchRec, cfg.WindowEpochs),
	}
	for t := range s.stacks {
		s.stacks[t] = newRefTenantStack()
	}
	for e := 0; e < cfg.WindowEpochs; e++ {
		s.hist[e] = make([]int64, cfg.Tenants*cfg.MaxSize)
		s.observed[e] = make([]int64, cfg.Tenants)
		s.sampled[e] = make([]int64, cfg.Tenants)
	}
	return s, nil
}

func (s *refSampler) Observe(t trace.Tenant, p trace.PageID) {
	if t < 0 || int(t) >= s.cfg.Tenants || p < 0 {
		return
	}
	cur := int(s.absEpoch % int64(s.cfg.WindowEpochs))
	s.observed[cur][t]++
	s.reqInEpoch++
	if s.filter.Keep(p) {
		s.sampled[cur][t]++
		if dist := s.stacks[t].access(p, s.absEpoch); dist >= 0 {
			scaled := int(float64(dist) * float64(s.cfg.Scale) / s.cfg.Rate)
			if scaled < s.cfg.MaxSize {
				s.hist[cur][int(t)*s.cfg.MaxSize+scaled]++
			}
		}
		s.touched[cur] = append(s.touched[cur], refTouchRec{t: t, p: p})
	}
	if s.reqInEpoch >= s.cfg.EpochRequests {
		s.advance()
	}
}

func (s *refSampler) advance() {
	s.absEpoch++
	s.reqInEpoch = 0
	W := int64(s.cfg.WindowEpochs)
	slot := int(s.absEpoch % W)
	expired := s.absEpoch - W
	for _, tr := range s.touched[slot] {
		st := s.stacks[tr.t]
		if ref, ok := st.refs[tr.p]; ok && ref.epoch <= expired {
			st.remove(tr.p, ref)
		}
	}
	s.touched[slot] = s.touched[slot][:0]
	h := s.hist[slot]
	for i := range h {
		h[i] = 0
	}
	for t := 0; t < s.cfg.Tenants; t++ {
		s.observed[slot][t] = 0
		s.sampled[slot][t] = 0
	}
}

func (s *refSampler) Snapshot() []TenantWindow {
	out := make([]TenantWindow, s.cfg.Tenants)
	for t := range out {
		out[t].Hist = make([]int64, s.cfg.MaxSize)
	}
	for e := 0; e < s.cfg.WindowEpochs; e++ {
		for t := 0; t < s.cfg.Tenants; t++ {
			out[t].Observed += s.observed[e][t]
			out[t].Sampled += s.sampled[e][t]
			h := s.hist[e][t*s.cfg.MaxSize : (t+1)*s.cfg.MaxSize]
			for d, v := range h {
				if v != 0 {
					out[t].Hist[d] += v
				}
			}
		}
	}
	return out
}

package sim

import (
	"context"
	"errors"
	"fmt"

	"convexcache/internal/trace"
)

// DensePolicy is the allocation-free fast path of the engine. A policy that
// implements it is driven with dense page indices (see trace.Dense) instead
// of raw PageIDs, so both the engine and the policy can keep all per-page
// state in flat slices. The sparse Policy methods remain the fallback for
// interactive runs and direct drivers.
//
// Contract mirrors Policy: DenseVictim must return a resident dense index;
// the engine verifies and fails the run otherwise.
//
// A DensePolicy that additionally implements BatchPolicy is driven in runs
// of up to BatchSize requests per call on observer-free runs; see soa.go.
type DensePolicy interface {
	Policy
	// PrepareDense installs the dense trace view and the cache capacity
	// before the first request of a dense run. Returning false declines the
	// dense path and the engine falls back to the map-based loop.
	PrepareDense(d *trace.Dense, k int) bool
	// DenseHit is OnHit with the page's dense index.
	DenseHit(step int, page int32)
	// DenseInsert is OnInsert with the page's dense index.
	DenseInsert(step int, page int32)
	// DenseVictim is Victim with the requested page's dense index; it
	// returns the dense index of the page to evict.
	DenseVictim(step int, page int32) int32
	// DenseEvict is OnEvict with the evicted page's dense index.
	DenseEvict(step int, page int32)
}

// runDense is the dense engine entry point: residency is a SlotTable
// (struct-of-arrays page->slot, slot->page, slot->tenant), counters live in
// the Result slices, and the Event struct is reused across steps. The
// request loop performs no steady-state allocations.
func runDense(ctx context.Context, tr *trace.Trace, p DensePolicy, cfg Config) (Result, bool, error) {
	return runDenseView(ctx, tr.Dense(), p, cfg)
}

// RunDense drives the dense engine over a caller-built view d instead of a
// trace's own remap: d.Reqs are dense indices into d.Owners, and d.Tenants
// bounds the owners. The sharded runner passes per-shard subsequences of one
// trace's remap; the live cache's Verify builds one view per shard straight
// from the shard's request log. A policy that declines the dense engine in
// PrepareDense is an error.
func RunDense(ctx context.Context, d *trace.Dense, p DensePolicy, cfg Config) (Result, error) {
	if cfg.K <= 0 {
		return Result{}, errors.New("sim: cache size must be positive")
	}
	if ctx.Err() != nil {
		return Result{}, cancelErr(ctx, 0)
	}
	res, handled, err := runDenseView(ctx, d, p, cfg)
	if err == nil && !handled {
		err = fmt.Errorf("sim: policy %s declined the dense engine", p.Name())
	}
	return res, err
}

// runDenseView drives the dense engine over an explicit trace view.
func runDenseView(ctx context.Context, d *trace.Dense, p DensePolicy, cfg Config) (Result, bool, error) {
	if !p.PrepareDense(d, cfg.K) {
		return Result{}, false, nil
	}
	res := Result{
		Policy:         p.Name(),
		K:              cfg.K,
		Steps:          d.Len(),
		EffectiveSteps: effectiveSteps(d.Len(), cfg.WarmupSteps),
		Misses:         make([]int64, d.Tenants),
		Evictions:      make([]int64, d.Tenants),
	}
	// The batched loop requires observer-free runs: per-step events can only
	// come out of the per-step loop. It owns residency itself, so the slot
	// table is only built for the per-step loop below.
	if bp, ok := p.(BatchPolicy); ok && cfg.Observer == nil && !cfg.NoBatch {
		if err := runDenseBatched(ctx, d, bp, cfg, &res); err != nil {
			return Result{}, true, err
		}
		return res, true, nil
	}
	nPages := d.NumPages()
	slotCap := cfg.K
	if slotCap > nPages {
		slotCap = nPages
	}
	st := NewSlotTable(nPages, slotCap)
	done := ctx.Done()
	reported := 0
	var ev Event
	for step, pg := range d.Reqs {
		if step&checkMask == checkMask {
			if done != nil {
				select {
				case <-done:
					return Result{}, true, cancelErr(ctx, step)
				default:
				}
			}
			if cfg.Progress != nil {
				cfg.Progress(step + 1 - reported)
				reported = step + 1
			}
		}
		warm := step < cfg.WarmupSteps
		tenant := d.Owners[pg]
		if st.PageSlot[pg] >= 0 {
			if !warm {
				res.Hits++
			}
			p.DenseHit(step, pg)
			if cfg.Observer != nil {
				ev = Event{Step: step, Req: trace.Request{Page: d.Pages[pg], Tenant: tenant}, Evicted: -1, EvictedTenant: -1, Warmup: warm}
				cfg.Observer(ev)
			}
			continue
		}
		if !warm {
			res.Misses[tenant]++
		}
		evicted := int32(-1)
		var evictedOwner trace.Tenant = -1
		if st.Full() {
			victim := p.DenseVictim(step, pg)
			owner, ok := st.Replace(victim, pg, tenant)
			if !ok {
				return Result{}, true, fmt.Errorf("sim: policy %s returned victim %d not in cache at step %d", p.Name(), victim, step)
			}
			evicted = victim
			evictedOwner = owner
			if !warm {
				res.Evictions[evictedOwner]++
			}
			p.DenseEvict(step, victim)
		} else {
			st.Append(pg, tenant)
		}
		p.DenseInsert(step, pg)
		if cfg.Observer != nil {
			ev = Event{Step: step, Req: trace.Request{Page: d.Pages[pg], Tenant: tenant}, Miss: true, Evicted: -1, EvictedTenant: evictedOwner, Warmup: warm}
			if evicted >= 0 {
				ev.Evicted = d.Pages[evicted]
			}
			cfg.Observer(ev)
		}
	}
	if cfg.Progress != nil && d.Len() > reported {
		cfg.Progress(d.Len() - reported)
	}
	return res, true, nil
}

// runDenseBatched is the batched dense loop: the policy serves runs of up to
// BatchSize requests per StepBatch call, and the engine probes context
// cancellation and progress only at batch boundaries on the CheckEverySteps
// cadence. Batches are split at the warmup boundary so every call is either
// fully warm or fully measured; counters land directly in res via the
// aliased BatchCounters. On cancellation the run aborts at the next batch
// boundary (mid-batch work completes first).
func runDenseBatched(ctx context.Context, d *trace.Dense, p BatchPolicy, cfg Config, res *Result) error {
	bc := BatchCounters{Misses: res.Misses, Evictions: res.Evictions}
	reqs := d.Reqs
	done := ctx.Done()
	reported := 0
	next := CheckEverySteps
	for base := 0; base < len(reqs); {
		end := base + BatchSize
		if end > len(reqs) {
			end = len(reqs)
		}
		warm := base < cfg.WarmupSteps
		if warm && end > cfg.WarmupSteps {
			end = cfg.WarmupSteps
		}
		if err := p.StepBatch(base, reqs[base:end], &bc, warm); err != nil {
			return err
		}
		base = end
		if base >= next {
			next += CheckEverySteps
			if done != nil {
				select {
				case <-done:
					return cancelErr(ctx, base)
				default:
				}
			}
			if cfg.Progress != nil {
				cfg.Progress(base - reported)
				reported = base
			}
		}
	}
	res.Hits = bc.Hits
	if cfg.Progress != nil && len(reqs) > reported {
		cfg.Progress(len(reqs) - reported)
	}
	return nil
}

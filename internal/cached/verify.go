package cached

import (
	"context"
	"fmt"
	"math"
	"path"
	"sync"
	"time"

	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Counters is one side (live or replay) of a verify report: per-tenant
// accounting plus totals. Slices have length Config.Tenants.
type Counters struct {
	Requests  []int64 `json:"requests"`
	Hits      []int64 `json:"hits"`
	Misses    []int64 `json:"misses"`
	Evictions []int64 `json:"evictions"`

	TotalHits      int64 `json:"total_hits"`
	TotalMisses    int64 `json:"total_misses"`
	TotalEvictions int64 `json:"total_evictions"`
}

// VerifyReport is the outcome of one live-vs-replay differential: every
// shard's request log replayed offline against the live counters. Clean
// means every per-tenant counter matched exactly; Diffs lists each mismatch.
// ReplayDur is the wall time of the per-shard stream-and-replay phase.
type VerifyReport struct {
	Policy    string        `json:"policy"`
	K         int           `json:"k"`
	Shards    int           `json:"shards"`
	Requests  int           `json:"requests"`
	Live      Counters      `json:"live"`
	Replay    Counters      `json:"replay"`
	Diffs     []string      `json:"diffs,omitempty"`
	Clean     bool          `json:"clean"`
	ReplayDur time.Duration `json:"replay_ns"`
}

// Verify snapshots every shard (on a batch boundary — safe under live
// traffic), replays each shard's complete request log offline and diffs the
// per-tenant counters exactly.
//
// The replay is per shard because the live service is a partitioned cache:
// shard s of n holds only page ids ≡ s (mod n) at capacity
// sim.ShardShare(K, n, s), and the objective Σ_i f_i(misses_i) is separable
// per tenant, so the sum of independent per-shard replays is exactly the
// replay of the whole service. Each shard streams its log (sealed WAL
// segments, then the in-memory tail) into its own dense view and replays it
// through sim's dense engine — or, in partition mode, through a fresh
// quotaLRU — concurrently with the other shards. Any nonzero diff is a bug
// in the live path (or the simulator), never an artifact of concurrency:
// per-shard logs are the ground truth of what each single-writer engine
// saw, in order.
func (s *Service) Verify(ctx context.Context) (*VerifyReport, error) {
	snaps := s.snapshotAll(true, false)
	for _, snap := range snaps {
		if snap.Err != nil {
			return nil, fmt.Errorf("cached: shard %d failed, log unreliable: %w", snap.Shard, snap.Err)
		}
	}
	tenants := s.cfg.Tenants
	rep := &VerifyReport{
		Policy: s.engineName(),
		K:      s.cfg.K,
		Shards: len(s.shards),
		Live:   liveCounters(snaps, tenants),
	}

	start := time.Now()
	per := make([]Counters, len(snaps))
	errs := make([]error, len(snaps))
	var wg sync.WaitGroup
	for i, snap := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.cfg.Quotas != nil {
				per[i], errs[i] = s.replayPartition(ctx, snap)
			} else {
				per[i], errs[i] = s.replayClassic(ctx, snap)
			}
		}()
	}
	wg.Wait()
	// Report the lowest-numbered shard's error so a failure is as
	// deterministic as a success.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rep.ReplayDur = time.Since(start)

	replay := emptyCounters(tenants)
	for _, c := range per {
		for t := 0; t < tenants; t++ {
			replay.Requests[t] += c.Requests[t]
			replay.Hits[t] += c.Hits[t]
			replay.Misses[t] += c.Misses[t]
			replay.Evictions[t] += c.Evictions[t]
		}
	}
	replay.total()
	for _, n := range replay.Requests {
		rep.Requests += int(n)
	}
	rep.Replay = replay
	rep.Diffs = diffCounters(rep.Live, replay, tenants)
	rep.Clean = len(rep.Diffs) == 0
	return rep, nil
}

// engineName labels the verify report with the active engine.
func (s *Service) engineName() string {
	if s.cfg.Quotas != nil {
		return "quota-partition"
	}
	return s.shards[0].policy.Name()
}

// replayClassic replays one classic-mode shard: its log becomes a dense view
// in a single pass with no map (see streamLog), which sim's dense engine
// replays at the shard's capacity share. Per-tenant requests come from the
// same pass; per-tenant hits follow as requests − misses.
func (s *Service) replayClassic(ctx context.Context, snap *ShardSnapshot) (Counters, error) {
	c := emptyCounters(s.cfg.Tenants)
	reqs := make([]int32, 0, snap.LogStart+snap.LogLen)
	owners, err := s.streamLog(ctx, snap, func(e LogEntry, ix int32) error {
		if ix < 0 {
			return fmt.Errorf("cached: shard %d: quota control entry (seq %d) outside partition mode", snap.Shard, e.Seq)
		}
		c.Requests[e.Tenant]++
		reqs = append(reqs, ix)
		return nil
	})
	if err != nil || len(reqs) == 0 {
		return c, err
	}
	n := len(s.shards)
	pages := make([]trace.PageID, len(owners))
	for ix := range pages {
		pages[ix] = trace.PageID(snap.Shard + ix*n)
	}
	d := &trace.Dense{Pages: pages, Owners: owners, Reqs: reqs, Tenants: s.cfg.Tenants}
	res, err := s.replayView(ctx, d, sim.ShardShare(s.cfg.K, n, snap.Shard))
	if err != nil {
		if ctx.Err() != nil {
			return c, fmt.Errorf("cached: verify aborted: %w", ctx.Err())
		}
		return c, fmt.Errorf("cached: shard %d: replaying request log: %w", snap.Shard, err)
	}
	for t, m := range res.Misses {
		c.Misses[t] = m
		c.Hits[t] = c.Requests[t] - m
	}
	copy(c.Evictions, res.Evictions)
	return c, nil
}

// replayView replays one shard's dense view at capacity k on a fresh policy
// through sim's dense engine. New admits a policy without a dense engine
// only on a single shard; that case replays through sim.RunContext on the
// view's original page ids, the map engine's input.
func (s *Service) replayView(ctx context.Context, d *trace.Dense, k int) (sim.Result, error) {
	p := s.cfg.NewPolicy()
	if dp, ok := p.(sim.DensePolicy); ok {
		return sim.RunDense(ctx, d, dp, sim.Config{K: k})
	}
	b := trace.NewBuilder()
	for _, ix := range d.Reqs {
		b.Add(d.Owners[ix], d.Pages[ix])
	}
	tr, err := b.Build()
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunContext(ctx, tr, p, sim.Config{K: k})
}

// replayPartition is the partition-mode replay of one shard: every page
// lives on exactly one shard and every tenant's quota is served per shard,
// so the shard's log replays independently through a fresh quotaLRU — the
// same deterministic engine the live loop ran, including quota-change
// control entries re-applied at their logged positions.
func (s *Service) replayPartition(ctx context.Context, snap *ShardSnapshot) (Counters, error) {
	c := emptyCounters(s.cfg.Tenants)
	n := len(s.shards)
	q := newQuotaLRU(localQuotas(s.cfg.Quotas, n, snap.Shard), n, snap.Shard)
	_, err := s.streamLog(ctx, snap, func(e LogEntry, _ int32) error {
		if e.Quotas != nil {
			for t, ev := range q.SetQuotas(localQuotas(e.Quotas, n, snap.Shard)) {
				c.Evictions[t] += int64(ev)
			}
			return nil
		}
		c.Requests[e.Tenant]++
		hit, evicted := q.Access(e.Tenant, e.Page)
		if hit {
			c.Hits[e.Tenant]++
		} else {
			c.Misses[e.Tenant]++
		}
		if evicted {
			c.Evictions[e.Tenant]++
		}
		return nil
	})
	return c, err
}

// streamLog feeds fn one shard's complete log in order: the sealed WAL
// segments from disk, then the snapshot's in-memory tail. Every entry
// passes checkEntry — the validator recovery runs — before fn sees it.
//
// Each request also gets its page's dense index, with no map: shard s of n
// interns pages as s, s+n, s+2n, … in first-appearance order, so the index
// is (page−s)/n and the pages appear in the log in index order. A request
// whose index skips past every page seen so far, or whose page changes
// tenant, is rejected. streamLog returns the owner of each dense index;
// quota control entries reach fn with index −1.
func (s *Service) streamLog(ctx context.Context, snap *ShardSnapshot, fn func(e LogEntry, ix int32) error) ([]trace.Tenant, error) {
	if snap.LogStart+snap.LogLen > math.MaxInt32 {
		return nil, fmt.Errorf("cached: shard %d: log of %d entries is too long to replay", snap.Shard, snap.LogStart+snap.LogLen)
	}
	id, n, tenants := snap.Shard, len(s.shards), s.cfg.Tenants
	var owners []trace.Tenant
	var prevSeq int64
	i := 0
	step := func(e LogEntry) error {
		if i%65536 == 0 && ctx.Err() != nil {
			return fmt.Errorf("cached: verify aborted: %w", ctx.Err())
		}
		if err := checkEntry(e, prevSeq, id, n, tenants); err != nil {
			return fmt.Errorf("cached: shard %d log entry %d: %w", id, i, err)
		}
		prevSeq = e.Seq
		i++
		if e.Quotas != nil {
			return fn(e, -1)
		}
		ix := (int64(e.Page) - int64(id)) / int64(n)
		switch {
		case ix == int64(len(owners)):
			owners = append(owners, e.Tenant)
		case ix > int64(len(owners)):
			return fmt.Errorf("cached: shard %d log entry %d: page %d appears before page %d", id, i-1, e.Page, int64(id)+int64(len(owners))*int64(n))
		case owners[ix] != e.Tenant:
			return fmt.Errorf("cached: shard %d log entry %d: page %d requested by tenant %d but owned by tenant %d", id, i-1, e.Page, e.Tenant, owners[ix])
		}
		return fn(e, int32(ix))
	}
	if err := s.sealedEntries(ctx, snap, step); err != nil {
		return nil, err
	}
	if err := snap.log.each(step); err != nil {
		return nil, err
	}
	return owners, nil
}

// sealedEntries streams the sealed (pre-tail) portion of one shard's log
// from its WAL segments, in order, invoking fn per entry. Segments below
// the snapshot's active index are sealed and immutable, so reading them
// concurrently with live writes is safe; the entry count must come out at
// exactly snap.LogStart or the history is incomplete.
func (s *Service) sealedEntries(ctx context.Context, snap *ShardSnapshot, fn func(LogEntry) error) error {
	if snap.LogStart == 0 {
		return nil
	}
	if s.walCfg == nil {
		return fmt.Errorf("cached: shard %d log starts at %d with no WAL to stream the prefix from", snap.Shard, snap.LogStart)
	}
	dir := shardDirName(s.walCfg.Dir, snap.Shard)
	count := 0
	for idx := 0; idx < snap.Seg; idx++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cached: verify aborted: %w", err)
		}
		rc, err := s.walCfg.FS.Open(path.Join(dir, segName(idx)))
		if err != nil {
			return fmt.Errorf("cached: shard %d: open sealed segment %d: %w", snap.Shard, idx, err)
		}
		_, torn, serr := scanSegment(rc, func(rec walRecord) error {
			if rec.kind == recHeader {
				return nil
			}
			if count >= snap.LogStart {
				return fmt.Errorf("cached: shard %d: sealed segments hold more than %d entries", snap.Shard, snap.LogStart)
			}
			count++
			return fn(rec.entry)
		})
		rc.Close()
		if serr != nil {
			return serr
		}
		if torn {
			return fmt.Errorf("cached: shard %d: sealed segment %d has a torn tail", snap.Shard, idx)
		}
	}
	if count != snap.LogStart {
		return fmt.Errorf("cached: shard %d: sealed segments hold %d entries, snapshot expects %d", snap.Shard, count, snap.LogStart)
	}
	return nil
}

func emptyCounters(tenants int) Counters {
	return Counters{
		Requests:  make([]int64, tenants),
		Hits:      make([]int64, tenants),
		Misses:    make([]int64, tenants),
		Evictions: make([]int64, tenants),
	}
}

// liveCounters sums the per-shard snapshots.
func liveCounters(snaps []*ShardSnapshot, tenants int) Counters {
	c := emptyCounters(tenants)
	for _, snap := range snaps {
		for t := 0; t < tenants; t++ {
			c.Hits[t] += snap.Hits[t]
			c.Misses[t] += snap.Misses[t]
			c.Evictions[t] += snap.Evictions[t]
			c.Requests[t] += snap.Hits[t] + snap.Misses[t]
		}
	}
	c.total()
	return c
}

func (c *Counters) total() {
	c.TotalHits, c.TotalMisses, c.TotalEvictions = 0, 0, 0
	for t := range c.Hits {
		c.TotalHits += c.Hits[t]
		c.TotalMisses += c.Misses[t]
		c.TotalEvictions += c.Evictions[t]
	}
}

// diffCounters reports every per-tenant mismatch between live and replay.
func diffCounters(live, replay Counters, tenants int) []string {
	var diffs []string
	add := func(t int, what string, l, r int64) {
		if l != r {
			diffs = append(diffs, fmt.Sprintf("tenant %d: %s live=%d replay=%d", t, what, l, r))
		}
	}
	for t := 0; t < tenants; t++ {
		add(t, "requests", live.Requests[t], replay.Requests[t])
		add(t, "hits", live.Hits[t], replay.Hits[t])
		add(t, "misses", live.Misses[t], replay.Misses[t])
		add(t, "evictions", live.Evictions[t], replay.Evictions[t])
	}
	return diffs
}

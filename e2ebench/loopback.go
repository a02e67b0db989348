package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"convexcache/internal/cached"
)

// tally is the client's own account of what the server acknowledged.
type tally struct {
	Batches   int64   `json:"batches"`
	Failed    int64   `json:"failed"`
	Requests  int64   `json:"requests"`
	Hits      []int64 `json:"hits"`   // per tenant
	Misses    []int64 `json:"misses"` // per tenant
	Retries   int64   `json:"retries"`
	Rebalance int64   `json:"rebalances"`
}

func newTally(tenants int) tally {
	return tally{Hits: make([]int64, tenants), Misses: make([]int64, tenants)}
}

func (t *tally) add(o tally) {
	t.Batches += o.Batches
	t.Failed += o.Failed
	t.Requests += o.Requests
	t.Retries += o.Retries
	t.Rebalance += o.Rebalance
	for i := range t.Hits {
		t.Hits[i] += o.Hits[i]
		t.Misses[i] += o.Misses[i]
	}
}

func (t *tally) totals() (hits, misses int64) {
	for i := range t.Hits {
		hits += t.Hits[i]
		misses += t.Misses[i]
	}
	return hits, misses
}

// sample is one batch round trip: completion offset from the phase start
// and the round-trip time.
type sample struct {
	at, rtt time.Duration
}

// conn is one client connection of the closed loop: it sends its next batch
// only after the previous reply arrived.
type conn struct {
	id      int
	http    *http.Client
	base    string
	tenants []uint8 // tenant of each request of each pool batch, flattened
	batch   int
	tally   tally
	samples []sample
	spans   *spanLog
	resp    cached.CacheResponse
	buf     bytes.Buffer
}

// loadgen is the load generator: it runs the closed loop over a server.
type loadgen struct {
	sp    spec
	in    *input
	srv   *server
	conns []*conn
	next  atomic.Int64 // index of the next batch of the stream
	// inline makes run post the rebalances due inside its range from
	// whichever connection reaches them; the warm-up leaves it off and
	// posts them itself with both connections idle.
	inline bool
	// scrapeEvery > 0 makes connection 0 scrape /metrics every that many
	// of its batches, keeping the largest shard mailbox depth seen.
	scrapeEvery int
	mailboxMax  atomic.Int64
	errMu       sync.Mutex
	err         error
}

func newLoadgen(sp spec, in *input, srv *server) *loadgen {
	d := &loadgen{sp: sp, in: in, srv: srv}
	for c := 0; c < sp.Conns; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		d.conns = append(d.conns, &conn{
			id: c, http: &http.Client{Transport: tr, Timeout: 30 * time.Second},
			base: srv.base, tenants: in.tenants, batch: sp.Batch, tally: newTally(sp.Tenants),
		})
	}
	return d
}

func (d *loadgen) close() {
	for _, c := range d.conns {
		c.http.CloseIdleConnections()
	}
}

func (d *loadgen) fail(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

func (d *loadgen) failed() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// total sums the connections' tallies.
func (d *loadgen) total() tally {
	t := newTally(d.sp.Tenants)
	for _, c := range d.conns {
		t.add(c.tally)
	}
	return t
}

// rebalanceDue reports whether the controller step is posted before batch i.
func (d *loadgen) rebalanceDue(i int) bool {
	return d.sp.RebalanceEvery > 0 && i > 0 && i%d.sp.RebalanceEvery == 0
}

// warmup serves the fixed prefix [0, WarmupBatches). Rebalances happen
// between segments with both connections idle, so the quota vector each
// request sees depends only on the request count.
func (d *loadgen) warmup() error {
	from := 0
	for from < d.sp.WarmupBatches {
		to := d.sp.WarmupBatches
		if d.sp.RebalanceEvery > 0 {
			to = min(to, (from/d.sp.RebalanceEvery+1)*d.sp.RebalanceEvery)
		}
		if from > 0 && d.rebalanceDue(from) {
			if err := d.conns[0].rebalance(); err != nil {
				return err
			}
		}
		d.next.Store(int64(from))
		d.run(to, time.Time{}, false)
		if err := d.failed(); err != nil {
			return err
		}
		from = to
	}
	d.inline = true
	return nil
}

// run drives the connections from batch index d.next up to stop. With
// record, round trips are sampled relative to start.
func (d *loadgen) run(stop int, start time.Time, record bool) {
	var wg sync.WaitGroup
	for _, c := range d.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for d.failed() == nil {
				i := int(d.next.Add(1) - 1)
				if i >= stop {
					return
				}
				if d.inline && d.rebalanceDue(i) {
					if err := c.rebalance(); err != nil {
						d.fail(err)
						return
					}
				}
				t0 := time.Now()
				if err := c.post(d.in.batch(i), i%len(d.in.batches)); err != nil {
					d.fail(err)
					return
				}
				t1 := time.Now()
				if record {
					c.samples = append(c.samples, sample{at: t1.Sub(start), rtt: t1.Sub(t0)})
				}
				if c.spans != nil {
					c.spans.add("client.post", t0, t1, -1, i)
				}
				if c.id == 0 && d.scrapeEvery > 0 && c.tally.Batches%int64(d.scrapeEvery) == 0 {
					m, err := d.srv.metrics()
					if err != nil {
						d.fail(err)
						return
					}
					if v := m["cached_shard_mailbox_depth:max"]; v > d.mailboxMax.Load() {
						d.mailboxMax.Store(v)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// post sends one batch and checks the reply: status 200, one result per
// request, hits+misses equal to the batch size. Load shedding (429/503) is
// retried with backoff like `cached drive`; a batch still refused after the
// budget counts as failed.
func (c *conn) post(body []byte, poolIndex int) error {
	n := c.batch
	c.tally.Batches++
	for attempt := 0; ; attempt++ {
		resp, err := c.http.Post(c.base+"/v1/cache", "text/plain", bytes.NewReader(body))
		if err != nil {
			c.tally.Failed++
			return fmt.Errorf("post batch: %w", err)
		}
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			c.tally.Failed++
			return fmt.Errorf("read reply: %w", err)
		}
		if (resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests) && attempt < 8 {
			c.tally.Retries++
			time.Sleep(time.Duration(10<<attempt) * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			c.tally.Failed++
			return fmt.Errorf("batch refused: status %d: %s", resp.StatusCode, clip(c.buf.Bytes()))
		}
		break
	}
	c.resp = cached.CacheResponse{}
	if err := json.Unmarshal(c.buf.Bytes(), &c.resp); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	r := &c.resp
	if len(r.Results) != n || r.Requests != n || r.Hits+r.Misses != n || r.Shed != 0 {
		return fmt.Errorf("reply does not account for its batch of %d: requests=%d hits=%d misses=%d shed=%d results=%d",
			n, r.Requests, r.Hits, r.Misses, r.Shed, len(r.Results))
	}
	tenants := c.tenants[poolIndex*c.batch : poolIndex*c.batch+n]
	hits := 0
	for j := 0; j < n; j++ {
		switch r.Results[j] {
		case cached.ResultHit:
			c.tally.Hits[tenants[j]]++
			hits++
		case cached.ResultMiss:
			c.tally.Misses[tenants[j]]++
		default:
			return fmt.Errorf("reply result %d is %q", j, r.Results[j])
		}
	}
	if hits != r.Hits {
		return fmt.Errorf("reply counts %d hits but its results hold %d", r.Hits, hits)
	}
	c.tally.Requests += int64(n)
	return nil
}

// rebalance posts one capacity-controller step.
func (c *conn) rebalance() error {
	resp, err := c.http.Post(c.base+"/v1/cache/rebalance", "text/plain", nil)
	if err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rebalance: status %d: %s", resp.StatusCode, clip(body))
	}
	c.tally.Rebalance++
	return nil
}

// checkConservation demands that the client's acknowledged hits and misses
// equal the server's per-tenant /v1/cache/stats and the /metrics totals.
func checkConservation(cl tally, st cached.Stats, m map[string]int64) error {
	hits, misses := cl.totals()
	if len(st.PerTenant) != len(cl.Hits) {
		return fmt.Errorf("stats report %d tenants, client drove %d", len(st.PerTenant), len(cl.Hits))
	}
	for t, ts := range st.PerTenant {
		if ts.Hits != cl.Hits[t] || ts.Misses != cl.Misses[t] {
			return fmt.Errorf("tenant %d: client counted %d hits / %d misses, stats report %d / %d",
				t, cl.Hits[t], cl.Misses[t], ts.Hits, ts.Misses)
		}
	}
	if st.Requests != cl.Requests || st.Hits != hits || st.Misses != misses {
		return fmt.Errorf("client acknowledged %d requests (%d hits), stats report %d (%d hits)",
			cl.Requests, hits, st.Requests, st.Hits)
	}
	if m["cached_requests_total"] != cl.Requests || m["cached_hits_total"] != hits {
		return fmt.Errorf("client acknowledged %d requests (%d hits), /metrics reports %d (%d hits)",
			cl.Requests, hits, m["cached_requests_total"], m["cached_hits_total"])
	}
	return nil
}

// checkVerify demands a clean live-vs-replay report whose live side is the
// stats the client was reconciled against, and whose replay counters give
// the same objective as the live ones.
func checkVerify(rep *cached.VerifyReport, st cached.Stats, obj func([]int64) float64) error {
	if !rep.Clean || len(rep.Diffs) > 0 {
		return fmt.Errorf("verify is not clean: %v", rep.Diffs)
	}
	if int64(rep.Requests) != st.Requests {
		return fmt.Errorf("verify replayed %d requests, stats report %d", rep.Requests, st.Requests)
	}
	if rep.Live.TotalHits != st.Hits || rep.Live.TotalMisses != st.Misses {
		return fmt.Errorf("verify live side %d hits / %d misses, stats report %d / %d",
			rep.Live.TotalHits, rep.Live.TotalMisses, st.Hits, st.Misses)
	}
	live := make([]int64, len(st.PerTenant))
	for t, ts := range st.PerTenant {
		live[t] = ts.Misses
	}
	if len(rep.Replay.Misses) != len(live) {
		return fmt.Errorf("verify replay reports %d tenants, stats %d", len(rep.Replay.Misses), len(live))
	}
	if a, b := obj(live), obj(rep.Replay.Misses); a != b {
		return fmt.Errorf("objective from live stats %v differs from the verify replay's %v", a, b)
	}
	return nil
}

// checkSameStats demands per-tenant equality of two stats reports.
func checkSameStats(what string, a, b cached.Stats) error {
	if a.Requests != b.Requests || a.Hits != b.Hits || a.Misses != b.Misses || a.Evictions != b.Evictions {
		return fmt.Errorf("%s: totals %d/%d/%d/%d vs %d/%d/%d/%d", what,
			a.Requests, a.Hits, a.Misses, a.Evictions, b.Requests, b.Hits, b.Misses, b.Evictions)
	}
	for t := range a.PerTenant {
		if a.PerTenant[t] != b.PerTenant[t] {
			return fmt.Errorf("%s: tenant %d %+v vs %+v", what, t, a.PerTenant[t], b.PerTenant[t])
		}
	}
	return nil
}

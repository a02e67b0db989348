package mrclive

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"convexcache/internal/trace"
)

// oracleStream is a seeded residue-class request stream in the shape a
// shard of scale sees: page j is the id shard + j·scale, owned for life by
// tenant owner[j], drawn from a hot set that shifts every phase requests
// (so whole epochs of pages expire) mixed with uniform cold traffic (so the
// stacks outgrow their first slot array and compact).
func oracleStream(seed int64, tenants, scale, shard, pages, phase, length int) ([]trace.Tenant, []trace.PageID) {
	rng := rand.New(rand.NewSource(seed))
	owner := make([]trace.Tenant, pages)
	for j := range owner {
		owner[j] = trace.Tenant(rng.Intn(tenants))
	}
	ts := make([]trace.Tenant, length)
	ps := make([]trace.PageID, length)
	const hot = 24
	for i := range ps {
		var j int
		if rng.Float64() < 0.7 {
			j = (i/phase*hot + rng.Intn(hot)) % pages
		} else {
			j = rng.Intn(pages)
		}
		ts[i], ps[i] = owner[j], trace.PageID(shard+j*scale)
	}
	return ts, ps
}

// diffSnapshots reports the first difference between two snapshots.
func diffSnapshots(got, want []TenantWindow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tenants, reference %d", len(got), len(want))
	}
	for t := range got {
		if got[t].Observed != want[t].Observed || got[t].Sampled != want[t].Sampled {
			return fmt.Errorf("tenant %d: observed/sampled %d/%d, reference %d/%d",
				t, got[t].Observed, got[t].Sampled, want[t].Observed, want[t].Sampled)
		}
		if !reflect.DeepEqual(got[t].Hist, want[t].Hist) {
			for d := range got[t].Hist {
				if got[t].Hist[d] != want[t].Hist[d] {
					return fmt.Errorf("tenant %d: Hist[%d] = %d, reference %d", t, d, got[t].Hist[d], want[t].Hist[d])
				}
			}
			return fmt.Errorf("tenant %d: histogram lengths %d, reference %d", t, len(got[t].Hist), len(want[t].Hist))
		}
	}
	return nil
}

// TestSamplerMatchesReference drives the dense sampler and the map-keyed
// reference with the same residue-class streams at every sampling rate and
// shard scale the service uses, with epochs short enough that expiry and
// compaction fire many times, and requires bit-equal Snapshots after every
// epoch.
func TestSamplerMatchesReference(t *testing.T) {
	for _, rate := range []float64{1, 0.5, 0.1} {
		for _, scale := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("rate=%g/scale=%d", rate, scale), func(t *testing.T) {
				cfg := Config{Tenants: 3, MaxSize: 200, Rate: rate, Seed: 5,
					WindowEpochs: 3, EpochRequests: 97, Scale: scale}
				s, err := NewSampler(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := newRefSampler(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ts, ps := oracleStream(int64(scale)*7+int64(rate*10), 3, scale, scale-1, 900, 1500, 30000)
				for i := range ps {
					observe(t, s, ts[i], ps[i])
					ref.Observe(ts[i], ps[i])
					if (i+1)%cfg.EpochRequests == 0 || i == len(ps)-1 {
						if err := diffSnapshots(s.Snapshot(), ref.Snapshot()); err != nil {
							t.Fatalf("after request %d: %v", i+1, err)
						}
					}
				}
			})
		}
	}
}

// FuzzSampler is the differential fuzz target of the dense sampler: the
// first bytes pick a configuration, every following byte pair one request
// on residue-class page j, owned by tenant j mod Tenants. A pair with its
// top bit set asks for the page under another tenant instead: once the
// page is sampled, the dense sampler must refuse it (and the reference
// never sees it). The two must agree bit for bit after every epoch and at
// the end.
func FuzzSampler(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3})
	f.Add([]byte{1, 2, 0, 0, 1, 7, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 1, 0})
	f.Add([]byte{2, 1, 3, 1, 0, 3, 9, 0, 9, 0, 9, 128, 9, 0, 3, 0, 200, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		cfg := Config{
			Rate:          []float64{1, 0.5, 0.1}[data[0]%3],
			Scale:         []int{1, 2, 4}[data[1]%3],
			Tenants:       1 + int(data[2]%4),
			WindowEpochs:  1 + int(data[3]%4),
			EpochRequests: 1 + int(data[4]%32),
			MaxSize:       1 + int(data[5]%64),
			Seed:          uint64(data[0]),
		}
		shard := int(data[1]) % cfg.Scale
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fed := 0
		for ops := data[6:]; len(ops) >= 2; ops = ops[2:] {
			j := int(binary.LittleEndian.Uint16(ops) & 0x3ff)
			tn := trace.Tenant(j % cfg.Tenants)
			p := trace.PageID(shard + j*cfg.Scale)
			if ops[1]&0x80 != 0 && cfg.Tenants > 1 && ownerOf(s, p, cfg.Scale) >= 0 {
				// The sampled page under another tenant: refused, and the
				// reference never sees it.
				if err := s.Observe((tn+1)%trace.Tenant(cfg.Tenants), p); err == nil {
					t.Fatalf("page %d of tenant %d accepted under another tenant", p, tn)
				}
				continue
			}
			if err := s.Observe(tn, p); err != nil {
				t.Fatal(err)
			}
			ref.Observe(tn, p)
			fed++
			if fed%cfg.EpochRequests == 0 {
				if err := diffSnapshots(s.Snapshot(), ref.Snapshot()); err != nil {
					t.Fatalf("after %d requests: %v", fed, err)
				}
			}
		}
		if err := diffSnapshots(s.Snapshot(), ref.Snapshot()); err != nil {
			t.Fatalf("at end (%d requests): %v", fed, err)
		}
	})
}

// ownerOf is the tenant that owns page p in s, or -1 when p was never
// sampled.
func ownerOf(s *Sampler, p trace.PageID, scale int) trace.Tenant {
	q := int(p) / scale
	if q >= len(s.refs) {
		return -1
	}
	return trace.Tenant(s.refs[q].owner - 1)
}

// TestSamplerRefusesForeignPages pins the id contract: a sampled page seen
// under a second tenant, or a page outside the residue class of the first,
// is refused with an error and leaves the window untouched.
func TestSamplerRefusesForeignPages(t *testing.T) {
	s, err := NewSampler(Config{Tenants: 2, MaxSize: 16, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		observe(t, s, 0, 1)
		observe(t, s, 1, 3)
	}
	before := s.Snapshot()
	if err := s.Observe(1, 1); err == nil {
		t.Error("page 1 of tenant 0 accepted under tenant 1")
	}
	if err := s.Observe(0, 4); err == nil {
		t.Error("page 4 (residue 0) accepted by a residue-1 sampler")
	}
	if err := s.Observe(2, 5); err == nil {
		t.Error("tenant 2 of 2 accepted")
	}
	if err := s.Observe(0, -1); err == nil {
		t.Error("negative page accepted")
	}
	if err := diffSnapshots(s.Snapshot(), before); err != nil {
		t.Fatalf("refused requests changed the window: %v", err)
	}
}

// TestSamplerHighIDsFirst covers the recovery shape: a sampler built after
// the interner already handed out high ids first sees a high id, then low
// ones. The page table must grow to the index it is asked for, not assume
// first-appearance order, and the curve must match the reference.
func TestSamplerHighIDsFirst(t *testing.T) {
	cfg := Config{Tenants: 2, MaxSize: 32, Scale: 2, WindowEpochs: 2, EpochRequests: 50}
	s, err := NewSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := []trace.PageID{1<<22 + 1, 1, 5, 1<<22 + 1, 1<<20 + 1, 3, 1, 5, 3, 1<<20 + 1}
	for i := 0; i < 300; i++ {
		p := pages[i%len(pages)]
		tn := trace.Tenant(p / 2 % 2)
		observe(t, s, tn, p)
		ref.Observe(tn, p)
	}
	if err := diffSnapshots(s.Snapshot(), ref.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if len(s.refs) < 1<<21+1 {
		t.Fatalf("page table has %d entries, below dense index %d", len(s.refs), 1<<21)
	}
}

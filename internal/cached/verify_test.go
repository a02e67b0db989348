package cached

import (
	"context"
	"os"
	"path"
	"strings"
	"sync"
	"testing"

	"convexcache/internal/policy"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// rewriteSealedSegment replaces one sealed segment of shard id with the
// header and entries mut returns, each in a CRC-valid frame, so the fault
// reaches Verify's stream instead of being cut as a torn tail.
func rewriteSealedSegment(t *testing.T, svc *Service, id, seg int, mut func([]walRecord) []walRecord) {
	t.Helper()
	name := path.Join(shardDirName(svc.walCfg.Dir, id), segName(seg))
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	var recs []walRecord
	_, torn, err := scanSegment(f, func(r walRecord) error {
		recs = append(recs, r)
		return nil
	})
	f.Close()
	if err != nil || torn {
		t.Fatalf("scan sealed segment: torn=%v err=%v", torn, err)
	}
	if len(recs) < 16 || recs[0].kind != recHeader {
		t.Fatalf("sealed segment holds %d records, want a header and at least 15 entries", len(recs))
	}
	hdr := recs[0]
	var out []byte
	out = appendFrame(out, encodeHeader(hdr.shard, hdr.shards, hdr.startEntry))
	for _, r := range mut(recs[1:]) {
		e := r.entry
		if e.Quotas != nil {
			out = appendFrame(out, encodeQuotas(nil, e.Seq, e.Quotas))
		} else {
			out = appendFrame(out, encodeRequest(nil, e.Seq, e.Page, e.Tenant, r.key))
		}
	}
	if err := os.WriteFile(name, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsBadLog crafts one CRC-valid sealed segment per kind of
// bad entry. Verify must return an error naming the fault — never panic,
// never report a clean or merely divergent replay. The seq, tenant, residue
// and quota-length faults are the ones recovery also rejects (checkEntry);
// the rest are checks only the verify stream makes. "none" rewrites the
// segment unchanged, which must stay clean.
func TestVerifyRejectsBadLog(t *testing.T) {
	const tenants, n = 2, 2
	quota := func(e LogEntry, q int) walRecord {
		return walRecord{kind: recQuotas, entry: LogEntry{Seq: e.Seq, Page: -1, Tenant: -1, Quotas: make([]int, q)}}
	}
	cases := []struct {
		name, want string
		mut        func(es []walRecord) []walRecord
	}{
		{"none", "", func(es []walRecord) []walRecord { return es }},
		{"seq-repeats", "not increasing", func(es []walRecord) []walRecord {
			es[8].entry.Seq = es[7].entry.Seq
			return es
		}},
		{"tenant-too-large", "out-of-range tenant 2", func(es []walRecord) []walRecord {
			es[8].entry.Tenant = tenants
			return es
		}},
		{"tenant-negative", "out-of-range tenant -1", func(es []walRecord) []walRecord {
			es[8].entry.Tenant = -1
			return es
		}},
		{"page-off-residue", "residue class", func(es []walRecord) []walRecord {
			es[8].entry.Page++
			return es
		}},
		{"quota-missized", "quota control entry with 3 tenants", func(es []walRecord) []walRecord {
			es[8] = quota(es[8].entry, tenants+1)
			return es
		}},
		{"quota-in-classic-mode", "outside partition mode", func(es []walRecord) []walRecord {
			es[8] = quota(es[8].entry, tenants)
			return es
		}},
		{"page-before-predecessor", "appears before page", func(es []walRecord) []walRecord {
			es[0].entry.Page += 1000 * n
			return es
		}},
		{"owner-flip", "but owned by tenant", func(es []walRecord) []walRecord {
			seen := map[trace.PageID]bool{}
			for i := range es {
				if seen[es[i].entry.Page] {
					es[i].entry.Tenant = 1 - es[i].entry.Tenant
					return es
				}
				seen[es[i].entry.Page] = true
			}
			t.Fatal("no repeated page in the sealed segment")
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := testWAL(t.TempDir())
			w.CheckpointEvery = -1
			svc := newWALService(t, Config{K: 64, Shards: n, Tenants: tenants, NewPolicy: testPolicy, WAL: w})
			applyAll(t, svc, genRequests(5, tenants, 300, 6000), 256)
			if seg := svc.snapshotAll(false, false)[0].Seg; seg < 2 {
				t.Fatalf("shard 0 sealed %d segments, want at least 2", seg)
			}
			rewriteSealedSegment(t, svc, 0, 0, tc.mut)
			rep, err := svc.Verify(context.Background())
			if tc.want == "" {
				if err != nil || !rep.Clean {
					t.Fatalf("rewritten but unchanged log: err=%v report=%+v", err, rep)
				}
				return
			}
			if err == nil {
				t.Fatalf("Verify accepted the log (clean=%v)", rep.Clean)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the fault %q", err, tc.want)
			}
		})
	}
}

// TestVerifySharesLogUnderRotation runs Verify in a loop against live
// traffic on a WAL with the smallest segments, so shards rotate — and reset
// their in-memory logs — while Verify still reads the chunks its snapshot
// shares. Every report must be clean. Under -race this also pins the
// ownership rule: entryLog.reset drops chunks instead of reusing them.
func TestVerifySharesLogUnderRotation(t *testing.T) {
	w := testWAL(t.TempDir())
	w.CheckpointEvery = -1
	svc := newWALService(t, Config{K: 64, Shards: 2, Tenants: 2, NewPolicy: testPolicy, WAL: w})
	reqs := genRequests(9, 2, 400, 40_000)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(reqs); lo += 64 {
			if _, err := svc.Apply(reqs[lo:min(lo+64, len(reqs))]); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	// The last pass runs after the traffic has stopped, so at least one
	// Verify sees the whole history.
	verifies := 0
	for running := true; running; verifies++ {
		select {
		case <-done:
			running = false
		default:
		}
		rep, err := svc.Verify(context.Background())
		if err != nil {
			t.Errorf("verify %d under rotation: %v", verifies, err)
			break
		}
		if !rep.Clean {
			t.Errorf("verify %d under rotation diverged: %v", verifies, rep.Diffs)
			break
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := svc.Stats(); st.Shards[0].Seg < 2 || st.Shards[1].Seg < 2 {
		t.Fatalf("shards rotated to segments %d and %d, want both past 1", st.Shards[0].Seg, st.Shards[1].Seg)
	}
	t.Logf("%d verifies under live rotation", verifies)
}

// TestVerifyMapEnginePolicies pins the single-shard replay of policies that
// have no dense engine: Verify replays the shard's view through
// sim.RunContext on the original page ids, and must come out clean.
func TestVerifyMapEnginePolicies(t *testing.T) {
	for _, name := range []string{"lru", "arc", "greedy-dual"} {
		t.Run(name, func(t *testing.T) {
			mk := func() sim.Policy {
				p, err := policy.New(name, policy.Spec{K: 48, Tenants: 3, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			if _, dense := mk().(sim.DensePolicy); dense {
				t.Fatalf("%s has a dense engine; this test needs one without", name)
			}
			svc := newWALService(t, Config{K: 48, Shards: 1, Tenants: 3, NewPolicy: mk})
			applyAll(t, svc, genRequests(3, 3, 200, 5000), 128)
			requireClean(t, svc)
		})
	}
}

package cached

import (
	"encoding/json"
	"fmt"
	"os"
	"path"
	"reflect"
	"sort"
	"strings"
	"testing"

	"convexcache/internal/fault"
	"convexcache/internal/trace"
)

// keyTableOf flattens a shard's key table to "tenant/key" -> page, the
// identity state recovery must reproduce exactly.
func keyTableOf(sh *shard) map[string]trace.PageID {
	out := make(map[string]trace.PageID)
	for t := range sh.keys {
		sh.keys[t].each(func(k []byte, p trace.PageID) {
			out[fmt.Sprintf("%d/%s", t, k)] = p
		})
	}
	return out
}

// rewriteCheckpoint re-encodes one checkpoint file of shard id with edit
// applied to its top-level JSON fields, in a CRC-valid frame, so the change
// reaches checkpoint validation instead of failing the frame check.
func rewriteCheckpoint(t *testing.T, dir string, id, entries int, edit func(map[string]json.RawMessage)) {
	t.Helper()
	name := path.Join(shardDirName(dir, id), ckptName(entries))
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readOneFrame(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]json.RawMessage{}
	if err := json.Unmarshal(payload, &fields); err != nil {
		t.Fatal(err)
	}
	edit(fields)
	if payload, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, appendFrame(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}
}

func rawJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// intField decodes the integer checkpoint field name.
func intField(t *testing.T, f map[string]json.RawMessage, name string) int64 {
	t.Helper()
	var v int64
	if err := json.Unmarshal(f[name], &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// shardCheckpoints lists shard id's checkpoint entry counts, newest first.
func shardCheckpoints(t *testing.T, dir string, id int) []int {
	t.Helper()
	cks, err := listCheckpoints(fault.OSFS, shardDirName(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	return cks
}

// TestRecoverRejectsBadKeyRecords crafts one CRC-valid sealed segment per
// kind of key record the live allocator cannot have written. Recovery must
// fail loudly naming the fault — with checkpoints (the covered prefix only
// re-interns keys) and without (full replay) — instead of serving a key
// table that disagrees with the log. "none" rewrites the segment unchanged,
// which must recover to the pre-shutdown stats.
func TestRecoverRejectsBadKeyRecords(t *testing.T) {
	const tenants, n = 2, 2
	keyed := func(es []walRecord) []int {
		var out []int
		for i, r := range es {
			if r.key != nil {
				out = append(out, i)
			}
		}
		return out
	}
	cases := []struct {
		name, want string
		mut        func(t *testing.T, es []walRecord) []walRecord
	}{
		{"none", "", func(t *testing.T, es []walRecord) []walRecord { return es }},
		{"duplicate-key-new-page", "but it is interned as page", func(t *testing.T, es []walRecord) []walRecord {
			ks := keyed(es)
			for _, j := range ks[1:] {
				if es[j].entry.Tenant == es[ks[0]].entry.Tenant {
					es[j].key = es[ks[0]].key
					return es
				}
			}
			t.Fatal("no second first-appearance record for the same tenant")
			return nil
		}},
		{"skipped-page-id", "but the next page is", func(t *testing.T, es []walRecord) []walRecord {
			es[keyed(es)[2]].entry.Page += n
			return es
		}},
		{"keyless-unallocated-page", "not allocated yet", func(t *testing.T, es []walRecord) []walRecord {
			for i := range es {
				if es[i].key == nil && es[i].entry.Quotas == nil {
					es[i].entry.Page += 1000 * n
					return es
				}
			}
			t.Fatal("no keyless record in the sealed segment")
			return nil
		}},
	}
	for _, every := range []int{-1, 1024} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/checkpoint-every=%d", tc.name, every), func(t *testing.T) {
				dir := t.TempDir()
				w := testWAL(dir)
				w.CheckpointEvery = every
				cfg := Config{K: 64, Shards: n, Tenants: tenants, NewPolicy: testPolicy, WAL: w}
				svc, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				applyAll(t, svc, genRequests(5, tenants, 300, 6000), 256)
				if seg := svc.snapshotAll(false, false)[0].Seg; seg < 2 {
					t.Fatalf("shard 0 sealed %d segments, want at least 2", seg)
				}
				svc.Close()
				before := svc.Stats()
				if every > 0 && len(shardCheckpoints(t, dir, 0)) == 0 {
					t.Fatal("shard 0 wrote no checkpoint")
				}
				rewriteSealedSegment(t, svc, 0, 0, func(es []walRecord) []walRecord { return tc.mut(t, es) })

				rcfg := cfg
				rw := *w
				rw.Recover = true
				rcfg.WAL = &rw
				svc2, err := New(rcfg)
				if tc.want == "" {
					if err != nil {
						t.Fatalf("rewritten but unchanged log: %v", err)
					}
					defer svc2.Close()
					if got := normalizeStats(svc2.Stats()); !reflect.DeepEqual(got, normalizeStats(before)) {
						t.Fatalf("recovered stats diverge:\n got %+v\nwant %+v", got, before)
					}
					requireClean(t, svc2)
					return
				}
				if err == nil {
					svc2.Close()
					t.Fatal("recovery accepted a key record the allocator cannot have written")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not name the fault %q", err, tc.want)
				}
			})
		}
	}
}

// TestRecoverCheckpointFormats pins both directions of the checkpoint
// format. A checkpoint in the older format, which carried the whole key
// table, still installs and recovers the exact engine and key table. A
// checkpoint whose page allocator disagrees with the WAL prefix is
// rejected, recovery falls back to the older checkpoint or to full replay,
// and the report says which — with the stats still equal to the pre-crash
// stats either way.
func TestRecoverCheckpointFormats(t *testing.T) {
	const k, shards, tenants, n = 96, 2, 3, 20_000
	reqs := genRequests(21, tenants, 400, n)

	cases := []struct {
		name string
		// edit rewrites shard 0's checkpoint files before recovery; it
		// returns the checkpoint shard 0 must recover from (-1 = full replay).
		edit func(t *testing.T, dir string, cks []int, crashed *Service) int
	}{
		{"older-format-with-keys", func(t *testing.T, dir string, cks []int, crashed *Service) int {
			for id, sh := range crashed.shards {
				for _, entries := range shardCheckpoints(t, dir, id) {
					rewriteCheckpoint(t, dir, id, entries, func(f map[string]json.RawMessage) {
						f["keys"] = rawJSON(t, olderFormatKeys(sh, trace.PageID(intField(t, f, "next_page"))))
					})
				}
			}
			return cks[0]
		}},
		{"pages-disagree-newest", func(t *testing.T, dir string, cks []int, _ *Service) int {
			rewriteCheckpoint(t, dir, 0, cks[0], func(f map[string]json.RawMessage) {
				f["pages"] = rawJSON(t, intField(t, f, "pages")+1)
			})
			return cks[1]
		}},
		{"next-page-disagrees-all", func(t *testing.T, dir string, cks []int, _ *Service) int {
			for _, entries := range cks {
				rewriteCheckpoint(t, dir, 0, entries, func(f map[string]json.RawMessage) {
					f["next_page"] = rawJSON(t, intField(t, f, "next_page")+shards)
				})
			}
			return -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{K: k, Shards: shards, Tenants: tenants, NewPolicy: testPolicy, WAL: testWAL(dir)}
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			applyAll(t, svc, reqs, 512)
			svc.Crash()
			frozen := svc.Stats()
			cks := shardCheckpoints(t, dir, 0)
			if len(cks) != 2 {
				t.Fatalf("shard 0 holds %d checkpoints, want 2", len(cks))
			}
			from0 := tc.edit(t, dir, cks, svc)

			rcfg := cfg
			rcfg.WAL = testWAL(dir)
			rcfg.WAL.Recover = true
			svc2 := newWALService(t, rcfg)
			rep := svc2.Recovery()
			wantCks, wantReplayed := shards, int64(0)
			for id := 0; id < shards; id++ {
				from := shardCheckpoints(t, dir, id)[0]
				if id == 0 {
					from = max(from0, 0)
					if from0 < 0 {
						wantCks--
					}
				}
				wantReplayed += frozen.Shards[id].Requests - int64(from)
			}
			if rep.Checkpoints != wantCks || rep.Replayed != wantReplayed {
				t.Fatalf("recovered from %d checkpoints replaying %d entries, want %d replaying %d",
					rep.Checkpoints, rep.Replayed, wantCks, wantReplayed)
			}
			if got := normalizeStats(svc2.Stats()); !reflect.DeepEqual(got, normalizeStats(frozen)) {
				t.Fatalf("recovered stats diverge:\n got %+v\nwant %+v", got, frozen)
			}
			for id := 0; id < shards; id++ {
				if got, want := keyTableOf(svc2.shards[id]), keyTableOf(svc.shards[id]); !reflect.DeepEqual(got, want) {
					t.Fatalf("shard %d: recovered key table (%d keys) differs from the crashed one (%d keys)", id, len(got), len(want))
				}
			}
			requireClean(t, svc2)
			applyAll(t, svc2, reqs[:5000], 512)
			requireClean(t, svc2)
		})
	}
}

// olderFormatKey is one entry of the key table older checkpoints carried.
type olderFormatKey struct {
	Tenant int    `json:"t"`
	Page   int64  `json:"p"`
	Key    string `json:"k"`
}

// olderFormatKeys rebuilds the key table an older checkpoint would have
// carried at allocator position next: every key interned below it (pages
// are handed out in increasing order), per tenant by page.
func olderFormatKeys(sh *shard, next trace.PageID) []olderFormatKey {
	var out []olderFormatKey
	for t := range sh.keys {
		base := len(out)
		sh.keys[t].each(func(k []byte, p trace.PageID) {
			if p < next {
				out = append(out, olderFormatKey{Tenant: t, Page: int64(p), Key: string(k)})
			}
		})
		keys := out[base:]
		sort.Slice(keys, func(i, j int) bool { return keys[i].Page < keys[j].Page })
	}
	return out
}

// TestCheckpointSizeIndependentOfHistory pins that a checkpoint is the
// engine image, not the history: a shard that goes on to intern 32x more
// keys than it can hold writes checkpoints no bigger than 2x its first
// (full-cache) one. Sizes are bytes on disk; nothing is timed.
func TestCheckpointSizeIndependentOfHistory(t *testing.T) {
	const k, tenants, keys, batch, every = 128, 2, 32 * 128, 64, 256
	dir := t.TempDir()
	w := testWAL(dir)
	w.CheckpointEvery = every
	svc := newWALService(t, Config{K: k, Shards: 1, Tenants: tenants, NewPolicy: testPolicy, WAL: w})
	reqs := make([]Request, keys)
	for i := range reqs {
		reqs[i] = Request{Op: OpPut, Tenant: trace.Tenant(i % tenants), Key: fmt.Appendf(nil, "history-key-%06d", i)}
	}
	newest := func() int64 {
		t.Helper()
		cks := shardCheckpoints(t, dir, 0)
		if len(cks) == 0 {
			t.Fatal("no checkpoint written")
		}
		fi, err := os.Stat(path.Join(shardDirName(dir, 0), ckptName(cks[0])))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	applyAll(t, svc, reqs[:every], batch)
	first := newest()
	applyAll(t, svc, reqs[every:], batch)
	last := newest()
	st := svc.Stats()
	if st.Shards[0].Pages != keys || st.Shards[0].Occupancy != k {
		t.Fatalf("shard interned %d keys with %d resident, want %d with %d", st.Shards[0].Pages, st.Shards[0].Occupancy, keys, k)
	}
	if last > 2*first {
		t.Fatalf("checkpoint grew from %d to %d bytes as the shard interned %d keys (k=%d): it carries history", first, last, keys, k)
	}
}

// TestCheckpointDurationMetric pins that every checkpoint write is timed
// into cached_checkpoint_duration_seconds and that /metrics exports it.
func TestCheckpointDurationMetric(t *testing.T) {
	w := testWAL(t.TempDir())
	w.CheckpointEvery = 100
	svc := newWALService(t, Config{K: 16, Shards: 1, Tenants: 2, NewPolicy: testPolicy, WAL: w})
	applyAll(t, svc, genRequests(3, 2, 50, 350), 50)
	if got := svc.Registry().Counter("cached_checkpoints_total").Value(); got != 3 {
		t.Fatalf("wrote %d checkpoints, want 3", got)
	}
	body := doText(t, svc.Handler(quietHTTP()), "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"# TYPE cached_checkpoint_duration_seconds histogram",
		"cached_checkpoint_duration_seconds_count 3",
		`cached_checkpoint_duration_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

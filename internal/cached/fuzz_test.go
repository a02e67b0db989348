package cached

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCachedRequest fuzzes the wire request parser. Properties:
//
//   - no panic on any input (the parser faces the network);
//   - an accepted line round-trips byte-identically through FormatRequest
//     (the grammar is canonical), and re-parses to the same request;
//   - every accepted request satisfies the documented invariants (known op,
//     tenant in range, key length and charset bounds).
func FuzzCachedRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte("GET 0 key"),
		[]byte("PUT 1 t1-key-42"),
		[]byte("GET 7 a"),
		[]byte("PUT 0 " + string(bytes.Repeat([]byte("x"), MaxKeyLen))),
		[]byte("GET 12345678 deep-tenant"),
		[]byte("get 0 lowercase-op"),
		[]byte("GET  0 double-space"),
		[]byte("GET 0"),
		[]byte("GET 01 leading-zero"),
		[]byte("GET -1 negative"),
		[]byte("PUT 0 key with space"),
		[]byte("PUT 0 bad\x7fbyte"),
		[]byte("DEL 0 unknown-op"),
		[]byte(""),
		[]byte("GET 999999999999 overflow"),
	}
	for _, s := range seeds {
		f.Add(s, 8)
	}
	f.Fuzz(func(t *testing.T, line []byte, tenants int) {
		r, err := ParseRequest(line, tenants)
		if err != nil {
			return
		}
		if r.Op != OpGet && r.Op != OpPut {
			t.Fatalf("accepted unknown op %q from %q", r.Op, line)
		}
		if tenants > 0 && (r.Tenant < 0 || int(r.Tenant) >= tenants) {
			t.Fatalf("accepted out-of-range tenant %d from %q (tenants=%d)", r.Tenant, line, tenants)
		}
		if r.Tenant < 0 {
			t.Fatalf("accepted negative tenant %d from %q", r.Tenant, line)
		}
		if len(r.Key) == 0 || len(r.Key) > MaxKeyLen {
			t.Fatalf("accepted key of length %d from %q", len(r.Key), line)
		}
		for _, c := range r.Key {
			if c < 0x21 || c > 0x7e {
				t.Fatalf("accepted key byte %#02x from %q", c, line)
			}
		}
		// Canonical round-trip: format, strip the newline, byte-compare.
		wire := FormatRequest(nil, r)
		if !bytes.Equal(wire[:len(wire)-1], line) {
			t.Fatalf("round-trip mismatch: parsed %q, formatted %q", line, wire[:len(wire)-1])
		}
		r2, err := ParseRequest(wire[:len(wire)-1], tenants)
		if err != nil {
			t.Fatalf("re-parse of formatted %q failed: %v", wire, err)
		}
		if r2.Op != r.Op || r2.Tenant != r.Tenant || !bytes.Equal(r2.Key, r.Key) {
			t.Fatalf("re-parse mismatch: %+v vs %+v", r, r2)
		}
	})
}

// FuzzCachedBatch fuzzes the batch splitter around the line parser: no
// panic, every returned request is individually valid, and a batch of
// formatted requests always re-parses to the same sequence.
func FuzzCachedBatch(f *testing.F) {
	f.Add([]byte("GET 0 a\nPUT 1 b\n"), 4)
	f.Add([]byte("GET 0 a\r\nPUT 1 b\r\n"), 4)
	f.Add([]byte("\n\nGET 0 a\n\n"), 4)
	f.Add([]byte("GET 0 a\nbogus\n"), 4)
	f.Add([]byte("GET 0 trailing-no-newline"), 4)
	f.Fuzz(func(t *testing.T, body []byte, tenants int) {
		reqs, err := ParseBatch(body, tenants)
		if err != nil {
			return
		}
		var wire []byte
		for _, r := range reqs {
			wire = FormatRequest(wire, r)
		}
		again, err := ParseBatch(wire, tenants)
		if err != nil {
			t.Fatalf("re-parse of formatted batch failed: %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("batch round-trip length: %d vs %d", len(again), len(reqs))
		}
		for i := range reqs {
			if again[i].Op != reqs[i].Op || again[i].Tenant != reqs[i].Tenant || !bytes.Equal(again[i].Key, reqs[i].Key) {
				t.Fatalf("batch round-trip mismatch at %d: %+v vs %+v", i, reqs[i], again[i])
			}
		}
	})
}

// FuzzCachedParseOracle is the differential oracle of the single-scan
// parser: on any body (and on the body taken as one line), AppendBatch and
// ParseRequest must give the same accept/reject, the same Request fields and
// the same error string as the two-step reference parser in
// wire_ref_test.go. AppendBatch must also leave a non-empty dst's prefix
// intact: appended to on success, returned unchanged on error.
func FuzzCachedParseOracle(f *testing.F) {
	long := string(bytes.Repeat([]byte("k"), MaxKeyLen))
	seeds := []string{
		"GET 0 a\nPUT 1 b\n",
		"GET 0 a\r\nPUT 1 b\r\n",
		"GET 0 a\r\r\n",
		"\n\n\r\nGET 0 a\n\n",
		"GET 123456789 nine-digit-tenant",
		"GET 1234567890 ten-digit-tenant",
		"GET 0123456789 ten-with-leading-zero",
		"GET 12345678x nine-with-letter",
		"GET 0x k",
		"PUT 0 " + long,
		"PUT 0 " + long + "k",
		"PUT 0 " + long[1:],
		"PUT 0 " + long + "\x7f",
		"PUT 0 " + long[1:] + "\x7f",
		"PUT 0 key with space\n",
		"GET 0 a b",
		"GET 0 a\x7f",
		"GET 0 \x20",
		"GET 0 ~!\x21",
		"GET 0 abcdefgh\x7fijklmnop\n",
		"GET 0 abcdefghijklmno\x00\n",
		"GET 0 abcdefg\xff\n",
		"GET 0 abcdefghijklmnop\r\nGET 0 x",
		"GET 3 x\nGET 0",
		"GET ",
		"GET",
		"GETX 0 k",
		"get 0 k",
		"GE T 0 k",
		"GET  0 k",
		"GET 0 ",
		"GET -1 k",
	}
	for _, s := range seeds {
		f.Add([]byte(s), 4)
		f.Add([]byte(s), 0)
	}
	same := func(a, b Request) bool {
		return a.Op == b.Op && a.Tenant == b.Tenant && bytes.Equal(a.Key, b.Key)
	}
	f.Fuzz(func(t *testing.T, body []byte, tenants int) {
		r, err := ParseRequest(body, tenants)
		rr, rerr := refParseRequest(body, tenants)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("ParseRequest(%q, %d) error %v, reference %v", body, tenants, err, rerr)
		}
		if err == nil && !same(r, rr) {
			t.Fatalf("ParseRequest(%q, %d) = %+v, reference %+v", body, tenants, r, rr)
		}

		prefix := []Request{{Op: OpPut, Tenant: 1, Key: []byte("prefix")}}
		reqs, err := AppendBatch(prefix, body, tenants)
		ref, rerr := refParseBatch(body, tenants)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("AppendBatch(%q, %d) error %v, reference %v", body, tenants, err, rerr)
		}
		if len(reqs) == 0 || !same(reqs[0], prefix[0]) {
			t.Fatalf("AppendBatch(%q, %d) lost the dst prefix: %+v", body, tenants, reqs)
		}
		if err != nil {
			if len(reqs) != len(prefix) {
				t.Fatalf("AppendBatch(%q, %d) failed but returned %d requests", body, tenants, len(reqs))
			}
			return
		}
		if len(reqs)-len(prefix) != len(ref) {
			t.Fatalf("AppendBatch(%q, %d) parsed %d requests, reference %d", body, tenants, len(reqs)-len(prefix), len(ref))
		}
		for i := range ref {
			if !same(reqs[len(prefix)+i], ref[i]) {
				t.Fatalf("AppendBatch(%q, %d) request %d = %+v, reference %+v", body, tenants, i, reqs[len(prefix)+i], ref[i])
			}
		}
	})
}

// walSeedSegment builds a structurally valid single-shard partition-mode
// segment for the recovery fuzzer's corpus.
func walSeedSegment() []byte {
	var buf []byte
	buf = appendFrame(buf, encodeHeader(0, 1, 0))
	buf = appendFrame(buf, encodeRequest(nil, 1, 0, 0, []byte("alpha")))
	buf = appendFrame(buf, encodeRequest(nil, 2, 1, 1, []byte("beta")))
	buf = appendFrame(buf, encodeQuotas(nil, 3, []int{3, 1}))
	buf = appendFrame(buf, encodeRequest(nil, 4, 0, 0, nil))
	buf = appendFrame(buf, encodeRequest(nil, 5, 2, 0, []byte("gamma")))
	return buf
}

// FuzzWALRecover feeds arbitrary bytes to startup recovery as shard 0's only
// WAL segment. The contract under corruption: recovery either fails loudly
// (New returns an error) or truncates to a valid prefix — and in the latter
// case the recovered service must be fully consistent: conserving counters,
// passing the live-vs-replay differential, and still serving traffic. It must
// never panic and never invent state.
func FuzzWALRecover(f *testing.F) {
	seed := walSeedSegment()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])        // torn tail
	f.Add(seed[:frameHeaderBytes-2]) // torn header frame
	f.Add([]byte{})                  // empty segment
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	corrupt := append([]byte(nil), seed...)
	corrupt[len(seed)/2] ^= 0x20
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		shardDir := filepath.Join(dir, "shard-000")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		svc, err := New(Config{K: 4, Shards: 1, Tenants: 2, Quotas: []int{2, 2},
			WAL: &WALConfig{Dir: dir, Fsync: FsyncOff, CheckpointEvery: -1, Recover: true}})
		if err != nil {
			return // failed loudly; acceptable
		}
		defer svc.Close()
		st := svc.Stats()
		if st.Hits+st.Misses != st.Requests {
			t.Fatalf("recovered inconsistent counters: hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
		}
		rep := svc.Recovery()
		if rep == nil || rep.Requests != st.Requests {
			t.Fatalf("recovery report %+v does not match stats %+v", rep, st)
		}
		vrep, err := svc.Verify(context.Background())
		if err != nil {
			t.Fatalf("verify after recovery: %v", err)
		}
		if !vrep.Clean {
			t.Fatalf("recovered state fails live-vs-replay: %v", vrep.Diffs)
		}
		// The service must still serve on top of the recovered state.
		if _, err := svc.Apply([]Request{{Op: OpGet, Tenant: 0, Key: []byte("post-recovery")}}); err != nil {
			t.Fatalf("apply after recovery: %v", err)
		}
	})
}

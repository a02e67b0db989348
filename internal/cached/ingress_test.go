package cached

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestAppendCacheResponseGolden pins the appended reply byte for byte to
// json.Encoder's output for the same CacheResponse — `cached drive` and the
// end-to-end benchmark decode these bytes — over random result strings,
// including shed == 0, which omitempty drops.
func TestAppendCacheResponseGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte{ResultHit, ResultMiss, ResultShed, ResultError}
	for i := 0; i < 1000; i++ {
		results := make([]byte, rng.Intn(1<<rng.Intn(17)))
		for j := range results {
			c := alphabet[rng.Intn(len(alphabet))]
			if i%3 == 0 && c == ResultShed {
				c = ResultHit
			}
			results[j] = c
		}
		want := CacheResponse{Requests: len(results), Results: string(results)}
		for _, c := range results {
			switch c {
			case ResultHit:
				want.Hits++
			case ResultShed:
				want.Shed++
			default:
				want.Misses++
			}
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(want); err != nil {
			t.Fatal(err)
		}
		got := appendCacheResponse([]byte("prefix"), results)
		if !bytes.Equal(got, append([]byte("prefix"), enc.Bytes()...)) {
			t.Fatalf("results %q:\n got %s\nwant prefix%s", results, got, enc.Bytes())
		}
	}
}

// TestNonPrintableFirstByte pins the word-at-a-time key scan: for an
// offending byte at every position and every value, with arbitrary bytes
// after it, the lowest flagged byte of nonPrintable is the first byte
// outside 0x21..0x7e.
func TestNonPrintableFirstByte(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w [8]byte
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			for trial := 0; trial < 8; trial++ {
				for i := range w {
					switch {
					case i < pos:
						w[i] = byte(0x21 + rng.Intn(0x7e-0x21+1))
					case i == pos:
						w[i] = byte(c)
					default:
						w[i] = byte(rng.Intn(256))
					}
				}
				want := 8
				for i, b := range w {
					if b < 0x21 || b > 0x7e {
						want = i
						break
					}
				}
				got := 8
				if m := nonPrintable(binary.LittleEndian.Uint64(w[:])); m != 0 {
					got = bits.TrailingZeros64(m) >> 3
				}
				if got != want {
					t.Fatalf("word % x: first non-printable at %d, want %d", w, got, want)
				}
			}
		}
	}
}

// TestHandlerPoolAliasing drives concurrent POSTs through one handler, each
// batch parsed into pooled buffers that the previous batch's body occupied,
// with distinct keys of one length revisited across batches. Were a shard to
// retain a key that aliases a recycled body, a revisit would miss the
// interned copy and intern it again, so the page count would exceed the
// number of distinct keys; the live-vs-replay differential and a WAL
// crash-recovery round trip would then disagree too.
func TestHandlerPoolAliasing(t *testing.T) {
	const (
		k, shards, tenants = 512, 2, 4
		clients, batches   = 8, 40
		fresh, revisits    = 32, 32
	)
	dir := t.TempDir()
	cfg := Config{K: k, Shards: shards, Tenants: tenants, NewPolicy: testPolicy, WAL: testWAL(dir)}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := quietHTTP()
	hcfg.Limiter.MaxConcurrent = clients
	h := svc.Handler(hcfg)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for b := 0; b < batches; b++ {
				var body []byte
				for j := 0; j < fresh+revisits; j++ {
					idx := b*fresh + j
					if j >= fresh {
						idx = rng.Intn(b*fresh + fresh)
					}
					body = fmt.Appendf(body, "GET %d c%02d-key-%06d\n", c%tenants, c, idx)
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/cache", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("client %d batch %d: status %d: %s", c, b, rec.Code, rec.Body.String())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got, want := countPages(t, svc), clients*batches*fresh; got != want {
		t.Fatalf("interned %d pages for %d distinct keys", got, want)
	}
	requireClean(t, svc)
	svc.Crash()
	frozen := svc.Stats()

	rcfg := cfg
	rcfg.WAL = testWAL(dir)
	rcfg.WAL.Recover = true
	rec := newWALService(t, rcfg)
	if got := normalizeStats(rec.Stats()); !reflect.DeepEqual(got, normalizeStats(frozen)) {
		t.Fatalf("recovered stats diverge from frozen pre-crash stats:\n got %+v\nwant %+v", got, frozen)
	}
	requireClean(t, rec)
}

// TestIngressMemoryBounded posts maximal bodies that hold no valid request —
// bare newlines, which overrun the line limit, and invalid lines, which fail
// at the first — and requires a 400 with allocations under twice the body:
// the body buffer is sized once from Content-Length, and the request slice
// is only sized when a request parses.
func TestIngressMemoryBounded(t *testing.T) {
	svc := newTestService(t, 64, 2, 4)
	h := svc.Handler(quietHTTP())
	for _, line := range []string{"\n", "BOGUS 0 key\n"} {
		body := bytes.Repeat([]byte(line), MaxBodyBytes/len(line)+1)[:MaxBodyBytes]
		req := httptest.NewRequest(http.MethodPost, "/v1/cache", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%q body: status %d: %s", line, rec.Code, rec.Body.String())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*uint64(len(body)) {
			t.Fatalf("%q body of %d bytes allocated %d bytes", line, len(body), alloc)
		}
	}
}

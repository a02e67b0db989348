package cached

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"convexcache/internal/obs"
	"convexcache/internal/resilience"
)

// MaxBodyBytes is the default request-body cap of the cache endpoint: large
// enough for ~100k-line batches, small enough to bound per-request memory.
const MaxBodyBytes = 16 << 20

// HTTPConfig tunes the HTTP front of the service; the zero value is usable.
type HTTPConfig struct {
	// Logger receives the structured request logs; nil selects
	// slog.Default().
	Logger *slog.Logger
	// MaxBodyBytes caps request bodies; <= 0 selects MaxBodyBytes.
	MaxBodyBytes int64
	// Limiter tunes the concurrency limiter guarding /v1/cache and
	// /v1/cache/verify; the zero value selects the package defaults.
	Limiter resilience.LimiterConfig
	// RateLimit tunes per-client token buckets; RPS <= 0 disables rate
	// limiting.
	RateLimit resilience.RateLimiterConfig
	// Breaker tunes the per-endpoint circuit breakers; the zero value
	// selects the package defaults.
	Breaker resilience.BreakerConfig
}

// handlerState carries the resilience stack of one Handler instance.
type handlerState struct {
	svc      *Service
	log      *slog.Logger
	maxBody  int64
	limiter  *resilience.Limiter
	rate     *resilience.RateLimiter
	breakers map[string]*resilience.Breaker
}

// Handler mounts the service behind the repo's standard HTTP surface:
//
//	POST /v1/cache        — newline-separated wire requests, returns hit/miss accounting
//	GET  /v1/cache/stats  — live per-tenant and per-shard counters
//	POST /v1/cache/verify — live-vs-replay differential; 200 clean, 500 on divergence
//	GET  /healthz, GET /metrics
//
// The cache endpoints sit behind the same admission stack as the simulation
// server (per-client rate limit → per-endpoint breaker → concurrency
// limiter), and all HTTP metrics land in the service's registry next to the
// per-shard counters.
func (s *Service) Handler(cfg HTTPConfig) http.Handler {
	st := &handlerState{svc: s, log: cfg.Logger, maxBody: cfg.MaxBodyBytes}
	if st.log == nil {
		st.log = slog.Default()
	}
	if st.maxBody <= 0 {
		st.maxBody = MaxBodyBytes
	}
	st.limiter = resilience.NewLimiter(cfg.Limiter, s.reg)
	st.rate = resilience.NewRateLimiter(cfg.RateLimit, s.reg)
	st.breakers = map[string]*resilience.Breaker{
		"/v1/cache":        resilience.NewBreaker("/v1/cache", cfg.Breaker, s.reg),
		"/v1/cache/verify": resilience.NewBreaker("/v1/cache/verify", cfg.Breaker, s.reg),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("POST /v1/cache", st.protect("/v1/cache", st.handleCache))
	mux.HandleFunc("GET /v1/cache/stats", st.handleStats)
	mux.HandleFunc("POST /v1/cache/verify", st.protect("/v1/cache/verify", st.handleVerify))
	mux.HandleFunc("GET /v1/mrc/live", st.handleMRCLive)
	mux.HandleFunc("POST /v1/cache/rebalance", st.handleRebalance)
	mw := obs.Middleware{Reg: s.reg, Log: st.log, Route: cacheRouteLabel}
	return mw.Wrap(mux)
}

func cacheRouteLabel(r *http.Request) string {
	switch r.URL.Path {
	case "/healthz", "/metrics", "/v1/cache", "/v1/cache/stats", "/v1/cache/verify",
		"/v1/mrc/live", "/v1/cache/rebalance":
		return r.URL.Path
	}
	return "other"
}

// CacheResponse is the reply of POST /v1/cache.
type CacheResponse struct {
	Requests int `json:"requests"`
	Hits     int `json:"hits"`
	Misses   int `json:"misses"`
	// Shed counts requests dropped because their shard was down; they are
	// marked 'S' in Results and safe to retry.
	Shed int `json:"shed,omitempty"`
	// Results is one byte per request ('H' hit, 'M' miss, 'S' shed), in
	// request order.
	Results string `json:"results"`
}

func (st *handlerState) handleCache(w http.ResponseWriter, r *http.Request) {
	sc := ingressPool.Get().(*ingress)
	// Request keys alias sc.body until Apply returns; shards copy every key
	// they retain, so the deferred release cannot pull a key from under a
	// shard.
	defer sc.release()
	body, err := sc.readBody(w, r, st.maxBody)
	if err != nil {
		st.writeError(w, r, http.StatusBadRequest, "bad_request", 0, fmt.Errorf("read request: %w", err))
		return
	}
	reqs, err := AppendBatch(sc.reqs[:0], body, st.svc.cfg.Tenants)
	sc.reqs = reqs
	if err != nil {
		st.writeError(w, r, http.StatusBadRequest, "bad_request", 0, err)
		return
	}
	if len(reqs) == 0 {
		st.writeError(w, r, http.StatusBadRequest, "bad_request", 0, errors.New("empty batch"))
		return
	}
	results, err := st.svc.Apply(reqs)
	if err != nil {
		status, reason := http.StatusInternalServerError, "internal"
		var retryAfter time.Duration
		switch {
		case errors.Is(err, ErrClosed):
			status, reason = http.StatusServiceUnavailable, "draining"
		case errors.Is(err, ErrShardDown):
			// Degraded mode: only the down shard's keys were shed (those
			// requests carry 'S' in Results); the batch is safe to retry
			// after the shard finishes rebuilding.
			status, reason = http.StatusServiceUnavailable, "shard_down"
			retryAfter = time.Second
		}
		st.writeError(w, r, status, reason, retryAfter, err)
		return
	}
	sc.out = appendCacheResponse(sc.out[:0], results)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(sc.out); err != nil {
		st.encodeFailed(r, http.StatusOK, err)
	}
}

// appendCacheResponse appends the CacheResponse for Apply's results to dst,
// byte for byte what json.Encoder writes for it (trailing newline included,
// "shed" omitted when zero). Result bytes are ASCII letters, which JSON
// strings carry unescaped.
func appendCacheResponse(dst, results []byte) []byte {
	hits, shed := 0, 0
	for _, c := range results {
		switch c {
		case ResultHit:
			hits++
		case ResultShed:
			shed++
		}
	}
	dst = append(dst, `{"requests":`...)
	dst = strconv.AppendInt(dst, int64(len(results)), 10)
	dst = append(dst, `,"hits":`...)
	dst = strconv.AppendInt(dst, int64(hits), 10)
	dst = append(dst, `,"misses":`...)
	dst = strconv.AppendInt(dst, int64(len(results)-hits-shed), 10)
	if shed != 0 {
		dst = append(dst, `,"shed":`...)
		dst = strconv.AppendInt(dst, int64(shed), 10)
	}
	dst = append(dst, `,"results":"`...)
	dst = append(dst, results...)
	return append(dst, "\"}\n"...)
}

// maxPooledBytes bounds each buffer ingressPool keeps: a rare huge batch
// must not pin its memory for the life of the process.
const maxPooledBytes = 1 << 20

// ingress is the scratch of one POST /v1/cache: the body, the parsed
// requests and the reply. Every key in reqs' backing array aliases body, so
// the two are dropped or replaced together.
type ingress struct {
	body []byte
	reqs []Request
	out  []byte
}

var ingressPool = sync.Pool{New: func() any { return new(ingress) }}

// readBody reads the request body into sc.body. A body that declares its
// length is read in one pass into a buffer of that size, or refused unread
// when the length is over limit; a body of unknown length streams through
// http.MaxBytesReader, which stops it at limit.
func (sc *ingress) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	if n >= 0 {
		if int64(cap(sc.body)) < n {
			sc.setBody(make([]byte, 0, n))
		}
		body := sc.body[:n]
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	rd := http.MaxBytesReader(w, r.Body, limit)
	body := sc.body[:0]
	for {
		if len(body) == cap(body) {
			body = slices.Grow(body, 512)
			sc.setBody(body)
		}
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// setBody replaces the body buffer; the old requests alias the old buffer,
// so they are cleared rather than left to pin it.
func (sc *ingress) setBody(b []byte) {
	clear(sc.reqs[:cap(sc.reqs)])
	sc.body = b
}

// release returns the scratch to the pool, minus any buffer over
// maxPooledBytes.
func (sc *ingress) release() {
	if cap(sc.reqs)*int(unsafe.Sizeof(Request{})) > maxPooledBytes {
		sc.reqs = nil
	}
	if cap(sc.body) > maxPooledBytes {
		sc.setBody(nil)
	}
	if cap(sc.out) > maxPooledBytes {
		sc.out = nil
	}
	ingressPool.Put(sc)
}

func (st *handlerState) handleStats(w http.ResponseWriter, r *http.Request) {
	st.writeJSON(w, r, http.StatusOK, st.svc.Stats())
}

func (st *handlerState) handleMRCLive(w http.ResponseWriter, r *http.Request) {
	live, err := st.svc.MRCLive()
	if err != nil {
		st.writeError(w, r, http.StatusNotFound, "mrc_disabled", 0, err)
		return
	}
	st.writeJSON(w, r, http.StatusOK, live)
}

func (st *handlerState) handleRebalance(w http.ResponseWriter, r *http.Request) {
	quotas, changed, err := st.svc.RebalanceOnce()
	if err != nil {
		st.writeError(w, r, http.StatusConflict, "rebalance_unavailable", 0, err)
		return
	}
	st.writeJSON(w, r, http.StatusOK, map[string]any{"quotas": quotas, "changed": changed})
}

func (st *handlerState) handleVerify(w http.ResponseWriter, r *http.Request) {
	rep, err := st.svc.Verify(r.Context())
	if err != nil {
		st.writeError(w, r, http.StatusInternalServerError, "internal", 0, err)
		return
	}
	status := http.StatusOK
	if !rep.Clean {
		// A divergence is a server-side correctness failure; 500 makes
		// `curl -fsS` (and the breaker) treat it as one.
		status = http.StatusInternalServerError
	}
	st.writeJSON(w, r, status, rep)
}

// protect is the admission stack of the simulation server, applied to the
// cache endpoints: per-client rate limit (429), per-endpoint breaker (503),
// concurrency limiter (503). Handler 5xxs count as breaker failures; limiter
// sheds are Ignored so overload cannot trip a healthy circuit.
func (st *handlerState) protect(endpoint string, next http.HandlerFunc) http.HandlerFunc {
	br := st.breakers[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		if st.rate.Enabled() {
			if err := st.rate.Allow(clientKey(r)); err != nil {
				st.shedError(w, r, err)
				return
			}
		}
		call, err := br.Allow()
		if err != nil {
			st.shedError(w, r, err)
			return
		}
		release, err := st.limiter.Acquire(r.Context())
		if err != nil {
			call.Record(resilience.Ignored, 0)
			st.shedError(w, r, err)
			return
		}
		defer release()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		completed := false
		defer func() {
			switch {
			case !completed || sw.status >= http.StatusInternalServerError:
				call.Record(resilience.Failure, time.Since(start))
			default:
				call.Record(resilience.Success, time.Since(start))
			}
		}()
		next(sw, r)
		completed = true
	}
}

func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

type errorBody struct {
	Error             string  `json:"error"`
	Reason            string  `json:"reason,omitempty"`
	RequestID         string  `json:"request_id,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

func (st *handlerState) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		st.encodeFailed(r, status, err)
	}
}

// encodeFailed counts and logs a reply that could not be written.
func (st *handlerState) encodeFailed(r *http.Request, status int, err error) {
	st.svc.reg.Counter("http_response_encode_errors_total").Inc()
	obs.LoggerFrom(r.Context(), st.log).Error("encode response", "status", status, "err", err)
}

func (st *handlerState) writeError(w http.ResponseWriter, r *http.Request, status int, reason string, retryAfter time.Duration, err error) {
	body := errorBody{
		Error:     err.Error(),
		Reason:    reason,
		RequestID: obs.RequestIDFrom(r.Context()),
	}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		body.RetryAfterSeconds = retryAfter.Seconds()
	}
	st.writeJSON(w, r, status, body)
}

func (st *handlerState) shedError(w http.ResponseWriter, r *http.Request, err error) {
	var sh *resilience.Shed
	if !errors.As(err, &sh) {
		st.writeError(w, r, http.StatusServiceUnavailable, "unavailable", 0, err)
		return
	}
	status := http.StatusServiceUnavailable
	if sh.Reason == resilience.ReasonRateLimited {
		status = http.StatusTooManyRequests
	}
	st.writeError(w, r, status, sh.Reason, sh.RetryAfter, err)
}

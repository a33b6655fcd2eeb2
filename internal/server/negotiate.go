package server

import (
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Content negotiation for the corpus-backed routes.  Four response encodings
// exist; the buffered ones answer with one body, the streamed ones emit
// per-seed records as the scheduler's flight table resolves them:
//
//	json        buffered JSON body (the default, and the golden format)
//	bin         buffered binary: the store's codec container, byte-for-byte
//	ndjson      streamed NDJSON: one outcome per line, then a trailer record
//	bin-stream  streamed binary: length-prefixed container frames
//
// A request picks a format with an Accept header (application/json,
// application/x-udc-bin, application/x-ndjson, application/x-udc-bin-stream)
// or the ?format= query fallback.  Unknown Accept values fall back to JSON —
// a browser's */* must keep working — but an explicit unsupported ?format=
// is a 406, because the caller named something this server cannot speak.

// Response content types.
const (
	ctJSON      = "application/json"
	ctBinary    = "application/x-udc-bin"
	ctNDJSON    = "application/x-ndjson"
	ctBinStream = "application/x-udc-bin-stream"
)

// Format names (the ?format= values).
const (
	formatJSON      = "json"
	formatBin       = "bin"
	formatNDJSON    = "ndjson"
	formatBinStream = "bin-stream"
)

// notAcceptable marks an explicitly requested format the server cannot
// produce (406).
func notAcceptable(err error) error {
	return &httpError{status: http.StatusNotAcceptable, err: err}
}

// negotiateFormat resolves a request's response format from its parsed query
// and its Accept header.  ?format= wins over Accept; within Accept, the first
// recognised media type in listed order wins, and a header naming none of
// ours (or absent) falls back to JSON.
func negotiateFormat(query url.Values, accept string) (string, error) {
	if f := query.Get("format"); f != "" {
		switch f {
		case formatJSON, formatBin, formatNDJSON, formatBinStream:
			return f, nil
		}
		return "", notAcceptable(fmt.Errorf("unsupported format %q (json, bin, ndjson, bin-stream)", f))
	}
	for accept != "" {
		var part string
		part, accept, _ = strings.Cut(accept, ",")
		mediaType, _, _ := strings.Cut(part, ";")
		switch strings.ToLower(strings.TrimSpace(mediaType)) {
		case ctBinary:
			return formatBin, nil
		case ctNDJSON:
			return formatNDJSON, nil
		case ctBinStream:
			return formatBinStream, nil
		case ctJSON, "*/*", "application/*":
			return formatJSON, nil
		}
	}
	return formatJSON, nil
}

// maxLimiterClients bounds the per-client bucket map; at capacity, stale
// buckets are evicted (an idle bucket has fully refilled, so it carries no
// limiting state worth keeping), never the whole map — a wholesale reset
// would hand every active client a fresh full burst at once.
const maxLimiterClients = 4096

// clientBucket is one client's token bucket plus its last admission time,
// the eviction signal.  lastSeen is guarded by rateLimiter.mu.
type clientBucket struct {
	*obs.TokenBucket
	lastSeen time.Time
}

// rateLimiter applies a per-client token bucket to the corpus-backed routes.
// Clients are keyed by remote IP.
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*clientBucket
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	b := float64(burst)
	if b <= 0 {
		b = 2 * rate
	}
	return &rateLimiter{rate: rate, burst: b, buckets: make(map[string]*clientBucket)}
}

// admit reports whether the client may proceed at time now; when it may not,
// the returned duration is the client's Retry-After hint.
func (l *rateLimiter) admit(client string, now time.Time) (bool, time.Duration) {
	l.mu.Lock()
	b, ok := l.buckets[client]
	if !ok {
		if len(l.buckets) >= maxLimiterClients {
			l.evict(now)
		}
		b = &clientBucket{TokenBucket: obs.NewTokenBucket(l.rate, l.burst, now)}
		l.buckets[client] = b
	}
	b.lastSeen = now
	l.mu.Unlock()
	if b.Allow(now) {
		return true, 0
	}
	return false, b.RetryAfter(now)
}

// evict, called with mu held when the bucket map is at capacity, first drops
// buckets idle long enough to have fully refilled — they limit nothing — and
// then, if every bucket is live, the least recently seen quarter, so under
// client-address churn admission state degrades for the stalest clients only
// instead of resetting for all of them.
func (l *rateLimiter) evict(now time.Time) {
	idle := time.Duration(l.burst / l.rate * float64(time.Second))
	for key, b := range l.buckets {
		if now.Sub(b.lastSeen) >= idle {
			delete(l.buckets, key)
		}
	}
	if len(l.buckets) < maxLimiterClients {
		return
	}
	seen := make([]time.Time, 0, len(l.buckets))
	for _, b := range l.buckets {
		seen = append(seen, b.lastSeen)
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i].Before(seen[j]) })
	cutoff := seen[len(seen)/4]
	for key, b := range l.buckets {
		if !b.lastSeen.After(cutoff) {
			delete(l.buckets, key)
		}
	}
}

// clientKey identifies a request's client for rate limiting: the remote IP
// without the ephemeral port.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admitRate applies the per-client rate limit to a corpus-backed route,
// returning the 429 + Retry-After error a shed request is answered with (the
// caller writes it, so the shed still finishes its trace).  The handlers call
// it after decoding and validating, so only well-formed requests draw a
// token — a malformed 400 must not drain its client's budget.
func (s *Server) admitRate(r *http.Request) error {
	if s.limiter == nil {
		return nil
	}
	ok, retry := s.limiter.admit(clientKey(r), time.Now())
	if ok {
		return nil
	}
	s.metrics.rateLimited.Inc()
	return overloaded(fmt.Errorf("server: per-client rate limit exceeded"), retry)
}

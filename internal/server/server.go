// Package server is the concurrent query-serving subsystem over psi.Engine:
// the layer that turns the single-process Ψ-framework into something that
// can answer interactive subgraph queries from many clients at once without
// falling over under load.
//
// A Server owns one long-lived Engine and adds exactly the concerns the
// Engine itself stays agnostic of:
//
//   - Admission control. Every query claims a slot from a bounded
//     exec.Limiter before any work starts; when all slots are taken the
//     request is rejected immediately (HTTP 429) instead of queueing —
//     overload degrades into fast refusals, never into goroutine-per-request
//     pileups. The pool below stays the only place where CPU work queues.
//
//   - Per-request deadlines. A request's context (client disconnect, the
//     server's request timeout, an explicit ?timeout_ms) flows into the
//     Engine's execution, where the per-query budget maps a deadline hit
//     onto the paper's kill semantics: the response reports killed=true with
//     whatever the stream already surfaced, rather than an opaque error.
//
//   - Streaming responses. ?stream=1 answers are NDJSON: one line per
//     embedding (NFV) or containing graph ID (FTV), flushed as the race
//     emits them, then one summary line — so the first-to-emit latency the
//     race wins actually reaches the wire instead of being buffered behind
//     full enumeration.
//
//   - One memory of answers. The result cache maps one key — the dataset
//     epoch, the result limit and the canonical query bytes
//     (psi.CanonicalQueryKey) — to either a remembered answer or an
//     in-flight execution. Complete, unkilled answers are remembered in an
//     LRU, and repeat queries — the common shape of dataset workloads — are
//     replayed from memory marked cached:true; partial answers (client
//     stopped reading, kill cap hit) are never remembered.
//
//   - In-flight coalescing, under the same key. Concurrent identical
//     queries — the cache-miss stampede the LRU cannot absorb — share one
//     engine execution: the first request in leads, the rest park on its
//     entry until it finishes and replay its answer marked coalesced:true.
//     Only complete, unkilled answers are shared; when the leader fails, is
//     killed, or loses its client mid-stream, each follower falls back to
//     its own execution. A follower that disconnects while parked never
//     cancels the leader. In-flight entries are never evicted.
//
//   - Observability. /stats is a JSON snapshot of engine counters, race win
//     tallies, index build provenance and cache effectiveness; /metrics is
//     the same in Prometheus text format. Both carry the dataset epoch and
//     the mutation counters on mutable engines.
//
//   - Online mutation. On a mutable dataset engine (EngineOptions.Mutable),
//     POST /graphs ingests graphs, DELETE /graphs/{handle} removes one and
//     PUT /graphs/{handle} replaces one in place; every response reports
//     the dataset epoch the mutation produced. The result cache's key carries
//     the epoch, so a mutation implicitly invalidates every remembered
//     answer and coalescing never crosses a mutation.
//
//   - Readiness. A server constructed with NewBuilding (before its engine
//     finishes building indexes) answers /healthz with status "building"
//     (503) and refuses queries until SetEngine flips it to "ok"; /healthz
//     also reports the dataset epoch once ready.
//
//   - Graceful drain. Shutdown stops admission (new queries get 503), waits
//     for in-flight queries, and past the caller's deadline cancels
//     stragglers through their contexts — every admitted request still gets
//     its summary line, so a drain drops zero in-flight responses.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/exec"
)

// maxBodyBytes bounds a request body — a query graph, or the graphs of an
// ingest, in the module's text format; one byte more is a 400.
const maxBodyBytes = 8 << 20

// Options configures a Server. The zero value serves with a 4×NumCPU
// admission limit, a 1000-embedding default result limit, no per-request
// timeout beyond the engine's own budget, and a 256-entry result cache.
type Options struct {
	// MaxInFlight bounds concurrently admitted queries; the excess is
	// rejected with HTTP 429. 0 selects 4 × NumCPU.
	MaxInFlight int
	// DefaultLimit is the embedding limit applied when a request does not
	// carry ?limit; 0 means 1000. Negative means decision (first match).
	DefaultLimit int
	// RequestTimeout caps each request's context. A client ?timeout_ms may
	// shorten it but never extend it. 0 leaves only the engine's budget.
	RequestTimeout time.Duration
	// CacheSize bounds the remembered answers of the result cache: 0 means
	// 256 entries, negative remembers none (identical concurrent queries
	// still coalesce).
	CacheSize int
	// SnapshotPath, when set, arms POST /snapshot: each call persists the
	// engine's full state to this path (atomically, via the snapshot
	// package's temp-file-plus-rename). Empty disables the endpoint (409).
	SnapshotPath string
}

// Server serves queries over one long-lived Engine. Construct with New —
// or with NewBuilding plus a later SetEngine when the engine is still
// constructing its indexes, during which the server answers readiness
// probes with "building" and queries with 503. Server implements
// http.Handler. The Server does not own the Engine — closing the Engine
// remains the caller's job, after Shutdown returns.
type Server struct {
	// eng is nil while the engine is still building (NewBuilding before
	// SetEngine); handlers load it once per request and treat nil as "not
	// ready yet".
	eng   atomic.Pointer[psi.Engine]
	opts  Options
	lim   *exec.Limiter
	cache *resultCache // remembered answers and in-flight queries
	mux   *http.ServeMux
	start time.Time

	// base is the root of every request context; Shutdown cancels it to
	// cut stragglers loose after the drain deadline.
	base       context.Context
	cancelBase context.CancelFunc

	// mu orders admission against draining: once draining flips, no new
	// request can slip into the WaitGroup that Shutdown waits on.
	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	admitted    atomic.Int64
	rejected    atomic.Int64
	unavailable atomic.Int64

	// requestEWMA tracks a smoothed admitted-request duration in
	// nanoseconds: the observed time for an in-flight slot to drain, which
	// is what a 429's Retry-After should promise instead of a hardcoded
	// guess.
	requestEWMA atomic.Int64

	// coalesced counts requests answered from another request's in-flight
	// execution; coalescedFallbacks counts followers whose flight finished
	// with nothing shareable and who executed independently.
	coalesced          atomic.Int64
	coalescedFallbacks atomic.Int64

	// admittedHook, when non-nil, runs after a query request is admitted
	// and before it executes. Tests use it to hold admitted requests in
	// flight deterministically.
	admittedHook func(ctx context.Context)

	// leaderHook, when non-nil, runs after a request becomes a flight
	// leader and before it executes. Tests use it to hold the leader until
	// its followers have parked on the flight.
	leaderHook func(e *cacheEntry)
}

// New returns a Server over eng. The engine must outlive the server.
func New(eng *psi.Engine, opts Options) *Server {
	s := NewBuilding(opts)
	s.SetEngine(eng)
	return s
}

// NewBuilding returns a Server with no engine yet: /healthz reports
// status "building" (503), queries and mutations are refused with 503, and
// /stats and /metrics serve the admission-layer counters only. Call
// SetEngine once the engine is ready to flip the server to "ok". This is
// how a front end serves readiness probes while a large index build runs.
func NewBuilding(opts Options) *Server {
	if opts.DefaultLimit == 0 {
		opts.DefaultLimit = 1000
	}
	remembered := opts.CacheSize
	if remembered == 0 {
		remembered = 256
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		lim:        exec.NewLimiter(opts.MaxInFlight),
		cache:      newResultCache(max(remembered, 0)), // negative: coalesce only
		base:       base,
		cancelBase: cancel,
		start:      time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /graphs", s.handleAddGraphs)
	s.mux.HandleFunc("DELETE /graphs/{handle}", s.handleRemoveGraph)
	s.mux.HandleFunc("PUT /graphs/{handle}", s.handleReplaceGraph)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// SetEngine installs the served engine, flipping readiness from "building"
// to "ok". The engine must outlive the server. Call at most once.
func (s *Server) SetEngine(eng *psi.Engine) { s.eng.Store(eng) }

// Engine returns the served engine, or nil while it is still building.
func (s *Server) Engine() *psi.Engine { return s.eng.Load() }

// InFlight reports the number of currently admitted queries.
func (s *Server) InFlight() int { return s.lim.InFlight() }

// Capacity reports the admission limit.
func (s *Server) Capacity() int { return s.lim.Cap() }

// Draining reports whether Shutdown has stopped admission.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit claims an in-flight slot. It returns a release func on success, or
// an HTTP status (429 over the limit, 503 while draining) on rejection.
// Release is idempotent and must be called exactly once per admission.
func (s *Server) admit() (release func(), status int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.unavailable.Add(1)
		return nil, http.StatusServiceUnavailable
	}
	if !s.lim.TryAcquire() {
		s.rejected.Add(1)
		return nil, http.StatusTooManyRequests
	}
	s.inflight.Add(1)
	s.admitted.Add(1)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.observeRequest(time.Since(start))
			s.lim.Release()
			s.inflight.Done()
		})
	}, 0
}

// maxRetryAfterSeconds caps the 429 Retry-After hint: past this, a client
// should be polling /healthz, not sleeping on our estimate.
const maxRetryAfterSeconds = 30

// observeRequest folds one admitted request's wall time into the drain-time
// estimate (EWMA, alpha 1/5), lock-free.
func (s *Server) observeRequest(d time.Duration) {
	for {
		old := s.requestEWMA.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)/5
		}
		if s.requestEWMA.CompareAndSwap(old, nw) {
			return
		}
	}
}

// retryAfterSeconds turns the observed drain time into the whole-second
// Retry-After a 429 carries: at capacity, a slot frees roughly one smoothed
// request duration from now. At least 1 (the header's useful floor, and the
// cold-start default before any request has completed), at most
// maxRetryAfterSeconds.
func (s *Server) retryAfterSeconds() int {
	secs := (s.requestEWMA.Load() + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		return 1
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return int(secs)
}

// writeOverloaded writes the shared admission-rejection response for both
// query and mutation handlers: 429 with a derived Retry-After at capacity,
// 503 while draining.
func (s *Server) writeOverloaded(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSONError(w, status, fmt.Sprintf("server at capacity (%d in flight)", s.lim.Cap()))
		return
	}
	writeJSONError(w, status, "server is draining")
}

// Shutdown drains the server: admission stops immediately (new queries get
// 503), in-flight queries run to completion, and once ctx expires the
// stragglers are cancelled through their request contexts — which every
// execution path honors, so they finish promptly with killed/error
// summaries rather than being abandoned. Shutdown returns once every
// admitted request has released its slot; the error is ctx's when
// stragglers had to be cancelled, nil for a clean drain. Safe to call more
// than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// requestContext derives a query's execution context: the client's request
// context, cancelled additionally by Shutdown's straggler cut and by the
// effective per-request timeout.
func (s *Server) requestContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.base, cancel)
	if timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, timeout)
		inner := cancel
		cancel = func() { cancelT(); inner() }
	}
	final := cancel
	return ctx, func() { stop(); final() }
}

// effectiveTimeout folds the server's request timeout with the client's
// requested one: the client may shorten, never extend.
func (s *Server) effectiveTimeout(requested time.Duration) time.Duration {
	max := s.opts.RequestTimeout
	if requested <= 0 {
		return max
	}
	if max > 0 && requested > max {
		return max
	}
	return requested
}

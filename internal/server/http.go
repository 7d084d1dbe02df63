package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
)

// queryRequest is the parsed request envelope around the query graph.
type queryRequest struct {
	limit   int  // embedding limit (NFV); <= 0 means decision
	stream  bool // NDJSON streaming response
	cache   bool // consult/fill the result cache
	timeout time.Duration
}

// QueryResponse is the non-streamed /query response schema, built by
// NewQueryResponse. The streamed variant sends `{"embedding":[...]}` /
// `{"graph_id":N}` lines followed by one StreamSummary line cut from the
// same record, which is also what the result cache remembers and replays.
type QueryResponse struct {
	Query      string          `json:"query"`
	Kind       string          `json:"kind"`
	Winner     string          `json:"winner,omitempty"`
	Found      int             `json:"found"`
	Embeddings []psi.Embedding `json:"embeddings,omitempty"`
	GraphIDs   []int           `json:"graph_ids,omitempty"`
	ElapsedUS  int64           `json:"elapsed_us"`
	Killed     bool            `json:"killed,omitempty"`
	FellBack   bool            `json:"fell_back,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	Coalesced  bool            `json:"coalesced,omitempty"`
}

// StreamSummary is the final NDJSON line of a streamed /query response.
// Exactly one of Done/Error is set: a summary with Error reports a query
// that failed after the preceding lines were already on the wire.
type StreamSummary struct {
	Done      bool   `json:"done,omitempty"`
	Found     int    `json:"found"`
	Winner    string `json:"winner,omitempty"`
	ElapsedUS int64  `json:"elapsed_us"`
	Killed    bool   `json:"killed,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
}

// errorResponse is the JSON error envelope for rejected requests.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// maxLimit is the largest ?limit a request may carry: ten times the
// server's configured default (or the 1000 fallback). Anything above is a
// client error — a typo or an abuse probe, not a workload — and is rejected
// up front rather than silently clamped or allowed to size allocations.
func (s *Server) maxLimit() int {
	n := s.opts.DefaultLimit
	if n < 1000 {
		n = 1000
	}
	return 10 * n
}

// maxTimeout is the largest ?timeout_ms a request may carry: ten times the
// server's request timeout when one is configured (the client may shorten a
// deadline, so there is no reason to ask for multiples of it), otherwise an
// absolute 24h ceiling that keeps the deadline arithmetic far from
// time.Duration overflow.
func (s *Server) maxTimeout() time.Duration {
	if s.opts.RequestTimeout > 0 {
		return 10 * s.opts.RequestTimeout
	}
	return 24 * time.Hour
}

// parseQueryRequest decodes the envelope and the query graph (request body,
// module text format, exactly one graph). Out-of-range envelope values —
// negative, or absurdly past the server's configured caps — are 400s, never
// silently clamped: an int that big means the client computed it wrong, and
// honoring part of it would turn the mistake into undefined behavior
// (a limit-sized allocation, an overflowed deadline).
func (s *Server) parseQueryRequest(r *http.Request) (queryRequest, *psi.Graph, int, error) {
	req := queryRequest{limit: s.opts.DefaultLimit, cache: true}
	qp := r.URL.Query()
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return req, nil, http.StatusBadRequest, fmt.Errorf("bad limit %q (want an integer in [0,%d]; 0 means decision)", v, s.maxLimit())
		}
		if n > s.maxLimit() {
			return req, nil, http.StatusBadRequest, fmt.Errorf("limit %d exceeds the maximum %d", n, s.maxLimit())
		}
		req.limit = n
	}
	req.stream = isTrue(qp.Get("stream"))
	if v := qp.Get("cache"); v != "" {
		req.cache = isTrue(v)
	}
	if v := qp.Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			return req, nil, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q (want an integer in [0,%d])", v, s.maxTimeout().Milliseconds())
		}
		if int64(ms) > s.maxTimeout().Milliseconds() {
			return req, nil, http.StatusBadRequest, fmt.Errorf("timeout_ms %d exceeds the maximum %d", ms, s.maxTimeout().Milliseconds())
		}
		req.timeout = time.Duration(ms) * time.Millisecond
	}
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	graphs, err := graph.ReadDataset(body)
	if err != nil {
		return req, nil, http.StatusBadRequest, fmt.Errorf("parsing query graph: %w", err)
	}
	if len(graphs) != 1 {
		return req, nil, http.StatusBadRequest, fmt.Errorf("want exactly 1 query graph in the body, got %d", len(graphs))
	}
	return req, graphs[0], 0, nil
}

func isTrue(v string) bool {
	switch v {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// cacheKey derives the shared-cache key: the canonical query bytes plus the
// parameters that change the answer. FTV answers ignore the limit, so all
// limits share one entry; NFV limits <= 0 all mean "decision, first match"
// and collapse to one sentinel so equivalent requests hit each other.
//
// The key is prefixed with the dataset epoch (0 on immutable engines), so
// a mutation implicitly invalidates every remembered answer and concurrent
// requests only coalesce within one epoch: an answer computed before an
// AddGraph can never be replayed after it. A mutation landing between key
// derivation and execution can at worst file a fresher answer under the
// older epoch's key — an entry no future request looks up, never a stale
// answer under a fresh key.
func (s *Server) cacheKey(eng *psi.Engine, q *psi.Graph, limit int) string {
	if eng.Graph() == nil {
		limit = 0
	} else if limit <= 0 {
		limit = -1
	}
	return fmt.Sprintf("e%d|l%d|%s", eng.Epoch(), limit, psi.CanonicalQueryKey(q))
}

// handleQuery is the /query endpoint: admission, parse, one lookup in the
// result cache — a remembered answer, another request's flight to follow,
// or leadership of a new one — then a collected JSON answer or an NDJSON
// stream.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	release, status := s.admit()
	if status != 0 {
		s.writeOverloaded(w, status)
		return
	}
	defer release()

	eng := s.Engine()
	if eng == nil {
		writeJSONError(w, http.StatusServiceUnavailable, "engine is building")
		return
	}
	req, q, errStatus, err := s.parseQueryRequest(r)
	if err != nil {
		writeJSONError(w, errStatus, err.Error())
		return
	}
	if s.admittedHook != nil {
		s.admittedHook(r.Context())
	}
	ctx, cancel := s.requestContext(r, s.effectiveTimeout(req.timeout))
	defer cancel()

	// ?cache=0 opts out of the memory altogether, remembered answers and
	// shared flights alike: it demands a fresh execution.
	if !req.cache {
		s.runQuery(ctx, w, eng, req, q)
		return
	}
	key := s.cacheKey(eng, q, req.limit)
	ans, e, leader := s.cache.lookup(key)
	switch {
	case ans != nil:
		s.replayAnswer(ctx, w, req, q, ans, replayCached)
		return
	case leader:
		// The deferred finish releases followers even if the execution
		// path panics — they fall back rather than hang.
		defer func() { s.cache.finish(e, ans) }()
		if s.leaderHook != nil {
			s.leaderHook(e)
		}
		ans = s.runQuery(ctx, w, eng, req, q)
		return
	}
	select {
	case <-e.done:
		if e.ans != nil {
			s.coalesced.Add(1)
			s.replayAnswer(ctx, w, req, q, e.ans, replayCoalesced)
			return
		}
		// The leader had nothing shareable (error, killed, or its client
		// vanished mid-stream): run the query ourselves.
		s.coalescedFallbacks.Add(1)
	case <-ctx.Done():
		writeQueryError(w, ctx.Err())
		return
	}
	if ans = s.runQuery(ctx, w, eng, req, q); ans != nil {
		s.cache.put(key, ans)
	}
}

// runQuery executes the query in the requested response mode and returns
// the reply when it is complete and shareable (unkilled, no error, the
// client received every line), nil otherwise.
func (s *Server) runQuery(ctx context.Context, w http.ResponseWriter, eng *psi.Engine, req queryRequest, q *psi.Graph) *QueryResponse {
	if req.stream {
		return s.streamQuery(ctx, w, eng, req, q)
	}
	return s.collectQuery(ctx, w, eng, req, q)
}

// NewQueryResponse is the one QueryResponse built from an executed query's
// result: the collected /query reply, the record a streamed reply's
// summary is cut from, and psiquery's -json line.
func NewQueryResponse(query string, res *psi.QueryResult) QueryResponse {
	return QueryResponse{
		Query:      query,
		Kind:       string(res.Kind),
		Winner:     res.Winner,
		Found:      res.Found,
		Embeddings: res.Embeddings,
		GraphIDs:   res.GraphIDs,
		ElapsedUS:  res.Elapsed.Microseconds(),
		Killed:     res.Killed,
		FellBack:   res.FellBack,
	}
}

// summary is the one StreamSummary: the last line of a streamed reply,
// live or replayed.
func summary(r *QueryResponse) StreamSummary {
	return StreamSummary{Done: true, Found: r.Found, Winner: r.Winner, ElapsedUS: r.ElapsedUS, Killed: r.Killed, Cached: r.Cached, Coalesced: r.Coalesced}
}

// collectQuery runs the plan to completion and answers with one JSON
// object, returning the reply when it is complete and shareable.
func (s *Server) collectQuery(ctx context.Context, w http.ResponseWriter, eng *psi.Engine, req queryRequest, q *psi.Graph) *QueryResponse {
	res, err := eng.Query(ctx, q, req.limit)
	if err != nil {
		writeQueryError(w, err)
		return nil
	}
	resp := NewQueryResponse(q.Name(), res)
	writeJSON(w, http.StatusOK, resp)
	if res.Killed {
		return nil
	}
	return &resp
}

// writeQueryError maps an execution error onto an HTTP status: deadline
// overruns on engines without a budget become 504, everything else 500.
// (With a budget configured, deadline hits are killed results, not errors.)
func writeQueryError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	}
	writeJSONError(w, status, err.Error())
}

// writeUnblockGrace is how long after its context is cancelled a streamed
// response may keep writing. Long enough for a live, reading client to
// receive its terminal summary/error line (the zero-dropped-responses
// drain contract); short enough that a client that stopped reading cannot
// pin an admission slot or stall Shutdown beyond it.
const writeUnblockGrace = time.Second

// lineWriter writes NDJSON lines, flushing each one so streamed results
// reach the client as the race emits them. A write error (client gone)
// latches: subsequent writes are dropped and failed() reports it.
//
// Writes can block indefinitely on a client that stops reading — w.Write
// does not observe context cancellation — which would pin the admission
// slot and stall a drain. newLineWriter therefore arms a near-term write
// deadline the moment ctx is cancelled (client disconnect, per-request
// timeout, or Shutdown cutting stragglers): a blocked write errors within
// writeUnblockGrace and the handler unwinds, while a live client still
// receives the terminal line its drained query owes it. Callers must
// release() when done writing.
type lineWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	stop   func() bool
	broken bool
}

func newLineWriter(ctx context.Context, w http.ResponseWriter) *lineWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	lw := &lineWriter{w: w, rc: rc}
	lw.stop = context.AfterFunc(ctx, func() {
		_ = rc.SetWriteDeadline(time.Now().Add(writeUnblockGrace))
	})
	return lw
}

// release detaches the cancellation hook once the response is complete; if
// the hook already fired (the request context ended before the response
// did), the armed deadline is cleared so a keep-alive connection is not
// poisoned for its next request.
func (lw *lineWriter) release() {
	if !lw.stop() {
		_ = lw.rc.SetWriteDeadline(time.Time{})
	}
}

// writeLine sends one line (v marshals to a JSON object) and reports
// whether the client is still there.
func (lw *lineWriter) writeLine(v any) bool {
	if lw.broken {
		return false
	}
	b, err := json.Marshal(v)
	if err != nil {
		lw.broken = true
		return false
	}
	b = append(b, '\n')
	if _, err := lw.w.Write(b); err != nil {
		lw.broken = true
		return false
	}
	_ = lw.rc.Flush()
	return true
}

func (lw *lineWriter) failed() bool { return lw.broken }

// embeddingLine / graphIDLine are the two streamed result-line shapes.
type embeddingLine struct {
	Embedding psi.Embedding `json:"embedding"`
}
type graphIDLine struct {
	GraphID int `json:"graph_id"`
}

// streamQuery answers with NDJSON: result lines as the engine emits them,
// then a summary line. It returns the reply, with the lines it streamed,
// when the answer is complete and unkilled, so repeat and concurrent
// duplicates replay it in either response mode. A stream whose client
// stopped reading is incomplete by definition and shared with no one.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, eng *psi.Engine, req queryRequest, q *psi.Graph) *QueryResponse {
	lw := newLineWriter(ctx, w)
	defer lw.release()
	var (
		res  *psi.QueryResult
		err  error
		ids  []int
		embs []psi.Embedding
	)
	if eng.Graph() != nil {
		res, err = eng.QueryStream(ctx, q, req.limit, psi.SinkFunc(func(e psi.Embedding) bool {
			embs = append(embs, e)
			return lw.writeLine(embeddingLine{Embedding: e})
		}))
	} else {
		res, err = eng.AnswerStream(ctx, q, func(id int) bool {
			ids = append(ids, id)
			return lw.writeLine(graphIDLine{GraphID: id})
		})
	}
	if err != nil {
		lw.writeLine(StreamSummary{Error: err.Error()})
		return nil
	}
	res.GraphIDs, res.Embeddings = ids, embs
	resp := NewQueryResponse(q.Name(), res)
	shareable := !res.Killed && !lw.failed()
	lw.writeLine(summary(&resp))
	if !shareable {
		return nil
	}
	return &resp
}

// replayAnswer marks where a replayed answer came from: the result cache
// or another request's in-flight execution.
type replaySource int

const (
	replayCached replaySource = iota
	replayCoalesced
)

// replayAnswer replays a remembered reply in the requested response mode,
// under this request's query name and marked with its provenance, with no
// timing or fallback of its own.
func (s *Server) replayAnswer(ctx context.Context, w http.ResponseWriter, req queryRequest, q *psi.Graph, ans *QueryResponse, src replaySource) {
	r := *ans
	r.Query, r.ElapsedUS, r.FellBack = q.Name(), 0, false
	r.Cached, r.Coalesced = src == replayCached, src == replayCoalesced
	if !req.stream {
		writeJSON(w, http.StatusOK, r)
		return
	}
	lw := newLineWriter(ctx, w)
	defer lw.release()
	// An answer holds graph IDs or embeddings, never both.
	for _, id := range r.GraphIDs {
		if !lw.writeLine(graphIDLine{GraphID: id}) {
			return
		}
	}
	for _, e := range r.Embeddings {
		if !lw.writeLine(embeddingLine{Embedding: e}) {
			return
		}
	}
	lw.writeLine(summary(&r))
}

// StatsResponse is the /stats JSON schema: one consistent snapshot of the
// serving layer and the engine beneath it. Ready is false while the engine
// is still building, in which case only the serving-layer fields are set.
type StatsResponse struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	Ready         bool                `json:"ready"`
	Mode          string              `json:"mode,omitempty"`
	DatasetGraphs int                 `json:"dataset_graphs,omitempty"`
	Shards        int                 `json:"shards,omitempty"`
	ShardBalance  []int64             `json:"shard_balance,omitempty"`
	Mutable       bool                `json:"mutable,omitempty"`
	Epoch         uint64              `json:"epoch,omitempty"`
	Draining      bool                `json:"draining"`
	InFlight      int                 `json:"in_flight"`
	Capacity      int                 `json:"capacity"`
	Admitted      int64               `json:"admitted"`
	Rejected      int64               `json:"rejected"`
	Unavailable   int64               `json:"unavailable"`
	Coalesced     int64               `json:"coalesced"`
	CoalescedFB   int64               `json:"coalesced_fallbacks"`
	Engine        psi.EngineCounters  `json:"engine"`
	Wins          map[string]int64    `json:"wins,omitempty"`
	Indexes       []psi.IndexStats    `json:"indexes,omitempty"`
	ResultCache   *cacheCounters      `json:"result_cache,omitempty"`
	Policy        *psi.PolicySnapshot `json:"policy,omitempty"`
}

// Stats assembles the snapshot served at /stats.
func (s *Server) Stats() StatsResponse {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.Draining(),
		InFlight:      s.lim.InFlight(),
		Capacity:      s.lim.Cap(),
		Admitted:      s.admitted.Load(),
		Rejected:      s.rejected.Load(),
		Unavailable:   s.unavailable.Load(),
		Coalesced:     s.coalesced.Load(),
		CoalescedFB:   s.coalescedFallbacks.Load(),
	}
	if s.cache.max > 0 {
		cc := s.cache.counters()
		resp.ResultCache = &cc
	}
	eng := s.Engine()
	if eng == nil {
		return resp
	}
	resp.Ready = true
	resp.Mode = string(eng.Mode())
	resp.DatasetGraphs = len(eng.Dataset())
	resp.Shards = eng.Shards()
	resp.ShardBalance = eng.ShardBalance()
	resp.Mutable = eng.Mutable()
	resp.Epoch = eng.Epoch()
	resp.Engine = eng.Counters()
	resp.Wins = eng.WinCounts()
	resp.Indexes = eng.IndexStats()
	if snap, ok := eng.PolicyStats(); ok {
		resp.Policy = &snap
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the same counters in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(name string, v any) {
		fmt.Fprintf(w, "%s %v\n", name, v)
	}
	p("psi_server_uptime_seconds", st.UptimeSeconds)
	p("psi_server_in_flight", st.InFlight)
	p("psi_server_capacity", st.Capacity)
	p("psi_server_admitted_total", st.Admitted)
	p("psi_server_rejected_total", st.Rejected)
	p("psi_server_unavailable_total", st.Unavailable)
	p("psi_server_coalesced_total", st.Coalesced)
	p("psi_server_coalesced_fallbacks_total", st.CoalescedFB)
	draining := 0
	if st.Draining {
		draining = 1
	}
	p("psi_server_draining", draining)
	ready := 0
	if st.Ready {
		ready = 1
	}
	p("psi_server_ready", ready)
	if st.ResultCache != nil {
		p("psi_server_cache_hits_total", st.ResultCache.Hits)
		p("psi_server_cache_misses_total", st.ResultCache.Misses)
		p("psi_server_cache_entries", st.ResultCache.Entries)
	}
	if !st.Ready {
		return
	}
	p("psi_engine_dataset_epoch", st.Epoch)
	p("psi_engine_graphs_added_total", st.Engine.GraphsAdded)
	p("psi_engine_graphs_removed_total", st.Engine.GraphsRemoved)
	p("psi_engine_graphs_replaced_total", st.Engine.GraphsReplaced)
	p("psi_engine_compactions_total", st.Engine.Compactions)
	p("psi_engine_queries_total", st.Engine.Queries)
	p("psi_engine_streamed_total", st.Engine.Streamed)
	p("psi_engine_killed_total", st.Engine.Killed)
	p("psi_engine_errors_total", st.Engine.Errors)
	p("psi_engine_race_attempts_total", st.Engine.RaceAttempts)
	p("psi_engine_predicted_solo_total", st.Engine.PredictedSolo)
	p("psi_engine_fallbacks_total", st.Engine.Fallbacks)
	p("psi_engine_index_races_total", st.Engine.IndexRaces)
	p("psi_engine_index_attempts_total", st.Engine.IndexAttempts)
	p("psi_engine_policy_solo_total", st.Engine.PolicySolo)
	p("psi_engine_policy_races_total", st.Engine.PolicyRaces)
	p("psi_engine_policy_escalations_total", st.Engine.PolicyEscalations)
	if st.Policy != nil {
		p("psi_engine_policy_classes", st.Policy.Classes)
		p("psi_engine_policy_classes_escalated", st.Policy.Escalated)
		for _, arm := range st.Policy.Arms {
			fmt.Fprintf(w, "psi_engine_policy_arm_race_wins_total{arm=%q} %d\n", arm.Name, arm.RaceWins)
			fmt.Fprintf(w, "psi_engine_policy_arm_solo_runs_total{arm=%q} %d\n", arm.Name, arm.SoloRuns)
			fmt.Fprintf(w, "psi_engine_policy_arm_kills_total{arm=%q} %d\n", arm.Name, arm.Kills)
			fmt.Fprintf(w, "psi_engine_policy_arm_mean_latency_us{arm=%q} %d\n", arm.Name, arm.MeanLatencyUS)
		}
	}
	p("psi_server_shards", st.Shards)
	for shard, n := range st.ShardBalance {
		fmt.Fprintf(w, "psi_engine_shard_answers_total{shard=\"%d\"} %d\n", shard, n)
	}
	winners := make([]string, 0, len(st.Wins))
	for name := range st.Wins {
		winners = append(winners, name)
	}
	sort.Strings(winners)
	for _, name := range winners {
		fmt.Fprintf(w, "psi_engine_wins_total{winner=%q} %d\n", name, st.Wins[name])
	}
}

// healthResponse is the /healthz JSON schema. Status is "ok", "building"
// (the engine is still constructing its indexes) or "draining"; Epoch is
// the current dataset epoch once ready (0 on immutable engines).
type healthResponse struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

// handleHealthz reports readiness: 200 with status "ok" while serving, 503
// with "building" until SetEngine installs the engine, 503 with "draining"
// once Shutdown has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining"})
		return
	}
	eng := s.Engine()
	if eng == nil {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "building"})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Epoch: eng.Epoch()})
}

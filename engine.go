package psi

// Engine is the serving-shaped facade over the Ψ-framework: a long-lived
// object that owns everything a query needs — the stored graph or dataset,
// prebuilt matchers, label frequencies, the FTV index and its iGQ-style
// result cache, the execution pool, and the prediction policy — and splits
// query processing into an explicit Plan step (attempt-portfolio selection)
// and an Execute step (running the plan under a per-query deadline).
// Free-function callers keep working; the Engine is where a server lives.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/metrics"
	"github.com/psi-graph/psi/internal/predict"
)

// Streaming types, re-exported from the internal substrate.
type (
	// Sink receives embeddings as a streaming search finds them; Emit
	// returning false stops the search.
	Sink = match.Sink
	// SinkFunc adapts a function to the Sink interface.
	SinkFunc = match.SinkFunc
	// StreamMatcher is the streaming face of a Matcher. All matchers
	// built by this module implement it.
	StreamMatcher = match.StreamMatcher
)

// MatchStream streams m's embeddings for q into sink: natively when m
// implements StreamMatcher (every matcher built by this module does),
// otherwise by materializing Match's slice and replaying it.
func MatchStream(ctx context.Context, m Matcher, q *Graph, limit int, sink Sink) error {
	return match.Stream(ctx, m, q, limit, sink)
}

// Mode selects the Engine's planning policy.
type Mode string

const (
	// ModeRace races the full attempt portfolio for every query — the
	// paper's Ψ-framework proper.
	ModeRace Mode = "race"
	// ModePredict races during a warmup phase, then plans only the
	// predicted-best attempt per query (§9 future work), falling back to a
	// full race when the prediction overruns its solo budget.
	ModePredict Mode = "predict"
	// ModeSingle always plans the portfolio's first attempt alone — the
	// fixed single-algorithm baseline the paper races against.
	ModeSingle Mode = "single"
	// ModeAuto plans with the traffic-aware bandit policy: per query class
	// it runs the learned best attempt solo and escalates to a full race
	// on unfamiliar classes, on staleness, or after a budget-killed solo.
	ModeAuto Mode = "auto"
)

// ParseMode converts a -mode flag value into a Mode.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeRace, ModePredict, ModeSingle, ModeAuto:
		return Mode(s), nil
	case "":
		return ModeRace, nil
	}
	return "", fmt.Errorf("psi: unknown mode %q (want race, predict, single or auto)", s)
}

// EngineOptions configures NewEngine and NewDatasetEngine. The zero value
// is a sensible default: a race of GraphQL and sPath over Orig and DND,
// no deadline, the shared CPU-sized pool.
type EngineOptions struct {
	// Algorithms are the portfolio's matching algorithms (NFV engines);
	// empty means {GraphQL, SPath}.
	Algorithms []Algorithm
	// Rewritings are the raced query rewritings; empty means {Orig, DND}.
	Rewritings []Rewriting
	// Mode is the planning policy; empty means ModeRace.
	Mode Mode
	// Timeout is the per-query deadline enforced by Execute through
	// metrics.Budget — the paper's kill cap. 0 disables the deadline.
	Timeout time.Duration
	// Workers sizes a dedicated execution pool owned (and closed) by the
	// Engine; 0 shares the process-wide CPU-sized pool.
	Workers int
	// Validate re-checks every winner embedding before surfacing it; for
	// tests and debugging.
	Validate bool

	// WarmupRaces is how many initial queries ModePredict races in full to
	// gather training signal; 0 means 8.
	WarmupRaces int
	// SoloBudget caps a predicted (or auto-policy) attempt's solo run
	// before it falls back to a full race; 0 means 50ms.
	SoloBudget time.Duration

	// AutoMinSamples is how many successful observations a query class
	// needs before the auto policy (ModeAuto / IndexAuto) may run it solo;
	// 0 means 3.
	AutoMinSamples int
	// AutoRaceEvery forces every Nth auto-policy decision of a class to a
	// full re-race so the learned statistics cannot go stale; 0 means 16,
	// negative disables staleness races.
	AutoRaceEvery int

	// Index selects the FTV index for dataset engines: "grapes"
	// (default), "ggsx" or "ftv" (the flat path index). Ignored when
	// Indexes is set.
	Index string
	// Indexes is the filtering-index portfolio of dataset engines: each
	// entry names a registered index kind ("ftv", "grapes", "ggsx").
	// With two or more entries the engine builds every index and, under
	// the race policy, runs them against each other per query — the
	// paper's parallel use of alternative algorithms applied to the
	// filtering stage. Empty falls back to Index.
	Indexes []string
	// IndexPolicy says how a dataset engine uses its portfolio:
	// IndexRace (default with ≥ 2 indexes) races every index per query;
	// IndexFixed (default with 1) always consults the first; IndexAuto
	// learns per query class which index to run solo and races only when
	// uncertain (unfamiliar class, staleness, or a budget-killed solo).
	IndexPolicy string
	// IndexWorkers is the Grapes verification worker count (the paper's
	// Grapes/1 vs Grapes/4); 0 means 1. Other kinds ignore it.
	IndexWorkers int
	// Shards partitions the dataset of dataset engines into K round-robin
	// shards, giving every index in the portfolio one sub-index per shard
	// behind an ascending-ID ordered merge; answers are byte-identical to
	// the monolithic engine at any K. <= 1 (and NFV engines) stay
	// monolithic. The count is clamped to the dataset size.
	Shards int
	// CacheSize bounds the iGQ-style result cache of dataset engines:
	// 0 means 128 entries, negative disables the cache. The cache layers
	// over a single index's pipeline, so it only applies under the fixed
	// policy; a racing engine answers every query live.
	CacheSize int
	// Mutable turns a dataset engine into a live one: AddGraph, RemoveGraph
	// and ReplaceGraph become available, every mutation bumps the dataset
	// epoch and installs a fresh index snapshot, and in-flight queries keep
	// reading the snapshot they started on (snapshot isolation — answers
	// stay byte-identical to a from-scratch build of whichever epoch they
	// executed against). Unlike static engines the shard count is not
	// clamped to the initial dataset size, since the dataset grows.
	Mutable bool
	// CompactEvery is the per-shard tombstone threshold of a mutable
	// engine: after this many deletions a shard sheds its dead graphs'
	// features with a shard-local rebuild. 0 means live.DefaultCompactEvery
	// (8); ignored for static engines.
	CompactEvery int
	// Snapshot, when set, constructs the dataset engine by loading a
	// persisted snapshot (written by SaveSnapshot) instead of extracting
	// features from a dataset: pass a nil dataset to NewDatasetEngine. The
	// snapshot dictates the dataset, index portfolio, shard count and
	// (for mutable engines) the full mutation state; Indexes/Index, Shards
	// and Mutable must be left zero or agree with the snapshot — a
	// mismatch is an error, never a silent rebuild. Runtime knobs
	// (IndexPolicy, IndexWorkers, CacheSize, CompactEvery, Workers, mode
	// and budget options) apply as usual.
	Snapshot string
}

// Index policies for EngineOptions.IndexPolicy and Plan.IndexPolicy.
const (
	// IndexRace races every configured filtering index per query; the
	// first index to emit a verified candidate wins and the rest are
	// cancelled.
	IndexRace = "race"
	// IndexFixed always consults the portfolio's first index.
	IndexFixed = "fixed"
	// IndexAuto runs the learned best index solo per query class, racing
	// the full portfolio only when uncertain. Answers are identical to
	// IndexRace in every case: all indexes are exact, so any arm computes
	// the same ascending graph IDs.
	IndexAuto = "auto"
)

// ParseIndexSpec converts an -index flag value into an index-kind list:
// a registered kind name ("ftv", "grapes", "ggsx"), a comma-separated
// combination, or "race" for the full portfolio of all registered kinds.
// Unregistered kinds and duplicate entries are rejected here, before any
// dataset is loaded or index built, so a misspelt flag fails in
// microseconds rather than after a multi-minute extraction.
func ParseIndexSpec(s string) ([]string, error) {
	switch s {
	case "":
		return nil, nil
	case IndexRace:
		return index.Kinds(), nil
	}
	var kinds []string
	seen := map[string]bool{}
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if seen[k] {
			return nil, fmt.Errorf("psi: duplicate index kind %q in spec %q", k, s)
		}
		seen[k] = true
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("psi: empty index spec %q", s)
	}
	registered := index.Kinds()
	for _, k := range kinds {
		if !slices.Contains(registered, k) {
			return nil, fmt.Errorf("psi: unknown index kind %q (registered: %v)", k, registered)
		}
	}
	return kinds, nil
}

// Engine is a long-lived query-serving object. Construct with NewEngine
// (single stored graph, NFV) or NewDatasetEngine (multi-graph dataset,
// FTV); both are safe for concurrent queries. Close releases the dedicated
// pool when one was requested.
type Engine struct {
	mode   Mode
	budget metrics.Budget
	pool   *exec.Pool
	owned  bool

	// Operational counters, bumped by every executed query and snapshotted
	// by Counters — the feed for a serving layer's /metrics endpoint.
	counters metrics.Counters
	winMu    sync.Mutex
	wins     map[string]int64

	// NFV state.
	g        *Graph
	matchers []Matcher
	attempts []Attempt
	racer    *core.Racer
	model    *predict.Predictor
	warmup   int64
	solo     time.Duration
	seen     atomic.Int64

	// Auto-policy state (ModeAuto / IndexAuto): the per-query-class
	// solo-vs-race bandit, nil under every other policy.
	bandit *predict.Bandit

	// FTV state. The epoch-versioned part — dataset, index portfolio,
	// racers, result cache — lives in an immutable dsState behind an atomic
	// pointer: static engines install exactly one for their lifetime, while
	// mutable engines install a fresh one per mutation so queries in flight
	// keep the state they acquired (snapshot isolation). ixPolicy, kinds
	// and the learned policy state persist across epochs.
	dsst      atomic.Pointer[dsState]
	store     *live.Store // nil for static (and NFV) engines
	mutMu     sync.Mutex  // serializes mutations and state refresh
	ixPolicy  string
	kinds     []string
	ixNames   []string // portfolio arm names, stable across epochs
	rewrites  []Rewriting
	cacheSize int

	// Sharding state: shardK is the effective partition count (0 when
	// monolithic) and shardEmits tallies, per shard, how many answer graph
	// IDs each shard contributed across the engine's lifetime — the shard
	// balance a serving layer exposes.
	shardK     int
	shardMu    sync.Mutex
	shardEmits []int64
}

// GraphHandle is the stable public identity of a dataset graph on a mutable
// engine: assigned by AddGraph (initial graphs get 1..n in dataset order),
// it survives every mutation and compaction, unlike the dense answer graph
// IDs, which shift as earlier graphs are deleted.
type GraphHandle = live.Handle

// ErrUnknownGraph reports a mutation against a GraphHandle the engine never
// issued or has already removed. Match with errors.Is.
var ErrUnknownGraph = live.ErrUnknownHandle

// dsState is one epoch of a dataset engine's query-serving state: the dense
// dataset, the index portfolio over it, the racer (or raced verifier and
// cache) wired to that portfolio, and — on mutable engines — the live
// snapshot whose release returns the underlying sub-indexes to the store's
// refcounting. It is immutable once installed; queries acquire it with a
// refcount for the duration of one execution, so a mutation installing a
// successor never tears resources out from under an in-flight query.
type dsState struct {
	epoch    uint64
	ds       []*Graph
	handles  []GraphHandle // nil on static engines
	indexes  []FilterIndex
	ixRacer  *core.IndexRacer
	ftvRacer *FTVRacer
	cache    *CachedFTV

	refs    atomic.Int64
	once    sync.Once
	dispose func()
}

// unref drops one reference; the last one disposes the state's resources
// (racer attempt pools, and the sub-indexes — directly for static engines,
// via the live snapshot's refcounts for mutable ones).
func (st *dsState) unref() {
	if st.refs.Add(-1) == 0 {
		st.once.Do(st.dispose)
	}
}

// acquireState takes a reference on the current dataset state, retrying
// around a concurrent swap exactly like live.Store.Current. Nil for NFV
// engines (and after Close).
func (e *Engine) acquireState() *dsState {
	for {
		st := e.dsst.Load()
		if st == nil {
			return nil
		}
		st.refs.Add(1)
		if e.dsst.Load() == st {
			return st
		}
		st.unref()
	}
}

// NewEngine builds an NFV engine serving subgraph-matching queries against
// one stored graph.
func NewEngine(g *Graph, opts EngineOptions) (*Engine, error) {
	if g == nil {
		return nil, errors.New("psi: NewEngine requires a stored graph")
	}
	e, err := newEngineCommon(opts)
	if err != nil {
		return nil, err
	}
	e.g = g
	algos := opts.Algorithms
	if len(algos) == 0 {
		algos = []Algorithm{GraphQL, SPath}
	}
	for _, a := range algos {
		m, err := NewMatcher(a, g)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.matchers = append(e.matchers, m)
	}
	e.racer = core.NewRacer(g)
	e.racer.Pool = e.pool
	e.racer.Validate = opts.Validate
	e.attempts = core.Portfolio(e.matchers, engineRewritings(opts))
	e.model = &predict.Predictor{}
	if e.mode == ModeAuto {
		names := make([]string, len(e.attempts))
		for i, a := range e.attempts {
			names[i] = a.Label()
		}
		e.bandit = predict.NewBandit(names, banditOptions(opts))
	}
	return e, nil
}

// banditOptions maps the engine options onto the policy's knobs.
func banditOptions(opts EngineOptions) predict.BanditOptions {
	return predict.BanditOptions{
		MinSamples: opts.AutoMinSamples,
		RaceEvery:  opts.AutoRaceEvery,
	}
}

// NewDatasetEngine builds an FTV engine serving containment queries against
// a multi-graph dataset. With a single configured index the query pipeline
// is filter → raced-rewriting verification behind the iGQ-style result
// cache, exactly as before; with an index portfolio (Indexes) under the
// race policy, every query races the full streaming pipeline of each index
// and adopts the first to emit a verified candidate, cancelling the rest.
func NewDatasetEngine(ds []*Graph, opts EngineOptions) (*Engine, error) {
	if opts.Snapshot != "" {
		if ds != nil {
			return nil, errors.New("psi: EngineOptions.Snapshot requires a nil dataset (the snapshot carries it)")
		}
		return newSnapshotEngine(opts)
	}
	if len(ds) == 0 {
		return nil, errors.New("psi: NewDatasetEngine requires a non-empty dataset")
	}
	e, err := newEngineCommon(opts)
	if err != nil {
		return nil, err
	}
	if err := e.configurePortfolio(opts, engineKinds(opts)); err != nil {
		e.Close()
		return nil, err
	}
	kinds := e.kinds
	var indexes []FilterIndex
	if opts.Mutable {
		store, serr := live.NewStore(context.Background(), ds, live.Options{
			Kinds:        kinds,
			Shards:       opts.Shards,
			CompactEvery: opts.CompactEvery,
			Index: index.Options{
				Workers: opts.IndexWorkers,
				Pool:    e.pool,
			},
		})
		if serr != nil {
			e.Close()
			return nil, fmt.Errorf("psi: building FTV index: %w", serr)
		}
		e.store = store
		if store.Shards() > 1 {
			e.shardK = store.Shards()
			e.shardEmits = make([]int64, e.shardK)
		}
		snap := store.Current()
		for _, kind := range kinds {
			indexes = append(indexes, snap.Index(kind))
		}
		e.installState(e.newState(snap, indexes))
	} else {
		// One portfolio build: the dataset's features are extracted once
		// and every kind (and shard) is folded from them.
		built, berr := index.BuildPortfolio(context.Background(), kinds, ds, index.Options{
			Workers: opts.IndexWorkers,
			Pool:    e.pool,
			Shards:  opts.Shards,
		})
		if berr != nil {
			e.Close()
			return nil, fmt.Errorf("psi: building FTV index: %w", berr)
		}
		indexes = built
		if sh, ok := built[0].(*index.Sharded); ok && sh.Shards() > 1 {
			// Every portfolio entry shards identically; record the
			// effective (dataset-clamped) count once.
			e.shardK = sh.Shards()
			e.shardEmits = make([]int64, e.shardK)
		}
		st := &dsState{ds: ds, indexes: indexes}
		st.dispose = func() {
			if st.ixRacer != nil {
				st.ixRacer.Close()
			}
			for _, x := range st.indexes {
				x.Close()
			}
		}
		e.wireState(st)
		st.refs.Store(1)
		e.dsst.Store(st)
	}
	e.finishPortfolio(opts, indexes)
	return e, nil
}

// engineKinds resolves the configured index-kind portfolio: Indexes, or the
// single Index, or the "grapes" default.
func engineKinds(opts EngineOptions) []string {
	if len(opts.Indexes) > 0 {
		return opts.Indexes
	}
	k := opts.Index
	if k == "" {
		k = "grapes"
	}
	return []string{k}
}

// configurePortfolio validates the index-kind portfolio and policy before
// any build or load is paid for: extracting the features of a large dataset
// several times over only to report a misspelt option would be hostile —
// including an unknown kind *after* valid ones, which must not cost the
// preceding builds first. Duplicate kinds are rejected rather than
// deduplicated: racing an index against an identical copy of itself is
// never what the caller meant.
func (e *Engine) configurePortfolio(opts EngineOptions, kinds []string) error {
	registered := index.Kinds()
	seenKind := map[string]bool{}
	for _, kind := range kinds {
		if seenKind[kind] {
			return fmt.Errorf("psi: duplicate index kind %q in portfolio %v", kind, kinds)
		}
		seenKind[kind] = true
		if !slices.Contains(registered, kind) {
			return fmt.Errorf("psi: unknown index kind %q (registered: %v)", kind, registered)
		}
	}
	switch opts.IndexPolicy {
	case "":
		if len(kinds) >= 2 {
			e.ixPolicy = IndexRace
		} else {
			e.ixPolicy = IndexFixed
		}
	case IndexRace, IndexFixed, IndexAuto:
		e.ixPolicy = opts.IndexPolicy
	default:
		return fmt.Errorf("psi: unknown index policy %q (want %q, %q or %q)", opts.IndexPolicy, IndexRace, IndexFixed, IndexAuto)
	}
	e.kinds = kinds
	e.rewrites = engineRewritings(opts)
	e.cacheSize = opts.CacheSize
	if len(kinds) < 2 && e.ixPolicy != IndexFixed {
		e.ixPolicy = IndexFixed
	}
	return nil
}

// finishPortfolio records the portfolio arm names and arms the auto-policy
// bandit once the index portfolio is live.
func (e *Engine) finishPortfolio(opts EngineOptions, indexes []FilterIndex) {
	for _, x := range indexes {
		e.ixNames = append(e.ixNames, x.Name())
	}
	if e.ixPolicy == IndexAuto && len(indexes) >= 2 {
		e.bandit = predict.NewBandit(e.ixNames, banditOptions(opts))
	}
}

// newState builds the epoch state around a live snapshot of a mutable
// engine; disposing it returns the snapshot to the store's refcounts.
func (e *Engine) newState(snap *live.Snapshot, indexes []FilterIndex) *dsState {
	st := &dsState{
		epoch:   snap.Epoch(),
		ds:      snap.Graphs(),
		handles: snap.Handles(),
		indexes: indexes,
	}
	st.dispose = func() {
		if st.ixRacer != nil {
			st.ixRacer.Close()
		}
		snap.Release()
	}
	e.wireState(st)
	st.refs.Store(1)
	return st
}

// wireState attaches the racer (portfolio policies) or the raced verifier
// plus result cache (fixed policy) to a fresh epoch state. A mutable engine
// runs this per mutation, which is what keeps the rewrite frequencies and
// the iGQ cache consistent with the current dataset: both are derived from
// the state's own index portfolio, never from a stale epoch.
func (e *Engine) wireState(st *dsState) {
	if (e.ixPolicy == IndexRace || e.ixPolicy == IndexAuto) && len(st.indexes) >= 2 {
		st.ixRacer = core.NewIndexRacer(st.indexes, e.rewrites)
		st.ixRacer.Pool = e.pool
		return
	}
	st.ftvRacer = core.NewFTVRacer(st.indexes[0], e.rewrites)
	st.ftvRacer.Pool = e.pool
	if e.cacheSize >= 0 {
		// The cache layers on the *raced* verifier, so the residual
		// verifications it cannot resolve are themselves raced across the
		// configured rewritings and fanned out over the pool.
		st.cache = ftv.NewCachedParallel(racedIndex{st.ftvRacer}, e.cacheSize, poolOrDefault(e.pool))
	}
}

// installState publishes a fresh epoch state and drops the engine's
// reference to the predecessor (which lives on until its last in-flight
// query unrefs it). Caller holds mutMu (or is NewDatasetEngine).
func (e *Engine) installState(st *dsState) {
	if old := e.dsst.Swap(st); old != nil {
		old.unref()
	}
}

func newEngineCommon(opts EngineOptions) (*Engine, error) {
	mode, err := ParseMode(string(opts.Mode))
	if err != nil {
		return nil, err
	}
	e := &Engine{
		mode:   mode,
		budget: metrics.Budget{Cap: opts.Timeout},
		warmup: int64(opts.WarmupRaces),
		solo:   opts.SoloBudget,
		wins:   map[string]int64{},
	}
	if e.warmup <= 0 {
		e.warmup = 8
	}
	if e.solo <= 0 {
		e.solo = 50 * time.Millisecond
	}
	if opts.Workers > 0 {
		e.pool = exec.New(opts.Workers)
		e.owned = true
	}
	return e, nil
}

func engineRewritings(opts EngineOptions) []Rewriting {
	if len(opts.Rewritings) == 0 {
		return []Rewriting{Orig, DND}
	}
	return append([]Rewriting(nil), opts.Rewritings...)
}

func poolOrDefault(p *exec.Pool) *exec.Pool {
	if p != nil {
		return p
	}
	return exec.Default()
}

// racedIndex adapts FTVRacer's per-candidate rewriting race to the
// ftv.Index contract so the result cache can layer on top of it.
type racedIndex struct{ f *FTVRacer }

func (r racedIndex) Name() string      { return r.f.Name() }
func (r racedIndex) Dataset() []*Graph { return r.f.Index.Dataset() }
func (r racedIndex) Filter(q *Graph) []int {
	return r.f.Index.Filter(q)
}
func (r racedIndex) Verify(ctx context.Context, q *Graph, graphID int) (bool, error) {
	res, err := r.f.Verify(ctx, q, graphID)
	return res.Contained, err
}

// Close releases the Engine's dedicated pool, if it owns one, and drops the
// engine's reference to its dataset state — index resources (e.g. Grapes'
// dedicated verification pool) are released once the last in-flight query
// finishes with them. Queries in flight degrade gracefully (pools fall back
// to transient goroutines).
func (e *Engine) Close() {
	if e.owned && e.pool != nil {
		e.pool.Close()
	}
	if st := e.dsst.Swap(nil); st != nil {
		st.unref()
	}
	if e.store != nil {
		e.store.Close()
	}
}

// Mode reports the engine's planning policy.
func (e *Engine) Mode() Mode { return e.mode }

// Graph returns the stored graph of an NFV engine (nil for dataset engines).
func (e *Engine) Graph() *Graph { return e.g }

// Dataset returns the dataset of an FTV engine (nil for NFV engines): the
// live graphs of the current epoch, in insertion order, exactly the dataset
// a from-scratch rebuild would be handed.
func (e *Engine) Dataset() []*Graph {
	if st := e.dsst.Load(); st != nil {
		return st.ds
	}
	return nil
}

// Mutable reports whether the engine supports dataset mutations.
func (e *Engine) Mutable() bool { return e.store != nil }

// Epoch reports the current dataset epoch of a mutable dataset engine:
// 1 after construction, bumped by every committed mutation. Static (and
// NFV) engines report 0 — their dataset can never change.
func (e *Engine) Epoch() uint64 {
	if e.store == nil {
		return 0
	}
	return e.store.Epoch()
}

// Handles returns the stable handle of every live graph of a mutable
// dataset engine, parallel to Dataset(): Handles()[i] identifies the graph
// answering as graph ID i at the current epoch. Nil for static engines.
func (e *Engine) Handles() []GraphHandle {
	if st := e.dsst.Load(); st != nil && st.handles != nil {
		return append([]GraphHandle(nil), st.handles...)
	}
	return nil
}

// AddGraph ingests g into a mutable dataset engine, returning its stable
// handle. The owning shard's sub-indexes absorb it incrementally where the
// kind supports it (the flat path index) and by shard-local rebuild
// otherwise; either way the epoch bumps and queries planned after the
// return see the new graph, while queries already executing finish on the
// epoch they started.
func (e *Engine) AddGraph(ctx context.Context, g *Graph) (GraphHandle, error) {
	if err := e.requireMutable(); err != nil {
		return 0, err
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	h, err := e.store.Add(ctx, g)
	if err != nil {
		return 0, err
	}
	e.counters.GraphsAdded.Add(1)
	e.refreshState()
	return h, nil
}

// RemoveGraph deletes the graph behind h from a mutable dataset engine —
// O(1) on the index side (a tombstone) until the owning shard accumulates
// enough of them to trigger a shard-local compaction, which the returned
// flag reports.
func (e *Engine) RemoveGraph(ctx context.Context, h GraphHandle) (compacted bool, err error) {
	if err := e.requireMutable(); err != nil {
		return false, err
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	compacted, err = e.store.Remove(ctx, h)
	if err != nil {
		return false, err
	}
	e.counters.GraphsRemoved.Add(1)
	if compacted {
		e.counters.Compactions.Add(1)
	}
	e.refreshState()
	return compacted, nil
}

// ReplaceGraph swaps the graph behind h for g in place on a mutable dataset
// engine: same handle, same shard, rebuilt shard-locally.
func (e *Engine) ReplaceGraph(ctx context.Context, h GraphHandle, g *Graph) error {
	if err := e.requireMutable(); err != nil {
		return err
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	if err := e.store.Replace(ctx, h, g); err != nil {
		return err
	}
	e.counters.GraphsReplaced.Add(1)
	e.refreshState()
	return nil
}

func (e *Engine) requireMutable() error {
	if e.store == nil {
		return errors.New("psi: mutations require a dataset engine built with EngineOptions.Mutable")
	}
	return nil
}

// refreshState rebuilds the query-serving state around the store's newest
// snapshot. Caller holds mutMu.
func (e *Engine) refreshState() {
	snap := e.store.Current()
	indexes := make([]FilterIndex, 0, len(e.kinds))
	for _, kind := range e.kinds {
		indexes = append(indexes, snap.Index(kind))
	}
	e.installState(e.newState(snap, indexes))
}

// Attempts returns a copy of the engine's attempt portfolio (NFV engines).
func (e *Engine) Attempts() []Attempt {
	return append([]Attempt(nil), e.attempts...)
}

// CacheStats reports the FTV result-cache counters; ok is false for NFV
// engines and dataset engines built with a negative CacheSize.
func (e *Engine) CacheStats() (stats ftv.CacheStats, ok bool) {
	st := e.dsst.Load()
	if st == nil || st.cache == nil {
		return ftv.CacheStats{}, false
	}
	return st.cache.Stats(), true
}

// Counters returns a point-in-time snapshot of the engine's operational
// counters: queries executed, streamed, killed, failed, attempt and index
// fan-out totals. Safe to call while queries are in flight.
func (e *Engine) Counters() metrics.CountersSnapshot { return e.counters.Snapshot() }

// WinCounts returns a copy of the per-winner tally: how many queries each
// attempt label ("GQL-DND") or index configuration ("Grapes/1") answered.
// Safe to call while queries are in flight.
func (e *Engine) WinCounts() map[string]int64 {
	e.winMu.Lock()
	defer e.winMu.Unlock()
	out := make(map[string]int64, len(e.wins))
	for k, v := range e.wins {
		out[k] = v
	}
	return out
}

// recordWin tallies the winning attempt or index configuration.
func (e *Engine) recordWin(label string) {
	if label == "" {
		return
	}
	e.winMu.Lock()
	e.wins[label]++
	e.winMu.Unlock()
}

// IndexPolicy reports how a dataset engine uses its filtering indexes
// (IndexRace or IndexFixed); empty for NFV engines.
func (e *Engine) IndexPolicy() string { return e.ixPolicy }

// Shards reports the effective dataset partition count of a sharded dataset
// engine (0 for monolithic and NFV engines).
func (e *Engine) Shards() int { return e.shardK }

// ShardBalance returns a copy of the per-shard answer tally of a sharded
// dataset engine: how many containing graph IDs each shard has contributed
// across all executed queries (nil when monolithic). Every engine-executed
// query counts, including repeats and engine-cache replays — the tally
// tracks query traffic over each shard's data, mirroring how Counters
// treats replays as executed queries; only answers a serving layer replays
// from its own result cache (which never reach the engine) are absent.
// Safe to call while queries are in flight.
func (e *Engine) ShardBalance() []int64 {
	if e.shardK < 2 {
		return nil
	}
	e.shardMu.Lock()
	defer e.shardMu.Unlock()
	return append([]int64(nil), e.shardEmits...)
}

// tallyShardID attributes one emitted answer graph ID to the shard that
// owns it; a no-op for monolithic engines.
func (e *Engine) tallyShardID(graphID int) {
	if e.shardK < 2 {
		return
	}
	e.shardMu.Lock()
	e.shardEmits[index.ShardOf(graphID, e.shardK)]++
	e.shardMu.Unlock()
}

// tallyShardIDs attributes a collected answer to its shards.
func (e *Engine) tallyShardIDs(graphIDs []int) {
	if e.shardK < 2 {
		return
	}
	e.shardMu.Lock()
	for _, id := range graphIDs {
		e.shardEmits[index.ShardOf(id, e.shardK)]++
	}
	e.shardMu.Unlock()
}

// IndexStats reports the build provenance and shape of every filtering
// index in the engine's portfolio, in portfolio order (dataset engines
// only; nil for NFV engines).
func (e *Engine) IndexStats() []IndexStats {
	st := e.dsst.Load()
	if st == nil {
		return nil
	}
	out := make([]IndexStats, 0, len(st.indexes))
	for _, x := range st.indexes {
		out = append(out, x.Stats())
	}
	return out
}

// PlanKind says how Execute will run a planned query.
type PlanKind string

const (
	// PlanRace races the full attempt portfolio.
	PlanRace PlanKind = "race"
	// PlanPredicted runs only the model's predicted attempt, with a full
	// race as fallback if it overruns the solo budget.
	PlanPredicted PlanKind = "predicted"
	// PlanFixed runs a fixed single attempt with no fallback.
	PlanFixed PlanKind = "fixed"
	// PlanFTV answers a containment query through the engine's
	// filter-then-verify pipeline.
	PlanFTV PlanKind = "ftv"
)

// PolicyDecision reports how the auto policy planned one query: the
// query's traffic class, whether it runs one learned arm solo or races the
// full portfolio, and why. Carried on Plan.Decision and QueryResult.Policy
// for engines under ModeAuto / IndexAuto, nil everywhere else.
type PolicyDecision struct {
	// Class is the query's traffic class (log-bucketed size/shape key).
	Class string `json:"class"`
	// Solo is true when one arm runs alone; false means a full race.
	Solo bool `json:"solo"`
	// Arm is the portfolio position of the solo arm (valid when Solo).
	Arm int `json:"arm"`
	// ArmName labels the solo arm ("Grapes/1", "GQL-DND"); empty on races.
	ArmName string `json:"arm_name,omitempty"`
	// Reason says why: "learned" for solo; "warmup", "stale" or
	// "escalated" for races.
	Reason string `json:"reason"`

	// observed marks that the execution already fed the bandit (solo
	// completion, in-query fallback, or race win), so the post-budget kill
	// hook must not double-record.
	observed bool
}

// PolicySnapshot is a point-in-time copy of an auto-policy engine's learned
// state: observed class count, pending escalations, per-arm evidence.
type PolicySnapshot = predict.BanditSnapshot

// PolicyArmSummary is one portfolio arm's aggregated evidence inside a
// PolicySnapshot: race wins, solo runs, kills, mean first-result latency.
type PolicyArmSummary = predict.ArmSummary

// PolicyStats reports the auto policy's learned state; ok is false for
// engines not under ModeAuto / IndexAuto. Safe to call while queries are in
// flight — the feed for a serving layer's /stats endpoint.
func (e *Engine) PolicyStats() (PolicySnapshot, bool) {
	if e.bandit == nil {
		return PolicySnapshot{}, false
	}
	return e.bandit.Snapshot(), true
}

// decide runs the bandit for one query, translating the policy's verdict
// into the exported decision record. Returns nil when the engine is not
// under the auto policy.
func (e *Engine) decide(q *Graph) *PolicyDecision {
	if e.bandit == nil {
		return nil
	}
	d := e.bandit.Decide(predict.ClassKey(q))
	pd := &PolicyDecision{Class: d.Class, Solo: d.Solo, Arm: d.Arm, Reason: d.Reason}
	if d.Solo {
		if e.g != nil {
			pd.ArmName = e.attempts[d.Arm].Label()
		} else {
			pd.ArmName = e.ixNames[d.Arm]
		}
	}
	return pd
}

// Plan is an executable query plan produced by Engine.Plan. Plans are
// cheap, single-use value carriers: planning touches no stored-graph data
// beyond the O(|q|) feature vector.
type Plan struct {
	// Query is the planned query graph.
	Query *Graph
	// Kind is the selected execution strategy.
	Kind PlanKind
	// Attempts are the contenders Execute will run (NFV plans).
	Attempts []Attempt
	// Predicted is the portfolio index of the model's pick for
	// PlanPredicted plans, -1 otherwise.
	Predicted int
	// IndexPolicy records how a PlanFTV plan runs the engine's filtering
	// indexes — IndexRace or IndexFixed; empty for NFV plans.
	IndexPolicy string
	// Indexes names the filtering indexes the plan will consult, in
	// portfolio order (PlanFTV plans only).
	Indexes []string
	// Deadline is the per-query cap Execute will enforce (0: none).
	Deadline time.Duration
	// Decision is the auto policy's solo-vs-race verdict for this query
	// (ModeAuto / IndexAuto engines only, nil otherwise).
	Decision *PolicyDecision
	// Epoch is the dataset epoch current at planning time (mutable dataset
	// engines only, 0 otherwise). Execution always runs against the epoch
	// current when Execute starts — QueryResult.Epoch reports which — so a
	// mutation between Plan and Execute shows up as a differing pair.
	Epoch uint64

	features predict.Features
	engine   *Engine
}

// Plan selects the attempt portfolio for q under the engine's mode:
// a full race, the predicted single attempt (once the model has warmed
// up), a fixed single attempt, or the FTV pipeline for dataset engines.
func (e *Engine) Plan(q *Graph) (*Plan, error) {
	if q == nil {
		return nil, errors.New("psi: Plan requires a query graph")
	}
	p := &Plan{Query: q, Predicted: -1, Deadline: e.budget.Cap, engine: e}
	if e.g == nil {
		p.Kind = PlanFTV
		p.IndexPolicy = e.ixPolicy
		p.Decision = e.decide(q)
		p.Epoch = e.Epoch()
		p.Indexes = append(p.Indexes, e.ixNames...)
		return p, nil
	}
	switch e.mode {
	case ModeSingle:
		p.Kind = PlanFixed
		p.Attempts = e.attempts[:1]
	case ModeAuto:
		p.Decision = e.decide(q)
		if p.Decision.Solo {
			p.Kind = PlanPredicted
			p.Predicted = p.Decision.Arm
			p.Attempts = e.attempts[p.Predicted : p.Predicted+1]
		} else {
			p.Kind = PlanRace
			p.Attempts = e.attempts
		}
	case ModePredict:
		p.features = predict.Featurize(q, e.racer.Frequencies)
		p.Kind = PlanRace
		p.Attempts = e.attempts
		if e.seen.Load() >= e.warmup {
			if idx := e.model.Predict(p.features); idx >= 0 {
				p.Kind = PlanPredicted
				p.Predicted = idx
				p.Attempts = e.attempts[idx : idx+1]
			}
		}
	default:
		p.Kind = PlanRace
		p.Attempts = e.attempts
	}
	// The plan is a public value: never alias the engine's portfolio,
	// which a caller could then mutate under every future query.
	p.Attempts = append([]Attempt(nil), p.Attempts...)
	return p, nil
}

// QueryResult is the outcome of one executed plan.
type QueryResult struct {
	// Embeddings holds the matched embeddings (NFV, non-streaming
	// execution only; streaming sends them to the sink instead).
	Embeddings []Embedding
	// Found is the number of answers surfaced, whether collected here or
	// streamed: embeddings for NFV plans, containing graph IDs for FTV
	// plans — identical for cached replays and fresh executions alike.
	Found int
	// GraphIDs are the containing dataset graphs (FTV plans), ascending.
	GraphIDs []int
	// Winner labels the attempt (or index configuration) that produced
	// the answer, e.g. "GQL-DND".
	Winner string
	// IndexAttempts reports each filtering index's run for FTV plans
	// executed under the race policy: the adopted winner, the cancelled
	// losers and their timings — the index-level counterpart of the
	// matcher attempts behind Winner.
	IndexAttempts []IndexAttempt
	// Kind echoes the executed plan's strategy; FellBack marks a
	// predicted (or auto-solo) plan that overran its solo budget and
	// re-ran as a race.
	Kind     PlanKind
	FellBack bool
	// Policy echoes the auto policy's decision for this query (ModeAuto /
	// IndexAuto engines only, nil otherwise).
	Policy *PolicyDecision
	// Epoch is the dataset epoch the query executed against (mutable
	// dataset engines only, 0 otherwise): the answer is byte-identical to
	// a from-scratch engine over that epoch's dataset.
	Epoch uint64
	// Elapsed is the measured execution time; when the engine has a
	// deadline, Killed marks queries that hit it (Elapsed is then clamped
	// to the cap, the substitution the paper's methodology prescribes)
	// and Class buckets the timing against the paper's easy/mid/hard
	// thresholds. A killed collecting run surfaces an empty answer; a
	// killed streaming run keeps Found at the number of embeddings that
	// reached the sink before the kill.
	Elapsed time.Duration
	Killed  bool
	Class   metrics.Class
}

// Contained reports whether the query was found at all.
func (r *QueryResult) Contained() bool { return r.Found > 0 || len(r.GraphIDs) > 0 }

// Query plans and executes q in one call — the convenience path.
func (e *Engine) Query(ctx context.Context, q *Graph, limit int) (*QueryResult, error) {
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, p, limit)
}

// QueryStream plans and executes q, streaming embeddings into sink.
func (e *Engine) QueryStream(ctx context.Context, q *Graph, limit int, sink Sink) (*QueryResult, error) {
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStream(ctx, p, limit, sink)
}

// Execute runs a plan and collects its answer. Up to limit embeddings are
// returned for NFV plans (limit <= 0: decision, stop at the first); FTV
// plans ignore limit and return containing graph IDs. When the engine has
// a deadline, a query that hits it is not an error: the result comes back
// with Killed set, Class Hard and an empty answer.
func (e *Engine) Execute(ctx context.Context, p *Plan, limit int) (*QueryResult, error) {
	return e.execute(ctx, p, limit, nil)
}

// ExecuteStream runs a plan, emitting embeddings into sink as they are
// found; the first attempt to emit is adopted and the rest are cancelled,
// so first-result latency does not wait for full enumeration. The result's
// Found counts the embeddings handed to the sink. Dataset (FTV) plans
// stream graph IDs through Engine.AnswerStream instead.
func (e *Engine) ExecuteStream(ctx context.Context, p *Plan, limit int, sink Sink) (*QueryResult, error) {
	if sink == nil {
		return nil, errors.New("psi: ExecuteStream requires a sink")
	}
	return e.execute(ctx, p, limit, sink)
}

func (e *Engine) execute(ctx context.Context, p *Plan, limit int, sink Sink) (*QueryResult, error) {
	if p == nil || p.engine != e {
		return nil, errors.New("psi: Execute requires a plan from this engine's Plan")
	}
	if p.Kind == PlanFTV && sink != nil {
		return nil, errors.New("psi: FTV plans stream graph IDs via AnswerStream, not embeddings")
	}
	e.counters.Queries.Add(1)
	if sink != nil {
		e.counters.Streamed.Add(1)
	}
	res := &QueryResult{Kind: p.Kind, Policy: p.Decision}
	var st *dsState
	if p.Kind == PlanFTV {
		// Pin the current epoch's state for the whole execution: a
		// concurrent mutation installs its successor without disturbing
		// this query, and the result records which epoch answered.
		if st = e.acquireState(); st == nil {
			return nil, errors.New("psi: engine closed")
		}
		defer st.unref()
		res.Epoch = st.epoch
	}
	streamed := 0
	if sink != nil {
		// Count what actually reaches the caller, so a killed streaming
		// run can still report the embeddings it irrevocably surfaced.
		inner := sink
		sink = SinkFunc(func(em Embedding) bool {
			streamed++
			return inner.Emit(em)
		})
	}
	run := func(runCtx context.Context) error {
		switch p.Kind {
		case PlanFTV:
			return e.runFTV(runCtx, st, p, res)
		case PlanPredicted:
			return e.runPredicted(runCtx, p, limit, sink, res)
		default:
			return e.runRace(runCtx, p.Query, p.Attempts, limit, sink, res, p.features)
		}
	}
	if e.budget.Cap > 0 {
		t := e.budget.Run(ctx, run)
		res.Elapsed, res.Killed = t.Elapsed, t.Killed
		res.Class = e.budget.Classify(t)
		if t.Err != nil {
			e.counters.Errors.Add(1)
			return nil, t.Err
		}
		if t.Killed {
			// The deadline is engine policy, not a failure: report the
			// kill the way the paper's methodology records it. Found
			// keeps the count of embeddings already streamed — those
			// cannot be retracted from the sink.
			res.Embeddings, res.GraphIDs = nil, nil
			res.Found = streamed
			e.observeKill(res)
		}
		e.tally(res)
		return res, nil
	}
	start := time.Now()
	err := run(ctx)
	res.Elapsed = time.Since(start)
	if err != nil {
		e.counters.Errors.Add(1)
		return nil, err
	}
	e.tally(res)
	return res, nil
}

// observeKill feeds a budget-killed solo run into the bandit as evidence
// against the arm — unless the execution already recorded its own outcome
// (an in-query fallback observed the kill before re-racing). Caller
// cancellations never reach here: they surface as errors, not kills, so a
// client disconnect leaves the learned statistics untouched.
func (e *Engine) observeKill(res *QueryResult) {
	d := res.Policy
	if e.bandit == nil || d == nil || !d.Solo || d.observed {
		return
	}
	d.observed = true
	e.bandit.ObserveKill(d.Class, d.Arm)
}

// tally folds one finished (possibly killed) result into the engine's
// operational counters.
func (e *Engine) tally(res *QueryResult) {
	if res.Killed {
		e.counters.Killed.Add(1)
	}
	if e.shardK >= 2 && res.Kind == PlanFTV {
		e.counters.ShardedQueries.Add(1)
		if res.Killed {
			e.counters.ShardedKilled.Add(1)
		}
	}
	e.recordWin(res.Winner)
	// A single recorded attempt is a solo pipeline, not a race: it counts
	// toward the started-work total but not the race tally.
	if n := len(res.IndexAttempts); n > 1 {
		e.counters.IndexRaces.Add(1)
		e.counters.IndexAttempts.Add(int64(n))
	} else if n == 1 {
		e.counters.IndexAttempts.Add(1)
	}
	if res.FellBack {
		e.counters.Fallbacks.Add(1)
	}
	if d := res.Policy; d != nil {
		if d.Solo {
			e.counters.PolicySolo.Add(1)
		} else {
			e.counters.PolicyRaces.Add(1)
			if d.Reason == predict.ReasonEscalated {
				e.counters.PolicyEscalations.Add(1)
			}
		}
	}
}

// runRace executes a full (or fixed single-attempt) race, observing the
// winner into the prediction model when the engine learns.
func (e *Engine) runRace(ctx context.Context, q *Graph, attempts []Attempt, limit int, sink Sink, res *QueryResult, feats predict.Features) error {
	var (
		r   core.Result
		err error
	)
	e.counters.RaceAttempts.Add(int64(len(attempts)))
	if sink != nil {
		r, err = e.racer.RaceStream(ctx, q, limit, attempts, sink)
	} else {
		r, err = e.racer.Race(ctx, q, limit, attempts)
	}
	if err != nil {
		return err
	}
	res.Embeddings = r.Embeddings
	res.Found = r.Found
	res.Winner = r.Winner.Label()
	if len(attempts) == len(e.attempts) {
		switch {
		case e.mode == ModePredict:
			e.model.Observe(feats, r.WinnerIndex)
			e.seen.Add(1)
		case e.bandit != nil && res.Policy != nil:
			// A full auto-policy race trains the bandit with the winner's
			// first-result latency (and clears any kill escalation).
			res.Policy.observed = true
			e.bandit.ObserveRaceWin(res.Policy.Class, r.WinnerIndex, r.Elapsed)
		}
	}
	return nil
}

// runPredicted runs the model's pick alone under the solo budget, falling
// back to a full race when the prediction overruns before emitting. A
// streamed run that already surfaced embeddings is committed: a mid-stream
// budget expiry surfaces as the solo context's error rather than silently
// restarting the query.
func (e *Engine) runPredicted(ctx context.Context, p *Plan, limit int, sink Sink, res *QueryResult) error {
	soloCtx, cancel := context.WithTimeout(ctx, e.solo)
	defer cancel()
	e.counters.RaceAttempts.Add(1)
	att := e.attempts[p.Predicted : p.Predicted+1]
	var (
		r       core.Result
		err     error
		emitted int
	)
	if sink != nil {
		counting := SinkFunc(func(em Embedding) bool {
			emitted++
			return sink.Emit(em)
		})
		r, err = e.racer.RaceStream(soloCtx, p.Query, limit, att, counting)
	} else {
		r, err = e.racer.Race(soloCtx, p.Query, limit, att)
	}
	if err == nil {
		res.Embeddings = r.Embeddings
		res.Found = r.Found
		res.Winner = att[0].Label()
		e.counters.PredictedSolo.Add(1)
		if d := res.Policy; e.bandit != nil && d != nil {
			d.observed = true
			e.bandit.ObserveSolo(d.Class, d.Arm, r.Elapsed)
		} else {
			e.model.Observe(p.features, p.Predicted)
		}
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err() // the caller's context died, not the solo budget
	}
	// The solo budget expired: evidence against the learned arm.
	if d := res.Policy; e.bandit != nil && d != nil {
		d.observed = true
		e.bandit.ObserveKill(d.Class, d.Arm)
	}
	if emitted > 0 {
		return err // committed: partial output already reached the sink
	}
	res.FellBack = true
	return e.runRace(ctx, p.Query, e.attempts, limit, sink, res, p.features)
}

// runFTV answers a containment query. Under the race policy every
// configured index runs its streaming filter→verify pipeline concurrently
// and the first verified emission wins; under the auto policy a learned
// solo pipeline runs first when the bandit trusts one (falling back to the
// full race if it overruns the solo budget); under the fixed policy the
// primary index answers through the cache (when enabled) or the raced
// verifier.
func (e *Engine) runFTV(ctx context.Context, st *dsState, p *Plan, res *QueryResult) error {
	if st.ixRacer != nil {
		if d := p.Decision; d != nil && d.Solo {
			// A collected solo buffers its IDs internally, so a fallback
			// discards a partial answer no caller ever saw — always safe.
			soloCtx, cancel := context.WithTimeout(ctx, e.solo)
			r, err := st.ixRacer.AnswerArm(soloCtx, p.Query, d.Arm)
			cancel()
			if err == nil {
				d.observed = true
				e.bandit.ObserveSolo(d.Class, d.Arm, r.Elapsed)
				e.finishIndexResult(res, r)
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err() // budget kill or caller cancel, not the solo budget
			}
			d.observed = true
			e.bandit.ObserveKill(d.Class, d.Arm)
			e.counters.IndexAttempts.Add(1) // the abandoned solo still ran
			res.FellBack = true
		}
		r, err := st.ixRacer.Answer(ctx, p.Query)
		if err != nil {
			return err
		}
		if d := p.Decision; d != nil && e.bandit != nil {
			d.observed = true
			e.bandit.ObserveRaceWin(d.Class, r.WinnerIndex, r.Attempts[r.WinnerIndex].Elapsed)
		}
		e.finishIndexResult(res, r)
		return nil
	}
	var (
		ids []int
		err error
	)
	if st.cache != nil {
		ids, err = st.cache.Answer(ctx, p.Query)
		res.Winner = st.cache.Name()
	} else {
		ids, err = st.ftvRacer.Answer(ctx, p.Query)
		res.Winner = st.ftvRacer.Name()
	}
	if err != nil {
		return err
	}
	res.GraphIDs = ids
	res.Found = len(ids)
	e.tallyShardIDs(ids)
	return nil
}

// finishIndexResult copies an index race (or solo arm) outcome into the
// query result and attributes the answer to its shards.
func (e *Engine) finishIndexResult(res *QueryResult, r core.IndexRaceResult) {
	res.GraphIDs = r.GraphIDs
	res.Found = len(r.GraphIDs)
	res.Winner = r.Winner
	res.IndexAttempts = r.Attempts
	e.tallyShardIDs(res.GraphIDs)
}

// ErrKilled reports a streamed query that hit the engine's per-query kill
// cap after part of its answer had already been emitted. Result-bearing
// paths report the kill through QueryResult.Killed instead.
var ErrKilled = errors.New("psi: query killed by the per-query budget")

// AnswerStream streams a dataset engine's containment answer: each
// containing graph ID is handed to emit as soon as its verification — and
// that of every candidate before it — settles, in the same ascending order
// Query returns. emit returning false cancels the outstanding work. emit
// runs on verification goroutines under an internal lock and must not
// block (in particular, not on work that only proceeds after AnswerStream
// returns). The stream bypasses the result cache (a partial answer must
// not be remembered as complete). On an engine with a per-query budget, a
// query that hits the cap returns ErrKilled: this signature has no result
// to carry the kill marker, and a truncated ID stream must not read as a
// complete answer. Use AnswerStreamResult to observe kills as data.
func (e *Engine) AnswerStream(ctx context.Context, q *Graph, emit func(graphID int) bool) error {
	res, err := e.AnswerStreamResult(ctx, q, emit)
	if err != nil {
		return err
	}
	if res.Killed {
		return ErrKilled
	}
	return nil
}

// AnswerStreamResult is AnswerStream with the execution report a serving
// layer needs alongside the stream: the winning index configuration, the
// per-index attempts of a raced query, the measured time and — when the
// engine has a per-query deadline — the kill marker, with Found keeping the
// count of graph IDs that irrevocably reached emit before the kill. The
// result's GraphIDs stays nil; the IDs go to emit.
func (e *Engine) AnswerStreamResult(ctx context.Context, q *Graph, emit func(graphID int) bool) (*QueryResult, error) {
	if e.g != nil {
		return nil, errors.New("psi: AnswerStream requires a dataset engine")
	}
	if emit == nil {
		return nil, errors.New("psi: AnswerStream requires an emit function")
	}
	st := e.acquireState()
	if st == nil {
		return nil, errors.New("psi: AnswerStream requires an open dataset engine")
	}
	defer st.unref()
	e.counters.Queries.Add(1)
	e.counters.Streamed.Add(1)
	res := &QueryResult{Kind: PlanFTV, Policy: e.decide(q), Epoch: st.epoch}
	streamed := 0
	counting := func(id int) bool {
		streamed++
		e.tallyShardID(id)
		return emit(id)
	}
	run := func(runCtx context.Context) error {
		if st.ixRacer != nil {
			if d := res.Policy; d != nil && d.Solo {
				soloCtx, cancel := context.WithTimeout(runCtx, e.solo)
				before := streamed
				r, err := st.ixRacer.AnswerStreamArm(soloCtx, q, d.Arm, counting)
				cancel()
				if err == nil {
					d.observed = true
					e.bandit.ObserveSolo(d.Class, d.Arm, r.Elapsed)
					res.Winner = r.Winner
					res.IndexAttempts = r.Attempts
					return nil
				}
				if runCtx.Err() != nil {
					return runCtx.Err() // budget kill or caller cancel
				}
				d.observed = true
				e.bandit.ObserveKill(d.Class, d.Arm)
				if streamed > before {
					// Committed: IDs already reached the caller, and a
					// fallback race would replay the ascending stream from
					// the start. The overrun surfaces as the solo deadline
					// error — a kill on a budgeted engine.
					return err
				}
				e.counters.IndexAttempts.Add(1) // the abandoned solo still ran
				res.FellBack = true
			}
			r, err := st.ixRacer.AnswerStream(runCtx, q, counting)
			if err != nil {
				return err
			}
			if d := res.Policy; d != nil && e.bandit != nil {
				d.observed = true
				e.bandit.ObserveRaceWin(d.Class, r.WinnerIndex, r.Attempts[r.WinnerIndex].Elapsed)
			}
			res.Winner = r.Winner
			res.IndexAttempts = r.Attempts
			return nil
		}
		res.Winner = st.ftvRacer.Name()
		return st.ftvRacer.AnswerStream(runCtx, q, counting)
	}
	if e.budget.Cap > 0 {
		t := e.budget.Run(ctx, run)
		res.Elapsed, res.Killed = t.Elapsed, t.Killed
		res.Class = e.budget.Classify(t)
		if t.Err != nil {
			e.counters.Errors.Add(1)
			return nil, t.Err
		}
		if t.Killed {
			e.observeKill(res)
		}
		res.Found = streamed
		e.tally(res)
		return res, nil
	}
	start := time.Now()
	err := run(ctx)
	res.Elapsed = time.Since(start)
	if err != nil {
		e.counters.Errors.Add(1)
		return nil, err
	}
	res.Found = streamed
	e.tally(res)
	return res, nil
}

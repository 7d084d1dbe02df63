package psi

// Engine is the serving-shaped facade over the Ψ-framework: a long-lived
// object that owns everything a query needs — the stored graph or dataset,
// prebuilt matchers, label frequencies, the filtering-index portfolio, the
// execution pool, and the learned planning policy — and splits query
// processing into an explicit Plan step (attempt-portfolio selection,
// plan.go) and an Execute step (running the plan under a per-query deadline,
// execute.go).
// Options live in options.go, the dataset-store wiring and the mutation API
// in engine_dataset.go.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/live"
	"github.com/psi-graph/psi/internal/metrics"
	"github.com/psi-graph/psi/internal/predict"
)

// Engine is a long-lived query-serving object. Construct with NewEngine
// (single stored graph, NFV) or NewDatasetEngine (multi-graph dataset,
// FTV); both are safe for concurrent queries. Close releases the dedicated
// pool when one was requested.
type Engine struct {
	// mode is what EngineOptions.Mode said; policy is what the engine does:
	// Mode's reading for a stored-graph engine, IndexPolicy's for a dataset
	// engine (plan.go).
	mode   Mode
	policy launchPolicy
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
	solo     time.Duration

	// Auto-policy state (ModeAuto / IndexAuto): the per-query-class
	// solo-vs-race bandit, nil under every other policy.
	bandit *predict.Bandit

	// FTV state. Every dataset engine serves from a live.Store; mutable only
	// opens the mutation API, so a static engine's store never mutates. Each
	// query pins the store's current snapshot — dataset, handles, indexes and
	// label frequencies of one epoch — so a mutation never disturbs it
	// (snapshot isolation). Only what outlives an epoch lives here: the arm
	// names, the learned policy and the one index racer.
	store   *live.Store // nil for NFV engines
	ixRacer *core.IndexRacer
	mutable bool
	ixNames []string // portfolio arm names, stable across epochs

	// Sharding state: shardK is the effective partition count (0 when
	// monolithic) and shardEmits tallies, per shard, how many answer graph
	// IDs each shard contributed across the engine's lifetime — the shard
	// balance a serving layer exposes.
	shardK     int
	shardEmits []atomic.Int64
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
	e.attempts = core.Portfolio(e.matchers, engineRewritings(opts))
	switch e.mode {
	case ModeSingle:
		e.policy = launchFirst
	case ModeAuto:
		e.policy = launchAuto
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
// a multi-graph dataset. Every query streams through the one pipeline of
// core.IndexRacer.Stream: a single configured index (or the fixed policy) is
// a race of one arm; with an index portfolio (Indexes) under the race policy
// every query races the full streaming filter→verify pipeline of each index
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
	kinds := engineKinds(opts)
	if err := e.configurePortfolio(opts, kinds); err != nil {
		e.Close()
		return nil, err
	}
	shards := opts.Shards
	if !opts.Mutable {
		// A static dataset never grows: a shard beyond it would stay empty.
		shards = min(shards, len(ds))
	}
	// One grid build: the dataset's features are extracted once and every
	// kind and shard is folded from them.
	store, err := live.NewStore(context.Background(), ds, live.Options{
		Kinds:        kinds,
		Shards:       shards,
		CompactEvery: opts.CompactEvery,
		Index:        index.Options{Workers: opts.IndexWorkers, Pool: e.pool},
	})
	if err != nil {
		e.Close()
		return nil, fmt.Errorf("psi: building FTV index: %w", err)
	}
	e.finishPortfolio(store, opts)
	return e, nil
}

// engineKinds resolves the configured index-kind portfolio: Indexes, or the
// "grapes" default.
func engineKinds(opts EngineOptions) []string {
	if len(opts.Indexes) > 0 {
		return opts.Indexes
	}
	return []string{"grapes"}
}

func newEngineCommon(opts EngineOptions) (*Engine, error) {
	mode, err := ParseMode(string(opts.Mode))
	if err != nil {
		return nil, err
	}
	e := &Engine{
		mode:   mode,
		budget: metrics.Budget{Cap: opts.Timeout},
		solo:   opts.SoloBudget,
		wins:   map[string]int64{},
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

// Close releases the Engine's dedicated pool, if it owns one, and closes its
// dataset store, after which queries fail with "psi: engine closed". Queries
// in flight finish on the snapshot they started on and degrade gracefully (a
// closed pool's work runs on the submitting goroutine or a transient one).
func (e *Engine) Close() {
	if e.owned && e.pool != nil {
		e.pool.Close()
	}
	if e.store != nil {
		e.store.Close()
	}
}

// pin returns the store's current snapshot; nil for NFV engines and after
// Close.
func (e *Engine) pin() *live.Snapshot {
	if e.store == nil {
		return nil
	}
	return e.store.Current()
}

// Mode reports the engine's planning policy.
func (e *Engine) Mode() Mode { return e.mode }

// Graph returns the stored graph of an NFV engine (nil for dataset engines).
func (e *Engine) Graph() *Graph { return e.g }

// Dataset returns the dataset of an FTV engine (nil for NFV engines): the
// live graphs of the current epoch, in insertion order, exactly the dataset
// a from-scratch rebuild would be handed.
func (e *Engine) Dataset() []*Graph {
	snap := e.pin()
	if snap == nil {
		return nil
	}
	return snap.Graphs()
}

// Mutable reports whether the engine supports dataset mutations.
func (e *Engine) Mutable() bool { return e.mutable }

// Epoch reports the current dataset epoch of a mutable dataset engine:
// 1 after construction, bumped by every committed mutation. Static (and
// NFV) engines report 0 — their dataset can never change.
func (e *Engine) Epoch() uint64 {
	if !e.mutable {
		return 0
	}
	return e.store.Epoch()
}

// Handles returns the stable handle of every live graph of a mutable
// dataset engine, parallel to Dataset(): Handles()[i] identifies the graph
// answering as graph ID i at the current epoch. Nil for static engines.
func (e *Engine) Handles() []GraphHandle {
	if !e.mutable {
		return nil
	}
	snap := e.pin()
	if snap == nil {
		return nil
	}
	return append([]GraphHandle(nil), snap.Handles()...)
}

// Attempts returns a copy of the engine's attempt portfolio (NFV engines).
func (e *Engine) Attempts() []Attempt {
	return append([]Attempt(nil), e.attempts...)
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
// (IndexRace, IndexFixed or IndexAuto); empty for NFV engines.
func (e *Engine) IndexPolicy() string {
	if e.g != nil {
		return ""
	}
	return [...]string{launchRace: IndexRace, launchFirst: IndexFixed, launchAuto: IndexAuto}[e.policy]
}

// Shards reports the effective dataset partition count of a sharded dataset
// engine (0 for monolithic and NFV engines).
func (e *Engine) Shards() int { return e.shardK }

// IndexStats reports the build provenance and shape of every filtering
// index in the engine's portfolio, in portfolio order (dataset engines
// only; nil for NFV engines).
func (e *Engine) IndexStats() []IndexStats {
	snap := e.pin()
	if snap == nil {
		return nil
	}
	out := make([]IndexStats, 0, len(snap.Indexes()))
	for _, x := range snap.Indexes() {
		out = append(out, x.Stats())
	}
	return out
}

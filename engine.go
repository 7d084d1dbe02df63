package psi

// Engine is the serving-shaped facade over the Ψ-framework: a long-lived
// object that owns everything a query needs — the stored graph or dataset,
// prebuilt matchers, label frequencies, the filtering index and its
// verifier, the execution pool, and the learned planning policy — and
// splits query processing into an explicit Plan step (the arms a query
// starts, plan.go) and one execution body behind every entry point (the
// plan's arms raced under a per-query deadline, execute.go).
// Options live in options.go, the dataset-store wiring and the mutation API
// in engine_dataset.go.

import (
	"context"
	"errors"
	"fmt"
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
	// policy is what the engine launches per query: Mode's reading for a
	// stored-graph engine, IndexPolicy's for a dataset engine, over its arms
	// (resolveLaunch).
	policy launchPolicy
	budget metrics.Budget
	pool   *exec.Pool
	owned  bool

	// Operational counters, bumped by every executed query and snapshotted
	// by Counters — the feed for a serving layer's /metrics endpoint.
	counters metrics.Counters

	// arms labels the engine's arms, in portfolio order: a stored graph's
	// attempts or a dataset's verifier under each rewriting. The bandit,
	// every plan and every result's Winner name arms by these labels; wins
	// tallies, per arm, the queries it answered.
	arms []string
	wins []atomic.Int64

	// NFV state.
	g        *Graph
	attempts []Attempt
	racer    *core.Racer

	// Auto-policy state (ModeAuto / IndexAuto): the per-query-class
	// solo-vs-race bandit, nil under every other policy, and the solo budget
	// (soloBudget) a learned arm runs under before it falls back to a race.
	bandit *predict.Bandit
	solo   time.Duration

	// FTV state. Every dataset engine serves from a live.Store; mutable only
	// opens the mutation API, so a static engine's store never mutates. Each
	// query pins the store's current snapshot — dataset, handles, table and
	// label frequencies of one epoch — so a mutation never disturbs it
	// (snapshot isolation). Only what outlives an epoch lives here: the
	// verifier, the rewritings (with it, the arms) and the learned policy.
	store      *live.Store // nil for NFV engines
	verifier   index.Verifier
	rewritings []Rewriting
	mutable    bool

	// Sharding state: shardK is the effective partition count (0 when
	// monolithic) and shardEmits tallies, per shard, how many answer graph
	// IDs each shard contributed across the engine's lifetime — the shard
	// balance a serving layer exposes.
	shardK     int
	shardEmits []atomic.Int64
}

// NewEngine builds an NFV engine serving subgraph-matching queries against
// one stored graph. Set-up runs on the engine's pool: the matchers' indexing
// phases build side by side, sPath's fanned out over the workers.
func NewEngine(g *Graph, opts EngineOptions) (*Engine, error) {
	if g == nil {
		return nil, errors.New("psi: NewEngine requires a stored graph")
	}
	algos := opts.Algorithms
	if len(algos) == 0 {
		algos = []Algorithm{GraphQL, SPath}
	}
	rewritings := engineRewritings(opts)
	// Every attempt is one matcher under one rewriting (core.Portfolio).
	policy, err := resolveLaunch(opts, false, len(algos)*len(rewritings))
	if err != nil {
		return nil, err
	}
	e := newEngineCommon(opts)
	e.g, e.policy = g, policy
	// The matchers' indexing phases are tasks of one group on the engine's
	// pool, and sPath's batched BFS fans out inside its task. The group is
	// nested, so set-up never waits for a worker: a busy or one-worker pool
	// runs the tasks on this goroutine.
	pool := e.pool
	if pool == nil {
		pool = exec.Default()
	}
	matchers := make([]Matcher, len(algos))
	grp := pool.NewGroup(exec.Nest(context.Background()))
	for i, a := range algos {
		grp.Go(func(context.Context) (err error) {
			matchers[i], err = newMatcher(a, g, pool)
			return err
		})
	}
	if err := grp.Wait(); err != nil {
		e.Close()
		return nil, err
	}
	e.racer = core.NewRacer(g)
	e.racer.Pool = e.pool
	e.attempts = core.Portfolio(matchers, rewritings)
	for _, a := range e.attempts {
		e.arms = append(e.arms, a.Label())
	}
	e.wins = make([]atomic.Int64, len(e.arms))
	e.startBandit()
	return e, nil
}

// startBandit gives an engine under the auto policy its bandit over the
// engine's arms, with the policy's fixed knobs.
func (e *Engine) startBandit() {
	if e.policy == launchAuto {
		e.bandit = predict.NewBandit(e.arms, predict.BanditOptions{MinSamples: autoMinSamples, RaceEvery: autoRaceEvery})
	}
}

// NewDatasetEngine builds an FTV engine serving containment queries against
// a multi-graph dataset: one table per shard, whatever the Indexes, and the
// one verifier that table carries. Every query streams through the one
// pipeline of core.StreamFTV: one filter scan, and each candidate races the
// verifier under the policy's rewritings, first finisher deciding.
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
	e := newEngineCommon(opts)
	kinds := opts.Indexes
	if len(kinds) == 0 {
		kinds = []string{"grapes"}
	}
	if err := e.configurePortfolio(opts, kinds); err != nil {
		e.Close()
		return nil, err
	}
	shards := opts.Shards
	if !opts.Mutable {
		// A static dataset never grows: a shard beyond it would stay empty.
		shards = min(shards, len(ds))
	}
	// One build: the dataset's features are extracted once and every shard's
	// table is folded from them.
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
	e.finishPortfolio(store)
	return e, nil
}

// newEngineCommon starts an engine of either kind: its budget and, when
// asked for, its own pool.
func newEngineCommon(opts EngineOptions) *Engine {
	e := &Engine{
		budget: metrics.Budget{Cap: opts.Timeout},
		solo:   soloBudget,
	}
	if opts.Workers > 0 {
		e.pool = exec.New(opts.Workers)
		e.owned = true
	}
	return e
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

// Mode reports the launch policy the engine runs, on either kind (IndexFixed
// is ModeSingle). A one-arm engine — one attempt, or one rewriting on a
// dataset — reports ModeSingle, and its PolicyStats is then false.
func (e *Engine) Mode() Mode { return launchModes[e.policy] }

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

// Counters returns a point-in-time snapshot of the engine's operational
// counters: queries executed, streamed, killed, failed, attempt and index
// fan-out totals. Safe to call while queries are in flight.
func (e *Engine) Counters() metrics.CountersSnapshot { return e.counters.Snapshot() }

// WinCounts returns the per-winner tally: how many queries each arm
// ("GQL-DND" on a stored graph, "Grapes/1-DND" on a dataset) answered, arms
// that never won left out. Safe to call while queries are in flight.
func (e *Engine) WinCounts() map[string]int64 {
	out := make(map[string]int64)
	for i := range e.wins {
		if n := e.wins[i].Load(); n > 0 {
			out[e.arms[i]] += n
		}
	}
	return out
}

// Shards reports the effective dataset partition count of a sharded dataset
// engine (0 for monolithic and NFV engines).
func (e *Engine) Shards() int { return e.shardK }

// IndexStats reports the build provenance and shape of a dataset engine's
// one filtering index, the table every name is verified over: one entry, of
// the kind index.TableKind names (nil for NFV engines).
func (e *Engine) IndexStats() []IndexStats {
	snap := e.pin()
	if snap == nil {
		return nil
	}
	return []IndexStats{snap.Table().Stats()}
}

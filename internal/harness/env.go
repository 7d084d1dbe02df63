// Package harness reproduces the paper's evaluation: every table and figure
// has a registered experiment that regenerates its rows/series on the
// simulated datasets. Absolute numbers differ from the paper (our substrate
// is a scaled simulation, not the authors' testbeds); the shapes are what
// the replay is for. The repo's benchmark is bench/ (see bench/README.md).
package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/gql"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/metrics"
	"github.com/psi-graph/psi/internal/quicksi"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/spath"
	"github.com/psi-graph/psi/internal/vf2"
	"github.com/psi-graph/psi/internal/workload"
)

// Config controls an experiment run: dataset scale, the kill cap, workload
// shape, and seeds. Use DefaultConfig for the standard presets.
type Config struct {
	Scale gen.Scale
	// Cap is the per-execution kill limit (the paper's 10 minutes); the
	// easy threshold is Cap/300 (the paper's 2 seconds).
	Cap time.Duration
	// Seed drives every generator and workload; equal seeds reproduce
	// identical experiments.
	Seed int64
	// QueriesPerSize is the number of workload queries per query size.
	QueriesPerSize int
	// FTVSizes and NFVSizes are the query sizes (in edges) for the two
	// method families.
	FTVSizes []int
	NFVSizes []int
	// IsoInstances is the number of random isomorphic instances per query
	// in the §5 variance study (the paper uses 6).
	IsoInstances int
	// EmbedLimit caps enumerated embeddings for NFV matching (the paper
	// uses 1000).
	EmbedLimit int
}

// DefaultConfig returns the preset configuration for a scale.
func DefaultConfig(scale gen.Scale) Config {
	switch scale {
	case gen.Tiny:
		return Config{Scale: scale, Cap: 120 * time.Millisecond, Seed: 1,
			QueriesPerSize: 8, FTVSizes: []int{16, 24}, NFVSizes: []int{8, 16, 24},
			IsoInstances: 6, EmbedLimit: 1000}
	case gen.Small:
		return Config{Scale: scale, Cap: 300 * time.Millisecond, Seed: 1,
			QueriesPerSize: 20, FTVSizes: []int{16, 24, 32}, NFVSizes: []int{10, 16, 24},
			IsoInstances: 6, EmbedLimit: 1000}
	case gen.Medium:
		return Config{Scale: scale, Cap: time.Second, Seed: 1,
			QueriesPerSize: 40, FTVSizes: []int{16, 20, 24, 32}, NFVSizes: []int{10, 16, 24, 32},
			IsoInstances: 6, EmbedLimit: 1000}
	default: // Paper
		return Config{Scale: scale, Cap: 600 * time.Second, Seed: 1,
			QueriesPerSize: 100, FTVSizes: []int{16, 20, 24, 32}, NFVSizes: []int{10, 16, 20, 24, 32},
			IsoInstances: 6, EmbedLimit: 1000}
	}
}

// Budget returns the metrics budget implied by the config.
func (c Config) Budget() metrics.Budget { return metrics.Budget{Cap: c.Cap} }

// Env lazily builds and caches the datasets, indexes, matchers and
// workloads experiments share. Safe for sequential use (experiments run one
// at a time).
type Env struct {
	Cfg Config

	mu sync.Mutex

	synthetic, ppi []*graph.Graph
	indexes        map[string]*index.Sharded // FTV dataset -> its one table, with locations
	pairs          map[string][]FTVPair      // FTV dataset -> its filtered workload

	single      map[string]*graph.Graph             // dataset name -> stored graph
	nfvMatchers map[string]map[string]match.Matcher // dataset -> algorithm -> matcher
	nfvFreq     map[string]rewrite.Frequencies
	ftvFreq     map[string]rewrite.Frequencies

	workloads map[string][]workload.Query
	timings   map[string]metrics.Timing
}

// cachedTiming memoizes a measurement under a stable key so that
// experiments sharing a baseline (e.g. Orig verification times) measure it
// once. Keys embed method, dataset, pair index and instance, all of which
// are deterministic for a fixed Config.
func (e *Env) cachedTiming(key string, f func() metrics.Timing) metrics.Timing {
	e.mu.Lock()
	if t, ok := e.timings[key]; ok {
		e.mu.Unlock()
		return t
	}
	e.mu.Unlock()
	t := f()
	e.mu.Lock()
	e.timings[key] = t
	e.mu.Unlock()
	return t
}

// NewEnv creates an experiment environment for cfg.
func NewEnv(cfg Config) *Env {
	return &Env{
		Cfg:         cfg,
		indexes:     make(map[string]*index.Sharded),
		pairs:       make(map[string][]FTVPair),
		single:      make(map[string]*graph.Graph),
		nfvMatchers: make(map[string]map[string]match.Matcher),
		nfvFreq:     make(map[string]rewrite.Frequencies),
		ftvFreq:     make(map[string]rewrite.Frequencies),
		workloads:   make(map[string][]workload.Query),
		timings:     make(map[string]metrics.Timing),
	}
}

// Synthetic returns the GraphGen-style FTV dataset.
func (e *Env) Synthetic() []*graph.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.synthetic == nil {
		e.synthetic = gen.Synthetic(gen.SyntheticAt(e.Cfg.Scale), e.Cfg.Seed)
	}
	return e.synthetic
}

// PPI returns the protein-interaction-style FTV dataset.
func (e *Env) PPI() []*graph.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ppi == nil {
		e.ppi = gen.PPI(gen.PPIAt(e.Cfg.Scale), e.Cfg.Seed+100)
	}
	return e.ppi
}

// FTVDataset maps a dataset name ("synthetic" or "ppi") to its graphs.
func (e *Env) FTVDataset(name string) []*graph.Graph {
	switch name {
	case "synthetic":
		return e.Synthetic()
	case "ppi":
		return e.PPI()
	}
	panic(fmt.Sprintf("harness: unknown FTV dataset %q", name))
}

// ftvIndex returns the named FTV dataset's one index, built with locations
// on first use. The paper's FTV methods leave indexing and filtering alone
// and differ in verification (§8), and so do the configurations here: each
// is a verifier timed over this index (Grapes, GGSX).
func (e *Env) ftvIndex(dataset string) *index.Sharded {
	ds := e.FTVDataset(dataset)
	e.mu.Lock()
	defer e.mu.Unlock()
	if x, ok := e.indexes[dataset]; ok {
		return x
	}
	x, err := index.Build(context.Background(), index.KindGrapes, ds, 1, index.Options{})
	if err != nil {
		panic(err) // unreachable: the background context never cancels
	}
	e.indexes[dataset] = x
	return x
}

// verifier returns kind's verifier (workers is Grapes' W).
func verifier(kind string, workers int) index.Verifier {
	v, err := index.NewVerifier(kind, index.Options{Workers: workers})
	if err != nil {
		panic(err) // the harness names only known kinds
	}
	return v
}

// Grapes returns Grapes/workers, the verifier confined by locations.
func Grapes(workers int) index.Verifier { return verifier(index.KindGrapes, workers) }

// GGSX returns GGSX, the whole-graph verifier; the paper runs it on the PPI
// dataset only (it omits GGSX on the synthetic dataset because of excessive
// runtimes; so do we).
func GGSX() index.Verifier { return verifier(index.KindGGSX, 1) }

// NFVGraph returns the named single stored graph ("yeast", "human",
// "wordnet").
func (e *Env) NFVGraph(name string) *graph.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g, ok := e.single[name]; ok {
		return g
	}
	var g *graph.Graph
	switch name {
	case "yeast":
		g = gen.YeastLike(e.Cfg.Scale, e.Cfg.Seed+200)
	case "human":
		g = gen.HumanLike(e.Cfg.Scale, e.Cfg.Seed+300)
	case "wordnet":
		g = gen.WordnetLike(e.Cfg.Scale, e.Cfg.Seed+400)
	default:
		panic(fmt.Sprintf("harness: unknown NFV dataset %q", name))
	}
	e.single[name] = g
	return g
}

// NFVMatcher returns the named algorithm ("GQL", "SPA", "QSI", "VF2") bound
// to the named NFV dataset, building its index on first use.
func (e *Env) NFVMatcher(dataset, algo string) match.Matcher {
	g := e.NFVGraph(dataset)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nfvMatchers[dataset] == nil {
		e.nfvMatchers[dataset] = make(map[string]match.Matcher)
	}
	if m, ok := e.nfvMatchers[dataset][algo]; ok {
		return m
	}
	var m match.Matcher
	switch algo {
	case "GQL":
		m = gql.New(g)
	case "SPA":
		m = spath.New(g)
	case "QSI":
		m = quicksi.New(g)
	case "VF2":
		m = vf2.New(g)
	default:
		panic(fmt.Sprintf("harness: unknown algorithm %q", algo))
	}
	e.nfvMatchers[dataset][algo] = m
	return m
}

// NFVFrequencies returns (and caches) the label frequencies of the named
// stored graph, used by ILF-style rewritings.
func (e *Env) NFVFrequencies(dataset string) rewrite.Frequencies {
	g := e.NFVGraph(dataset)
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, ok := e.nfvFreq[dataset]; ok {
		return f
	}
	f := rewrite.FrequenciesOf(g)
	e.nfvFreq[dataset] = f
	return f
}

// FTVFrequencies returns dataset-wide label frequencies for an FTV dataset.
func (e *Env) FTVFrequencies(dataset string) rewrite.Frequencies {
	ds := e.FTVDataset(dataset)
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, ok := e.ftvFreq[dataset]; ok {
		return f
	}
	f := rewrite.FrequenciesOfDataset(ds)
	e.ftvFreq[dataset] = f
	return f
}

// FTVWorkload returns the query workload for an FTV dataset.
func (e *Env) FTVWorkload(dataset string) []workload.Query {
	ds := e.FTVDataset(dataset)
	e.mu.Lock()
	defer e.mu.Unlock()
	key := "ftv:" + dataset
	if qs, ok := e.workloads[key]; ok {
		return qs
	}
	qs := workload.Generate(ds, e.Cfg.FTVSizes, e.Cfg.QueriesPerSize, e.Cfg.Seed+1000)
	e.workloads[key] = qs
	return qs
}

// NFVWorkload returns the query workload for an NFV dataset.
func (e *Env) NFVWorkload(dataset string) []workload.Query {
	g := e.NFVGraph(dataset)
	e.mu.Lock()
	defer e.mu.Unlock()
	key := "nfv:" + dataset
	if qs, ok := e.workloads[key]; ok {
		return qs
	}
	qs := workload.GenerateSingle(g, e.Cfg.NFVSizes, e.Cfg.QueriesPerSize, e.Cfg.Seed+2000)
	e.workloads[key] = qs
	return qs
}

// FTVPair is one (query, candidate graph) verification unit — the paper
// executes "each individual query against a single stored graph at a time".
type FTVPair struct {
	Query   workload.Query
	GraphID int
}

// FTVPairs filters every workload query of the named FTV dataset through its
// table, once, and returns the resulting verification pairs, which every
// configuration over the table shares.
func (e *Env) FTVPairs(dataset string) []FTVPair {
	x := e.ftvIndex(dataset)
	qs := e.FTVWorkload(dataset)
	e.mu.Lock()
	defer e.mu.Unlock()
	if pairs, ok := e.pairs[dataset]; ok {
		return pairs
	}
	var pairs []FTVPair
	for _, q := range qs {
		for _, id := range x.Filter(q.Graph) {
			pairs = append(pairs, FTVPair{Query: q, GraphID: id})
		}
	}
	e.pairs[dataset] = pairs
	return pairs
}

// TimeNFV measures one NFV matching execution under the cap.
func (e *Env) TimeNFV(m match.Matcher, q *graph.Graph) metrics.Timing {
	return e.Cfg.Budget().Run(context.Background(), func(ctx context.Context) error {
		_, err := m.Match(ctx, q, e.Cfg.EmbedLimit)
		return err
	})
}

// TimeFTVVerify measures one pure verification (sub-iso) execution: v over
// the named FTV dataset's one index.
func (e *Env) TimeFTVVerify(v index.Verifier, dataset string, q *graph.Graph, graphID int) metrics.Timing {
	x := e.ftvIndex(dataset)
	return e.Cfg.Budget().Run(context.Background(), func(ctx context.Context) error {
		_, err := x.VerifyWith(ctx, v, q, graphID)
		return err
	})
}

// TimeFTVRace measures one Ψ-framework raced verification (§8): the query
// rewritten under each of kinds, with the dataset's label frequencies, and
// v run on every instance at once over the dataset's one index, the first
// finisher deciding.
func (e *Env) TimeFTVRace(v index.Verifier, dataset string, kinds []rewrite.Kind, q *graph.Graph, graphID int) metrics.Timing {
	x, freqs := e.ftvIndex(dataset), e.FTVFrequencies(dataset)
	return e.Cfg.Budget().Run(context.Background(), func(ctx context.Context) error {
		_, _, err := core.RaceInstances(ctx, nil, x, v, core.Instances(q, freqs, kinds), graphID)
		return err
	})
}

// TimeRace measures one Ψ-framework NFV race.
func (e *Env) TimeRace(r *core.Racer, attempts []core.Attempt, q *graph.Graph) metrics.Timing {
	return e.Cfg.Budget().Run(context.Background(), func(ctx context.Context) error {
		_, err := r.Race(ctx, q, e.Cfg.EmbedLimit, attempts)
		return err
	})
}

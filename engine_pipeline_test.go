package psi_test

// Tests for the collapsed dataset pipeline: every name set, policy, shard
// count, engine flavour and entry point runs the same Engine.run →
// core.StreamFTV path and must return the sequential oracle's IDs, and
// the pipeline's exits — emit stop, caller cancel, solo overrun, and the
// budget kill (TestAnswerStreamReportsKill) — behave the same through the
// collecting and the streaming form and leave no goroutines behind.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// entryPoints are the three ways to ask an engine of either kind for an
// answer, and what each moves the Streamed counter by. Each returns the
// execution report with the answer that reached the caller in it: the
// stream form's too, once it has checked that its report carries none.
var entryPoints = []struct {
	name     string
	streamed int64
	ask      func(ctx context.Context, eng *psi.Engine, q *psi.Graph, limit int) (*psi.QueryResult, error)
}{
	{"Query", 0, func(ctx context.Context, eng *psi.Engine, q *psi.Graph, limit int) (*psi.QueryResult, error) {
		return eng.Query(ctx, q, limit)
	}},
	{"Plan+Execute", 0, func(ctx context.Context, eng *psi.Engine, q *psi.Graph, limit int) (*psi.QueryResult, error) {
		p, err := eng.Plan(q)
		if err != nil {
			return nil, err
		}
		return eng.Execute(ctx, p, limit)
	}},
	{"stream", 1, func(ctx context.Context, eng *psi.Engine, q *psi.Graph, limit int) (*psi.QueryResult, error) {
		var ids []int
		var embs []psi.Embedding
		var res *psi.QueryResult
		var err error
		if eng.Graph() == nil {
			res, err = eng.AnswerStream(ctx, q, func(id int) bool {
				ids = append(ids, id)
				return true
			})
		} else {
			res, err = eng.QueryStream(ctx, q, limit, psi.SinkFunc(func(e psi.Embedding) bool {
				embs = append(embs, e)
				return true
			}))
		}
		if err != nil {
			return nil, err
		}
		if res.GraphIDs != nil || res.Embeddings != nil {
			return nil, fmt.Errorf("a streamed run's report holds an answer: %+v", res)
		}
		res.GraphIDs, res.Embeddings = ids, embs
		return res, nil
	}},
}

// pipelinePolicies are the three ways a dataset engine uses its verifiers.
// Each engine built from them goes through SetAutoPolicy(eng, solo, 1, -1),
// so the auto engine learns after one observation and never audits: from
// the second query of a class on it exercises the learned-solo arm.
var pipelinePolicies = []struct {
	name string
	opts psi.EngineOptions
}{
	{"fixed", psi.EngineOptions{Indexes: []string{"ftv"}}},
	{"race", psi.EngineOptions{Indexes: []string{"ftv", "grapes", "ggsx"}, IndexPolicy: psi.IndexRace}},
	{"auto", psi.EngineOptions{Indexes: []string{"ftv", "grapes", "ggsx"}, IndexPolicy: psi.IndexAuto}},
}

// nameSets is every non-empty set of index names.
var nameSets = difftest.Subsets([]string{"ftv", "grapes", "ggsx"})

// pipelineFlavours are the three engines a dataset is answered from. Each
// builds its engine over ds under opts; the snapshot round trip saves to
// file, or loads what an engine of the same dataset, shard count and names
// saved there before — the file does not depend on the policy.
var pipelineFlavours = []struct {
	name  string
	build func(file string, ds []*psi.Graph, opts psi.EngineOptions) (*psi.Engine, error)
}{
	{"static", func(_ string, ds []*psi.Graph, opts psi.EngineOptions) (*psi.Engine, error) {
		return psi.NewDatasetEngine(ds, opts)
	}},
	{"mutable after add+remove", func(_ string, ds []*psi.Graph, opts psi.EngineOptions) (*psi.Engine, error) {
		opts.Mutable = true
		eng, err := psi.NewDatasetEngine(ds, opts)
		if err != nil {
			return nil, err
		}
		extra := psi.MustNewGraph("extra", []psi.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
		if _, err := eng.AddGraph(context.Background(), extra); err != nil {
			return nil, err
		}
		if _, err := eng.RemoveGraph(context.Background(), eng.Handles()[1]); err != nil {
			return nil, err
		}
		return eng, nil
	}},
	{"snapshot round-trip", func(file string, ds []*psi.Graph, opts psi.EngineOptions) (*psi.Engine, error) {
		opts.Snapshot = file
		if _, err := os.Stat(opts.Snapshot); err != nil {
			orig, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: opts.Indexes, Shards: opts.Shards})
			if err != nil {
				return nil, err
			}
			defer orig.Close()
			if err := orig.SaveSnapshot(opts.Snapshot); err != nil {
				return nil, err
			}
		}
		return psi.NewDatasetEngine(nil, opts)
	}},
}

// TestPipelineParity: policy × shards × engine flavour × name set × entry
// point. Each case draws its dataset and queries from internal/difftest,
// seeded by the case's shard count, flavour and names, so the three
// policies answer the same case; every answer must be the oracle's over the
// engine's current dataset, and every engine's one table must hold an
// ftv-only build's features. A wrong answer fails with the case shrunk to
// its fewest graphs and query edges.
func TestPipelineParity(t *testing.T) {
	dir := t.TempDir() // holds each case's snapshot, named by its seed
	for _, pol := range pipelinePolicies {
		for _, shards := range []int{1, 2, 3} {
			for fi, fl := range pipelineFlavours {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", pol.name, shards, fl.name), func(t *testing.T) {
					for ni, names := range nameSets {
						seed := int64((shards*len(pipelineFlavours)+fi)*len(nameSets) + ni)
						t.Run(strings.Join(names, "+"), func(t *testing.T) {
							opts := pol.opts
							opts.Indexes = names
							opts.Shards = shards
							d := difftest.Draw(seed)
							eng, err := fl.build(filepath.Join(dir, fmt.Sprint(seed)), d.Graphs, opts)
							if err != nil {
								t.Fatalf("%s: %v", d.Name, err)
							}
							defer eng.Close()
							psi.SetAutoPolicy(eng, 0, 1, -1)
							checkOneTable(t, eng, names, shards, fl.name != "mutable after add+remove")
							fails := func(ds []*psi.Graph, q *psi.Graph) bool {
								eng, err := fl.build(filepath.Join(t.TempDir(), "shrunk"), ds, opts)
								if err != nil {
									return true
								}
								defer eng.Close()
								psi.SetAutoPolicy(eng, 0, 1, -1)
								return checkPipelineAnswer(eng, q) != nil
							}
							for _, q := range difftest.Queries(rand.New(rand.NewSource(seed)), d.Graphs, 8) {
								if err := checkPipelineAnswer(eng, q); err != nil {
									difftest.Fail(t, fmt.Sprintf("%s: %v", d.Name, err), d.Graphs, q, fails)
								}
							}
						})
					}
				})
			}
		}
	}
}

// checkPipelineAnswer asks eng q through every entry point, twice, and
// returns why an answer is not the oracle's over the engine's current
// dataset, or its report does not describe that answer at the engine's
// current epoch.
func checkPipelineAnswer(eng *psi.Engine, q *psi.Graph) error {
	want := difftest.Want(eng.Dataset(), q)
	for _, ep := range entryPoints {
		for round := 0; round < 2; round++ { // round 1 reaches the auto policy's solo arm
			res, err := ep.ask(context.Background(), eng, q, 0)
			if err != nil {
				return fmt.Errorf("%s round %d: %v", ep.name, round, err)
			}
			if !slices.Equal(res.GraphIDs, want) {
				return fmt.Errorf("%s round %d: answered %v, the oracle %v", ep.name, round, res.GraphIDs, want)
			}
			if res.Found != len(want) || res.Killed || res.Kind != launchKind(eng, res.Policy) || res.Winner == "" || res.Epoch != eng.Epoch() {
				return fmt.Errorf("%s round %d: report %+v for answer %v", ep.name, round, res, want)
			}
		}
	}
	return nil
}

// launchKind is the plan kind a dataset engine's launch policy gives a query
// the auto policy decided d about (nil under the other policies), as a
// stored-graph engine's Mode would.
func launchKind(eng *psi.Engine, d *psi.PolicyDecision) psi.PlanKind {
	switch {
	case eng.Mode() == psi.ModeSingle:
		return psi.PlanFixed
	case d != nil && d.Solo:
		return psi.PlanPredicted
	}
	return psi.PlanRace
}

// checkOneTable fails unless eng reports one table, with locations exactly
// when names lists grapes; unless the engine has mutated, it must hold the
// features and postings of an ftv-only build over the same shards.
func checkOneTable(t *testing.T, eng *psi.Engine, names []string, shards int, fresh bool) {
	t.Helper()
	st := eng.IndexStats()
	if len(st) != 1 || (st[0].LocationBytes > 0) != slices.Contains(names, "grapes") {
		t.Fatalf("IndexStats = %+v: want one table, with locations iff grapes is listed", st)
	}
	if !fresh {
		return
	}
	ref, err := psi.NewShardedIndex(context.Background(), "ftv", eng.Dataset(), shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Stats(); st[0].Features != want.Features || st[0].Postings != want.Postings {
		t.Fatalf("the table holds %d features and %d postings, an ftv-only build %d and %d", st[0].Features, st[0].Postings, want.Features, want.Postings)
	}
}

// TestPipelineExits drives the pipeline's early exits through the
// collecting form (Query) and the streaming form (AnswerStream) under
// every policy, checking the report each one owes the caller and that the
// engine's goroutines are gone once it is closed. The fourth exit, the
// budget kill, is TestAnswerStreamReportsKill's.
func TestPipelineExits(t *testing.T) {
	ds := raceFixtureDataset()
	q := raceFixtureQueries()[1] // contained in several graphs
	want := difftest.Want(ds, q)
	if len(want) < 2 {
		t.Fatalf("fixture answer %v: want at least two graphs", want)
	}
	stream := func(ctx context.Context, eng *psi.Engine, keep int) ([]int, *psi.QueryResult, error) {
		var ids []int
		res, err := eng.AnswerStream(ctx, q, func(id int) bool {
			ids = append(ids, id)
			return len(ids) < keep
		})
		return ids, res, err
	}
	for _, pol := range pipelinePolicies {
		t.Run(pol.name, func(t *testing.T) {
			leakcheck.Check(t, 2)
			build := func(mod func(*psi.EngineOptions), solo time.Duration) *psi.Engine {
				opts := pol.opts
				opts.Shards = 2
				mod(&opts)
				eng, err := psi.NewDatasetEngine(ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				psi.SetAutoPolicy(eng, solo, 1, -1)
				return eng
			}

			// emit returns false: the stream ends cleanly after one ID.
			eng := build(func(*psi.EngineOptions) {}, 0)
			for round := 0; round < 2; round++ {
				ids, res, err := stream(context.Background(), eng, 1)
				if err != nil || !slices.Equal(ids, want[:1]) || res.Found != 1 || res.Killed {
					t.Errorf("emit stop round %d: ids %v, report %+v, err %v; want %v", round, ids, res, err, want[:1])
				}
			}

			// caller cancel: an error on both forms, never a result.
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if res, err := eng.Query(cancelled, q, 0); !errors.Is(err, context.Canceled) || res != nil {
				t.Errorf("cancelled Query = %+v, %v", res, err)
			}
			if ids, res, err := stream(cancelled, eng, len(want)+1); !errors.Is(err, context.Canceled) || res != nil || len(ids) != 0 {
				t.Errorf("cancelled stream = %v, %+v, %v", ids, res, err)
			}
			if c := eng.Counters(); c.Errors != 2 || c.Killed != 0 {
				t.Errorf("after two cancellations: %+v", c)
			}
			eng.Close()

			// solo overrun: the learned arm blows its solo budget before
			// surfacing anything and the query re-runs as the full race.
			if pol.opts.IndexPolicy == psi.IndexAuto {
				eng = build(func(*psi.EngineOptions) {}, time.Nanosecond)
				if _, err := eng.Query(context.Background(), q, 0); err != nil { // warm-up race trains the class
					t.Fatal(err)
				}
				c0 := eng.Counters()
				res, err := eng.Query(context.Background(), q, 0)
				if err != nil || !res.Policy.Solo || !res.FellBack || !slices.Equal(res.GraphIDs, want) {
					t.Errorf("overrun Query = %+v, %v; want a fallback answering %v", res, err, want)
				}
				// The abandoned solo pipeline and the fallback race both ran.
				if c := eng.Counters(); c.IndexAttempts-c0.IndexAttempts != 2 || c.IndexRaces-c0.IndexRaces != 1 {
					t.Errorf("overrun Query started %d pipelines, %d of them races; want 2 and 1", c.IndexAttempts-c0.IndexAttempts, c.IndexRaces-c0.IndexRaces)
				}
				ids, res, err := stream(context.Background(), eng, len(want)+1)
				if err != nil || !res.Policy.Solo || !res.FellBack || !slices.Equal(ids, want) || res.Found != len(want) {
					t.Errorf("overrun stream = %v, %+v, %v; want a fallback answering %v", ids, res, err, want)
				}
				if c := eng.Counters(); c.Fallbacks != 2 {
					t.Errorf("after two overruns: %+v", c)
				}
				eng.Close()
			}
		})
	}
}

// TestKilledQueryCountsItsPipeline: a pipeline counts when it starts, so a
// dataset query the budget kills still reports the one it ran.
func TestKilledQueryCountsItsPipeline(t *testing.T) {
	ds := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 8, AvgNodes: 24, Density: 0.15, Labels: 3}, 7)
	eng := newDatasetEngine(t, ds, psi.EngineOptions{Indexes: []string{"ftv", "grapes", "ggsx"}, Timeout: time.Nanosecond})
	if res, c := query(t, eng, psi.ExtractQuery(ds[0], 3, 5), 0), eng.Counters(); !res.Killed || c.Killed != 1 || c.IndexAttempts != 1 {
		t.Errorf("killed %v, counters %+v; want one killed query that started one pipeline", res.Killed, c)
	}
}

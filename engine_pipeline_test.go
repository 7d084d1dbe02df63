package psi_test

// Tests for the collapsed dataset pipeline: every policy, shard count,
// engine flavour and entry point runs the same Engine.answer →
// IndexRacer.Stream path and must return the sequential oracle's IDs, and
// the pipeline's four exits — emit stop, caller cancel, budget kill, solo
// overrun — behave the same through the collecting and the streaming form
// and leave no goroutines behind.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// entryPoints are the four ways to ask a dataset engine for an answer; each
// returns the IDs the caller ended up with and the execution report (nil for
// the result-less AnswerStream).
var entryPoints = []struct {
	name string
	ask  func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]int, *psi.QueryResult, error)
}{
	{"Query", func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]int, *psi.QueryResult, error) {
		res, err := eng.Query(ctx, q, 0)
		if err != nil {
			return nil, nil, err
		}
		return res.GraphIDs, res, nil
	}},
	{"Plan+Execute", func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]int, *psi.QueryResult, error) {
		p, err := eng.Plan(q)
		if err != nil {
			return nil, nil, err
		}
		res, err := eng.Execute(ctx, p, 0)
		if err != nil {
			return nil, nil, err
		}
		return res.GraphIDs, res, nil
	}},
	{"AnswerStream", func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]int, *psi.QueryResult, error) {
		var ids []int
		err := eng.AnswerStream(ctx, q, func(id int) bool {
			ids = append(ids, id)
			return true
		})
		return ids, nil, err
	}},
	{"AnswerStreamResult", func(ctx context.Context, eng *psi.Engine, q *psi.Graph) ([]int, *psi.QueryResult, error) {
		var ids []int
		res, err := eng.AnswerStreamResult(ctx, q, func(id int) bool {
			ids = append(ids, id)
			return true
		})
		return ids, res, err
	}},
}

// pipelinePolicies are the three ways a dataset engine uses its portfolio.
// The auto engine learns after one observation and never audits, so from
// the second query of a class on it exercises the learned-solo arm.
var pipelinePolicies = []struct {
	name string
	opts psi.EngineOptions
}{
	{"fixed", psi.EngineOptions{Indexes: []string{"ftv"}}},
	{"race", psi.EngineOptions{Indexes: []string{"ftv", "grapes", "ggsx"}, IndexPolicy: psi.IndexRace}},
	{"auto", psi.EngineOptions{Indexes: []string{"ftv", "grapes", "ggsx"}, IndexPolicy: psi.IndexAuto, AutoMinSamples: 1, AutoRaceEvery: -1}},
}

// TestPipelineParity: policy × shards × engine flavour × entry point, every
// cell against the sequential oracle over the engine's current dataset.
func TestPipelineParity(t *testing.T) {
	flavours := []struct {
		name  string
		build func(t *testing.T, opts psi.EngineOptions) *psi.Engine
	}{
		{"static", func(t *testing.T, opts psi.EngineOptions) *psi.Engine {
			eng, err := psi.NewDatasetEngine(raceFixtureDataset(), opts)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}},
		{"mutable after add+remove", func(t *testing.T, opts psi.EngineOptions) *psi.Engine {
			opts.Mutable = true
			eng, err := psi.NewDatasetEngine(raceFixtureDataset(), opts)
			if err != nil {
				t.Fatal(err)
			}
			extra := psi.MustNewGraph("extra", []psi.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
			if _, err := eng.AddGraph(context.Background(), extra); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RemoveGraph(context.Background(), eng.Handles()[1]); err != nil {
				t.Fatal(err)
			}
			return eng
		}},
		{"snapshot round-trip", func(t *testing.T, opts psi.EngineOptions) *psi.Engine {
			orig, err := psi.NewDatasetEngine(raceFixtureDataset(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer orig.Close()
			path := filepath.Join(t.TempDir(), "e.psnap")
			if err := orig.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			opts.Snapshot = path
			eng, err := psi.NewDatasetEngine(nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}},
	}
	for _, pol := range pipelinePolicies {
		for _, shards := range []int{1, 3} {
			for _, fl := range flavours {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", pol.name, shards, fl.name), func(t *testing.T) {
					opts := pol.opts
					opts.Shards = shards
					eng := fl.build(t, opts)
					defer eng.Close()
					oracle := mustBuildIndex(t, "ftv", eng.Dataset(), 0)
					for _, q := range raceFixtureQueries() {
						want, err := ftv.Answer(context.Background(), oracle, q)
						if err != nil {
							t.Fatal(err)
						}
						for _, ep := range entryPoints {
							for round := 0; round < 2; round++ { // round 1 reaches the auto policy's solo arm
								got, res, err := ep.ask(context.Background(), eng, q)
								if err != nil {
									t.Fatalf("%s %s round %d: %v", q.Name(), ep.name, round, err)
								}
								if !slices.Equal(got, want) {
									t.Fatalf("%s %s round %d: answered %v, oracle %v", q.Name(), ep.name, round, got, want)
								}
								if res != nil && (res.Found != len(want) || res.Killed || res.Kind != psi.PlanFTV || res.Winner == "") {
									t.Fatalf("%s %s round %d: report %+v for answer %v", q.Name(), ep.name, round, res, want)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestPipelineExits drives the pipeline's four early exits through the
// collecting form (Query) and the streaming form (AnswerStreamResult) under
// every policy, checking the report each one owes the caller and that the
// engine's goroutines are gone once it is closed.
func TestPipelineExits(t *testing.T) {
	ds := raceFixtureDataset()
	q := raceFixtureQueries()[1] // contained in several graphs
	want, err := ftv.Answer(context.Background(), mustBuildIndex(t, "ftv", ds, 0), q)
	if err != nil || len(want) < 2 {
		t.Fatalf("fixture answer %v, %v: want at least two graphs", want, err)
	}
	stream := func(ctx context.Context, eng *psi.Engine, keep int) ([]int, *psi.QueryResult, error) {
		var ids []int
		res, err := eng.AnswerStreamResult(ctx, q, func(id int) bool {
			ids = append(ids, id)
			return len(ids) < keep
		})
		return ids, res, err
	}
	for _, pol := range pipelinePolicies {
		t.Run(pol.name, func(t *testing.T) {
			leakcheck.Check(t, 2)
			build := func(mod func(*psi.EngineOptions)) *psi.Engine {
				opts := pol.opts
				opts.Shards = 2
				mod(&opts)
				eng, err := psi.NewDatasetEngine(ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}

			// emit returns false: the stream ends cleanly after one ID.
			eng := build(func(*psi.EngineOptions) {})
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

			// budget kill: data, not an error; Found is what reached the caller.
			eng = build(func(o *psi.EngineOptions) { o.Timeout = time.Nanosecond })
			if res, err := eng.Query(context.Background(), q, 0); err != nil || !res.Killed || res.Found != 0 || res.GraphIDs != nil {
				t.Errorf("killed Query = %+v, %v", res, err)
			}
			if ids, res, err := stream(context.Background(), eng, len(want)+1); err != nil || !res.Killed || res.Found != len(ids) || res.GraphIDs != nil {
				t.Errorf("killed stream = %v, %+v, %v", ids, res, err)
			}
			if c := eng.Counters(); c.Killed != 2 || c.ShardedKilled != 2 {
				t.Errorf("after two kills: %+v", c)
			}
			eng.Close()

			// solo overrun: the learned arm blows its solo budget before
			// surfacing anything and the query re-runs as the full race.
			if pol.opts.IndexPolicy == psi.IndexAuto {
				eng = build(func(o *psi.EngineOptions) { o.SoloBudget = time.Nanosecond })
				if _, err := eng.Query(context.Background(), q, 0); err != nil { // warm-up race trains the class
					t.Fatal(err)
				}
				res, err := eng.Query(context.Background(), q, 0)
				if err != nil || !res.Policy.Solo || !res.FellBack || !slices.Equal(res.GraphIDs, want) || len(res.IndexAttempts) != 3 {
					t.Errorf("overrun Query = %+v, %v; want a fallback answering %v", res, err, want)
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

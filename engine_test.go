package psi_test

// Tests for the plan/execute Engine facade: planning policies, execution
// parity with the free-function paths, streaming, deadlines and the FTV
// pipeline.

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

func engineFixture(t *testing.T) (*psi.Graph, *psi.Graph) {
	t.Helper()
	g := psi.GenerateYeastLike(psi.Tiny, 3)
	q := psi.ExtractQuery(g, 5, 11)
	return g, q
}

// newEngine builds a stored-graph engine that the test closes when it ends.
func newEngine(t testing.TB, g *psi.Graph, opts psi.EngineOptions) *psi.Engine {
	t.Helper()
	eng, err := psi.NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// newDatasetEngine builds a dataset engine that the test closes when it ends.
func newDatasetEngine(t testing.TB, ds []*psi.Graph, opts psi.EngineOptions) *psi.Engine {
	t.Helper()
	eng, err := psi.NewDatasetEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// query runs eng.Query and fails the test on an error.
func query(t testing.TB, eng *psi.Engine, q *psi.Graph, limit int) *psi.QueryResult {
	t.Helper()
	res, err := eng.Query(context.Background(), q, limit)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// streamEmbeddings runs eng.QueryStream into a sink that keeps every
// embedding while more is true, and stops after the first otherwise.
func streamEmbeddings(t testing.TB, eng *psi.Engine, q *psi.Graph, limit int, more bool) (*psi.QueryResult, []psi.Embedding) {
	t.Helper()
	var got []psi.Embedding
	res, err := eng.QueryStream(context.Background(), q, limit, psi.SinkFunc(func(e psi.Embedding) bool {
		got = append(got, e)
		return more
	}))
	if err != nil {
		t.Fatal(err)
	}
	return res, got
}

// streamIDs runs eng.AnswerStream and returns the IDs it emitted.
func streamIDs(t testing.TB, eng *psi.Engine, q *psi.Graph) []int {
	t.Helper()
	var ids []int
	if _, err := eng.AnswerStream(context.Background(), q, func(id int) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// verifyAll fails the test unless every embedding is one of q in g.
func verifyAll(t testing.TB, q, g *psi.Graph, embs []psi.Embedding) {
	t.Helper()
	for _, e := range embs {
		if err := psi.VerifyEmbedding(q, g, e); err != nil {
			t.Fatalf("invalid embedding: %v", err)
		}
	}
}

// TestEngineQueryMatchesDirectMatch: a default engine plans a race, reports
// its winner and time, and finds valid embeddings; that they are the ones a
// direct match finds, on every entry point, is TestAnswerStreamReportsKill's.
func TestEngineQueryMatchesDirectMatch(t *testing.T) {
	g, q := engineFixture(t)
	res := query(t, newEngine(t, g, psi.EngineOptions{}), q, 100000)
	if res.Kind != psi.PlanRace || res.Winner == "" || res.Elapsed <= 0 || res.Found != len(res.Embeddings) || res.Found == 0 {
		t.Errorf("default engine: kind %v, winner %q, elapsed %v, found %d of %d; want a race's provenance and its embeddings", res.Kind, res.Winner, res.Elapsed, res.Found, len(res.Embeddings))
	}
	verifyAll(t, q, g, res.Embeddings)
}

// TestEngineQueryStreamParity: a streamed run hands the sink every embedding
// it counts and materializes none in its report.
func TestEngineQueryStreamParity(t *testing.T) {
	g, q := engineFixture(t)
	res, streamed := streamEmbeddings(t, newEngine(t, g, psi.EngineOptions{}), q, 100000, true)
	if res.Embeddings != nil || res.Found != len(streamed) || res.Found == 0 {
		t.Errorf("streamed %d embeddings, reported Found=%d and %d materialized; want them all streamed, none materialized", len(streamed), res.Found, len(res.Embeddings))
	}
	verifyAll(t, q, g, streamed)
}

func TestEngineFirstResultStopsEarly(t *testing.T) {
	g, q := engineFixture(t)
	res, emitted := streamEmbeddings(t, newEngine(t, g, psi.EngineOptions{}), q, 100000, false)
	if len(emitted) != 1 || res.Found != 1 {
		t.Fatalf("first-result stream emitted %d (Found=%d), want 1", len(emitted), res.Found)
	}
}

func TestEngineModeSinglePlansFixed(t *testing.T) {
	g, q := engineFixture(t)
	eng := newEngine(t, g, psi.EngineOptions{
		Mode:       psi.ModeSingle,
		Algorithms: []psi.Algorithm{psi.VF2, psi.GraphQL},
	})
	p, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != psi.PlanFixed || len(p.Arms) != 1 {
		t.Fatalf("ModeSingle plan = %v with arms %v, want fixed/1", p.Kind, p.Arms)
	}
	res, err := eng.Execute(context.Background(), p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "VF2-Orig" {
		t.Errorf("fixed plan should run the portfolio's first attempt, winner=%q", res.Winner)
	}
}

// denseFixture is a large single-label graph, each vertex joined to the
// four after it, and a big query of it: full enumeration takes far longer
// than a few milliseconds.
func denseFixture(t *testing.T) (g, q *psi.Graph) {
	t.Helper()
	const n = 300
	var edges [][2]int
	for i := 0; i < n; i++ {
		for d := 1; d <= 4 && i+d < n; d++ {
			edges = append(edges, [2]int{i, i + d})
		}
	}
	g = psi.MustNewGraph("dense", make([]psi.Label, n), edges)
	return g, psi.ExtractQuery(g, 9, 5)
}

// TestEngineDeadlineKillsQuery: a query the engine's 5 ms cap kills
// surfaces an empty answer and reports the cap as its time.
func TestEngineDeadlineKillsQuery(t *testing.T) {
	g, q := denseFixture(t)
	res := query(t, newEngine(t, g, psi.EngineOptions{Timeout: 5 * time.Millisecond}), q, 1<<30)
	if !res.Killed {
		t.Skip("enumeration finished inside the cap on this machine")
	}
	if res.Found != 0 || res.Embeddings != nil {
		t.Error("killed query must surface an empty answer")
	}
	if res.Elapsed != 5*time.Millisecond {
		t.Errorf("killed query Elapsed = %v, want clamped to the 5ms cap", res.Elapsed)
	}
}

// TestEngineCallerDeadlineReportsTimeTaken: a query the caller's 5 ms
// deadline kills on an engine with a 10-minute cap is killed and Hard, and
// reports the time it ran, not the cap.
func TestEngineCallerDeadlineReportsTimeTaken(t *testing.T) {
	g, q := denseFixture(t)
	eng := newEngine(t, g, psi.EngineOptions{Timeout: 10 * time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := eng.Query(ctx, q, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed {
		t.Skip("enumeration finished inside the deadline on this machine")
	}
	if res.Class.String() != "hard" || res.Elapsed >= time.Second {
		t.Errorf("killed by the caller's deadline: class %v, Elapsed %v; want Hard, under 1s", res.Class, res.Elapsed)
	}
}

// TestEngineDeadlineStreamingKeepsSurfacedCount: the dense fixture
// streamed under a cap: embeddings that reached the sink before the kill
// stay counted in Found.
func TestEngineDeadlineStreamingKeepsSurfacedCount(t *testing.T) {
	g, q := denseFixture(t)
	res, streamed := streamEmbeddings(t, newEngine(t, g, psi.EngineOptions{Timeout: 20 * time.Millisecond}), q, 1<<30, true)
	if !res.Killed {
		t.Skip("enumeration finished inside the cap on this machine")
	}
	if res.Found != len(streamed) {
		t.Errorf("killed streaming run reports Found=%d, sink saw %d", res.Found, len(streamed))
	}
}

func TestEnginePlanDoesNotAliasPortfolio(t *testing.T) {
	g, q := engineFixture(t)
	eng := newEngine(t, g, psi.EngineOptions{})
	p, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	p.Arms[0] = "" // caller scribbles on the plan
	if p2, err := eng.Plan(q); err != nil || p2.Arms[0] != "GQL-Orig" {
		t.Fatal("mutating a plan's arms corrupted the engine's labels")
	}
	query(t, eng, q, 1)
}

// TestEnginePlanAllocs: a race plan costs two allocations on either engine
// kind, the plan and its copy of the arm labels.
func TestEnginePlanAllocs(t *testing.T) {
	ds, q := raceFixtureDataset(), raceFixtureQueries()[0]
	stored := newEngine(t, ds[0], psi.EngineOptions{})
	dataset := newDatasetEngine(t, ds, psi.EngineOptions{Indexes: []string{"ftv", "grapes"}})
	for _, eng := range []*psi.Engine{stored, dataset} {
		if p, err := eng.Plan(q); err != nil || p.Kind != psi.PlanRace || len(p.Arms) < 2 {
			t.Fatalf("plan %+v, %v: want a race of several arms", p, err)
		}
		if n := testing.AllocsPerRun(100, func() { eng.Plan(q) }); n > 2 {
			t.Errorf("a race plan over %d graphs costs %.0f allocations, want at most 2", len(eng.Dataset()), n)
		}
	}
}

func TestEnginePlanRejectsForeignAndNil(t *testing.T) {
	g, q := engineFixture(t)
	e1, e2 := newEngine(t, g, psi.EngineOptions{}), newEngine(t, g, psi.EngineOptions{})
	p, err := e1.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	_, foreign := e2.Execute(context.Background(), p, 1)
	_, none := e1.Execute(context.Background(), nil, 1)
	if _, noSink := e1.QueryStream(context.Background(), q, 1, nil); foreign == nil || none == nil || noSink == nil {
		t.Errorf("another engine's plan: %v; a nil plan: %v; QueryStream without a sink: %v; want three errors", foreign, none, noSink)
	}
}

// TestDatasetEngineMatchesSequentialOracle: a dataset engine over its one
// default verifier races the rewritings and answers as the oracle does, on
// every entry point (checkPipelineAnswer).
func TestDatasetEngineMatchesSequentialOracle(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	eng := newDatasetEngine(t, ds, psi.EngineOptions{Rewritings: []psi.Rewriting{psi.Orig, psi.DND}})
	if err := checkPipelineAnswer(eng, psi.ExtractQuery(ds[0], 4, 9)); err != nil || eng.Mode() != psi.ModeRace {
		t.Fatalf("mode %s: %v", eng.Mode(), err)
	}
}

// TestDatasetEngineAnswerStream: AnswerStream emits what Query answers, and
// a stored-graph engine refuses it.
func TestDatasetEngineAnswerStream(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	q := psi.ExtractQuery(ds[0], 3, 7)
	if err := checkPipelineAnswer(newDatasetEngine(t, ds, psi.EngineOptions{}), q); err != nil {
		t.Fatal(err)
	}
	// NFV engines must reject AnswerStream.
	g, _ := engineFixture(t)
	if _, err := newEngine(t, g, psi.EngineOptions{}).AnswerStream(context.Background(), q, func(int) bool { return true }); err == nil {
		t.Error("AnswerStream on an NFV engine must fail")
	}
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := psi.NewEngine(nil, psi.EngineOptions{}); err == nil {
		t.Error("NewEngine(nil) must fail")
	}
	if _, err := psi.NewDatasetEngine(nil, psi.EngineOptions{}); err == nil {
		t.Error("NewDatasetEngine(empty) must fail")
	}
	g := psi.MustNewGraph("g", []psi.Label{0}, nil)
	if _, err := psi.NewEngine(g, psi.EngineOptions{Mode: "warp"}); err == nil {
		t.Error("unknown mode must fail")
	}
	_, err := psi.ParseMode("predict")
	if err == nil {
		t.Fatal("ParseMode must reject predict")
	}
	for _, mode := range []string{"race", "single", "auto"} {
		if !strings.Contains(err.Error(), mode) {
			t.Errorf("ParseMode error %q does not name the mode %q", err, mode)
		}
		if _, merr := psi.ParseMode(mode); merr != nil {
			t.Errorf("ParseMode(%q): %v", mode, merr)
		}
	}
}

func TestEngineOwnedPoolAndAccessors(t *testing.T) {
	g, q := engineFixture(t)
	eng := newEngine(t, g, psi.EngineOptions{Workers: 2, Mode: psi.ModeRace})
	if eng.Mode() != psi.ModeRace || eng.Graph() != g || eng.Dataset() != nil {
		t.Error("accessors disagree with construction")
	}
	if p, err := eng.Plan(q); err != nil || len(p.Arms) != 4 { // 2 algorithms × 2 rewritings
		t.Errorf("default portfolio plans %+v, %v; want 4 attempts", p, err)
	}
	query(t, eng, q, 5)
	eng.Close() // must not panic; queries after Close degrade gracefully
	if _, err := eng.Query(context.Background(), q, 5); err != nil {
		t.Errorf("query after Close should degrade gracefully, got %v", err)
	}
}

// raceFixtureDataset is a small deterministic dataset for index-race tests:
// cheap enough to index three ways under the race detector, varied enough
// that filters disagree between queries.
func raceFixtureDataset() []*psi.Graph {
	return []*psi.Graph{
		psi.MustNewGraph("d0", []psi.Label{0, 1, 2, 0, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}),
		psi.MustNewGraph("d1", []psi.Label{0, 1, 2, 1, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}}),
		psi.MustNewGraph("d2", []psi.Label{2, 2, 1, 1, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		psi.MustNewGraph("d3", []psi.Label{1, 0, 0, 0, 1, 2}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}, {4, 5}}),
		psi.MustNewGraph("d4", []psi.Label{0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
	}
}

func raceFixtureQueries() []*psi.Graph {
	return []*psi.Graph{
		psi.MustNewGraph("q0", []psi.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}}),
		psi.MustNewGraph("q1", []psi.Label{0, 1}, [][2]int{{0, 1}}),
		psi.MustNewGraph("q2", []psi.Label{1, 0, 0}, [][2]int{{0, 1}, {0, 2}}),
		psi.MustNewGraph("q3", []psi.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}}),
		psi.MustNewGraph("q4", []psi.Label{9, 9}, [][2]int{{0, 1}}),
		psi.MustNewGraph("q5", []psi.Label{0}, nil),
	}
}

// TestDatasetEngineIndexRaceMatchesFixed is the engine-level acceptance
// test for the per-candidate rewriting race: an engine builds one table
// whatever index names it is given and verifies with the one verifier that
// table carries — Grapes', with its worker count, when "grapes" is listed,
// else the whole-graph one labelled after the first name — and plans over
// that verifier under each rewriting, races them on every query, names one
// of them the winner, and answers byte-identically to a fixed engine.
func TestDatasetEngineIndexRaceMatchesFixed(t *testing.T) {
	ds := raceFixtureDataset()
	fixed := newDatasetEngine(t, ds, psi.EngineOptions{IndexPolicy: psi.IndexFixed})
	for _, tc := range []struct {
		names   []string
		workers int
		table   string
		want    []string
	}{
		{nil, 0, "grapes", []string{"Grapes/1-Orig", "Grapes/1-DND"}},
		{[]string{"ftv", "grapes", "ggsx"}, 0, "grapes", []string{"Grapes/1-Orig", "Grapes/1-DND"}},
		{[]string{"ggsx", "ftv"}, 0, "ggsx", []string{"GGSX-Orig", "GGSX-DND"}},
		{[]string{"ftv"}, 0, "ftv", []string{"FTV-Orig", "FTV-DND"}},
		{[]string{"grapes", "ggsx", "ftv"}, 4, "grapes", []string{"Grapes/4-Orig", "Grapes/4-DND"}},
	} {
		race := newDatasetEngine(t, ds, psi.EngineOptions{Indexes: tc.names, IndexWorkers: tc.workers})
		if race.Mode() != psi.ModeRace {
			t.Fatalf("%v: Mode = %q, want %q", tc.names, race.Mode(), psi.ModeRace)
		}
		if st := race.IndexStats(); len(st) != 1 || st[0].Kind != tc.table {
			t.Fatalf("%v: IndexStats = %+v, want the one table, built under %s", tc.names, st, tc.table)
		}
		for qi, q := range raceFixtureQueries() {
			p, err := race.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if p.Kind != psi.PlanRace || !slices.Equal(p.Arms, tc.want) {
				t.Fatalf("%v q%d: plan = kind %v arms %v, want race over %v", tc.names, qi, p.Kind, p.Arms, tc.want)
			}
			got, err := race.Execute(context.Background(), p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := query(t, fixed, q, 0); !slices.Equal(got.GraphIDs, want.GraphIDs) {
				t.Fatalf("%v q%d: race answered %v, fixed %v", tc.names, qi, got.GraphIDs, want.GraphIDs)
			}
			if got.Kind != psi.PlanRace || !slices.Contains(p.Arms, got.Winner) {
				t.Errorf("%v q%d: %v winner %q is none of the arms %v", tc.names, qi, got.Kind, got.Winner, p.Arms)
			}
		}
		if c, n := race.Counters(), int64(len(raceFixtureQueries())); c.IndexAttempts != n || c.IndexRaces != n {
			t.Errorf("%v: %d pipelines, %d raced, for %d queries; want every one raced", tc.names, c.IndexAttempts, c.IndexRaces, n)
		}
	}
}

// TestDatasetEngineIndexPolicyOptions covers policy selection; the
// rejections of a bad policy or name are engine_options_test.go's.
func TestDatasetEngineIndexPolicyOptions(t *testing.T) {
	ds := raceFixtureDataset()
	// A single rewriting degrades race and auto to the fixed policy, which
	// keeps no policy stats; the fixed policy over several runs only the
	// first.
	for _, opts := range []psi.EngineOptions{
		{Indexes: []string{"ftv"}, Rewritings: []psi.Rewriting{psi.Orig}, IndexPolicy: psi.IndexRace},
		{Indexes: []string{"ftv"}, Rewritings: []psi.Rewriting{psi.DND}, IndexPolicy: psi.IndexAuto},
		{Indexes: []string{"ggsx", "grapes"}, IndexPolicy: psi.IndexFixed},
	} {
		eng := newDatasetEngine(t, ds, opts)
		if _, stats := eng.PolicyStats(); eng.Mode() != psi.ModeSingle || stats {
			t.Errorf("%+v: mode %q, policy stats %v; want single, none", opts, eng.Mode(), stats)
		}
	}
}

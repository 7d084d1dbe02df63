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
	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/leakcheck"
)

func engineFixture(t *testing.T) (*psi.Graph, *psi.Graph) {
	t.Helper()
	g := psi.GenerateYeastLike(psi.Tiny, 3)
	q := psi.ExtractQuery(g, 5, 11)
	return g, q
}

func TestEngineQueryMatchesDirectMatch(t *testing.T) {
	g, q := engineFixture(t)
	eng, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, err := psi.MustNewMatcher(psi.GraphQL, g).Match(context.Background(), q, 100000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), q, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != psi.PlanRace {
		t.Errorf("default mode should plan a race, got %v", res.Kind)
	}
	if res.Found != len(want) || len(res.Embeddings) != len(want) {
		t.Fatalf("engine found %d embeddings, direct match %d", res.Found, len(want))
	}
	for _, e := range res.Embeddings {
		if err := psi.VerifyEmbedding(q, g, e); err != nil {
			t.Fatalf("engine emitted invalid embedding: %v", err)
		}
	}
	if res.Winner == "" || res.Elapsed <= 0 {
		t.Errorf("result missing provenance: winner=%q elapsed=%v", res.Winner, res.Elapsed)
	}
}

func TestEngineQueryStreamParity(t *testing.T) {
	g, q := engineFixture(t)
	eng, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	slice, err := eng.Query(context.Background(), q, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []psi.Embedding
	res, err := eng.QueryStream(context.Background(), q, 100000, psi.SinkFunc(func(e psi.Embedding) bool {
		streamed = append(streamed, e)
		return true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != slice.Found || res.Found != slice.Found {
		t.Fatalf("streamed %d embeddings (Found=%d), slice path found %d",
			len(streamed), res.Found, slice.Found)
	}
	if res.Embeddings != nil {
		t.Error("streaming execution must not also materialize embeddings")
	}
	for _, e := range streamed {
		if err := psi.VerifyEmbedding(q, g, e); err != nil {
			t.Fatalf("streamed embedding invalid: %v", err)
		}
	}
}

func TestEngineFirstResultStopsEarly(t *testing.T) {
	g, q := engineFixture(t)
	eng, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	emitted := 0
	res, err := eng.QueryStream(context.Background(), q, 100000, psi.SinkFunc(func(psi.Embedding) bool {
		emitted++
		return false
	}))
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1 || res.Found != 1 {
		t.Fatalf("first-result stream emitted %d (Found=%d), want 1", emitted, res.Found)
	}
}

func TestEngineModeSinglePlansFixed(t *testing.T) {
	g, q := engineFixture(t)
	eng, err := psi.NewEngine(g, psi.EngineOptions{
		Mode:       psi.ModeSingle,
		Algorithms: []psi.Algorithm{psi.VF2, psi.GraphQL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != psi.PlanFixed || len(p.Attempts) != 1 {
		t.Fatalf("ModeSingle plan = %v with %d attempts, want fixed/1", p.Kind, len(p.Attempts))
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
	b := psi.NewBuilder("dense")
	const n = 300
	for i := 0; i < n; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= 4 && i+d < n; d++ {
			if err := b.AddEdge(i, i+d); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, psi.ExtractQuery(g, 9, 5)
}

func TestEngineDeadlineKillsQuery(t *testing.T) {
	g, q := denseFixture(t)
	eng, err := psi.NewEngine(g, psi.EngineOptions{Timeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query(context.Background(), q, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
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
	eng, err := psi.NewEngine(g, psi.EngineOptions{Timeout: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
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

func TestEngineDeadlineStreamingKeepsSurfacedCount(t *testing.T) {
	// Same dense fixture as the kill test, streamed: embeddings that
	// reached the sink before the kill must stay counted in Found.
	g, q := denseFixture(t)
	eng, err := psi.NewEngine(g, psi.EngineOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	streamed := 0
	res, err := eng.QueryStream(context.Background(), q, 1<<30, psi.SinkFunc(func(psi.Embedding) bool {
		streamed++
		return true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed {
		t.Skip("enumeration finished inside the cap on this machine")
	}
	if res.Found != streamed {
		t.Errorf("killed streaming run reports Found=%d, sink saw %d", res.Found, streamed)
	}
}

func TestEnginePlanDoesNotAliasPortfolio(t *testing.T) {
	g, q := engineFixture(t)
	eng, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p, err := eng.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	p.Attempts[0] = psi.Attempt{} // caller scribbles on the plan
	if p2, err := eng.Plan(q); err != nil || p2.Attempts[0].Matcher == nil {
		t.Fatal("mutating a plan's attempts corrupted the engine's portfolio")
	}
	if _, err := eng.Query(context.Background(), q, 1); err != nil {
		t.Fatalf("engine broken after plan mutation: %v", err)
	}
}

func TestEnginePlanRejectsForeignAndNil(t *testing.T) {
	g, q := engineFixture(t)
	e1, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	e2, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	p, err := e1.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Execute(context.Background(), p, 1); err == nil {
		t.Error("executing another engine's plan must fail")
	}
	if _, err := e1.Execute(context.Background(), nil, 1); err == nil {
		t.Error("executing a nil plan must fail")
	}
	if _, err := e1.QueryStream(context.Background(), q, 1, nil); err == nil {
		t.Error("QueryStream without a sink must fail")
	}
}

func TestDatasetEngineMatchesSequentialOracle(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	q := psi.ExtractQuery(ds[0], 4, 9)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != psi.PlanFTV {
		t.Errorf("dataset engine planned %v, want ftv", res.Kind)
	}
	if want := difftest.Want(ds, q); !slices.Equal(res.GraphIDs, want) {
		t.Fatalf("engine answered %v, the oracle %v", res.GraphIDs, want)
	}
}

func TestDatasetEngineAnswerStream(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 2)
	q := psi.ExtractQuery(ds[0], 3, 7)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []int
	if _, err := eng.AnswerStream(context.Background(), q, func(id int) bool {
		streamed = append(streamed, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.GraphIDs) {
		t.Fatalf("streamed %v, Query answered %v", streamed, res.GraphIDs)
	}
	for i := range streamed {
		if streamed[i] != res.GraphIDs[i] {
			t.Fatalf("streamed %v, Query answered %v", streamed, res.GraphIDs)
		}
	}
	// NFV engines must reject AnswerStream.
	g, _ := engineFixture(t)
	nfv, err := psi.NewEngine(g, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer nfv.Close()
	if _, err := nfv.AnswerStream(context.Background(), q, func(int) bool { return true }); err == nil {
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
	if _, err := psi.NewDatasetEngine([]*psi.Graph{g}, psi.EngineOptions{Indexes: []string{"btree"}}); err == nil {
		t.Error("unknown index must fail")
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
	eng, err := psi.NewEngine(g, psi.EngineOptions{Workers: 2, Mode: psi.ModeRace})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Mode() != psi.ModeRace || eng.Graph() != g || eng.Dataset() != nil {
		t.Error("accessors disagree with construction")
	}
	if p, err := eng.Plan(q); err != nil || len(p.Attempts) != 4 { // 2 algorithms × 2 rewritings
		t.Errorf("default portfolio plans %+v, %v; want 4 attempts", p, err)
	}
	if _, err := eng.Query(context.Background(), q, 5); err != nil {
		t.Fatal(err)
	}
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
// test for index racing: an engine naming all three indexes builds one
// table, plans the race policy over its two verifiers, races them on every
// query, names one of them the winner, and answers byte-identically to a
// fixed single-index engine.
func TestDatasetEngineIndexRaceMatchesFixed(t *testing.T) {
	ds := raceFixtureDataset()
	race, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ftv", "grapes", "ggsx"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer race.Close()
	fixed, err := psi.NewDatasetEngine(ds, psi.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if race.IndexPolicy() != psi.IndexRace {
		t.Fatalf("IndexPolicy = %q, want race", race.IndexPolicy())
	}
	if st := race.IndexStats(); len(st) != 1 || st[0].Kind != "grapes" {
		t.Fatalf("IndexStats = %+v, want the one table, built under grapes", st)
	}
	for qi, q := range raceFixtureQueries() {
		p, err := race.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != psi.PlanFTV || !slices.Equal(p.Indexes, []string{"FTV", "Grapes/1"}) {
			t.Fatalf("q%d: plan = kind %v indexes %v", qi, p.Kind, p.Indexes)
		}
		got, err := race.Execute(context.Background(), p, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fixed.Query(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.GraphIDs) != len(want.GraphIDs) {
			t.Fatalf("q%d: race answered %v, fixed %v", qi, got.GraphIDs, want.GraphIDs)
		}
		for i := range want.GraphIDs {
			if got.GraphIDs[i] != want.GraphIDs[i] {
				t.Fatalf("q%d: race answered %v, fixed %v", qi, got.GraphIDs, want.GraphIDs)
			}
		}
		if !slices.Contains(p.Indexes, got.Winner) {
			t.Errorf("q%d: winner %q is none of the verifiers %v", qi, got.Winner, p.Indexes)
		}
	}
	n := int64(len(raceFixtureQueries()))
	if c := race.Counters(); c.IndexAttempts != n || c.IndexRaces != n {
		t.Errorf("%d pipelines, %d raced, for %d queries; want one raced pipeline each", c.IndexAttempts, c.IndexRaces, n)
	}
}

// TestDatasetEngineIndexRaceAnswerStream checks the streaming path of a
// racing dataset engine agrees with the collecting path.
func TestDatasetEngineIndexRaceAnswerStream(t *testing.T) {
	ds := raceFixtureDataset()
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"grapes", "ggsx"}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for qi, q := range raceFixtureQueries() {
		res, err := eng.Query(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []int
		if _, err := eng.AnswerStream(context.Background(), q, func(id int) bool {
			streamed = append(streamed, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(res.GraphIDs) {
			t.Fatalf("q%d: streamed %v, Query answered %v", qi, streamed, res.GraphIDs)
		}
		for i := range streamed {
			if streamed[i] != res.GraphIDs[i] {
				t.Fatalf("q%d: streamed %v, Query answered %v", qi, streamed, res.GraphIDs)
			}
		}
	}
}

// TestDatasetEngineIndexRaceReleasesGoroutines is the engine-level
// goroutine-leak regression for index racing: repeated raced queries whose
// losing indexes are cancelled must not accrete goroutines.
func TestDatasetEngineIndexRaceReleasesGoroutines(t *testing.T) {
	ds := raceFixtureDataset()
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv", "grapes", "ggsx"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	queries := raceFixtureQueries()
	// Warm up so pools and per-attempt infrastructure exist first.
	for _, q := range queries {
		if _, err := eng.Query(context.Background(), q, 0); err != nil {
			t.Fatal(err)
		}
	}
	leakcheck.Check(t, 4)
	for i := 0; i < 30; i++ {
		for _, q := range queries {
			if _, err := eng.Query(context.Background(), q, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDatasetEngineIndexPolicyOptions covers policy selection and
// validation.
func TestDatasetEngineIndexPolicyOptions(t *testing.T) {
	ds := raceFixtureDataset()
	// A single index degrades to the fixed policy even when race is asked.
	single, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv"}, IndexPolicy: psi.IndexRace})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if single.IndexPolicy() != psi.IndexFixed {
		t.Errorf("single-index policy = %q, want fixed", single.IndexPolicy())
	}
	// Fixed policy over a portfolio consults only the first index.
	fixed, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"ggsx", "grapes"}, IndexPolicy: psi.IndexFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if fixed.IndexPolicy() != psi.IndexFixed {
		t.Errorf("fixed policy = %q", fixed.IndexPolicy())
	}
	race, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv", "ggsx"}})
	if err != nil {
		t.Fatal(err)
	}
	defer race.Close()
	if _, err := psi.NewDatasetEngine(ds, psi.EngineOptions{IndexPolicy: "tournament"}); err == nil {
		t.Error("unknown index policy must fail")
	}
	if _, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv", "btree"}}); err == nil {
		t.Error("unknown index kind in portfolio must fail")
	}
	if kinds, err := psi.ParseIndexSpec("race"); err != nil || len(kinds) < 3 {
		t.Errorf("ParseIndexSpec(race) = %v, %v", kinds, err)
	}
	if kinds, err := psi.ParseIndexSpec("grapes,ggsx"); err != nil || len(kinds) != 2 {
		t.Errorf("ParseIndexSpec(grapes,ggsx) = %v, %v", kinds, err)
	}
}

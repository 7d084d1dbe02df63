package psi_test

// Tests for the traffic-aware auto policy: byte-parity with always-race at
// the dataset (IndexAuto) and stored-graph (ModeAuto) layers, the policy
// decision surface (Plan.Decision, QueryResult.Policy, counters,
// PolicyStats), and the evidence rules — a budget-killed solo counts
// against the learned arm, a client disconnect does not.

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/difftest"
)

// autoParityEngines builds an auto-policy engine and an always-race engine
// over the same portfolio.
func autoParityEngines(t *testing.T, ds []*psi.Graph, opts psi.EngineOptions) (auto, race *psi.Engine) {
	t.Helper()
	raceOpts := opts
	raceOpts.IndexPolicy = psi.IndexRace
	race = newDatasetEngine(t, ds, raceOpts)
	opts.IndexPolicy = psi.IndexAuto
	return newDatasetEngine(t, ds, opts), race
}

// TestDatasetEngineAutoMatchesRace is the parity fuzz suite for the learned
// policy: across enough passes that the bandit warms up, goes solo, hits
// staleness re-races and keeps learning, every answer must stay
// byte-identical to the always-race engine — on both the collecting and the
// streaming path.
func TestDatasetEngineAutoMatchesRace(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 4)
	auto, race := autoParityEngines(t, ds, psi.EngineOptions{Indexes: []string{"ftv", "grapes", "ggsx"}})
	psi.SetAutoPolicy(auto, 0, 2, 5) // exercise staleness re-races inside the run
	var queries []*psi.Graph
	for seed := int64(1); seed <= 8; seed++ {
		queries = append(queries, psi.ExtractQuery(ds[int(seed)%len(ds)], 3+int(seed)%3, seed))
	}
	for pass := 0; pass < 6; pass++ {
		for qi, q := range queries {
			want, got := query(t, race, q, 0), query(t, auto, q, 0)
			if !slices.Equal(got.GraphIDs, want.GraphIDs) {
				t.Fatalf("pass %d q%d: auto answered %v, race %v", pass, qi, got.GraphIDs, want.GraphIDs)
			}
			if got.Policy == nil {
				t.Fatalf("pass %d q%d: auto result missing policy decision", pass, qi)
			}
			if streamed := streamIDs(t, auto, q); !slices.Equal(streamed, want.GraphIDs) {
				t.Fatalf("pass %d q%d: auto streamed %v, race %v", pass, qi, streamed, want.GraphIDs)
			}
		}
	}
	c := auto.Counters()
	if c.PolicySolo == 0 {
		t.Errorf("auto engine never went solo over %d queries: %+v", c.Queries, c)
	}
	if c.PolicyRaces == 0 {
		t.Errorf("auto engine never raced (warmup must race): %+v", c)
	}
	if c.IndexRaces >= c.Queries {
		t.Errorf("auto raced the verifiers of %d of %d queries — no cheaper than always-race", c.IndexRaces, c.Queries)
	}
	snap, ok := auto.PolicyStats()
	if !ok || len(snap.Arms) != 2 || snap.Classes == 0 {
		t.Errorf("PolicyStats = %+v, %v", snap, ok)
	}
	if _, ok := race.PolicyStats(); ok {
		t.Error("race-policy engine must not report policy stats")
	}
}

// TestDatasetEngineAutoPolicySurface checks the decision plumbing: the plan
// carries the verdict and the result echoes it. Auto over one verifier is
// TestDatasetEngineIndexPolicyOptions' row, and ParseMode
// TestEngineOptionValidation's.
func TestDatasetEngineAutoPolicySurface(t *testing.T) {
	eng := newDatasetEngine(t, raceFixtureDataset(), psi.EngineOptions{Indexes: []string{"grapes", "ggsx"}, IndexPolicy: psi.IndexAuto})
	if eng.Mode() != psi.ModeAuto {
		t.Fatalf("Mode = %q, want auto", eng.Mode())
	}
	p, err := eng.Plan(raceFixtureQueries()[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Decision == nil || p.Decision.Class == "" || p.Decision.Solo {
		t.Fatalf("first plan decision = %+v, want a warmup race with a class", p.Decision)
	}
	res, err := eng.Execute(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != p.Decision {
		t.Error("result must echo the plan's policy decision")
	}
}

// TestEngineModeAutoMatchesRace is the NFV side of the parity suite: an
// auto-mode engine must find exactly the embeddings the racing engine finds
// (compared as counts — race winners legitimately vary in emission order).
func TestEngineModeAutoMatchesRace(t *testing.T) {
	g := psi.GenerateYeastLike(psi.Tiny, 6)
	auto := newEngine(t, g, psi.EngineOptions{Mode: psi.ModeAuto})
	psi.SetAutoPolicy(auto, time.Second, 2, 0)
	ref := psi.MustNewMatcher(psi.VF2, g)
	for pass := 0; pass < 4; pass++ {
		for seed := int64(20); seed < 26; seed++ {
			q := psi.ExtractQuery(g, 4+int(seed)%3, seed)
			want, err := ref.Match(context.Background(), q, 10000)
			if err != nil {
				t.Fatal(err)
			}
			res := query(t, auto, q, 10000)
			if res.Found != len(want) {
				t.Fatalf("pass %d seed %d: auto found %d, reference %d", pass, seed, res.Found, len(want))
			}
			verifyAll(t, q, g, res.Embeddings)
		}
	}
	c := auto.Counters()
	if c.PolicySolo == 0 || c.PredictedSolo == 0 {
		t.Errorf("ModeAuto never ran a learned solo: %+v", c)
	}
	if snap, ok := auto.PolicyStats(); !ok || len(snap.Arms) != 4 { // GQL and SPA under Orig and DND
		t.Errorf("PolicyStats = %+v, %v", snap, ok)
	}
}

// TestDatasetEngineAutoSoloOverrunIsKillEvidence is the first half of the
// evidence regression: a solo run killed by the solo budget must fall back
// to a full race (answers intact) AND be recorded against the arm.
func TestDatasetEngineAutoSoloOverrunIsKillEvidence(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 4)
	auto, race := autoParityEngines(t, ds, psi.EngineOptions{Indexes: []string{"grapes", "ggsx"}})
	psi.SetAutoPolicy(auto, time.Nanosecond, 1, -1) // every solo overruns instantly
	q := psi.ExtractQuery(ds[0], 3, 31)
	want := query(t, race, q, 0)
	for i := 0; i < 6; i++ {
		if got := query(t, auto, q, 0); len(got.GraphIDs) != len(want.GraphIDs) {
			t.Fatalf("iteration %d: auto answered %v, race %v", i, got.GraphIDs, want.GraphIDs)
		}
	}
	c := auto.Counters()
	if c.Fallbacks == 0 {
		t.Fatalf("nanosecond solo budget never fell back: %+v", c)
	}
	snap, _ := auto.PolicyStats()
	var kills int64
	for _, a := range snap.Arms {
		kills += a.Kills
	}
	if kills == 0 {
		t.Errorf("solo overruns recorded no kill evidence: %+v", snap)
	}
}

// TestEngineAutoBudgetKilledSoloIsKillEvidence: a learned solo killed by
// the engine's own cap, not by the solo budget, never reaches soloFirst's
// fallback, so the budget wrapper must record it against the solo arm, and
// must not count it as a completed prediction. The class trains to solo
// under a generous cap; the cap then drops to a nanosecond, long past when
// the solo's search first checks its context, so the kill is not a race
// against the clock.
func TestEngineAutoBudgetKilledSoloIsKillEvidence(t *testing.T) {
	g := psi.GenerateYeastLike(psi.Tiny, 6)
	eng := newEngine(t, g, psi.EngineOptions{Mode: psi.ModeAuto, Timeout: time.Minute})
	psi.SetAutoPolicy(eng, time.Minute, 1, -1)
	q := psi.ExtractQuery(g, 6, 21)
	const limit = 1 << 20
	var d *psi.PolicyDecision
	for i := 0; i < 8 && d == nil; i++ {
		if res := query(t, eng, q, limit); res.Policy != nil && res.Policy.Solo {
			d = res.Policy
		}
	}
	if d == nil {
		t.Fatal("class never became solo-eligible")
	}
	before, _ := eng.PolicyStats()
	counted := eng.Counters()

	psi.SetTimeout(eng, time.Nanosecond)
	res := query(t, eng, q, limit)
	if !res.Killed || res.Kind != psi.PlanPredicted || res.FellBack {
		t.Fatalf("under a nanosecond cap: killed %v, kind %q, fell back %v; want a killed learned solo", res.Killed, res.Kind, res.FellBack)
	}
	after, _ := eng.PolicyStats()
	if got, want := after.Arms[d.Arm].Kills, before.Arms[d.Arm].Kills+1; got != want {
		t.Errorf("solo arm %q: kills %d after a budget kill, want %d", d.ArmName, got, want)
	}
	c := eng.Counters()
	if c.Killed != counted.Killed+1 {
		t.Errorf("Killed %d -> %d, want one more", counted.Killed, c.Killed)
	}
	if c.PredictedSolo != counted.PredictedSolo {
		t.Errorf("PredictedSolo %d -> %d: a killed solo counted as a completed prediction", counted.PredictedSolo, c.PredictedSolo)
	}
}

// TestDatasetEngineAutoCancelIsNotEvidence is the second half: a caller
// cancellation (client disconnect) must leave the learned statistics — and
// the solo eligibility of the class — completely untouched.
func TestDatasetEngineAutoCancelIsNotEvidence(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 4)
	eng := newDatasetEngine(t, ds, psi.EngineOptions{
		Indexes:     []string{"grapes", "ggsx"},
		IndexPolicy: psi.IndexAuto,
		Timeout:     time.Minute, // budgeted engine: the kill path exists but must not fire
	})
	psi.SetAutoPolicy(eng, 0, 1, -1)
	q := psi.ExtractQuery(ds[0], 3, 37)
	// Train until the class plans solo.
	solo := false
	for i := 0; i < 8 && !solo; i++ {
		res := query(t, eng, q, 0)
		solo = res.Policy != nil && res.Policy.Solo
	}
	if !solo {
		t.Fatal("class never became solo-eligible")
	}
	before, _ := eng.PolicyStats()

	// Disconnected clients: already-cancelled contexts on both paths.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if _, err := eng.Query(cancelled, q, 0); err == nil {
			t.Fatal("cancelled query must error")
		}
		if _, err := eng.AnswerStream(cancelled, q, func(int) bool { return true }); err == nil {
			t.Fatal("cancelled stream must error")
		}
	}

	after, _ := eng.PolicyStats()
	if after.Escalated != 0 {
		t.Errorf("cancellations escalated %d classes", after.Escalated)
	}
	for i := range after.Arms {
		if after.Arms[i].Kills != before.Arms[i].Kills {
			t.Errorf("arm %q kills %d -> %d across cancellations",
				after.Arms[i].Name, before.Arms[i].Kills, after.Arms[i].Kills)
		}
	}
	// The class must still plan solo afterwards.
	if res := query(t, eng, q, 0); res.Policy == nil || !res.Policy.Solo {
		t.Errorf("post-cancellation decision = %+v, want solo", res.Policy)
	}
}

// TestLaunchPolicyIsOneAcrossEngineKinds: Mode and IndexPolicy are two
// spellings of one launch policy, so a stored-graph engine with as many
// matchers as a dataset engine has verifiers must plan the same kind over
// the same number of arms, reach the same policy decisions and move the same
// counters over the same query sequence, completed solos among them: the
// arms started, counted in RaceAttempts on one side
// and, on the other, as IndexAttempts (a pipeline per launch) plus
// IndexRaces (a query whose candidates raced both verifiers) times the arms
// beyond the first. Every non-empty name set runs, at K = 1 and 2, static
// and after mutable churn, and must answer as index.SequentialAnswer does; a
// set whose names select one verifier has nothing to race, so both its
// engines — the dataset one and the stored-graph one of one matcher — run
// the fixed policy whatever they were given, and report ModeSingle.
func TestLaunchPolicyIsOneAcrossEngineKinds(t *testing.T) {
	const queries, warmup = 6, 2
	cases := []struct {
		name     string
		mode     psi.Mode
		ixPolicy string
		kind     psi.PlanKind // of every stored-graph plan; "" under auto
	}{
		{"race", psi.ModeRace, psi.IndexRace, psi.PlanRace},
		{"first", psi.ModeSingle, psi.IndexFixed, psi.PlanFixed},
		{"auto", psi.ModeAuto, psi.IndexAuto, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, names := range nameSets {
				for _, k := range []int{1, 2} {
					for _, mutable := range []bool{false, true} {
						t.Run(fmt.Sprintf("%v/K=%d/mutable=%v", names, k, mutable), func(t *testing.T) {
							launchPolicyCase(t, tc.name, tc.mode, tc.ixPolicy, tc.kind, names, k, mutable, queries, warmup)
						})
					}
				}
			}
		})
	}
}

// TestWinCountsTallyArms pins WinCounts on both engine kinds: it tallies the
// results' winners; under the fixed policy n queries are all the first
// arm's, {Plan.Arms[0]: n}, and under race every key is one of the plan's
// arm labels and the counts sum to n.
func TestWinCountsTallyArms(t *testing.T) {
	const n = 5
	ds := raceFixtureDataset()
	q := raceFixtureQueries()[0]
	for _, fixed := range []bool{true, false} {
		nfvOpts := psi.EngineOptions{Algorithms: []psi.Algorithm{psi.VF2, psi.GraphQL}, Mode: psi.ModeRace}
		ftvOpts := psi.EngineOptions{Indexes: []string{"ftv", "grapes"}, IndexPolicy: psi.IndexRace}
		if fixed {
			nfvOpts.Mode, ftvOpts.IndexPolicy = psi.ModeSingle, psi.IndexFixed
		}
		for kind, eng := range map[string]*psi.Engine{"stored graph": newEngine(t, ds[0], nfvOpts), "dataset": newDatasetEngine(t, ds, ftvOpts)} {
			p, err := eng.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			won := map[string]int64{}
			for i := 0; i < n; i++ {
				won[query(t, eng, q, 0).Winner]++
			}
			wins := eng.WinCounts()
			if !maps.Equal(wins, won) {
				t.Errorf("%s engine, fixed %v: WinCounts %v, the results' winners %v", kind, fixed, wins, won)
			}
			if fixed {
				if want := map[string]int64{p.Arms[0]: n}; !maps.Equal(wins, want) {
					t.Errorf("%s engine, fixed: WinCounts %v, want %v", kind, wins, want)
				}
				continue
			}
			var sum int64
			for arm, w := range wins {
				sum += w
				if !slices.Contains(p.Arms, arm) {
					t.Errorf("%s engine, race: WinCounts names %q, not one of the arms %v", kind, arm, p.Arms)
				}
			}
			if sum != n || len(p.Arms) < 2 {
				t.Errorf("%s engine, race over %v: WinCounts %v sum to %d, want %d", kind, p.Arms, wins, sum, n)
			}
		}
	}
}

// launchCounts are the counters a launch policy moves alike on both engine
// kinds; started is the arms started.
type launchCounts struct {
	started, queries, killed, errs, fallbacks, predicted, solo, races, escalations int64
}

func launchPolicyCase(t *testing.T, name string, mode psi.Mode, ixPolicy string, kind psi.PlanKind, names []string, k int, mutable bool, queries, warmup int) {
	ds := raceFixtureDataset()
	q := raceFixtureQueries()[0]
	arms := 1
	if slices.Contains(names, "grapes") && len(names) > 1 && !slices.Equal(names, []string{"ftv", "ggsx"}) {
		arms = 2
	}
	opts := psi.EngineOptions{Rewritings: []psi.Rewriting{psi.Orig}}
	nfvOpts := opts
	nfvOpts.Mode = mode
	nfvOpts.Algorithms = []psi.Algorithm{psi.VF2, psi.GraphQL}[:arms]
	nfv := newEngine(t, ds[0], nfvOpts)
	psi.SetAutoPolicy(nfv, time.Minute, warmup, -1)
	ftvOpts := opts
	ftvOpts.IndexPolicy = ixPolicy
	ftvOpts.Indexes = names
	ftvOpts.Shards = k
	ftvOpts.Mutable = mutable
	dataset := newDatasetEngine(t, ds, ftvOpts)
	psi.SetAutoPolicy(dataset, time.Minute, warmup, -1)
	if mutable {
		extra := psi.MustNewGraph("extra", []psi.Label{0, 1, 2, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
		if _, err := dataset.AddGraph(context.Background(), extra); err != nil {
			t.Fatal(err)
		}
		if _, err := dataset.RemoveGraph(context.Background(), dataset.Handles()[1]); err != nil {
			t.Fatal(err)
		}
	}
	oracle := difftest.Want(dataset.Dataset(), q)
	if arms < 2 {
		// Nothing to race or learn over, on either kind: the fixed policy.
		mode, name, kind = psi.ModeSingle, "first", psi.PlanFixed
	}
	if nfv.Mode() != mode || dataset.Mode() != mode {
		t.Fatalf("policies read back as %q and %q, want %q", nfv.Mode(), dataset.Mode(), mode)
	}
	for i := 0; i < queries; i++ {
		np, err := nfv.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := dataset.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		solo := name == "auto" && i >= warmup
		wantKind, wantArms := kind, arms
		if name == "auto" {
			wantKind = psi.PlanRace
		}
		if solo {
			wantKind = psi.PlanPredicted
		}
		if solo || name == "first" {
			wantArms = 1
		}
		if dp.Kind != wantKind || len(dp.Arms) != wantArms || (solo && dp.Arms[0] != dp.Decision.ArmName) {
			t.Fatalf("query %d: dataset plan %s over %v (decision %+v), want %s over %d", i, dp.Kind, dp.Arms, dp.Decision, wantKind, wantArms)
		}
		dr, err := dataset.Execute(context.Background(), dp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dr.GraphIDs, oracle) {
			t.Fatalf("query %d: answered %v, index.SequentialAnswer %v", i, dr.GraphIDs, oracle)
		}
		if dr.Policy != dp.Decision || dr.Kind != dp.Kind || dr.FellBack || (dp.Decision == nil) != (name != "auto") {
			t.Fatalf("query %d: result %+v for decision %+v", i, dr, dp.Decision)
		}
		if name == "first" && dr.Winner != dp.Arms[0] {
			t.Fatalf("query %d: fixed winner %q, want the first name's verifier %q", i, dr.Winner, dp.Arms[0])
		}
		if np.Kind != wantKind || len(np.Arms) != wantArms || (solo && np.Arms[0] != np.Decision.ArmName) {
			t.Fatalf("query %d: stored-graph plan %s over %v (decision %+v), want %s over %d", i, np.Kind, np.Arms, np.Decision, wantKind, wantArms)
		}
		if (np.Decision == nil) != (dp.Decision == nil) {
			t.Fatalf("query %d: decisions %+v / %+v", i, np.Decision, dp.Decision)
		}
		if nd, dd := np.Decision, dp.Decision; nd != nil {
			if nd.Class != dd.Class || nd.Solo != dd.Solo || nd.Reason != dd.Reason || nd.Solo != solo ||
				(nd.ArmName == "") == solo || (dd.ArmName == "") == solo {
				t.Fatalf("query %d: decisions differ: %+v / %+v (want solo %v)", i, *nd, *dd, solo)
			}
		}
		nr, err := nfv.Execute(context.Background(), np, 0)
		if err != nil {
			t.Fatal(err)
		}
		if nr.Policy != np.Decision || nr.Kind != np.Kind || nr.FellBack {
			t.Fatalf("query %d: result %+v", i, nr)
		}
		if name == "first" && nr.Winner != "VF2-Orig" {
			t.Fatalf("query %d: fixed winner %q, want the first attempt", i, nr.Winner)
		}
	}
	dc := dataset.Counters()
	if dc.IndexAttempts != int64(queries) {
		t.Errorf("%d index pipelines for %d queries, want one each", dc.IndexAttempts, queries)
	}
	d := launchCounts{dc.IndexAttempts + dc.IndexRaces*int64(arms-1), dc.Queries, dc.Killed, dc.Errors, dc.Fallbacks, dc.PredictedSolo, dc.PolicySolo, dc.PolicyRaces, dc.PolicyEscalations}
	want := launchCounts{started: int64(queries * arms), queries: int64(queries)}
	switch name {
	case "first":
		want.started = int64(queries)
	case "auto":
		want.started = int64(warmup*arms + (queries - warmup))
		want.predicted, want.solo, want.races = int64(queries-warmup), int64(queries-warmup), int64(warmup)
	}
	if d != want {
		t.Errorf("dataset counters %+v, want %+v", d, want)
	}
	nc := nfv.Counters()
	if n := (launchCounts{nc.RaceAttempts, nc.Queries, nc.Killed, nc.Errors, nc.Fallbacks, nc.PredictedSolo, nc.PolicySolo, nc.PolicyRaces, nc.PolicyEscalations}); n != d {
		t.Errorf("counters %+v / %+v differ", n, d)
	}
}

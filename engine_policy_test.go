package psi_test

// Tests for the traffic-aware auto policy: byte-parity with always-race at
// the dataset (IndexAuto) and stored-graph (ModeAuto) layers, the policy
// decision surface (Plan.Decision, QueryResult.Policy, counters,
// PolicyStats), and the evidence rules — a budget-killed solo counts
// against the learned arm, a client disconnect does not.

import (
	"context"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

// autoParityEngines builds an auto-policy engine and an always-race engine
// over the same portfolio.
func autoParityEngines(t *testing.T, ds []*psi.Graph, opts psi.EngineOptions) (auto, race *psi.Engine) {
	t.Helper()
	raceOpts := opts
	raceOpts.IndexPolicy = psi.IndexRace
	race, err := psi.NewDatasetEngine(ds, raceOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(race.Close)
	opts.IndexPolicy = psi.IndexAuto
	auto, err = psi.NewDatasetEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(auto.Close)
	return auto, race
}

// TestDatasetEngineAutoMatchesRace is the parity fuzz suite for the learned
// policy: across enough passes that the bandit warms up, goes solo, hits
// staleness re-races and keeps learning, every answer must stay
// byte-identical to the always-race engine — on both the collecting and the
// streaming path.
func TestDatasetEngineAutoMatchesRace(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 4)
	opts := psi.EngineOptions{
		Indexes:        []string{"ftv", "grapes", "ggsx"},
		AutoMinSamples: 2,
		AutoRaceEvery:  5, // exercise staleness re-races inside the run
	}
	auto, race := autoParityEngines(t, ds, opts)
	var queries []*psi.Graph
	for seed := int64(1); seed <= 8; seed++ {
		queries = append(queries, psi.ExtractQuery(ds[int(seed)%len(ds)], 3+int(seed)%3, seed))
	}
	for pass := 0; pass < 6; pass++ {
		for qi, q := range queries {
			want, err := race.Query(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := auto.Query(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.GraphIDs) != len(want.GraphIDs) {
				t.Fatalf("pass %d q%d: auto answered %v, race %v", pass, qi, got.GraphIDs, want.GraphIDs)
			}
			for i := range want.GraphIDs {
				if got.GraphIDs[i] != want.GraphIDs[i] {
					t.Fatalf("pass %d q%d: auto answered %v, race %v", pass, qi, got.GraphIDs, want.GraphIDs)
				}
			}
			if got.Policy == nil {
				t.Fatalf("pass %d q%d: auto result missing policy decision", pass, qi)
			}
			var streamed []int
			if err := auto.AnswerStream(context.Background(), q, func(id int) bool {
				streamed = append(streamed, id)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(streamed) != len(want.GraphIDs) {
				t.Fatalf("pass %d q%d: auto streamed %v, race %v", pass, qi, streamed, want.GraphIDs)
			}
			for i := range streamed {
				if streamed[i] != want.GraphIDs[i] {
					t.Fatalf("pass %d q%d: auto streamed %v, race %v", pass, qi, streamed, want.GraphIDs)
				}
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
	if c.IndexAttempts >= c.Queries*3 {
		t.Errorf("auto started %d pipelines for %d queries — no cheaper than always-race", c.IndexAttempts, c.Queries)
	}
	snap, ok := auto.PolicyStats()
	if !ok || len(snap.Arms) != 3 || snap.Classes == 0 {
		t.Errorf("PolicyStats = %+v, %v", snap, ok)
	}
	if _, ok := race.PolicyStats(); ok {
		t.Error("race-policy engine must not report policy stats")
	}
}

// TestDatasetEngineAutoPolicySurface checks the decision plumbing: the plan
// carries the verdict, the policy degrades to fixed with one index, and the
// mode/policy parsers accept auto.
func TestDatasetEngineAutoPolicySurface(t *testing.T) {
	ds := raceFixtureDataset()
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes: []string{"grapes", "ggsx"}, IndexPolicy: psi.IndexAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.IndexPolicy() != psi.IndexAuto {
		t.Fatalf("IndexPolicy = %q, want auto", eng.IndexPolicy())
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

	// One configured index cannot race: auto degrades to fixed, keeps the
	// cache, and plans carry no decision.
	single, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: []string{"ftv"}, IndexPolicy: psi.IndexAuto})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if single.IndexPolicy() != psi.IndexFixed {
		t.Errorf("single-index auto policy = %q, want fixed", single.IndexPolicy())
	}
	if _, ok := single.PolicyStats(); ok {
		t.Error("degraded engine must not report policy stats")
	}

	if m, err := psi.ParseMode("auto"); err != nil || m != psi.ModeAuto {
		t.Errorf("ParseMode(auto) = %v, %v", m, err)
	}
}

// TestEngineModeAutoMatchesRace is the NFV side of the parity suite: an
// auto-mode engine must find exactly the embeddings the racing engine finds
// (compared as counts — race winners legitimately vary in emission order).
func TestEngineModeAutoMatchesRace(t *testing.T) {
	g := psi.GenerateYeastLike(psi.Tiny, 6)
	auto, err := psi.NewEngine(g, psi.EngineOptions{
		Mode:           psi.ModeAuto,
		AutoMinSamples: 2,
		SoloBudget:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	ref := psi.MustNewMatcher(psi.VF2, g)
	for pass := 0; pass < 4; pass++ {
		for seed := int64(20); seed < 26; seed++ {
			q := psi.ExtractQuery(g, 4+int(seed)%3, seed)
			want, err := ref.Match(context.Background(), q, 10000)
			if err != nil {
				t.Fatal(err)
			}
			res, err := auto.Query(context.Background(), q, 10000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found != len(want) {
				t.Fatalf("pass %d seed %d: auto found %d, reference %d", pass, seed, res.Found, len(want))
			}
			for _, e := range res.Embeddings {
				if err := psi.VerifyEmbedding(q, g, e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c := auto.Counters()
	if c.PolicySolo == 0 || c.PredictedSolo == 0 {
		t.Errorf("ModeAuto never ran a learned solo: %+v", c)
	}
	if snap, ok := auto.PolicyStats(); !ok || len(snap.Arms) != len(auto.Attempts()) {
		t.Errorf("PolicyStats = %+v, %v", snap, ok)
	}
}

// TestDatasetEngineAutoSoloOverrunIsKillEvidence is the first half of the
// evidence regression: a solo run killed by the solo budget must fall back
// to a full race (answers intact) AND be recorded against the arm.
func TestDatasetEngineAutoSoloOverrunIsKillEvidence(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 4)
	opts := psi.EngineOptions{
		Indexes:        []string{"grapes", "ggsx"},
		AutoMinSamples: 1,
		AutoRaceEvery:  -1,
		SoloBudget:     time.Nanosecond, // every solo overruns instantly
	}
	auto, race := autoParityEngines(t, ds, opts)
	q := psi.ExtractQuery(ds[0], 3, 31)
	want, err := race.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		got, err := auto.Query(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.GraphIDs) != len(want.GraphIDs) {
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

// TestDatasetEngineAutoCancelIsNotEvidence is the second half: a caller
// cancellation (client disconnect) must leave the learned statistics — and
// the solo eligibility of the class — completely untouched.
func TestDatasetEngineAutoCancelIsNotEvidence(t *testing.T) {
	ds := psi.GeneratePPI(psi.Tiny, 4)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes:        []string{"grapes", "ggsx"},
		IndexPolicy:    psi.IndexAuto,
		AutoMinSamples: 1,
		AutoRaceEvery:  -1,
		Timeout:        time.Minute, // budgeted engine: the kill path exists but must not fire
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := psi.ExtractQuery(ds[0], 3, 37)
	// Train until the class plans solo.
	solo := false
	for i := 0; i < 8 && !solo; i++ {
		res, err := eng.Query(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
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
		if err := eng.AnswerStream(cancelled, q, func(int) bool { return true }); err == nil {
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
	res, err := eng.Query(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy == nil || !res.Policy.Solo {
		t.Errorf("post-cancellation decision = %+v, want solo", res.Policy)
	}
}

// TestLaunchPolicyIsOneAcrossEngineKinds: Mode and IndexPolicy are two
// spellings of one launch policy, so a stored-graph engine and a dataset
// engine with three arms each must plan the same number of arms, reach the
// same policy decisions and move the same counters over the same query
// sequence — the started work counted in RaceAttempts on one side and
// IndexAttempts on the other.
func TestLaunchPolicyIsOneAcrossEngineKinds(t *testing.T) {
	ds := raceFixtureDataset()
	q := raceFixtureQueries()[0]
	const arms, queries, warmup = 3, 6, 2
	cases := []struct {
		name     string
		mode     psi.Mode
		ixPolicy string
		kind     psi.PlanKind // of every stored-graph plan; "" under auto
		started  int64        // arms started over the sequence
	}{
		{"race", psi.ModeRace, psi.IndexRace, psi.PlanRace, queries * arms},
		{"first", psi.ModeSingle, psi.IndexFixed, psi.PlanFixed, queries},
		{"auto", psi.ModeAuto, psi.IndexAuto, "", warmup*arms + (queries - warmup)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := psi.EngineOptions{
				Rewritings:     []psi.Rewriting{psi.Orig},
				AutoMinSamples: warmup,
				AutoRaceEvery:  -1,
				SoloBudget:     time.Minute,
			}
			nfvOpts := opts
			nfvOpts.Mode = tc.mode
			nfvOpts.Algorithms = []psi.Algorithm{psi.VF2, psi.GraphQL, psi.SPath}
			nfv, err := psi.NewEngine(ds[0], nfvOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer nfv.Close()
			ftvOpts := opts
			ftvOpts.IndexPolicy = tc.ixPolicy
			ftvOpts.Indexes = []string{"ftv", "grapes", "ggsx"}
			dataset, err := psi.NewDatasetEngine(ds, ftvOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer dataset.Close()
			if dataset.IndexPolicy() != tc.ixPolicy || nfv.Mode() != tc.mode || nfv.IndexPolicy() != "" {
				t.Fatalf("policies read back as mode %q / index policy %q and %q", nfv.Mode(), dataset.IndexPolicy(), nfv.IndexPolicy())
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
				solo := tc.name == "auto" && i >= warmup
				wantKind, wantArms := tc.kind, arms
				if tc.name == "auto" {
					wantKind = psi.PlanRace
				}
				if solo {
					wantKind = psi.PlanPredicted
				}
				if solo || tc.name == "first" {
					wantArms = 1
				}
				if np.Kind != wantKind || len(np.Attempts) != wantArms || (np.Predicted >= 0) != solo {
					t.Fatalf("query %d: stored-graph plan %s over %d attempts (predicted %d), want %s over %d", i, np.Kind, len(np.Attempts), np.Predicted, wantKind, wantArms)
				}
				if dp.Kind != psi.PlanFTV || dp.IndexPolicy != tc.ixPolicy || len(dp.Indexes) != arms {
					t.Fatalf("query %d: dataset plan %s, policy %q over %v", i, dp.Kind, dp.IndexPolicy, dp.Indexes)
				}
				if (np.Decision == nil) != (tc.name != "auto") || (dp.Decision == nil) != (np.Decision == nil) {
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
				dr, err := dataset.Execute(context.Background(), dp, 0)
				if err != nil {
					t.Fatal(err)
				}
				if nr.Policy != np.Decision || dr.Policy != dp.Decision || nr.FellBack || dr.FellBack {
					t.Fatalf("query %d: results %+v / %+v", i, nr, dr)
				}
				if tc.name == "first" && (nr.Winner != "VF2-Orig" || dr.Winner != dataset.IndexStats()[0].Name) {
					t.Fatalf("query %d: fixed winners %q / %q, want the first arm of each portfolio", i, nr.Winner, dr.Winner)
				}
				if n := len(dr.IndexAttempts); n != wantArms {
					t.Fatalf("query %d: %d index attempts reported, want %d", i, n, wantArms)
				}
			}
			nc, dc := nfv.Counters(), dataset.Counters()
			if nc.RaceAttempts != tc.started || dc.IndexAttempts != tc.started {
				t.Errorf("started %d attempts / %d index pipelines, want %d each", nc.RaceAttempts, dc.IndexAttempts, tc.started)
			}
			type shared struct{ queries, killed, errs, fallbacks, solo, races, escalations int64 }
			n := shared{nc.Queries, nc.Killed, nc.Errors, nc.Fallbacks, nc.PolicySolo, nc.PolicyRaces, nc.PolicyEscalations}
			d := shared{dc.Queries, dc.Killed, dc.Errors, dc.Fallbacks, dc.PolicySolo, dc.PolicyRaces, dc.PolicyEscalations}
			want := shared{queries: queries}
			if tc.name == "auto" {
				want.solo, want.races = queries-warmup, warmup
			}
			if n != want || d != want {
				t.Errorf("counters %+v / %+v, want %+v", n, d, want)
			}
			if want := int64(queries - warmup); tc.name == "auto" && nc.PredictedSolo != want {
				t.Errorf("PredictedSolo = %d, want %d", nc.PredictedSolo, want)
			}
		})
	}
}

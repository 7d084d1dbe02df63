package main

import (
	"context"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

// TestModeReachesDatasetEngines: a dataset engine reads its launch policy
// from IndexPolicy, so -mode must arrive there. Under -mode single no query
// races verifiers and the first -index name's verifier answers every one;
// under -mode race every query does race them; -mode auto is the learned
// policy.
func TestModeReachesDatasetEngines(t *testing.T) {
	ds := psi.GenerateSynthetic(psi.Tiny, 1)
	const queries = 5
	cases := []struct {
		mode, policy string
		races        int64 // queries that race the verifiers; -1: not checked
	}{
		{"single", psi.IndexFixed, 0},
		{"race", psi.IndexRace, queries},
		{"auto", psi.IndexAuto, -1},
	}
	for _, c := range cases {
		eng, err := newEngine(ds, engineFlags{algos: "GQL", rewritings: "Orig", mode: c.mode, index: "ftv,grapes", workers: 1, timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if eng.IndexPolicy() != c.policy {
			t.Errorf("-mode %s: index policy %q, want %q", c.mode, eng.IndexPolicy(), c.policy)
		}
		for seed := int64(1); seed <= queries; seed++ {
			res, err := eng.Query(context.Background(), psi.ExtractQuery(ds[int(seed)%len(ds)], 3, seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			if c.mode == "single" && res.Winner != "FTV" {
				t.Errorf("-mode single: winner %q, want the first name's verifier FTV", res.Winner)
			}
		}
		if races := eng.Counters().IndexRaces; c.races >= 0 && races != c.races {
			t.Errorf("-mode %s: %d of %d queries raced the verifiers", c.mode, races, queries)
		}
	}
}

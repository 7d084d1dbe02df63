package main

import (
	"context"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/cli"
)

// TestModeReachesDatasetEngines: a dataset engine reads its launch policy
// from IndexPolicy, so -mode must arrive there, and the engine reports it
// back as its Mode. Under -mode single no query races verifiers and the
// first -index name's verifier answers every one; under -mode race every
// query does race them; -mode auto is the learned policy.
func TestModeReachesDatasetEngines(t *testing.T) {
	ds := psi.GenerateSynthetic(psi.Tiny, 1)
	const queries = 5
	cases := []struct {
		mode  psi.Mode
		races int64 // queries that race the verifiers; -1: not checked
	}{
		{psi.ModeSingle, 0},
		{psi.ModeRace, queries},
		{psi.ModeAuto, -1},
	}
	for _, c := range cases {
		f := cli.Flags{Algos: "GQL", Rewritings: "Orig", Mode: string(c.mode), Index: "ftv,grapes", Workers: 1, Timeout: time.Minute}
		cfg, err := f.Parse(map[string]bool{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cfg.NewEngine(ds)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if eng.Graph() != nil || eng.Mode() != c.mode {
			t.Errorf("-mode %s: built a dataset engine %v under mode %q", c.mode, eng.Graph() == nil, eng.Mode())
		}
		for seed := int64(1); seed <= queries; seed++ {
			res, err := eng.Query(context.Background(), psi.ExtractQuery(ds[int(seed)%len(ds)], 3, seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			if c.mode == psi.ModeSingle && res.Winner != "FTV" {
				t.Errorf("-mode single: winner %q, want the first name's verifier FTV", res.Winner)
			}
		}
		if races := eng.Counters().IndexRaces; c.races >= 0 && races != c.races {
			t.Errorf("-mode %s: %d of %d queries raced the verifiers", c.mode, races, queries)
		}
	}
}

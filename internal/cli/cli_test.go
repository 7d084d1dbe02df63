package cli

import (
	"context"
	"flag"
	"reflect"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

// baseFlags is the flag set every row starts from: Register's defaults where
// they are non-zero, and a value a row can tell from a dropped field where
// the default is the zero value.
var baseFlags = Flags{
	Algos: "GQL,SPA", Rewritings: "Orig,DND", Mode: "auto", Index: "race",
	Shards: 1, Workers: 3, CompactEvery: 5,
	Timeout: time.Minute, Mutable: true,
	Snapshot: "s.psisnap",
}

// TestRegisterDefaults: both commands register one flag set with one set of
// defaults.
func TestRegisterDefaults(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := Flags{Algos: "GQL,SPA", Rewritings: "Orig,DND", Mode: "race", Index: "race", Workers: 1, Timeout: 10 * time.Minute}
	if f != want {
		t.Errorf("defaults %+v, want %+v", f, want)
	}
}

// TestNewEngine: the engine-kind rule as NewEngine applies it. One graph
// builds a stored-graph engine under -mode unless -index is explicit, which
// builds a dataset engine over that graph with -mode as its index policy;
// there, -mode single answers every query with the first -index name's
// verifier and races none. The flag mapping over cold starts and larger
// datasets, and the bad-value errors, are psiserve's table; -mode on a
// dataset engine is psiquery's.
func TestNewEngine(t *testing.T) {
	ds := psi.GenerateSynthetic(psi.Tiny, 1)
	const queries = 5
	for _, tc := range []struct {
		name     string
		flags    Flags
		explicit []string
		want     psi.EngineOptions
		dataset  bool
		mode     psi.Mode
	}{
		{
			name: "one graph builds a stored-graph engine",
			flags: Flags{Algos: "QSI,VF2", Rewritings: "Orig", Mode: "auto", Index: "ftv",
				Shards: 4, Workers: 1, Timeout: time.Minute},
			explicit: []string{"shards"},
			want: psi.EngineOptions{
				Algorithms: []psi.Algorithm{psi.QuickSI, psi.VF2}, Mode: psi.ModeAuto,
				Rewritings: []psi.Rewriting{psi.Orig}, Timeout: time.Minute, IndexWorkers: 1,
			},
			mode: psi.ModeAuto,
		},
		{
			name: "an explicit -index on one graph builds a dataset engine",
			flags: Flags{Algos: "GQL,SPA", Rewritings: "Orig,DND", Mode: "single", Index: "ftv,grapes",
				Shards: 1, Workers: 3, CompactEvery: 5, Timeout: time.Minute},
			explicit: []string{"index"}, dataset: true,
			want: psi.EngineOptions{
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexFixed, CompactEvery: 5,
				Shards: 1, Indexes: []string{"ftv", "grapes"},
			},
			mode: psi.ModeSingle,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			explicit := map[string]bool{}
			for _, name := range tc.explicit {
				explicit[name] = true
			}
			cfg, err := tc.flags.Parse(explicit)
			if err != nil {
				t.Fatal(err)
			}
			got, dataset := cfg.Options(1)
			if !reflect.DeepEqual(got, tc.want) || dataset != tc.dataset {
				t.Errorf("options (dataset %v)\n got %+v\nwant %+v (dataset %v)", dataset, got, tc.want, tc.dataset)
			}
			eng, err := cfg.NewEngine(ds[:1])
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if eng.Mode() != tc.mode || (eng.Graph() == nil) != tc.dataset {
				t.Fatalf("built a dataset engine %v under mode %q, want %v under %q", eng.Graph() == nil, eng.Mode(), tc.dataset, tc.mode)
			}
			if !tc.dataset {
				return
			}
			for seed := int64(1); seed <= queries; seed++ {
				res, err := eng.Query(context.Background(), psi.ExtractQuery(ds[0], 3, seed), 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Winner != "FTV" {
					t.Errorf("-mode single: winner %q, want the first name's verifier FTV", res.Winner)
				}
			}
			if races := eng.Counters().IndexRaces; races != 0 {
				t.Errorf("%d of %d queries raced the verifiers under -mode single", races, queries)
			}
		})
	}
}

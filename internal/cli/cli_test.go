package cli

import (
	"context"
	"flag"
	"reflect"
	"strings"
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

// with is baseFlags after edit.
func with(edit func(*Flags)) Flags {
	f := baseFlags
	edit(&f)
	return f
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

// optionsCase is a flag set, the flags the command line set, and the engine
// options it maps onto for a dataset of the given size.
type optionsCase struct {
	name     string
	flags    Flags
	explicit []string
	graphs   int
	want     psi.EngineOptions
	dataset  bool
}

// config parses the row's flags and fails the test unless they map onto the
// row's options.
func (tc optionsCase) config(t *testing.T) *Config {
	t.Helper()
	explicit := map[string]bool{}
	for _, name := range tc.explicit {
		explicit[name] = true
	}
	cfg, err := tc.flags.Parse(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if got, dataset := cfg.Options(tc.graphs); !reflect.DeepEqual(got, tc.want) || dataset != tc.dataset {
		t.Errorf("options (dataset %v)\n got %+v\nwant %+v (dataset %v)", dataset, got, tc.want, tc.dataset)
	}
	return cfg
}

// TestEngineOptions: the flag mapping over cold starts, one graph and larger
// datasets.
func TestEngineOptions(t *testing.T) {
	all := []string{"ftv", "ggsx", "grapes"}
	for _, tc := range []optionsCase{
		{
			name:  "cold start forwards the runtime knobs and leaves portfolio and shards to the file",
			flags: baseFlags, graphs: 0, dataset: true,
			want: psi.EngineOptions{
				Snapshot:   "s.psisnap",
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexAuto, Mutable: true, CompactEvery: 5,
			},
		},
		{
			name:     "cold start forwards -shards and -index once explicit",
			flags:    with(func(f *Flags) { f.Shards, f.Index = 4, "ftv,ggsx" }),
			explicit: []string{"shards", "index"}, graphs: 0, dataset: true,
			want: psi.EngineOptions{
				Snapshot:   "s.psisnap",
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexAuto, Mutable: true, CompactEvery: 5,
				Shards: 4, Indexes: []string{"ftv", "ggsx"},
			},
		},
		{
			// An explicit -index on one graph builds a dataset engine
			// instead (TestNewEngine), so only -shards is explicit here.
			name: "one graph takes -algos and -mode and ignores the index flags",
			flags: with(func(f *Flags) {
				f.Algos, f.Mode, f.Rewritings = "QSI, VF2", "auto", "Or,ILF"
				f.Shards, f.Index = 4, "ftv"
			}),
			explicit: []string{"shards"}, graphs: 1,
			want: psi.EngineOptions{
				Algorithms: []psi.Algorithm{psi.QuickSI, psi.VF2}, Mode: psi.ModeAuto,
				Rewritings: []psi.Rewriting{psi.Orig, psi.ILF},
				Timeout:    time.Minute, IndexWorkers: 3,
			},
		},
		{
			name: "-mode single on a dataset sets IndexPolicy fixed",
			flags: with(func(f *Flags) {
				f.Algos, f.Mode, f.Shards = "VF2", "single", 2
			}),
			graphs: 24, dataset: true,
			want: psi.EngineOptions{
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexFixed, Mutable: true, CompactEvery: 5,
				Shards: 2, Indexes: all,
			},
		},
		{
			name:   "-mode auto on a dataset sets IndexPolicy auto and ignores -algos",
			flags:  with(func(f *Flags) { f.Algos = "VF2" }),
			graphs: 24, dataset: true,
			want: psi.EngineOptions{
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexAuto, Mutable: true, CompactEvery: 5,
				Shards: 1, Indexes: all,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.config(t) })
	}
}

// A bad value is an error before the dataset size is known, so a misspelt
// flag never costs a dataset load's worth of index building first.
func TestEngineOptionsRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Flags)
		want string // a fragment of the error
	}{
		{"mode", func(f *Flags) { f.Mode = "fastest" }, `-mode: psi: unknown mode "fastest"`},
		{"mode predict", func(f *Flags) { f.Mode = "predict" }, "want race, single or auto"},
		{"index", func(f *Flags) { f.Index = "ftv,btree" }, `-index: psi: unknown index kind "btree"`},
		{"duplicate index", func(f *Flags) { f.Index = "ftv,ftv" }, "duplicate index kind"},
		{"rewritings", func(f *Flags) { f.Rewritings = "Orig,XYZ" }, `-rewritings: rewrite: unknown rewriting "XYZ"`},
		{"algos", func(f *Flags) { f.Algos = "GQL,Ullmann" }, `-algos: psi: unknown algorithm "Ullmann"`},
	} {
		f := with(tc.edit)
		if _, err := f.Parse(map[string]bool{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad -%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// checkLaunches builds cfg's engine over ds and fails the test unless it is
// the engine kind dataset asks for, under mode. On a dataset engine it asks
// five queries: under -mode single the first -index name's verifier answers
// every one, and races counts the queries that race the verifiers (-1: not
// checked).
func checkLaunches(t *testing.T, cfg *Config, ds []*psi.Graph, dataset bool, mode psi.Mode, races int64) {
	t.Helper()
	const queries = 5
	eng, err := cfg.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Mode() != mode || (eng.Graph() == nil) != dataset {
		t.Fatalf("built a dataset engine %v under mode %q, want %v under %q", eng.Graph() == nil, eng.Mode(), dataset, mode)
	}
	if !dataset {
		return
	}
	for seed := int64(1); seed <= queries; seed++ {
		res, err := eng.Query(context.Background(), psi.ExtractQuery(ds[int(seed)%len(ds)], 3, seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		if mode == psi.ModeSingle && res.Winner != "FTV" {
			t.Errorf("-mode single: winner %q, want the first name's verifier FTV", res.Winner)
		}
	}
	if n := eng.Counters().IndexRaces; races >= 0 && n != races {
		t.Errorf("-mode %s: %d of %d queries raced the verifiers, want %d", mode, n, queries, races)
	}
}

// TestNewEngine: the engine-kind rule as NewEngine applies it. One graph
// builds a stored-graph engine under -mode unless -index is explicit, which
// builds a dataset engine over that graph with -mode as its index policy;
// there, -mode single answers every query with the first -index name's
// verifier and races none.
func TestNewEngine(t *testing.T) {
	ds := psi.GenerateSynthetic(psi.Tiny, 1)
	for _, tc := range []struct {
		optionsCase
		mode psi.Mode
	}{
		{optionsCase{
			name: "one graph builds a stored-graph engine",
			flags: Flags{Algos: "QSI,VF2", Rewritings: "Orig", Mode: "auto", Index: "ftv",
				Shards: 4, Workers: 1, Timeout: time.Minute},
			explicit: []string{"shards"}, graphs: 1,
			want: psi.EngineOptions{
				Algorithms: []psi.Algorithm{psi.QuickSI, psi.VF2}, Mode: psi.ModeAuto,
				Rewritings: []psi.Rewriting{psi.Orig}, Timeout: time.Minute, IndexWorkers: 1,
			},
		}, psi.ModeAuto},
		{optionsCase{
			name: "an explicit -index on one graph builds a dataset engine",
			flags: Flags{Algos: "GQL,SPA", Rewritings: "Orig,DND", Mode: "single", Index: "ftv,grapes",
				Shards: 1, Workers: 3, CompactEvery: 5, Timeout: time.Minute},
			explicit: []string{"index"}, graphs: 1, dataset: true,
			want: psi.EngineOptions{
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexFixed, CompactEvery: 5,
				Shards: 1, Indexes: []string{"ftv", "grapes"},
			},
		}, psi.ModeSingle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLaunches(t, tc.config(t), ds[:1], tc.dataset, tc.mode, 0)
		})
	}
}

// TestModeReachesDatasetEngines: a dataset engine reads its launch policy
// from IndexPolicy, so -mode must arrive there, and the engine reports it
// back as its Mode. Under -mode single no query races verifiers and the
// first -index name's verifier answers every one; under -mode race every
// query does race them; -mode auto is the learned policy.
func TestModeReachesDatasetEngines(t *testing.T) {
	ds := psi.GenerateSynthetic(psi.Tiny, 1)
	for _, c := range []struct {
		mode  psi.Mode
		races int64
	}{
		{psi.ModeSingle, 0},
		{psi.ModeRace, 5},
		{psi.ModeAuto, -1},
	} {
		f := Flags{Algos: "GQL", Rewritings: "Orig", Mode: string(c.mode), Index: "ftv,grapes", Workers: 1, Timeout: time.Minute}
		cfg, err := f.Parse(map[string]bool{})
		if err != nil {
			t.Fatal(err)
		}
		checkLaunches(t, cfg, ds, true, c.mode, c.races)
	}
}

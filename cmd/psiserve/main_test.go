package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/cli"
)

// baseFlags is the flag set every row starts from: the registered defaults
// where they are non-zero, and a value a row can tell from a dropped field
// where the default is the zero value.
var baseFlags = cli.Flags{
	Algos: "GQL,SPA", Rewritings: "Orig,DND", Mode: "auto", Index: "race",
	Shards: 1, Workers: 3, CompactEvery: 5,
	Timeout: time.Minute, Mutable: true,
	Snapshot: "s.psisnap",
}

func TestEngineOptions(t *testing.T) {
	with := func(edit func(*cli.Flags)) cli.Flags {
		f := baseFlags
		edit(&f)
		return f
	}
	all := []string{"ftv", "ggsx", "grapes"}
	for _, tc := range []struct {
		name     string
		flags    cli.Flags
		explicit []string
		graphs   int
		want     psi.EngineOptions
		dataset  bool
	}{
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
			flags:    with(func(f *cli.Flags) { f.Shards, f.Index = 4, "ftv,ggsx" }),
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
			// instead (internal/cli's TestNewEngine), so only -shards is
			// explicit here.
			name: "one graph takes -algos and -mode and ignores the index flags",
			flags: with(func(f *cli.Flags) {
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
			flags: with(func(f *cli.Flags) {
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
			flags:  with(func(f *cli.Flags) { f.Algos = "VF2" }),
			graphs: 24, dataset: true,
			want: psi.EngineOptions{
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexAuto, Mutable: true, CompactEvery: 5,
				Shards: 1, Indexes: all,
			},
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
			got, dataset := cfg.Options(tc.graphs)
			if !reflect.DeepEqual(got, tc.want) || dataset != tc.dataset {
				t.Errorf("options (dataset %v)\n got %+v\nwant %+v (dataset %v)", dataset, got, tc.want, tc.dataset)
			}
		})
	}
}

// A bad value is an error before the dataset size is known, so a misspelt
// flag never costs a dataset load's worth of index building first.
func TestEngineOptionsRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*cli.Flags)
		want string // a fragment of the error
	}{
		{"mode", func(f *cli.Flags) { f.Mode = "fastest" }, `-mode: psi: unknown mode "fastest"`},
		{"mode predict", func(f *cli.Flags) { f.Mode = "predict" }, "want race, single or auto"},
		{"index", func(f *cli.Flags) { f.Index = "ftv,btree" }, `-index: psi: unknown index kind "btree"`},
		{"duplicate index", func(f *cli.Flags) { f.Index = "ftv,ftv" }, "duplicate index kind"},
		{"rewritings", func(f *cli.Flags) { f.Rewritings = "Orig,XYZ" }, `-rewritings: rewrite: unknown rewriting "XYZ"`},
		{"algos", func(f *cli.Flags) { f.Algos = "GQL,Ullmann" }, `-algos: psi: unknown algorithm "Ullmann"`},
	} {
		f := baseFlags
		tc.edit(&f)
		_, err := f.Parse(map[string]bool{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad -%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

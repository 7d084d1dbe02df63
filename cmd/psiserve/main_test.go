package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
)

// baseFlags is the flag set every row starts from: main's baseFlags where they
// are non-zero, and a value a row can tell from a dropped field where the
// default is the zero value.
var baseFlags = engineFlags{
	algos: "GQL,SPA", rewritings: "Orig,DND", mode: "race",
	index: "race", policy: "auto",
	shards: 1, workers: 3, compactEvery: 5,
	timeout: time.Minute, mutable: true,
	snapshot: "s.psisnap",
}

func TestEngineOptions(t *testing.T) {
	with := func(edit func(*engineFlags)) engineFlags {
		f := baseFlags
		edit(&f)
		return f
	}
	all := []string{"ftv", "ggsx", "grapes"}
	for _, tc := range []struct {
		name     string
		flags    engineFlags
		explicit []string
		graphs   int
		want     psi.EngineOptions
	}{
		{
			name:  "cold start forwards the runtime knobs and leaves portfolio and shards to the file",
			flags: baseFlags, graphs: 0,
			want: psi.EngineOptions{
				Snapshot:   "s.psisnap",
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexAuto, Mutable: true, CompactEvery: 5,
			},
		},
		{
			name:     "cold start forwards -shards and -index once explicit",
			flags:    with(func(f *engineFlags) { f.shards, f.index = 4, "ftv,ggsx" }),
			explicit: []string{"shards", "index"}, graphs: 0,
			want: psi.EngineOptions{
				Snapshot:   "s.psisnap",
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexAuto, Mutable: true, CompactEvery: 5,
				Shards: 4, Indexes: []string{"ftv", "ggsx"},
			},
		},
		{
			name: "one graph takes -algos and -mode and ignores the index flags",
			flags: with(func(f *engineFlags) {
				f.algos, f.mode, f.rewritings = "QSI, VF2", "auto", "Or,ILF"
				f.shards, f.index = 4, "ftv"
			}),
			explicit: []string{"shards", "index"}, graphs: 1,
			want: psi.EngineOptions{
				Algorithms: []psi.Algorithm{psi.QuickSI, psi.VF2}, Mode: psi.ModeAuto,
				Rewritings: []psi.Rewriting{psi.Orig, psi.ILF},
				Timeout:    time.Minute, IndexWorkers: 3,
			},
		},
		{
			name: "a dataset takes the index flags and ignores -algos and -mode",
			flags: with(func(f *engineFlags) {
				f.algos, f.mode = "VF2", "single"
				f.shards, f.policy = 2, "fixed"
			}),
			graphs: 24,
			want: psi.EngineOptions{
				Rewritings: []psi.Rewriting{psi.Orig, psi.DND},
				Timeout:    time.Minute, IndexWorkers: 3,
				IndexPolicy: psi.IndexFixed, Mutable: true, CompactEvery: 5,
				Shards: 2, Indexes: all,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			explicit := map[string]bool{}
			for _, name := range tc.explicit {
				explicit[name] = true
			}
			got, err := engineOptions(tc.flags, explicit, tc.graphs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("options\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// A bad value is an error whatever the dataset shape, so a misspelt flag
// never costs a dataset load's worth of index building first.
func TestEngineOptionsRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*engineFlags)
		want string // a fragment of the error
	}{
		{"mode", func(f *engineFlags) { f.mode = "fastest" }, `unknown mode "fastest"`},
		{"mode predict", func(f *engineFlags) { f.mode = "predict" }, "want race, single or auto"},
		{"index", func(f *engineFlags) { f.index = "ftv,btree" }, `unknown index kind "btree"`},
		{"duplicate index", func(f *engineFlags) { f.index = "ftv,ftv" }, "duplicate index kind"},
		{"rewritings", func(f *engineFlags) { f.rewritings = "Orig,XYZ" }, "XYZ"},
		{"algos", func(f *engineFlags) { f.algos = "GQL,Ullmann" }, `unknown algorithm "Ullmann"`},
	} {
		for _, graphs := range []int{0, 1, 24} {
			f := baseFlags
			tc.edit(&f)
			_, err := engineOptions(f, map[string]bool{}, graphs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("bad -%s over %d graphs: err = %v, want one containing %q", tc.name, graphs, err, tc.want)
			}
		}
	}
}

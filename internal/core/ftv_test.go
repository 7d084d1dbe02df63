package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/ftv"
	"github.com/psi-graph/psi/internal/grapes"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/vf2"
)

func buildDataset(r *rand.Rand, numGraphs, n, labels int) []*graph.Graph {
	ds := make([]*graph.Graph, numGraphs)
	for i := range ds {
		ds[i] = randomStored(r, n, n/2, labels)
	}
	return ds
}

func TestFTVRacerName(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds := buildDataset(r, 2, 10, 2)
	x := grapes.Build(ds, grapes.Options{})
	f := NewFTVRacer(x, []rewrite.Kind{rewrite.ILF, rewrite.ILFIND})
	want := "Ψ(Grapes/1: ILF/ILF+IND)"
	if f.Name() != want {
		t.Errorf("Name = %q, want %q", f.Name(), want)
	}
}

func TestFTVRacerNeedsRewritings(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := buildDataset(r, 1, 8, 2)
	f := NewFTVRacer(grapes.Build(ds, grapes.Options{}), nil)
	_, err := f.Verify(context.Background(), ds[0], 0)
	if err == nil {
		t.Error("expected error for empty rewriting list")
	}
}

func TestFTVRacerAnswerMatchesPlainPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ds := buildDataset(r, 6, 14, 3)
	ggsx, err := index.Build(context.Background(), index.KindGGSX, ds, index.Options{MaxPathLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []index.Index{grapes.Build(ds, grapes.Options{MaxPathLen: 3}), ggsx} {
		xs := []index.Index{idx}
		kinds := []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.IND, rewrite.DND}
		for trial := 0; trial < 8; trial++ {
			q := extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(4))
			want, err := ftv.Answer(context.Background(), idx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := collect(context.Background(), nil, kinds, xs, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: raced answer %v, plain answer %v",
					idx.Name(), trial, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: raced answer %v, plain answer %v",
						idx.Name(), trial, got, want)
				}
			}
		}
	}
}

func TestFTVRacerAnswerMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ds := buildDataset(r, 5, 12, 3)
	x := grapes.Build(ds, grapes.Options{})
	xs := []index.Index{x}
	kinds := append([]rewrite.Kind{rewrite.Orig}, rewrite.Structured...)
	for trial := 0; trial < 6; trial++ {
		q := extractQuery(r, ds[r.Intn(len(ds))], 3)
		got, _, err := collect(context.Background(), nil, kinds, xs, q)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for id, g := range ds {
			embs, err := vf2.Match(context.Background(), q, g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(embs) > 0 {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestFTVRacerWinnerIsAConfiguredRewriting(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ds := buildDataset(r, 3, 12, 2)
	kinds := []rewrite.Kind{rewrite.ILF, rewrite.DND}
	f := NewFTVRacer(grapes.Build(ds, grapes.Options{}), kinds)
	q := extractQuery(r, ds[0], 3)
	ids := f.Index.Filter(q)
	if len(ids) == 0 {
		t.Skip("filter pruned everything (unlucky seed)")
	}
	res, err := f.Verify(context.Background(), q, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != rewrite.ILF && res.Winner != rewrite.DND {
		t.Errorf("winner %v not among configured rewritings", res.Winner)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed should be positive")
	}
	if !strings.Contains(f.Name(), "Grapes") {
		t.Error("name should mention the wrapped index")
	}
}

// TestFTVRacerOverGrapesFanOut: rewriting attempts run as Go tasks, which
// may hold the pool's workers, and Grapes/4 fans the candidate's components
// out from inside them. On a 1-worker pool shared by the race and the index
// that fan-out must not wait for a worker.
func TestFTVRacerOverGrapesFanOut(t *testing.T) {
	b := graph.NewBuilder("copies")
	for c := 0; c < 4; c++ {
		base := b.N()
		for _, l := range []graph.Label{0, 1, 2, 0} {
			b.AddVertex(l)
		}
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
			if err := b.AddEdge(base+e[0], base+e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds := []*graph.Graph{b.MustBuild()}
	pool := exec.New(1)
	defer pool.Close()
	f := NewFTVRacer(grapes.Build(ds, grapes.Options{Workers: 4, Pool: pool}), []rewrite.Kind{rewrite.Orig, rewrite.DND})
	f.Pool = pool
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	done := make(chan error, 1)
	go func() {
		res, err := f.Verify(context.Background(), q, 0)
		if err == nil && !res.Contained {
			err = fmt.Errorf("Verify = %+v, want contained", res)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the component fan-out waited for the worker its own attempt holds")
	}
}

// BenchmarkRaceInstances is the fixed cost of one per-candidate rewriting
// race — a context, a channel and R pool hand-offs — over a stub index that
// verifies at once. A dataset query pays it once per candidate, which is why
// raceInstances runs on firstDone and not on streamRace.
func BenchmarkRaceInstances(b *testing.B) {
	ds := newStubDataset(1)
	xs := []ftv.Index{&stubIndex{name: "stub", ds: ds, ids: []int{0}, verify: instantVerify}}
	pool := exec.New(2)
	defer pool.Close()
	for _, kinds := range [][]rewrite.Kind{{rewrite.Orig}, {rewrite.Orig, rewrite.DND}} {
		qs := instances(ds[0], nil, kinds)
		b.Run(fmt.Sprintf("R=%d", len(kinds)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := raceInstances(context.Background(), pool, xs, qs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

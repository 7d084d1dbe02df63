package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/exec"
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

// buildIndex builds the one-shard index of kind over ds.
func buildIndex(t testing.TB, kind string, ds []*graph.Graph, opts index.Options) *index.Sharded {
	t.Helper()
	x, err := index.Build(context.Background(), kind, ds, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestRaceInstancesNeedsRewritings: the per-candidate race refuses an empty
// rewriting list, and an empty verifier list.
func TestRaceInstancesNeedsRewritings(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := buildDataset(r, 1, 8, 2)
	xs := []index.Index{buildIndex(t, index.KindGrapes, ds, index.Options{})}
	if _, _, err := RaceInstances(context.Background(), nil, xs, nil, 0); err == nil {
		t.Error("expected error for empty rewriting list")
	}
	if _, _, err := RaceInstances(context.Background(), nil, nil, Instances(ds[0], nil, []rewrite.Kind{rewrite.Orig}), 0); err == nil {
		t.Error("expected error for empty verifier list")
	}
}

func TestRaceInstancesAnswerMatchesPlainPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ds := buildDataset(r, 6, 14, 3)
	for _, kind := range []string{index.KindGrapes, index.KindGGSX} {
		idx := buildIndex(t, kind, ds, index.Options{MaxPathLen: 3})
		xs := []index.Index{idx}
		kinds := []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.IND, rewrite.DND}
		for trial := 0; trial < 8; trial++ {
			q := extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(4))
			want, err := index.SequentialAnswer(context.Background(), idx, q)
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

func TestRaceInstancesAnswerMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ds := buildDataset(r, 5, 12, 3)
	xs := []index.Index{buildIndex(t, index.KindGrapes, ds, index.Options{})}
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

// TestRaceInstancesOverGrapesFanOut: the per-candidate race's attempts run as Go
// tasks, which may hold the pool's workers, and Grapes/4 fans the
// candidate's components out from inside them. On a 1-worker pool shared by
// the race and the index that fan-out must not wait for a worker.
func TestRaceInstancesOverGrapesFanOut(t *testing.T) {
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
	xs := []index.Index{buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 4, Pool: pool})}
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	qs := Instances(q, rewrite.FrequenciesOfDataset(ds), []rewrite.Kind{rewrite.Orig, rewrite.DND})
	done := make(chan error, 1)
	go func() {
		contained, _, err := RaceInstances(context.Background(), pool, xs, qs, 0)
		if err == nil && !contained {
			err = fmt.Errorf("RaceInstances = false, want contained")
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
// RaceInstances runs on firstDone and not on streamRace.
func BenchmarkRaceInstances(b *testing.B) {
	ds := newStubDataset(1)
	xs := []index.Index{&stubIndex{name: "stub", ds: ds, ids: []int{0}, verify: instantVerify}}
	pool := exec.New(2)
	defer pool.Close()
	for _, kinds := range [][]rewrite.Kind{{rewrite.Orig}, {rewrite.Orig, rewrite.DND}} {
		qs := Instances(ds[0], nil, kinds)
		b.Run(fmt.Sprintf("R=%d", len(kinds)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := RaceInstances(context.Background(), pool, xs, qs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

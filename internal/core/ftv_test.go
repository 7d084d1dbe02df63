package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/workload"
)

// buildIndex builds the one-shard index of kind over ds and returns it with
// kind's verifier.
func buildIndex(t testing.TB, kind string, ds []*graph.Graph, opts index.Options) (*index.Sharded, index.Verifier) {
	t.Helper()
	x, err := index.Build(context.Background(), kind, ds, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := index.NewVerifier(kind, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x, v
}

// TestRaceInstancesNeedsRewritings: the per-candidate race and the pipeline
// refuse an empty rewriting list.
func TestRaceInstancesNeedsRewritings(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := difftest.Random(r, 1, 8, 2)
	x, v := buildIndex(t, index.KindGrapes, ds, index.Options{})
	if _, _, err := RaceInstances(context.Background(), nil, x, v, nil, 0); err == nil {
		t.Error("RaceInstances: expected error for empty rewriting list")
	}
	if _, _, err := collect(context.Background(), nil, nil, x, v, ds[0]); err == nil {
		t.Error("StreamFTV: expected error for empty rewriting list")
	}
}

// checkRaceAnswers races each kind's verifier under every rewriting of
// kinds, per candidate, over trials queries workload.Extract grows in ds, of
// edges() edges each, and compares the streamed answer with want's.
func checkRaceAnswers(t *testing.T, r *rand.Rand, ds []*graph.Graph, names []string, opts index.Options, kinds []rewrite.Kind, trials int, edges func() int, want func(x *index.Sharded, q *graph.Graph) ([]int, error)) {
	t.Helper()
	for _, name := range names {
		x, v := buildIndex(t, name, ds, opts)
		for trial := 0; trial < trials; trial++ {
			q := workload.Extract(r, ds[r.Intn(len(ds))], edges())
			w, err := want(x, q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := collect(context.Background(), nil, kinds, x, v, q)
			if err != nil || !slices.Equal(got, w) {
				t.Fatalf("%s trial %d: raced answer %v, %v; want %v", x.Name(), trial, got, err, w)
			}
		}
	}
}

// TestRaceInstancesAnswerMatchesPlainPipeline: Grapes' and GGSX's raced
// answers under four rewritings are their sequential answers.
func TestRaceInstancesAnswerMatchesPlainPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ds := difftest.Random(r, 6, 14, 3)
	checkRaceAnswers(t, r, ds, []string{index.KindGrapes, index.KindGGSX}, index.Options{MaxPathLen: 3},
		[]rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.IND, rewrite.DND}, 8, func() int { return 2 + r.Intn(4) },
		func(x *index.Sharded, q *graph.Graph) ([]int, error) {
			return index.SequentialAnswer(context.Background(), x, q)
		})
}

// TestRaceInstancesAnswerMatchesBruteForce: Grapes' raced answer under every
// structured rewriting is the oracle's.
func TestRaceInstancesAnswerMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ds := difftest.Random(r, 5, 12, 3)
	checkRaceAnswers(t, r, ds, []string{index.KindGrapes}, index.Options{},
		append([]rewrite.Kind{rewrite.Orig}, rewrite.Structured...), 6, func() int { return 3 },
		func(_ *index.Sharded, q *graph.Graph) ([]int, error) { return difftest.Want(ds, q), nil })
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
	x, v := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 4, Pool: pool})
	q := graph.MustNew("q", []graph.Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	qs := Instances(q, rewrite.FrequenciesOfDataset(ds), []rewrite.Kind{rewrite.Orig, rewrite.DND})
	done := make(chan error, 1)
	go func() {
		contained, _, err := RaceInstances(context.Background(), pool, x, v, qs, 0)
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

// raceStub is one candidate's race at its fixed cost: a one-graph table and
// a verifier that decides at once.
func raceStub(tb testing.TB) (*index.Sharded, index.Verifier) {
	return stubTable(tb, 1, 0), &stubVerifier{verify: []verifyFunc{instantVerify}}
}

// BenchmarkRaceInstances is the fixed cost of one per-candidate rewriting
// race — a context, a channel and R pool hand-offs — over a stub verifier
// that decides at once. A dataset query pays it once per candidate, which is
// why RaceInstances runs on firstDone and not on streamRace.
func BenchmarkRaceInstances(b *testing.B) {
	x, v := raceStub(b)
	pool := exec.New(2)
	defer pool.Close()
	for _, kinds := range [][]rewrite.Kind{{rewrite.Orig}, {rewrite.Orig, rewrite.DND}} {
		qs := Instances(edge, nil, kinds)
		b.Run(fmt.Sprintf("R=%d", len(kinds)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := RaceInstances(context.Background(), pool, x, v, qs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRaceInstancesAllocs guards BenchmarkRaceInstances' allocation counts:
// a race over a one-graph table with a verifier that decides at once makes
// at most 5 allocations at R = 1 and 7 at R = 2. A pool hand-off that finds
// no idle worker spawns a goroutine, one allocation more, which depends on
// the scheduler: so the pool has workers to spare, the count is the fewest
// of five rounds, and it is taken at the test's GOMAXPROCS, as the benchmark
// runs — testing.AllocsPerRun would run at 1, where every hand-off spawns.
func TestRaceInstancesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("at GOMAXPROCS 1 every pool hand-off spawns a goroutine")
	}
	x, v := raceStub(t)
	pool := exec.New(8)
	defer pool.Close()
	for _, tc := range []struct {
		kinds []rewrite.Kind
		max   uint64
	}{{[]rewrite.Kind{rewrite.Orig}, 5}, {[]rewrite.Kind{rewrite.Orig, rewrite.DND}, 7}} {
		qs := Instances(edge, nil, tc.kinds)
		race := func() {
			if _, _, err := RaceInstances(context.Background(), pool, x, v, qs, 0); err != nil {
				t.Fatal(err)
			}
		}
		race() // warm up: the pool's workers exist before the count
		const runs = 1000
		fewest := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				race()
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, (after.Mallocs-before.Mallocs)/runs)
		}
		if fewest > tc.max {
			t.Errorf("R=%d: a race makes %d allocations, want at most %d", len(tc.kinds), fewest, tc.max)
		}
	}
}

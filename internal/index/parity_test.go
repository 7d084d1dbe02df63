package index_test

// The differential test: the index under every configuration against the
// one oracle, over every shape the generator draws.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/vf2"
	"github.com/psi-graph/psi/internal/workload"
)

// diffMaxPathLen keeps extraction cheap enough to afford the full matrix
// under -race; the filter prunes less at it, but alike in every cell.
const diffMaxPathLen = 3

// cell is one configuration of the index matrix.
type cell struct {
	names    []string
	k        int
	pool     *exec.Pool
	restored bool // the tables are Restore(Export(...)) of the built ones
	masked   bool // the slots hold placeholders between the graphs, dead under the alive mask
}

func (c cell) String() string {
	return fmt.Sprintf("%s K=%d workers=%d restored=%v masked=%v", strings.Join(c.names, "+"), c.k, c.pool.Workers(), c.restored, c.masked)
}

// slots is the slot space of c over ds and its alive mask: ds itself, or,
// masked, ds with a zero-vertex placeholder before every third graph, as a
// dataset store leaves a removed graph's slot. Either way the live graphs
// are ds, in order.
func (c cell) slots(ds []*graph.Graph) ([]*graph.Graph, []bool) {
	if !c.masked {
		return ds, nil
	}
	var slots []*graph.Graph
	var alive []bool
	for i, g := range ds {
		if i%3 == 0 {
			slots, alive = append(slots, graph.NewBuilder("dead").MustBuild()), append(alive, false)
		}
		slots, alive = append(slots, g), append(alive, true)
	}
	return slots, alive
}

// views builds c's one table per shard over ds and returns the index under
// each verifier c's names select, Grapes at W = 1 and at W = 4, and the
// tables.
func (c cell) views(ds []*graph.Graph) ([]*index.Sharded, []*index.Path, error) {
	slots, alive := c.slots(ds)
	kind := index.TableKind(c.names)
	opts := index.Options{MaxPathLen: diffMaxPathLen, Pool: c.pool}
	tables, err := index.BuildTables(context.Background(), kind, slots, c.k, opts)
	if err != nil {
		return nil, nil, err
	}
	if c.restored {
		for s, t := range tables {
			if tables[s], err = index.Restore(kind, index.ShardDataset(slots, s, c.k), t.MaxPathLen(), opts, index.Export(t)); err != nil {
				return nil, nil, err
			}
		}
	}
	vs, err := index.Verifiers(c.names, opts)
	if err != nil {
		return nil, nil, err
	}
	if slices.Contains(c.names, index.KindGrapes) {
		opts.Workers = 4
		w4, err := index.NewVerifier(index.KindGrapes, opts)
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, w4)
	}
	x := index.NewShardedFrom(slots, alive, tables, vs[0])
	out := []*index.Sharded{x}
	for _, v := range vs[1:] {
		out = append(out, x.Using(v))
	}
	return out, tables, nil
}

// check holds one view to the oracle's answer want on q: Filter keeps every
// graph of want and returns cands, the candidates of the fresh one-shard
// table, and the sequential and the pooled streaming pipeline both answer
// want.
func check(x *index.Sharded, q *graph.Graph, want, cands []int, pool *exec.Pool) error {
	got := x.Filter(q)
	if slices.ContainsFunc(want, func(id int) bool { return !slices.Contains(got, id) }) {
		return fmt.Errorf("%s: Filter %v misses answers %v", x.Name(), got, want)
	}
	if !slices.Equal(got, cands) {
		return fmt.Errorf("%s: Filter %v, the one-shard table's %v", x.Name(), got, cands)
	}
	seq, err := index.SequentialAnswer(context.Background(), x, q)
	if err != nil || !slices.Equal(seq, want) {
		return fmt.Errorf("%s: SequentialAnswer = %v, %v; the oracle %v", x.Name(), seq, err, want)
	}
	streamed, err := index.Answer(context.Background(), x, q, pool)
	if err != nil || !slices.Equal(streamed, want) {
		return fmt.Errorf("%s: Answer = %v, %v; the oracle %v", x.Name(), streamed, err, want)
	}
	return nil
}

// fails reports whether some view of c disagrees with the oracle on q over
// ds: the shrinker's predicate.
func (c cell) fails(ds []*graph.Graph, q *graph.Graph) bool {
	xs, _, err := c.views(ds)
	if err != nil {
		return true
	}
	want, cands := difftest.Want(ds, q), oneShard(ds).Filter(q)
	for _, x := range xs {
		if check(x, q, want, cands, c.pool) != nil {
			return true
		}
	}
	return false
}

// oneShard is the fresh one-shard ftv index over ds, whose candidates every
// cell must return.
func oneShard(ds []*graph.Graph) *index.Sharded {
	x, err := index.Build(context.Background(), index.KindPath, ds, 1, index.Options{MaxPathLen: diffMaxPathLen})
	if err != nil {
		panic(err) // unreachable: a background context and a known kind
	}
	return x
}

// TestDifferential holds the index to difftest's oracle over every shape the
// generator draws: for every non-empty name set, K in {1, 2, 3, 8} and one
// past the slot count, pools of 1 and 4 workers, fresh and restored tables,
// the graphs alone and between tombstoned slots under an alive mask, and
// each verifier the set selects, Filter keeps every containing graph and
// returns the fresh one-shard table's candidates, and SequentialAnswer and
// the streamed Answer both return the oracle's IDs. A disagreement fails
// with the case shrunk to its fewest graphs and query edges. The masked
// views also report only the live graphs in their statistics, and the mixed
// shape's table holds location sets of both forms.
func TestDifferential(t *testing.T) {
	differential(t, func(string, cell) bool { return true })
}

// TestCrossIndexParity is the matrix slice for every name set at K <= 2.
func TestCrossIndexParity(t *testing.T) {
	differential(t, func(_ string, c cell) bool { return c.k <= 2 && c.pool.Workers() == 4 && !c.restored && !c.masked })
}

// TestDifferentialAgainstFTVAndBruteForce is the slice for Grapes over the mixed shape.
func TestDifferentialAgainstFTVAndBruteForce(t *testing.T) {
	differential(t, func(shape string, c cell) bool {
		return shape == "mixed" && slices.Equal(c.names, []string{index.KindGrapes}) && c.k == 1 && !c.masked
	})
}

// TestShardedParityFuzz is the slice for each single name at every K and pool.
func TestShardedParityFuzz(t *testing.T) {
	differential(t, func(_ string, c cell) bool { return len(c.names) == 1 && !c.restored && !c.masked })
}

// TestShardedTombstoneParity is the slice for each single name under the alive mask.
func TestShardedTombstoneParity(t *testing.T) {
	differential(t, func(_ string, c cell) bool {
		return len(c.names) == 1 && c.pool.Workers() == 4 && c.masked && !c.restored
	})
}

// differential checks, as TestDifferential says, the cells of the index
// matrix that keep selects by dataset shape.
func differential(t *testing.T, keep func(shape string, c cell) bool) {
	pool1, pool4 := exec.New(1), exec.New(4)
	defer pool1.Close()
	defer pool4.Close()
	for _, d := range difftest.Datasets(1) {
		ds := d.Graphs
		var cells []cell
		for _, names := range difftest.Subsets(index.Kinds()) {
			for _, k := range []int{1, 2, 3, 8, len(ds) + len(ds)/3 + 2} {
				for _, pool := range []*exec.Pool{pool1, pool4} {
					for _, restored := range []bool{false, true} {
						for _, masked := range []bool{false, true} {
							if c := (cell{names, k, pool, restored, masked}); keep(d.Name, c) {
								cells = append(cells, c)
							}
						}
					}
				}
			}
		}
		if len(cells) == 0 {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			queries := difftest.Queries(rand.New(rand.NewSource(1)), ds, 16)
			want := make([][]int, len(queries))
			cands := make([][]int, len(queries))
			ref := oneShard(ds)
			for qi, q := range queries {
				want[qi], cands[qi] = difftest.Want(ds, q), ref.Filter(q)
			}
			for _, c := range cells {
				xs, tables, err := c.views(ds)
				if err != nil {
					t.Fatalf("%v: %v", c, err)
				}
				checkStats(t, c, xs[0], tables, len(ds))
				if d.Name == "mixed" && c.names[0] == index.KindGrapes && c.k == 1 {
					if st := xs[0].Stats(); st.LocationRows == 0 || st.LocationLists == 0 {
						t.Fatalf("%v: %d row sets and %d list sets; want both forms", c, st.LocationRows, st.LocationLists)
					}
				}
				for qi, q := range queries {
					for _, x := range xs {
						if err := check(x, q, want[qi], cands[qi], c.pool); err != nil {
							difftest.Fail(t, fmt.Sprintf("%v: %v", c, err), ds, q, c.fails)
						}
					}
				}
			}
		})
	}
}

// checkStats: a view counts only the live graphs, in total and over its
// shards; at K = 1 it reports its table's statistics as its own under its
// verifier's name; a graph ID outside the live ones is an error from
// Verify; and Close leaves the view answering, as its tables own nothing.
func checkStats(t *testing.T, c cell, x *index.Sharded, tables []*index.Path, live int) {
	t.Helper()
	st := x.Stats()
	if len(x.Dataset()) != live || st.Graphs != live {
		t.Errorf("%v: the view holds %d graphs and reports %d; want the %d live ones", c, len(x.Dataset()), st.Graphs, live)
	}
	perShard := 0
	for _, sub := range st.Shards {
		perShard += sub.Graphs
	}
	if c.k > 1 && (st.ShardCount != c.k || perShard != live) {
		t.Errorf("%v: %d shards holding %d graphs; want %d holding the %d live ones", c, st.ShardCount, perShard, c.k, live)
	}
	if own := tables[0].Stats(); c.k == 1 {
		own.Name, own.Graphs = x.Name(), live
		if !reflect.DeepEqual(st, own) {
			t.Errorf("%v: the one-shard view reports %+v, its table %+v", c, st, own)
		}
	}
	q := graph.MustNew("q", []graph.Label{0}, nil)
	for _, id := range []int{-1, live} {
		if _, err := x.Verify(context.Background(), q, id); err == nil {
			t.Errorf("%v: Verify(%d) did not error", c, id)
		}
	}
	x.Close()
	if _, err := x.Verify(context.Background(), q, 0); err != nil && live > 0 {
		t.Errorf("%v: Verify after Close: %v", c, err)
	}
}

// alternating returns a dataset whose large and tiny graphs alternate, and
// queries over it: an edgeless one and six cut from its large graphs.
func alternating() (ds, queries []*graph.Graph) {
	r := rand.New(rand.NewSource(7))
	big := func() *graph.Graph { return difftest.Random(r, 1, 300, 3)[0] }
	ds = []*graph.Graph{
		big(), graph.MustNew("one", []graph.Label{1}, nil), graph.MustNew("edgeless", []graph.Label{0, 2, 2}, nil), big(),
		difftest.Random(r, 1, 14, 3)[0], graph.MustNew("one", []graph.Label{0}, nil), big(), graph.MustNew("edgeless", make([]graph.Label, 70), nil),
	}
	queries = []*graph.Graph{graph.MustNew("edgeless", []graph.Label{0}, nil)}
	for qi := 0; qi < 6; qi++ {
		queries = append(queries, workload.Extract(r, ds[[]int{0, 3, 4, 6}[r.Intn(4)]], 2+r.Intn(4)))
	}
	return ds, queries
}

// TestBuildDeterminismAcrossWorkerCounts is the acceptance check that a
// build's output does not depend on the pool it ran on: the same dataset is
// built on pools of 1, 2 and 8 workers, unsharded and three-way sharded, and
// every kind's every shard must export the same features, postings and
// locations. Large and tiny graphs alternate, so that a slot, a row or a row
// length left over in the scratch a worker carries from graph to graph would
// show in the smaller graph's features; on the 1-worker pool every graph
// meets the same scratch, and the folds, which queue on that pool too, must
// not deadlock it.
func TestBuildDeterminismAcrossWorkerCounts(t *testing.T) {
	ds, queries := alternating()
	want := map[int][][][]index.ExportedFeature{} // by K: the 1-worker build's exports, by kind and shard
	for _, workers := range []int{1, 2, 8} {
		pool := exec.New(workers)
		defer pool.Close()
		for _, k := range []int{1, 3} {
			got := make([][][]index.ExportedFeature, len(index.Kinds()))
			for i, kind := range index.Kinds() {
				tables, err := index.BuildTables(context.Background(), kind, ds, k, index.Options{MaxPathLen: 4, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range tables {
					got[i] = append(got[i], index.Export(x))
				}
			}
			if workers == 1 {
				want[k] = got
			}
			for i, kind := range index.Kinds() {
				if !reflect.DeepEqual(got[i], want[k][i]) {
					t.Errorf("%s K=%d: the export on %d workers differs from the 1-worker build's", kind, k, workers)
				}
			}
		}
	}
	// Grapes' paper-facing worker knob must not change filtering either, and
	// GGSX is the flat path index under another name: all filter alike.
	ftvX := buildIndex(t, index.KindPath, ds, index.Options{MaxPathLen: 4})
	for _, x := range []*index.Sharded{
		buildIndex(t, index.KindGGSX, ds, index.Options{MaxPathLen: 4}),
		buildIndex(t, index.KindGrapes, ds, index.Options{MaxPathLen: 4, Workers: 1}),
		buildIndex(t, index.KindGrapes, ds, index.Options{MaxPathLen: 4, Workers: 4}),
	} {
		for qi, q := range queries {
			if got, want := x.Filter(q), ftvX.Filter(q); !slices.Equal(got, want) {
				t.Errorf("%s vs FTV q%d: Filter %v vs %v", x.Name(), qi, got, want)
			}
		}
	}
}

// TestGrapesFanOutOnOneWorker: Grapes/4 fans a candidate's components out on
// the pool it was built with, from inside the pipeline's verification task.
// On a 1-worker pool that task holds the only worker, so the fan-out runs on
// the verifying goroutine, and it answers TestBuildDeterminismAcrossWorkerCounts'
// dataset and queries as Grapes/1 does.
func TestGrapesFanOutOnOneWorker(t *testing.T) {
	ds, queries := alternating()
	pool := exec.New(1)
	defer pool.Close()
	g1 := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 1, Pool: pool})
	g4 := buildIndex(t, index.KindGrapes, ds, index.Options{Workers: 4, Pool: pool})
	for qi, q := range queries {
		want, err := index.Answer(context.Background(), g1, q, pool)
		if err != nil {
			t.Fatal(err)
		}
		got, err := index.Answer(context.Background(), g4, q, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("q%d: Grapes/4 on one worker answered %v, Grapes/1 %v", qi, got, want)
		}
	}
}

// quickCheck holds ok over quick.Check's seeds, each drawing graphs random
// graphs of n vertices, the one-shard index of kind over them, and a query
// of 2 to 1+maxEdges edges cut from graph src.
func quickCheck(t *testing.T, kind string, opts index.Options, graphs, n, maxEdges, count int, ok func(x *index.Sharded, ds []*graph.Graph, src int, q *graph.Graph) bool) {
	t.Helper()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := difftest.Random(r, graphs, n, 3)
		src := r.Intn(len(ds))
		return ok(buildIndex(t, kind, ds, opts), ds, src, workload.Extract(r, ds[src], 2+r.Intn(maxEdges)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

// keepsSource reports whether x's filter keeps the graph q was cut from.
func keepsSource(x *index.Sharded, _ []*graph.Graph, src int, q *graph.Graph) bool {
	return slices.Contains(x.Filter(q), src)
}

// answersAsOracle reports whether x's filter→verify answer to q is the
// oracle's over ds.
func answersAsOracle(x *index.Sharded, ds []*graph.Graph, _ int, q *graph.Graph) bool {
	got, err := index.SequentialAnswer(context.Background(), x, q)
	return err == nil && slices.Equal(got, difftest.Want(ds, q))
}

// TestFilterNoFalseNegatives: for every kind, the graph a query was cut from
// survives the filter.
func TestFilterNoFalseNegatives(t *testing.T) {
	for _, kind := range index.Kinds() {
		t.Run(kind, func(t *testing.T) { quickCheck(t, kind, index.Options{MaxPathLen: 4}, 5, 12, 5, 40, keepsSource) })
	}
}

// TestAnswerMatchesBruteForce: for every kind, the filter→verify answer is
// exactly the graphs the oracle finds the query in.
func TestAnswerMatchesBruteForce(t *testing.T) {
	for _, kind := range index.Kinds() {
		t.Run(kind, func(t *testing.T) { quickCheck(t, kind, index.Options{MaxPathLen: 3}, 5, 10, 3, 25, answersAsOracle) })
	}
}

// TestVerifyAllocs: no kind keeps a matcher per graph — a VF2 matcher is its
// stored graph — and building one per call costs Verify nothing: it allocates
// no more than a search through a matcher built beforehand, on graphs that
// hold the query and on one that does not. At two shards Verify routes each
// ID to its shard's table, as an engine's verification does, and that
// translation costs nothing either.
func TestVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("Grapes verifies from a sync.Pool, which the race detector empties at random")
	}
	r := rand.New(rand.NewSource(3))
	ds := difftest.Random(r, 4, 12, 3)
	q := workload.Extract(r, ds[2], 3)
	ctx := context.Background()
	for _, kind := range index.Kinds() {
		for _, k := range []int{1, 2} {
			x, err := index.Build(ctx, kind, ds, k, index.Options{MaxPathLen: 3})
			if err != nil {
				t.Fatal(err)
			}
			outcomes := map[bool]bool{}
			for id, g := range ds {
				m := vf2.New(g)
				found, err := x.Verify(ctx, q, id)
				if err != nil {
					t.Fatal(err)
				}
				outcomes[found] = true
				verify := testing.AllocsPerRun(50, func() { x.Verify(ctx, q, id) })
				prebuilt := testing.AllocsPerRun(50, func() { m.Contains(ctx, q) })
				if verify > prebuilt {
					t.Errorf("%s K=%d graph %d: Verify makes %.0f allocations, a prebuilt matcher's search %.0f", kind, k, id, verify, prebuilt)
				}
			}
			if len(outcomes) != 2 {
				t.Errorf("%s K=%d: the query is verified %v on every graph; want both outcomes", kind, k, outcomes)
			}
		}
	}
}

// TestVerifyRejectsOutOfRangeGraphID: a graph ID outside the dataset is an
// error from every kind's verification — over a table built or restored from
// exported features, through the index or the table — never a panic, and
// Grapes' CandidateVertices reports such a graph as failing the filter.
func TestVerifyRejectsOutOfRangeGraphID(t *testing.T) {
	ds := difftest.Random(rand.New(rand.NewSource(5)), 4, 7, 2)
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	ctx := context.Background()
	for _, kind := range index.Kinds() {
		built := buildTable(t, kind, ds, index.Options{MaxPathLen: 3})
		restored, err := index.Restore(kind, ds, built.MaxPathLen(), index.Options{}, index.Export(built))
		if err != nil {
			t.Fatal(err)
		}
		v := verifier(t, kind)
		for _, tc := range []struct {
			name string
			x    *index.Path
		}{{"built", built}, {"restored", restored}} {
			x := view(t, kind, tc.x)
			for _, id := range []int{-1, len(ds), len(ds) + 100} {
				if ok, err := x.Verify(ctx, q, id); err == nil || ok {
					t.Errorf("%s %s: Verify(graph %d) = %v, %v; want an out-of-range error", kind, tc.name, id, ok, err)
				}
				if ok, err := tc.x.VerifyWith(ctx, v, q, id); err == nil || ok {
					t.Errorf("%s %s: the table's VerifyWith(graph %d) = %v, %v; want an out-of-range error", kind, tc.name, id, ok, err)
				}
				if kind == index.KindGrapes {
					if vs, ok := tc.x.CandidateVertices(q, id); ok || vs != nil {
						t.Errorf("grapes %s: CandidateVertices(graph %d) = %v, %v; want nil, false", tc.name, id, vs, ok)
					}
				}
			}
			if _, err := x.Verify(ctx, q, len(ds)-1); err != nil {
				t.Errorf("%s %s: Verify(last graph): %v", kind, tc.name, err)
			}
		}
	}
}

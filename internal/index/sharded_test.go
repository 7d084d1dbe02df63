package index_test

// Sharded-index tests: the byte-parity property fuzz the sharding design
// hangs on (sharded answers identical to monolithic for every K, worker
// count and index kind), build-shape/clamping unit checks, mid-stream
// cancellation truncation-safety, and goroutine-leak regression.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// fuzzMaxPathLen keeps extraction cheap enough to afford the full
// kind × K × workers matrix under -race; filtering power is unaffected in
// kind (only in degree), so parity is exercised just as hard.
const fuzzMaxPathLen = 3

// fuzzDatasets are the seeded random datasets the parity fuzz sweeps: the
// two generated shapes (disconnected PPI-like, denser GraphGen-style) plus a
// small adversarial random dataset with heavy label collisions.
func fuzzDatasets(r *rand.Rand) map[string][]*graph.Graph {
	return map[string][]*graph.Graph{
		"ppi":       gen.PPI(gen.PPIAt(gen.Tiny), 7),
		"synthetic": gen.Synthetic(gen.SyntheticAt(gen.Tiny), 7),
		"random":    randomDataset(r, 5, 12, 2),
	}
}

// TestShardedParityFuzz is the acceptance property: for random seeded
// datasets and queries, every index kind sharded at K∈{1,2,3,8} and built
// and queried at Workers∈{1,N} produces Filter candidates and full
// streaming-pipeline answers byte-identical to the monolithic index.
func TestShardedParityFuzz(t *testing.T) {
	pool1 := exec.New(1)
	defer pool1.Close()
	poolN := exec.New(4)
	defer poolN.Close()
	r := rand.New(rand.NewSource(42))
	for shape, ds := range fuzzDatasets(r) {
		var queries []*graph.Graph
		for qi := 0; qi < 4; qi++ {
			queries = append(queries, extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(5)))
		}
		queries = append(queries, graph.MustNew("edgeless", []graph.Label{0}, nil))
		for _, kind := range index.Kinds() {
			mono, err := index.Build(context.Background(), kind, ds, index.Options{
				MaxPathLen: fuzzMaxPathLen, Pool: poolN,
			})
			if err != nil {
				t.Fatalf("%s/%s monolithic build: %v", shape, kind, err)
			}
			wantFilter := make([][]int, len(queries))
			wantAnswer := make([][]int, len(queries))
			for qi, q := range queries {
				wantFilter[qi] = mono.Filter(q)
				if wantAnswer[qi], err = index.Answer(context.Background(), mono, q, poolN); err != nil {
					t.Fatalf("%s/%s monolithic answer: %v", shape, kind, err)
				}
			}
			mono.Close()
			for _, k := range []int{1, 2, 3, 8} {
				for _, pool := range []*exec.Pool{pool1, poolN} {
					sh, err := index.BuildSharded(context.Background(), kind, ds, k, index.Options{
						MaxPathLen: fuzzMaxPathLen, Pool: pool,
					})
					if err != nil {
						t.Fatalf("%s/%s K=%d: %v", shape, kind, k, err)
					}
					for qi, q := range queries {
						if got := sh.Filter(q); !sameInts(got, wantFilter[qi]) {
							t.Errorf("%s/%s K=%d workers=%d q%d: Filter = %v, want %v",
								shape, kind, k, pool.Workers(), qi, got, wantFilter[qi])
						}
						got, err := index.Answer(context.Background(), sh, q, pool)
						if err != nil {
							t.Fatalf("%s/%s K=%d q%d: %v", shape, kind, k, qi, err)
						}
						if !sameInts(got, wantAnswer[qi]) {
							t.Errorf("%s/%s K=%d workers=%d q%d: Answer = %v, want %v",
								shape, kind, k, pool.Workers(), qi, got, wantAnswer[qi])
						}
					}
					sh.Close()
				}
			}
		}
	}
}

// TestShardedBuildShape checks the partitioning rule and the aggregate
// stats: round-robin shard datasets, clamping of oversized K, per-shard
// breakdown, and the ×K name.
func TestShardedBuildShape(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ds := randomDataset(r, 5, 8, 2)
	sh, err := index.BuildSharded(context.Background(), index.KindPath, ds, 2, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	st := sh.Stats()
	if st.ShardCount != 2 || len(st.Shards) != 2 {
		t.Fatalf("ShardCount = %d, Shards = %d entries, want 2", st.ShardCount, len(st.Shards))
	}
	if st.Graphs != len(ds) {
		t.Errorf("Graphs = %d, want %d", st.Graphs, len(ds))
	}
	// Round-robin over 5 graphs: shard 0 owns {0,2,4}, shard 1 owns {1,3}.
	if st.Shards[0].Graphs != 3 || st.Shards[1].Graphs != 2 {
		t.Errorf("shard balance = %d/%d, want 3/2", st.Shards[0].Graphs, st.Shards[1].Graphs)
	}
	if want := "FTV×2"; sh.Name() != want {
		t.Errorf("Name = %q, want %q", sh.Name(), want)
	}
	if sum := st.Shards[0].Features + st.Shards[1].Features; sum != st.Features {
		t.Errorf("aggregate Features = %d, want per-shard sum %d", st.Features, sum)
	}
	if n, bytes := st.Shards[0].Postings+st.Shards[1].Postings, st.Shards[0].PostingBytes+st.Shards[1].PostingBytes; n != st.Postings || bytes != st.PostingBytes || n == 0 || bytes < 2*n {
		t.Errorf("aggregate postings = %d in %d bytes, per-shard sums %d in %d", st.Postings, st.PostingBytes, n, bytes)
	}

	// Oversized K clamps to the dataset size; every shard owns one graph.
	big, err := index.BuildSharded(context.Background(), index.KindPath, ds, 64, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if k := big.Stats().ShardCount; k != len(ds) {
		t.Errorf("ShardCount = %d after clamping, want %d", k, len(ds))
	}

	// Verify routes out-of-range IDs to an error, not a panic.
	q := extractQuery(r, ds[0], 2)
	if _, err := sh.Verify(context.Background(), q, len(ds)); err == nil {
		t.Error("Verify(out of range) = nil error")
	}
	if _, err := sh.Verify(context.Background(), q, -1); err == nil {
		t.Error("Verify(-1) = nil error")
	}
}

// TestShardedBuildThroughRegistry checks that BuildSharded produces the
// sharded wrapper for every registered kind, that at one shard the wrapper
// reports that shard's statistics as its own (no shard count, no breakdown,
// as its name and filters already delegate), and that Build stays
// monolithic.
func TestShardedBuildThroughRegistry(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ds := randomDataset(r, 4, 8, 2)
	for _, kind := range index.Kinds() {
		x, err := index.BuildSharded(context.Background(), kind, ds, 2, index.Options{MaxPathLen: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if x.Stats().Kind != kind {
			t.Errorf("%s: sharded Stats.Kind = %q", kind, x.Stats().Kind)
		}
		x.Close()
		one, err := index.BuildSharded(context.Background(), kind, ds, 1, index.Options{MaxPathLen: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		mono, err := index.Build(context.Background(), kind, ds, index.Options{MaxPathLen: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, ok := mono.(*index.Sharded); ok {
			t.Errorf("%s: Build returned a sharded wrapper", kind)
		}
		got, want := one.Stats(), mono.Stats()
		if got.ShardCount != 0 || got.Shards != nil || got.Name != want.Name || got.Kind != kind || got.Graphs != want.Graphs || got.Features != want.Features {
			t.Errorf("%s: K=1 stats %+v, want the monolithic index's %+v", kind, got, want)
		}
		one.Close()
		mono.Close()
	}
	if _, err := index.BuildSharded(context.Background(), "nope", ds, 2, index.Options{}); err == nil {
		t.Error("BuildSharded with unknown kind = nil error")
	}
}

// TestShardedStreamTruncationSafety is the cancellation half of the parity
// property: a sharded stream cut short — by the consumer returning false or
// by context cancellation — must emit a strict prefix of the full answer,
// and a context-cancelled run must report the context's error rather than
// posing as a completed (empty or truncated) answer.
func TestShardedStreamTruncationSafety(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	r := rand.New(rand.NewSource(11))
	ds := gen.Synthetic(gen.SyntheticAt(gen.Tiny), 7)
	sh, err := index.BuildSharded(context.Background(), index.KindPath, ds, 3, index.Options{
		MaxPathLen: fuzzMaxPathLen, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var q *graph.Graph
	var full []int
	for try := 0; try < 20; try++ {
		q = extractQuery(r, ds[r.Intn(len(ds))], 2+r.Intn(3))
		if full, err = index.Answer(context.Background(), sh, q, pool); err != nil {
			t.Fatal(err)
		}
		if len(full) >= 2 {
			break
		}
	}
	if len(full) < 2 {
		t.Fatalf("could not find a query with >= 2 answers (got %v)", full)
	}

	// Consumer stops after the first ID: nil error, 1-element prefix.
	var stopped []int
	err = index.AnswerStream(context.Background(), sh, q, pool, func(id int) bool {
		stopped = append(stopped, id)
		return false
	})
	if err != nil {
		t.Fatalf("stopped stream: %v", err)
	}
	if len(stopped) != 1 || stopped[0] != full[0] {
		t.Fatalf("stopped stream emitted %v, want prefix [%d]", stopped, full[0])
	}

	// Context cancelled after the first ID: the emitted IDs must be a
	// prefix of the full answer and the error must surface — unless the
	// pipeline raced cancellation to a genuine completion, in which case
	// the answer must be the whole thing.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var truncated []int
	err = index.AnswerStream(ctx, sh, q, pool, func(id int) bool {
		truncated = append(truncated, id)
		cancel()
		return true
	})
	if !sameInts(truncated, full[:len(truncated)]) {
		t.Fatalf("cancelled stream emitted %v, not a prefix of %v", truncated, full)
	}
	if err == nil && !sameInts(truncated, full) {
		t.Fatalf("cancelled stream returned nil error for truncated answer %v of %v", truncated, full)
	}

	// FilterStream cut mid-scan by cancellation reports the context error.
	fctx, fcancel := context.WithCancel(context.Background())
	ferr := sh.FilterStream(fctx, q, func(int) bool {
		fcancel()
		return true
	})
	fcancel()
	if cands := sh.Filter(q); len(cands) > 1 && ferr == nil {
		t.Fatalf("FilterStream cancelled mid-scan (candidates=%d) returned nil error", len(cands))
	}
}

// TestShardedStreamNoGoroutineLeak hammers the three early-exit paths —
// consumer stop, context cancellation, and normal completion — across many
// iterations and asserts the goroutine count returns to (near) baseline:
// the verifications a stopped or cancelled pipeline abandons must all be
// joined.
func TestShardedStreamNoGoroutineLeak(t *testing.T) {
	pool := exec.New(2)
	t.Cleanup(pool.Close)
	r := rand.New(rand.NewSource(13))
	ds := randomDataset(r, 9, 10, 2)
	sh, err := index.BuildSharded(context.Background(), index.KindPath, ds, 3, index.Options{
		MaxPathLen: 2, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	q := extractQuery(r, ds[0], 2)
	// Warm up so pool workers exist before the baseline is taken.
	if _, err := index.Answer(context.Background(), sh, q, pool); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, 4) // a query must leave no verification behind
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0: // normal completion
			if _, err := index.Answer(context.Background(), sh, q, pool); err != nil {
				t.Fatal(err)
			}
		case 1: // consumer stops at first emission
			err := index.AnswerStream(context.Background(), sh, q, pool, func(int) bool { return false })
			if err != nil {
				t.Fatal(err)
			}
		default: // context cancelled mid-stream
			ctx, cancel := context.WithCancel(context.Background())
			_ = index.AnswerStream(ctx, sh, q, pool, func(int) bool {
				cancel()
				return true
			})
			cancel()
		}
	}
}

// TestShardedMergeStartsNoGoroutine: the ordered merge runs on the caller's
// goroutine, so while it emits — on the first ID and on the last — the
// process has exactly the goroutines it had before the call. Each shard holds
// a few hundred candidates, so a merge that scanned shards concurrently would
// still have them scanning at the first ID.
func TestShardedMergeStartsNoGoroutine(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ds := randomDataset(r, 600, 6, 2)
	sh, err := index.BuildSharded(context.Background(), index.KindPath, ds, 3, index.Options{MaxPathLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	q := graph.MustNew("edge", []graph.Label{0, 1}, [][2]int{{0, 1}})
	want := sh.Filter(q)
	if len(want) < 300 {
		t.Fatalf("query has %d candidates, want at least 300", len(want))
	}
	before := runtime.NumGoroutine()
	var got, during []int
	err = sh.FilterStream(context.Background(), q, func(id int) bool {
		got = append(got, id)
		if len(got) == 1 || len(got) == len(want) {
			during = append(during, runtime.NumGoroutine())
		}
		return true
	})
	if err != nil || !sameInts(got, want) {
		t.Fatalf("FilterStream = %v, %v; want %v", got, err, want)
	}
	for _, n := range during {
		if n != before {
			t.Fatalf("%d goroutines while the merge emits (first and last ID: %v), %d before the call", n, during, before)
		}
	}
}

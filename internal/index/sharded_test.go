package index_test

// Sharded-index tests: build-shape/clamping unit checks, mid-stream
// cancellation truncation-safety, and goroutine-leak regression. The
// property the sharding design hangs on — candidates and answers at every K,
// pool and name set identical to the one-shard table's and to the oracle's —
// is TestDifferential's (parity_test.go), over internal/difftest's datasets;
// TestShardedParityFuzz and TestShardedTombstoneParity run its sharded slices.

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/leakcheck"
	"github.com/psi-graph/psi/internal/workload"
)

// TestShardedBuildShape checks the partitioning rule and the aggregate
// stats: round-robin shard datasets, clamping of oversized K, per-shard
// breakdown, and the ×K name.
func TestShardedBuildShape(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ds := difftest.Random(r, 5, 8, 2)
	sh := buildSharded(t, index.KindPath, ds, 2, index.Options{})
	st := sh.Stats()
	if st.ShardCount != 2 || len(st.Shards) != 2 || st.Graphs != len(ds) {
		t.Fatalf("ShardCount = %d, Shards = %d entries, Graphs = %d; want 2, 2, %d", st.ShardCount, len(st.Shards), st.Graphs, len(ds))
	}
	// Round-robin over 5 graphs: shard 0 owns {0,2,4}, shard 1 owns {1,3}.
	if st.Shards[0].Graphs != 3 || st.Shards[1].Graphs != 2 {
		t.Errorf("shard balance = %d/%d, want 3/2", st.Shards[0].Graphs, st.Shards[1].Graphs)
	}
	if want := "FTV×2"; sh.Name() != want || st.Name != want {
		t.Errorf("Name = %q, Stats.Name = %q, want %q", sh.Name(), st.Name, want)
	}
	for s, shard := range st.Shards {
		if shard.Name != "FTV" {
			t.Errorf("shard %d is named %q, want its verifier's FTV", s, shard.Name)
		}
	}
	if sum := st.Shards[0].Features + st.Shards[1].Features; sum != st.Features {
		t.Errorf("aggregate Features = %d, want per-shard sum %d", st.Features, sum)
	}
	if n, bytes := st.Shards[0].Postings+st.Shards[1].Postings, st.Shards[0].PostingBytes+st.Shards[1].PostingBytes; n != st.Postings || bytes != st.PostingBytes || n == 0 || bytes < n {
		t.Errorf("aggregate postings = %d in %d bytes, per-shard sums %d in %d", st.Postings, st.PostingBytes, n, bytes)
	}

	// Oversized K clamps to the dataset size; every shard owns one graph.
	big := buildSharded(t, index.KindPath, ds, 64, index.Options{})
	if k := big.Stats().ShardCount; k != len(ds) {
		t.Errorf("ShardCount = %d after clamping, want %d", k, len(ds))
	}

	// Verify routes out-of-range IDs to an error, not a panic.
	q := workload.Extract(r, ds[0], 2)
	for _, id := range []int{len(ds), -1} {
		if _, err := sh.Verify(context.Background(), q, id); err == nil {
			t.Errorf("Verify(%d) = nil error", id)
		}
	}
}

// TestShardedBuildThroughRegistry checks that Build produces the index for
// every registered kind, and that at one shard the index reports its table's
// statistics as its own (no shard count, no breakdown) under its verifier's
// name.
func TestShardedBuildThroughRegistry(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ds := difftest.Random(r, 4, 8, 2)
	opts := index.Options{MaxPathLen: 2}
	for _, kind := range index.Kinds() {
		x := buildSharded(t, kind, ds, 2, opts)
		if x.Stats().Kind != kind {
			t.Errorf("%s: sharded Stats.Kind = %q", kind, x.Stats().Kind)
		}
		one := buildSharded(t, kind, ds, 1, opts)
		got, want := one.Stats(), buildTable(t, kind, ds, opts).Stats()
		if got.ShardCount != 0 || got.Shards != nil || got.Name != verifier(t, kind).Name() || got.Kind != kind || got.Graphs != want.Graphs || got.Features != want.Features {
			t.Errorf("%s: K=1 stats %+v, want the table's %+v under its verifier's name", kind, got, want)
		}
	}
	if _, err := index.Build(context.Background(), "nope", ds, 2, index.Options{}); err == nil {
		t.Error("Build with unknown kind = nil error")
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
	sh := buildSharded(t, index.KindPath, ds, 3, index.Options{MaxPathLen: diffMaxPathLen, Pool: pool})
	var q *graph.Graph
	var full []int
	for try := 0; try < 20 && len(full) < 2; try++ {
		q = workload.Extract(r, ds[r.Intn(len(ds))], 2+r.Intn(3))
		var err error
		if full, err = index.Answer(context.Background(), sh, q, pool); err != nil {
			t.Fatal(err)
		}
	}
	if len(full) < 2 {
		t.Fatalf("could not find a query with >= 2 answers (got %v)", full)
	}

	// Consumer stops after the first ID: nil error, 1-element prefix.
	var stopped []int
	err := index.AnswerStream(context.Background(), sh, q, pool, func(id int) bool {
		stopped = append(stopped, id)
		return false
	})
	if err != nil || !slices.Equal(stopped, full[:1]) {
		t.Fatalf("stopped stream emitted %v, %v; want prefix %v", stopped, err, full[:1])
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
	if !slices.Equal(truncated, full[:len(truncated)]) {
		t.Fatalf("cancelled stream emitted %v, not a prefix of %v", truncated, full)
	}
	if err == nil && !slices.Equal(truncated, full) {
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
	ds := difftest.Random(r, 9, 10, 2)
	sh := buildSharded(t, index.KindPath, ds, 3, index.Options{MaxPathLen: 2, Pool: pool})
	q := workload.Extract(r, ds[0], 2)
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
	ds := difftest.Random(r, 600, 6, 2)
	sh := buildSharded(t, index.KindPath, ds, 3, index.Options{MaxPathLen: 2})
	q := graph.MustNew("edge", []graph.Label{0, 1}, [][2]int{{0, 1}})
	want := sh.Filter(q)
	if len(want) < 300 {
		t.Fatalf("query has %d candidates, want at least 300", len(want))
	}
	before := runtime.NumGoroutine()
	var got, during []int
	err := sh.FilterStream(context.Background(), q, func(id int) bool {
		got = append(got, id)
		if len(got) == 1 || len(got) == len(want) {
			during = append(during, runtime.NumGoroutine())
		}
		return true
	})
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("FilterStream = %v, %v; want %v", got, err, want)
	}
	for _, n := range during {
		if n != before {
			t.Fatalf("%d goroutines while the merge emits (first and last ID: %v), %d before the call", n, during, before)
		}
	}
}

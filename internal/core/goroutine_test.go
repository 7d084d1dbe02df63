package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/leakcheck"
	"github.com/psi-graph/psi/internal/match"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/vf2"
)

// gatedVerifier is a Verifier double whose verifications block until
// released, counting how many run concurrently. It lets the tests observe
// goroutine behavior mid-race instead of only before/after.
type gatedVerifier struct {
	release  chan struct{}
	inFlight atomic.Int64
	peak     atomic.Int64
}

// newGated returns a table of n candidates for the edge query and a gated
// verifier for it.
func newGated(tb testing.TB, n int) (*index.Sharded, *gatedVerifier) {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return stubTable(tb, n, ids...), &gatedVerifier{release: make(chan struct{})}
}

func (v *gatedVerifier) Name() string { return "gated" }

func (v *gatedVerifier) Verify(ctx context.Context, _ *index.Path, q *graph.Graph, id int) (bool, error) {
	n := v.inFlight.Add(1)
	for {
		p := v.peak.Load()
		if n <= p || v.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer v.inFlight.Add(-1)
	select {
	case <-v.release:
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// TestRaceInstancesAnswerBoundsGoroutines runs a large raced answer — 200
// candidates × 2 rewritings = 400 verification attempts — on a 4-worker
// pool and asserts that the goroutine count mid-race is governed by the
// pool size (workers × rewritings plus constant overhead), not by the
// number of attempts, and that everything is reclaimed afterwards.
func TestRaceInstancesAnswerBoundsGoroutines(t *testing.T) {
	const (
		candidates = 200
		workers    = 4
	)
	kinds := []rewrite.Kind{rewrite.Orig, rewrite.DND}
	x, gate := newGated(t, candidates)
	pool := exec.New(workers)
	t.Cleanup(pool.Close)

	// After the race transient goroutines drain back to (near) the baseline;
	// the pool's workers are accounted to the pool, not the race.
	grown := leakcheck.Check(t, workers+2)
	done := make(chan error, 1)
	var answer []int
	go func() {
		var err error
		answer, _, err = collect(context.Background(), pool, kinds, x, gate, edge)
		done <- err
	}()

	// Wait until the pool's workers are all busy racing candidates.
	deadline := time.Now().Add(5 * time.Second)
	for gate.inFlight.Load() < int64(workers) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Old behavior: one goroutine per (candidate × rewriting) = 400+.
	// New behavior: pool workers plus their per-candidate rewriting races.
	bound := workers*(len(kinds)+1) + 16
	if during := grown(); during > bound {
		t.Errorf("goroutines during race = %d above the baseline, want <= %d — fan-out is not pool-bounded",
			during, bound)
	}
	if peak := gate.peak.Load(); peak > int64(workers*len(kinds)) {
		t.Errorf("concurrent verifications = %d, want <= workers×rewritings = %d",
			peak, workers*len(kinds))
	}

	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(answer) != candidates {
		t.Errorf("answer has %d ids, want %d", len(answer), candidates)
	}
}

// TestRaceReleasesGoroutines is the before/after leak check for plain
// Ψ races: a thousand small races must not accrete goroutines.
func TestRaceReleasesGoroutines(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	racer := NewRacer(g)
	racer.Pool = exec.New(2)
	t.Cleanup(racer.Pool.Close)
	attempts := Portfolio([]match.Matcher{vf2.New(g)}, []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.DND})
	// Warm up so pool workers exist before the baseline is taken.
	if _, err := racer.Race(context.Background(), q, 1, attempts); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, 4)
	for i := 0; i < 1000; i++ {
		if _, err := racer.Race(context.Background(), q, 1, attempts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRaceStreamCancelAfterFirstEmissionNoLeak is the streaming analogue
// of TestRaceReleasesGoroutines: hundreds of races whose sink stops the
// search at the very first emission — the decision-query fast path that
// cancels every straggler attempt mid-flight — must not accrete goroutines.
func TestRaceStreamCancelAfterFirstEmissionNoLeak(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1, 0, 1, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	racer := NewRacer(g)
	racer.Pool = exec.New(2)
	t.Cleanup(racer.Pool.Close)
	attempts := Portfolio([]match.Matcher{vf2.New(g)}, []rewrite.Kind{rewrite.Orig, rewrite.ILF, rewrite.DND})
	stopSink := match.SinkFunc(func(match.Embedding) bool { return false })
	// Warm up so pool workers exist before the baseline is taken.
	if _, err := racer.RaceStream(context.Background(), q, 1000, attempts, stopSink); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, 4)
	for i := 0; i < 500; i++ {
		res, err := racer.RaceStream(context.Background(), q, 1000, attempts, stopSink)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != 1 {
			t.Fatalf("iteration %d: Found = %d, want 1 (sink stopped after first emission)", i, res.Found)
		}
	}
}

// TestRacePanicIsolated proves a panicking matcher surfaces as an attempt
// error instead of crashing the process.
func TestRacePanicIsolated(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0}, nil)
	q := graph.MustNew("q", []graph.Label{0}, nil)
	racer := NewRacer(g)
	attempts := []Attempt{{Matcher: panicMatcher{}, Rewriting: rewrite.Orig}}
	_, err := racer.Race(context.Background(), q, 1, attempts)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Race = %v, want attempt-panic error", err)
	}
}

type panicMatcher struct{}

func (panicMatcher) Name() string { return "PANIC" }
func (panicMatcher) Match(context.Context, *graph.Graph, int) ([]match.Embedding, error) {
	panic("matcher bug")
}

var _ index.Verifier = (*gatedVerifier)(nil)

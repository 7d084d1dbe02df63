package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/leakcheck"
)

func TestPoolDefaultsToNumCPU(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() != runtime.NumCPU() {
		t.Errorf("Workers() = %d, want %d", p.Workers(), runtime.NumCPU())
	}
	if Default().Workers() != runtime.NumCPU() {
		t.Errorf("Default().Workers() = %d, want %d", Default().Workers(), runtime.NumCPU())
	}
}

func TestGroupRunsAllTasks(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 100
	var ran atomic.Int64
	g := p.NewGroup(context.Background())
	for i := 0; i < n; i++ {
		g.Go(func(ctx context.Context) error {
			ran.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Errorf("ran %d tasks, want %d", ran.Load(), n)
	}
}

// TestGroupErrorCancelsRest proves the first task error aborts the drain:
// tasks queued behind the failing one observe the cancelled group context
// and skip their work.
func TestGroupErrorCancelsRest(t *testing.T) {
	p := New(1)
	defer p.Close()
	boom := errors.New("boom")
	var ranAfter atomic.Int64
	g := p.NewGroup(context.Background())
	g.Go(func(ctx context.Context) error { return boom })
	for i := 0; i < 50; i++ {
		g.Go(func(ctx context.Context) error {
			ranAfter.Add(1)
			return nil
		})
	}
	err := g.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want %v", err, boom)
	}
	// With one worker the failing task runs first; everything behind it
	// must have been dropped or skipped.
	if ranAfter.Load() != 0 {
		t.Errorf("%d tasks ran after the failure, want 0", ranAfter.Load())
	}
}

// TestGroupCancellationMidDrain cancels the parent context while the pool is
// still chewing through a large submission and checks that (a) Wait unblocks
// promptly, (b) the context error is reported, and (c) not every task ran.
func TestGroupCancellationMidDrain(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := p.NewGroup(ctx)
	var started atomic.Int64
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			g.Go(func(tctx context.Context) error {
				started.Add(1)
				select {
				case <-release:
				case <-tctx.Done():
				}
				return nil
			})
		}
	}()
	// Wait until the workers are occupied, then cancel mid-drain.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	<-done
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if n := started.Load(); n == 1000 {
		t.Errorf("all 1000 tasks started despite mid-drain cancellation")
	}
}

// TestGroupPanicRecovery proves a panicking task surfaces as an error from
// Wait instead of crashing the process, and the pool stays usable.
func TestGroupPanicRecovery(t *testing.T) {
	p := New(2)
	defer p.Close()
	g := p.NewGroup(context.Background())
	g.Go(func(ctx context.Context) error { panic("kaboom") })
	err := g.Wait()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Wait() = %v, want panic error containing %q", err, "kaboom")
	}
	// Pool must still run work after absorbing a panic.
	g2 := p.NewGroup(context.Background())
	ok := false
	g2.Go(func(ctx context.Context) error { ok = true; return nil })
	if err := g2.Wait(); err != nil || !ok {
		t.Fatalf("pool unusable after panic: err=%v ok=%v", err, ok)
	}
}

// TestGoPanicIsolation checks the worker-level backstop: a panic in a raw
// Go task is absorbed and counted rather than killing a worker.
func TestGoPanicIsolation(t *testing.T) {
	p := New(1)
	defer p.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	p.Go(func() { defer wg.Done(); panic("raw") })
	wg.Wait()
	for i := 0; i < 100 && p.Panics() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if p.Panics() == 0 {
		t.Error("worker-level panic was not counted")
	}
	// The lone worker must have survived: a follow-up task still runs.
	ran := make(chan struct{})
	p.Go(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("worker did not survive the panic")
	}
}

// TestMaxWorkers1Determinism: with one worker, Group tasks execute strictly
// in submission order, so shared state needs no synchronization and results
// are reproducible run to run.
func TestMaxWorkers1Determinism(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		p := New(1)
		var order []int
		g := p.NewGroup(context.Background())
		for i := 0; i < 50; i++ {
			i := i
			g.Go(func(ctx context.Context) error {
				order = append(order, i)
				return nil
			})
		}
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if len(order) != 50 {
			t.Fatalf("trial %d: ran %d tasks, want 50", trial, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("trial %d: order[%d] = %d, want %d (MaxWorkers=1 must preserve submission order)", trial, i, v, i)
			}
		}
	}
}

// TestGoGuaranteedConcurrency saturates every worker with blocking tasks and
// proves a further Go task still runs — the property races rely on.
func TestGoGuaranteedConcurrency(t *testing.T) {
	p := New(2)
	defer p.Close()
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		p.Go(func() { defer wg.Done(); <-release })
	}
	ran := make(chan struct{})
	p.Go(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("Go task starved behind saturated workers")
	}
	close(release)
	wg.Wait()
}

// TestStress exercises many concurrent groups under the race detector.
func TestStress(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	var outer sync.WaitGroup
	for gi := 0; gi < 8; gi++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			g := p.NewGroup(context.Background())
			for i := 0; i < 200; i++ {
				g.Go(func(ctx context.Context) error {
					total.Add(1)
					return nil
				})
			}
			if err := g.Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	outer.Wait()
	if total.Load() != 8*200 {
		t.Errorf("ran %d tasks, want %d", total.Load(), 8*200)
	}
}

// TestNestedFanOut: every task of a Group fans out again and waits, three
// levels deep (3×3×3 leaves). Nested groups never wait for a worker, so the
// fan-out completes even when the one worker is held by the outermost task.
func TestNestedFanOut(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := New(workers)
		defer p.Close()
		var leaves atomic.Int64
		var fan func(ctx context.Context, depth int) error
		fan = func(ctx context.Context, depth int) error {
			if depth == 3 {
				leaves.Add(1)
				return nil
			}
			g := p.NewGroup(ctx)
			for i := 0; i < 3; i++ {
				g.Go(func(gctx context.Context) error { return fan(gctx, depth+1) })
			}
			return g.Wait()
		}
		done := make(chan error, 1)
		go func() { done <- fan(context.Background(), 0) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d workers: the nested fan-out deadlocked", workers)
		}
		if n := leaves.Load(); n != 27 {
			t.Errorf("%d workers: %d leaves ran, want 27", workers, n)
		}
	}
}

// TestClosedPoolGroupStaysBounded: a Group on a closed pool runs its tasks on
// the submitting goroutine, one at a time, instead of a goroutine each.
func TestClosedPoolGroupStaysBounded(t *testing.T) {
	grown := leakcheck.Check(t, 0)
	p := New(1)
	p.Close()
	for deadline := time.Now().Add(5 * time.Second); grown() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	var running, peak atomic.Int64
	g := p.NewGroup(context.Background())
	for i := 0; i < 200; i++ {
		g.Go(func(context.Context) error {
			n := running.Add(1)
			for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
			}
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := peak.Load(); n != 1 {
		t.Errorf("%d tasks of one group ran at once on a closed pool, want 1", n)
	}
}

// TestPoolCloseStopsWorkers verifies Close reclaims the worker goroutines.
func TestPoolCloseStopsWorkers(t *testing.T) {
	leakcheck.Check(t, 1)
	p := New(8)
	g := p.NewGroup(context.Background())
	for i := 0; i < 32; i++ {
		g.Go(func(ctx context.Context) error { return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	p.Close()
}

// TestLimiterAdmission verifies the bounded-admission contract: exactly Cap
// slots, the Cap+1st TryAcquire rejected, slots reusable after Release.
func TestLimiterAdmission(t *testing.T) {
	l := NewLimiter(3)
	if l.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", l.Cap())
	}
	for i := 0; i < 3; i++ {
		if !l.TryAcquire() {
			t.Fatalf("TryAcquire %d rejected below the limit", i)
		}
	}
	if l.TryAcquire() {
		t.Fatal("TryAcquire succeeded beyond the limit")
	}
	if l.InFlight() != 3 {
		t.Fatalf("InFlight = %d, want 3", l.InFlight())
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("TryAcquire rejected after Release freed a slot")
	}
}

// TestLimiterDefaultCap verifies n <= 0 selects the serving default.
func TestLimiterDefaultCap(t *testing.T) {
	if got, want := NewLimiter(0).Cap(), 4*runtime.NumCPU(); got != want {
		t.Errorf("default Cap = %d, want %d", got, want)
	}
}

// TestLimiterReleaseUnderflowPanics verifies the accounting guard.
func TestLimiterReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release without TryAcquire did not panic")
		}
	}()
	NewLimiter(1).Release()
}

// TestLimiterConcurrent hammers the limiter from many goroutines and checks
// the in-flight count never exceeds the cap.
func TestLimiterConcurrent(t *testing.T) {
	l := NewLimiter(4)
	var over atomic.Bool
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !l.TryAcquire() {
					continue
				}
				admitted.Add(1)
				if l.InFlight() > l.Cap() {
					over.Store(true)
				}
				l.Release()
			}
		}()
	}
	wg.Wait()
	if over.Load() {
		t.Error("in-flight count exceeded the cap")
	}
	if admitted.Load() == 0 {
		t.Error("no acquisition ever succeeded")
	}
	if l.InFlight() != 0 {
		t.Errorf("slots leaked: InFlight = %d after all releases", l.InFlight())
	}
}

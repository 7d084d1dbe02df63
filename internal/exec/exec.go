// Package exec provides the shared bounded-concurrency execution layer of
// the Ψ-framework: a worker pool sized by the machine's CPU count, with two
// submission modes matched to the two shapes of parallel work in the paper.
//
//   - Group (hard-bounded fan-out): independent work items — candidate-graph
//     verifications in the FTV pipeline — queue onto the pool's workers, so
//     at most MaxWorkers items run at once no matter how many are submitted.
//     This is what stops a query over hundreds of candidates from
//     multiplying goroutines by rewritings.
//
//   - Go (guaranteed-concurrency submit): attempts inside one Ψ race must
//     all run concurrently — the race's whole point is that the first
//     finisher cancels the rest, and an attempt may only terminate *because*
//     it is cancelled. Go hands the task to an idle worker when one is
//     available and otherwise spawns a transient goroutine, so races never
//     serialize behind a saturated pool (which would deadlock a race whose
//     early attempts block until a later attempt wins).
//
// Fan-out nests: a Group opened from a Group task's context, or from Nest,
// never waits for a worker — it hands each task to an idle worker or runs it
// on the submitting goroutine — so a task may fan out and wait at any depth,
// even on a 1-worker pool, while race attempts are guaranteed their own
// concurrency. Only a top-level Group's submitter blocks for a free worker,
// which is the backpressure a filter feeding verifications relies on. Panics
// inside tasks are isolated — recovered and reported as errors — so one
// corrupt attempt cannot crash a server racing thousands of queries.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of persistent worker goroutines. The zero value is
// not usable; construct with New or use the process-wide Default pool.
type Pool struct {
	tasks   chan func()
	quit    chan struct{}
	workers int
	closed  sync.Once
	panics  atomic.Uint64
}

// New returns a pool with the given number of workers; maxWorkers <= 0
// selects runtime.NumCPU(). Call Close when the pool is no longer needed
// (the Default pool lives for the whole process and is never closed).
func New(maxWorkers int) *Pool {
	if maxWorkers <= 0 {
		maxWorkers = runtime.NumCPU()
	}
	p := &Pool{
		tasks:   make(chan func()),
		quit:    make(chan struct{}),
		workers: maxWorkers,
	}
	for i := 0; i < maxWorkers; i++ {
		go p.worker()
	}
	return p
}

var (
	defaultPool *Pool
	defaultOnce sync.Once
)

// Default returns the shared process-wide pool, sized by runtime.NumCPU().
// The FTV pipeline and the racer use it when no explicit pool is set.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(0) })
	return defaultPool
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Panics reports how many task panics the pool has absorbed at the worker
// level (panics in Group tasks are additionally surfaced via Wait).
func (p *Pool) Panics() uint64 { return p.panics.Load() }

// Close stops the pool's workers. Tasks already started run to completion;
// afterwards Go falls back to transient goroutines and a Group runs its tasks
// on the submitting goroutine, so a closed pool degrades gracefully instead
// of deadlocking late submitters.
func (p *Pool) Close() { p.closed.Do(func() { close(p.quit) }) }

func (p *Pool) worker() {
	for {
		select {
		case t := <-p.tasks:
			p.run(t)
		case <-p.quit:
			return
		}
	}
}

// run executes one task with last-resort panic isolation so a panicking
// task can never kill a pool worker.
func (p *Pool) run(t func()) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
		}
	}()
	t()
}

// Go runs task with guaranteed concurrency: on an idle pool worker if one
// is ready to accept it, otherwise on a transient goroutine. It returns
// immediately. Use it for race attempts, which must all make progress
// concurrently; use a Group for fan-out that should be capped at the pool
// size.
func (p *Pool) Go(task func()) {
	select {
	case p.tasks <- task:
	default:
		go p.run(task)
	}
}

// Limiter is a bounded admission gate: a fixed number of in-flight slots
// with non-blocking acquisition. It is the front door a serving layer puts
// in front of the pool — where Group bounds how much admitted work runs at
// once, Limiter bounds how much work is admitted at all, rejecting the
// overflow immediately (a 429, not a queue) so overload degrades into fast
// refusals instead of unbounded goroutines and memory.
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a limiter with n in-flight slots; n <= 0 selects
// 4 × runtime.NumCPU(), a serving-friendly multiple of the pool size (most
// of a query's wall-clock is spent waiting on pooled work, so admitting a
// few queries per worker keeps the pool busy without letting the backlog
// grow without bound).
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		n = 4 * runtime.NumCPU()
	}
	return &Limiter{slots: make(chan struct{}, n)}
}

// TryAcquire claims a slot if one is free, without blocking. Every
// successful TryAcquire must be paired with exactly one Release.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire. Releasing more than was
// acquired panics: it means an accounting bug that would silently raise the
// admission limit.
func (l *Limiter) Release() {
	select {
	case <-l.slots:
	default:
		panic("exec: Limiter.Release without a matching TryAcquire")
	}
}

// InFlight reports the number of currently claimed slots.
func (l *Limiter) InFlight() int { return len(l.slots) }

// Cap reports the total number of slots.
func (l *Limiter) Cap() int { return cap(l.slots) }

// Group runs a batch of tasks on the pool with hard-bounded concurrency
// (at most the pool's worker count in flight, plus the submitting goroutine
// for a nested Group) and joins their outcomes.
// The first task error — including a recovered panic — cancels the group's
// context, which aborts tasks not yet started and lets running tasks exit
// early. Construct with Pool.NewGroup; a Group must not be reused after
// Wait returns.
//
// A Group opened from the context a Group task receives (or from Nest) is
// nested: its tasks go to idle workers or run on the submitting goroutine,
// never waiting for a worker, so a task that fans out and waits cannot
// deadlock the pool.
type Group struct {
	p       *Pool
	parent  context.Context
	ctx     context.Context
	cancel  context.CancelFunc
	nested  bool
	wg      sync.WaitGroup
	skipped atomic.Bool // a task was dropped or skipped by cancellation

	mu   sync.Mutex
	errs []error
}

// groupKey marks the contexts Group tasks run under.
type groupKey struct{}

// Nest returns ctx marked as a Group task's context is, so a Group opened
// from it is nested. Code that may run on a worker without a Group's context
// — a race attempt started by Go — opens its fan-out from Nest(ctx).
func Nest(ctx context.Context) context.Context {
	if ctx.Value(groupKey{}) != nil {
		return ctx
	}
	return context.WithValue(ctx, groupKey{}, true)
}

// NewGroup returns a Group whose tasks observe a context derived from ctx;
// the Group is nested when ctx descends from a Group's context or Nest.
func (p *Pool) NewGroup(ctx context.Context) *Group {
	gctx, cancel := context.WithCancel(Nest(ctx))
	return &Group{p: p, parent: ctx, ctx: gctx, cancel: cancel, nested: ctx.Value(groupKey{}) != nil}
}

// Context returns the group's context, cancelled on the first task error.
func (g *Group) Context() context.Context { return g.ctx }

// fail records err (first error wins the joined report's front slot) and
// cancels the group so queued tasks drain without doing their work.
func (g *Group) fail(err error) {
	g.mu.Lock()
	g.errs = append(g.errs, err)
	g.mu.Unlock()
	g.cancel()
}

// Go submits fn to the pool. A top-level Group blocks while all workers are
// busy, and submission is context-aware: if the group is cancelled before a
// worker frees up, fn is dropped (Wait then reports the cancellation). A
// nested Group, or any Group on a closed pool, hands fn to an idle worker or
// runs it before Go returns. Once running, fn receives the group context and
// its error (or panic) is captured for Wait.
func (g *Group) Go(fn func(ctx context.Context) error) {
	g.wg.Add(1)
	task := func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.fail(fmt.Errorf("exec: task panic: %v", r))
			}
		}()
		if err := g.ctx.Err(); err != nil {
			g.skipped.Store(true)
			return
		}
		if err := fn(g.ctx); err != nil {
			g.fail(err)
		}
	}
	if !g.nested {
		select {
		case g.p.tasks <- task:
			return
		case <-g.ctx.Done():
			g.skipped.Store(true)
			g.wg.Done()
			return
		case <-g.p.quit:
			// No worker will free up: run it here, one task at a time.
		}
	}
	select {
	case g.p.tasks <- task:
	default:
		task()
	}
}

// Wait blocks until every submitted task has finished or been dropped by
// cancellation, then releases the group's context and returns the joined
// task errors — or the parent context's error when tasks were actually
// dropped by outside cancellation. A batch whose every task completed
// returns nil even if the parent context expired just after the last task
// finished: the computed result is complete, so it is not discarded.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.errs) == 0 {
		if g.skipped.Load() {
			return g.parent.Err()
		}
		return nil
	}
	return errors.Join(g.errs...)
}

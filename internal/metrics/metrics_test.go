package metrics

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClassify(t *testing.T) {
	b := Budget{Cap: 300 * time.Millisecond} // easy threshold = 1ms
	cases := []struct {
		timing Timing
		want   Class
	}{
		{Timing{Elapsed: 100 * time.Microsecond}, Easy},
		{Timing{Elapsed: 999 * time.Microsecond}, Easy},
		{Timing{Elapsed: time.Millisecond}, Mid},
		{Timing{Elapsed: 299 * time.Millisecond}, Mid},
		{Timing{Elapsed: 300 * time.Millisecond, Killed: true}, Hard},
	}
	for _, c := range cases {
		if got := b.Classify(c.timing); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.timing, got, c.want)
		}
	}
}

func TestClassifyPreservesPaperRatio(t *testing.T) {
	// 600s cap with default fraction => 2s easy threshold
	b := Budget{Cap: 600 * time.Second}
	if got := b.easyThreshold(); got != 2*time.Second {
		t.Errorf("easy threshold = %v, want 2s", got)
	}
}

func TestClassString(t *testing.T) {
	if Easy.String() != "easy" || Mid.String() != "2''-600''" || Hard.String() != "hard" {
		t.Error("class strings")
	}
	if Class(9).String() != "unknown" {
		t.Error("unknown class string")
	}
}

func TestRunFastFunction(t *testing.T) {
	b := Budget{Cap: time.Second}
	tm := b.Run(context.Background(), func(ctx context.Context) error { return nil })
	if tm.Killed || tm.Err != nil {
		t.Errorf("timing = %+v", tm)
	}
	if tm.Elapsed <= 0 || tm.Elapsed > 100*time.Millisecond {
		t.Errorf("elapsed = %v", tm.Elapsed)
	}
}

func TestRunKillsAtCap(t *testing.T) {
	b := Budget{Cap: 30 * time.Millisecond}
	tm := b.Run(context.Background(), func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !tm.Killed {
		t.Fatal("expected Killed")
	}
	if tm.Elapsed != b.Cap {
		t.Errorf("killed timing must clamp to cap, got %v", tm.Elapsed)
	}
}

// TestRunKilledByWhichDeadline: a run the cap kills reports the cap, and one
// the caller's earlier deadline kills reports the time it ran — both killed
// and classified Hard.
func TestRunKilledByWhichDeadline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cap      time.Duration
		deadline time.Duration // of the caller's context; 0: none
		min, max time.Duration // bounds on Elapsed
	}{
		{"cap", 30 * time.Millisecond, 0, 30 * time.Millisecond, 30 * time.Millisecond},
		{"caller", 10 * time.Minute, 5 * time.Millisecond, 5 * time.Millisecond, time.Second},
	} {
		b := Budget{Cap: tc.cap}
		ctx := context.Background()
		if tc.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, tc.deadline)
			defer cancel()
		}
		tm := b.Run(ctx, func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		})
		if !tm.Killed || tm.Err != nil || b.Classify(tm) != Hard {
			t.Errorf("%s: timing %+v, class %v; want killed, Hard", tc.name, tm, b.Classify(tm))
		}
		if tm.Elapsed < tc.min || tm.Elapsed > tc.max {
			t.Errorf("%s: Elapsed %v, want within [%v, %v]", tc.name, tm.Elapsed, tc.min, tc.max)
		}
	}
}

func TestRunPropagatesRealError(t *testing.T) {
	b := Budget{Cap: time.Second}
	boom := errors.New("boom")
	tm := b.Run(context.Background(), func(ctx context.Context) error { return boom })
	if tm.Killed || !errors.Is(tm.Err, boom) {
		t.Errorf("timing = %+v", tm)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-22) > 1e-9 {
		t.Errorf("mean = %f", s.Mean)
	}
	if s.StdDev <= 0 {
		t.Error("stddev must be positive")
	}
	even := Summarize([]float64{1, 2, 3, 4})
	if even.Median != 2.5 {
		t.Errorf("even median = %f", even.Median)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
	single := Summarize([]float64{7})
	if single.StdDev != 0 || single.Median != 7 {
		t.Errorf("single summary = %+v", single)
	}
}

func TestWLAvsQLADiverge(t *testing.T) {
	// The paper's core argument: one straggler improvement dominates WLA
	// but is averaged away in QLA, the mean of the per-query speedups.
	qlaRatio := func(a, b []float64) float64 {
		var speedups []float64
		for i := range a {
			speedups = append(speedups, Speedup(a[i], b[i]))
		}
		return Mean(speedups)
	}
	orig := []float64{1, 1, 1, 600}
	best := []float64{1, 1, 1, 1}
	wla := WLARatio(orig, best)
	qla := qlaRatio(orig, best)
	if math.Abs(wla-150.75) > 1e-9 {
		t.Errorf("WLA = %f, want 150.75", wla)
	}
	if math.Abs(qla-150.75) > 1e-9 {
		t.Errorf("QLA = %f, want 150.75", qla)
	}
	// Now the straggler improves only 2× while an easy query improves 10×:
	orig2 := []float64{10, 600}
	best2 := []float64{1, 300}
	if w := WLARatio(orig2, best2); math.Abs(w-610.0/301.0) > 1e-9 {
		t.Errorf("WLA = %f", w)
	}
	if q := qlaRatio(orig2, best2); math.Abs(q-6) > 1e-9 {
		t.Errorf("QLA = %f, want 6", q)
	}
}

func TestMaxMin(t *testing.T) {
	if m := MaxMin([]float64{2, 8, 4}); m != 4 {
		t.Errorf("MaxMin = %f, want 4", m)
	}
	if m := MaxMin([]float64{5}); m != 1 {
		t.Errorf("MaxMin single = %f, want 1", m)
	}
	if m := MaxMin(nil); m != 0 {
		t.Errorf("MaxMin empty = %f", m)
	}
	if m := MaxMin([]float64{0, 3}); m != 0 {
		t.Errorf("MaxMin with zero min = %f", m)
	}
}

func TestMaxMinAtLeastOneProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		return MaxMin(clean) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10, 2); s != 5 {
		t.Errorf("Speedup = %f", s)
	}
	if s := Speedup(10, 0); s != 0 {
		t.Errorf("Speedup zero best = %f", s)
	}
}

func TestClassCounts(t *testing.T) {
	c := ClassCounts{Easy: 90, Mid: 8, Hard: 2}
	if c.Total() != 100 {
		t.Errorf("total = %d", c.Total())
	}
	if c.Pct(Easy) != 90 || c.Pct(Mid) != 8 || c.Pct(Hard) != 2 {
		t.Errorf("pcts = %f %f %f", c.Pct(Easy), c.Pct(Mid), c.Pct(Hard))
	}
	var empty ClassCounts
	if empty.Pct(Easy) != 0 {
		t.Error("empty pct")
	}
}

func TestWorkloadAccumulation(t *testing.T) {
	w := Workload{Budget: Budget{Cap: 300 * time.Millisecond}}
	w.Add(Timing{Elapsed: 100 * time.Microsecond}) // easy
	w.Add(Timing{Elapsed: 300 * time.Microsecond}) // easy
	w.Add(Timing{Elapsed: 10 * time.Millisecond})  // mid
	w.Add(Timing{Elapsed: 300 * time.Millisecond, Killed: true})
	if w.Counts.Easy != 2 || w.Counts.Mid != 1 || w.Counts.Hard != 1 {
		t.Fatalf("counts = %+v", w.Counts)
	}
	if w.AvgEasy() != 200*time.Microsecond {
		t.Errorf("avg easy = %v", w.AvgEasy())
	}
	if w.AvgMid() != 10*time.Millisecond {
		t.Errorf("avg mid = %v", w.AvgMid())
	}
	// completed = (0.1 + 0.3 + 10) / 3 ms
	want := (100*time.Microsecond + 300*time.Microsecond + 10*time.Millisecond) / 3
	if w.AvgCompleted() != want {
		t.Errorf("avg completed = %v, want %v", w.AvgCompleted(), want)
	}
	// the straggler dominates: completed avg is pulled far above easy avg
	if w.AvgCompleted() < 10*w.AvgEasy() {
		t.Error("straggler should dominate the completed average")
	}
}

func TestWorkloadEmptyAverages(t *testing.T) {
	w := Workload{Budget: Budget{Cap: time.Second}}
	if w.AvgEasy() != 0 || w.AvgMid() != 0 || w.AvgCompleted() != 0 {
		t.Error("empty workload averages must be zero")
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if WLARatio(nil, nil) != 0 {
		t.Error("WLARatio(empty)")
	}
}

func TestTimingSeconds(t *testing.T) {
	tm := Timing{Elapsed: 1500 * time.Millisecond}
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %f", tm.Seconds())
	}
}

// TestCountersSnapshot verifies concurrent bumps are all accounted and the
// snapshot is a plain copy.
func TestCountersSnapshot(t *testing.T) {
	var c Counters
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				c.Queries.Add(1)
				c.RaceAttempts.Add(2)
				if i%5 == 0 {
					c.Killed.Add(1)
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s := c.Snapshot()
	if s.Queries != 8*500 {
		t.Errorf("Queries = %d, want %d", s.Queries, 8*500)
	}
	if s.RaceAttempts != 8*1000 {
		t.Errorf("RaceAttempts = %d, want %d", s.RaceAttempts, 8*1000)
	}
	if s.Killed != 8*100 {
		t.Errorf("Killed = %d, want %d", s.Killed, 8*100)
	}
	if s.Streamed != 0 || s.Errors != 0 || s.Fallbacks != 0 {
		t.Error("untouched counters must snapshot to zero")
	}
}

// TestMutationCountersSnapshot pins the mutation counters added for the
// mutable dataset engine: each bumps independently and lands in its own
// snapshot field.
func TestMutationCountersSnapshot(t *testing.T) {
	var c Counters
	c.GraphsAdded.Add(3)
	c.GraphsRemoved.Add(2)
	c.GraphsReplaced.Add(1)
	c.Compactions.Add(4)
	s := c.Snapshot()
	if s.GraphsAdded != 3 || s.GraphsRemoved != 2 || s.GraphsReplaced != 1 || s.Compactions != 4 {
		t.Errorf("mutation counters = %d/%d/%d/%d, want 3/2/1/4",
			s.GraphsAdded, s.GraphsRemoved, s.GraphsReplaced, s.Compactions)
	}
	if s.Queries != 0 {
		t.Error("mutation bumps must not touch query counters")
	}
}

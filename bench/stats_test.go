package main

import (
	"math"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 1500, want: 99, got: 99}, // 15 samples beyond p99
		{n: 999, want: 99, got: 98},  // 9.99 beyond p99 is not ten
		{n: 512, want: 95, got: 95},  // a lower request is honoured
		{n: 100, want: 99, got: 90},  // exactly ten beyond p90
		{n: 10000, want: 99.9, got: 99.9},
		{n: 10000, want: 99, got: 99},
		{n: 40, want: 99, got: 75},
		{n: 39, want: 99, got: 50}, // nothing but the median is supported
	} {
		if got := supportedTail(c.n, c.want); got != c.got {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentile(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 100: 50, 25: 20, 90: 46} {
		if got := percentile(asc, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

// The driver judges spreads with Python's statistics.quantiles(v, n=4); the
// expected values are that function's output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 11.5}, [3]float64{9.625, 10.75, 11.875}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

// A writer whose operations overrun their slot: latency counts from the due
// time, so each operation is charged the stall of the ones before it.
func TestRunScheduleTimesFromDueTime(t *testing.T) {
	const every, work = 10 * time.Millisecond, 30 * time.Millisecond
	n := 0
	got := runSchedule(time.Now(), every, func() bool { return n == 4 }, func(int) {
		n++
		time.Sleep(work)
	})
	if len(got) != 4 {
		t.Fatalf("ran %d operations, want 4", len(got))
	}
	for k, m := range got {
		if m.Latency != m.Late+m.Service {
			t.Errorf("op %d: latency %v != late %v + service %v", k, m.Latency, m.Late, m.Service)
		}
		// Op k is due at k*every but the k ops before it took k*work.
		wantLate := time.Duration(k) * (work - every)
		if d := m.Late - wantLate; d < 0 || d > 25*time.Millisecond {
			t.Errorf("op %d: sent %v late, want about %v", k, m.Late, wantLate)
		}
		if m.Latency < wantLate+work {
			t.Errorf("op %d: latency %v does not include the %v it waited behind earlier ops", k, m.Latency, wantLate)
		}
	}
}

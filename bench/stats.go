package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the p-th percentile (0..100) of an ascending slice, linearly
// interpolated between closest ranks; 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(asc)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return asc[lo] + (asc[hi]-asc[lo])*(rank-float64(lo))
}

func median(v []float64) float64 { return percentile(sorted(v), 50) }

// tailLadder are the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75}

// supportedTail applies the reporting rule: a tail is the highest percentile
// with at least ten samples beyond it. It returns the highest rung of the
// ladder that n samples support and that does not exceed want; 50 when even
// p75 is unsupported (fewer than 40 samples).
func supportedTail(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && float64(n)*(100-p) >= 1000-1e-6 { // float slack: 10000 × 0.1 is not exactly 1000
			return p
		}
	}
	return 50
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver judges spreads with. It
// needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median: the number
// the driver compares with a metric's bound. 0 with fewer than two values
// or a zero median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// mutationTiming is one scheduled operation: when it was due, how late the
// generator sent it, and how long after its due time the response arrived.
// Latency counts from the due time, so a stall charges every operation it
// delayed, not only the one that stalled.
type mutationTiming struct {
	Late    time.Duration // sent - due
	Latency time.Duration // done - due
	Service time.Duration // done - sent
}

// runSchedule calls op(k) for k = 0, 1, ... at start + k*every until stop
// reports true (checked before each send). An op that overruns its slot
// makes the next ones late; they are sent back to back until the schedule
// is caught up.
func runSchedule(start time.Time, every time.Duration, stop func() bool, op func(k int)) []mutationTiming {
	var out []mutationTiming
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if stop() {
			return out
		}
		sent := time.Now()
		op(k)
		done := time.Now()
		out = append(out, mutationTiming{Late: sent.Sub(due), Latency: done.Sub(due), Service: done.Sub(sent)})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs converts durations to float64 in the given unit function.
func durs(d []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = unit(x)
	}
	return out
}

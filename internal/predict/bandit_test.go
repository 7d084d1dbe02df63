package predict

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/psi-graph/psi/internal/graph"
)

func TestClassKeyBucketsAndStability(t *testing.T) {
	path3 := graph.MustNew("p3", []graph.Label{1, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	path3b := graph.MustNew("p3b", []graph.Label{4, 4, 9}, [][2]int{{0, 1}, {1, 2}})
	big := graph.MustNew("big", make([]graph.Label, 40), [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8},
	})
	if ClassKey(path3) != ClassKey(path3) {
		t.Error("ClassKey must be deterministic")
	}
	// Same shape, different concrete labels but same distinct-label count:
	// one class.
	if ClassKey(path3) != ClassKey(path3b) {
		t.Errorf("same-shape queries split classes: %q vs %q", ClassKey(path3), ClassKey(path3b))
	}
	if ClassKey(path3) == ClassKey(big) {
		t.Error("very different sizes should land in different classes")
	}
	empty := graph.MustNew("e", nil, nil)
	if ClassKey(empty) != "n0m0l0" {
		t.Errorf("empty-graph class = %q, want n0m0l0", ClassKey(empty))
	}
}

func TestLogBucket(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1024, 11},
	} {
		if got := logBucket(tc.in); got != tc.want {
			t.Errorf("logBucket(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestBanditWarmupRaces(t *testing.T) {
	b := NewBandit([]string{"ftv", "grapes"}, BanditOptions{MinSamples: 3})
	if b.Arms() != 2 {
		t.Fatalf("Arms = %d", b.Arms())
	}
	for i := 0; i < 3; i++ {
		d := b.Decide("c")
		if d.Solo || d.Reason != ReasonWarmup || d.ArmName != "" {
			t.Fatalf("decision %d during warmup = %+v, want race/warmup", i, d)
		}
		if d.Class != "c" {
			t.Errorf("class echoed back = %q", d.Class)
		}
		b.ObserveRaceWin("c", 0, time.Millisecond)
	}
	d := b.Decide("c")
	if !d.Solo || d.Arm != 0 || d.Reason != ReasonLearned {
		t.Fatalf("post-warmup decision = %+v, want solo arm 0 (learned)", d)
	}
}

func TestBanditPicksFastestArm(t *testing.T) {
	b := NewBandit([]string{"slow", "fast"}, BanditOptions{MinSamples: 2, RaceEvery: -1})
	b.ObserveRaceWin("c", 0, 10*time.Millisecond)
	b.ObserveRaceWin("c", 1, time.Millisecond)
	d := b.Decide("c")
	if !d.Solo || d.Arm != 1 || d.ArmName != "fast" {
		t.Fatalf("decision = %+v, want solo arm 1 (the faster arm)", d)
	}
	// Solo completions keep refining the estimate; a run of slow solos on
	// arm 1 can flip the choice back.
	for i := 0; i < 8; i++ {
		b.ObserveSolo("c", 1, 100*time.Millisecond)
	}
	d = b.Decide("c")
	if !d.Solo || d.Arm != 0 {
		t.Fatalf("decision after slow solos = %+v, want solo arm 0", d)
	}
}

func TestBanditKillEscalatesAndPenalizesArm(t *testing.T) {
	b := NewBandit([]string{"a", "b"}, BanditOptions{MinSamples: 1, RaceEvery: -1})
	b.ObserveRaceWin("c", 0, time.Millisecond)
	b.ObserveRaceWin("c", 1, 2*time.Millisecond)
	if d := b.Decide("c"); !d.Solo || d.Arm != 0 {
		t.Fatalf("pre-kill decision = %+v, want solo arm 0", d)
	}

	b.ObserveKill("c", 0)
	// Escalation persists until a race win clears it.
	for i := 0; i < 2; i++ {
		if d := b.Decide("c"); d.Solo || d.Reason != ReasonEscalated {
			t.Fatalf("post-kill decision %d = %+v, want race/escalated", i, d)
		}
	}
	b.ObserveRaceWin("c", 1, 2*time.Millisecond)
	// Arm 0's kill doubled its score (1ms × 2 > 2ms × 1 is a tie at 2ms;
	// another kill makes it strictly worse), so the class now prefers arm 1.
	b.ObserveKill("c", 0)
	b.ObserveRaceWin("c", 1, 2*time.Millisecond)
	if d := b.Decide("c"); !d.Solo || d.Arm != 1 {
		t.Fatalf("decision after kills on arm 0 = %+v, want solo arm 1", d)
	}
}

// The satellite regression: a client disconnect (cancellation) must leave
// the learned statistics and the escalation flag completely untouched,
// unlike a budget kill. To the bandit a cancelled query is a decision that no
// observation follows.
func TestBanditCancelledIsNotEvidence(t *testing.T) {
	b := NewBandit([]string{"a"}, BanditOptions{MinSamples: 1, RaceEvery: -1})
	b.ObserveRaceWin("c", 0, time.Millisecond)
	before := b.Snapshot()

	for i := 0; i < 50; i++ {
		b.Decide("c")
	}
	after := b.Snapshot()
	if before.Arms[0] != after.Arms[0] {
		t.Fatalf("cancellations changed arm stats: %+v -> %+v", before.Arms[0], after.Arms[0])
	}
	if after.Escalated != 0 {
		t.Fatal("cancellations must not escalate the class")
	}
	if d := b.Decide("c"); !d.Solo || d.Arm != 0 {
		t.Fatalf("decision after cancellations = %+v, want solo arm 0 unchanged", d)
	}

	// And the contrast: one kill does what 50 cancellations must not.
	b.ObserveKill("c", 0)
	if d := b.Decide("c"); d.Solo {
		t.Fatalf("decision after kill = %+v, want race", d)
	}
	if got := b.Snapshot(); got.Arms[0].Kills != 1 || got.Escalated != 1 {
		t.Fatalf("snapshot after kill = %+v", got)
	}
}

func TestBanditStalenessRerace(t *testing.T) {
	b := NewBandit([]string{"a"}, BanditOptions{MinSamples: 1, RaceEvery: 4})
	b.ObserveRaceWin("c", 0, time.Millisecond) // decision counter untouched
	var stale, solo int
	for i := 0; i < 16; i++ {
		d := b.Decide("c")
		switch {
		case d.Solo:
			solo++
		case d.Reason == ReasonStale:
			stale++
		default:
			t.Fatalf("decision %d = %+v", i, d)
		}
	}
	if stale != 4 {
		t.Errorf("stale races = %d over 16 decisions with RaceEvery=4, want 4", stale)
	}
	if solo != 12 {
		t.Errorf("solo decisions = %d, want 12", solo)
	}
}

func TestBanditStalenessDisabled(t *testing.T) {
	b := NewBandit([]string{"a"}, BanditOptions{MinSamples: 1, RaceEvery: -1})
	b.ObserveRaceWin("c", 0, time.Millisecond)
	for i := 0; i < 64; i++ {
		if d := b.Decide("c"); !d.Solo {
			t.Fatalf("decision %d = %+v, want solo (staleness disabled)", i, d)
		}
	}
}

func TestBanditDefaults(t *testing.T) {
	b := NewBandit([]string{"a"}, BanditOptions{})
	// Default MinSamples is 3: two wins are not enough.
	b.ObserveRaceWin("c", 0, time.Millisecond)
	b.ObserveRaceWin("c", 0, time.Millisecond)
	if d := b.Decide("c"); d.Solo {
		t.Fatalf("decision with 2 samples = %+v, want warmup race (default MinSamples 3)", d)
	}
	b.ObserveRaceWin("c", 0, time.Millisecond)
	sawStale := false
	for i := 0; i < 32; i++ {
		if d := b.Decide("c"); d.Reason == ReasonStale {
			sawStale = true
		}
	}
	if !sawStale {
		t.Error("default RaceEvery should force a stale re-race within 32 decisions")
	}
}

func TestBanditClassesAreIndependent(t *testing.T) {
	b := NewBandit([]string{"a", "b"}, BanditOptions{MinSamples: 1, RaceEvery: -1})
	b.ObserveRaceWin("hot", 1, time.Millisecond)
	if d := b.Decide("hot"); !d.Solo || d.Arm != 1 {
		t.Fatalf("hot class decision = %+v", d)
	}
	if d := b.Decide("cold"); d.Solo || d.Reason != ReasonWarmup {
		t.Fatalf("cold class decision = %+v, want warmup race", d)
	}
	// A kill in one class must not escalate another.
	b.ObserveKill("hot", 1)
	b.ObserveRaceWin("cold", 0, time.Millisecond)
	if d := b.Decide("cold"); !d.Solo {
		t.Fatalf("cold class decision after hot kill = %+v, want solo", d)
	}
}

func TestBanditObserveOutOfRangeArm(t *testing.T) {
	b := NewBandit([]string{"a"}, BanditOptions{MinSamples: 1})
	b.ObserveRaceWin("c", -1, time.Millisecond)
	b.ObserveRaceWin("c", 5, time.Millisecond)
	b.ObserveSolo("c", 5, time.Millisecond)
	b.ObserveKill("c", -2)
	snap := b.Snapshot()
	if snap.Arms[0].RaceWins != 0 || snap.Arms[0].Kills != 0 {
		t.Fatalf("out-of-range observations were recorded: %+v", snap.Arms[0])
	}
}

func TestBanditSnapshotAggregates(t *testing.T) {
	b := NewBandit([]string{"x", "y"}, BanditOptions{MinSamples: 1})
	b.ObserveRaceWin("c1", 0, 2*time.Millisecond)
	b.ObserveSolo("c2", 0, 4*time.Millisecond)
	b.ObserveRaceWin("c2", 1, time.Millisecond)
	b.ObserveKill("c1", 1)
	snap := b.Snapshot()
	if snap.Classes != 2 {
		t.Errorf("Classes = %d, want 2", snap.Classes)
	}
	if snap.Escalated != 1 {
		t.Errorf("Escalated = %d, want 1 (c1)", snap.Escalated)
	}
	x, y := snap.Arms[0], snap.Arms[1]
	if x.Name != "x" || y.Name != "y" {
		t.Fatalf("arm names = %q, %q", x.Name, y.Name)
	}
	if x.RaceWins != 1 || x.SoloRuns != 1 || x.Kills != 0 {
		t.Errorf("arm x = %+v", x)
	}
	if x.MeanLatencyUS != 3000 { // (2ms + 4ms) / 2
		t.Errorf("arm x mean latency = %dµs, want 3000", x.MeanLatencyUS)
	}
	if y.RaceWins != 1 || y.Kills != 1 || y.MeanLatencyUS != 1000 {
		t.Errorf("arm y = %+v", y)
	}
}

func TestBanditConcurrentUse(t *testing.T) {
	b := NewBandit([]string{"a", "b", "c"}, BanditOptions{MinSamples: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			class := fmt.Sprintf("class-%d", w%3)
			for i := 0; i < 200; i++ {
				d := b.Decide(class)
				if d.Solo {
					if i%7 == 0 {
						b.ObserveKill(class, d.Arm)
					} else {
						b.ObserveSolo(class, d.Arm, time.Duration(i)*time.Microsecond)
					}
				} else {
					b.ObserveRaceWin(class, (w+i)%3, time.Duration(i)*time.Microsecond)
				}
				if i%50 == 0 {
					b.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := b.Snapshot()
	var total int64
	for _, a := range snap.Arms {
		total += a.RaceWins + a.SoloRuns + a.Kills
	}
	if total != 8*200 {
		t.Errorf("total observations = %d, want %d", total, 8*200)
	}
}

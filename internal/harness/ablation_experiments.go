package harness

// An ablation beyond the paper's artifacts: quantifying the Ψ-framework's
// racing overhead.

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/psi-graph/psi/internal/core"
	"github.com/psi-graph/psi/internal/rewrite"
	"github.com/psi-graph/psi/internal/vf2"
)

func init() {
	register(Experiment{
		ID:    "ablation1",
		Title: "Ablation: racing overhead vs thread count (k identical attempts)",
		Run:   runAblationOverhead,
	})
}

// runAblationOverhead races k copies of the same VF2 attempt on the same
// easy query; any time beyond the k=1 row is pure instantiation +
// synchronization overhead (§8: "the instantiation and synchronization of
// many threads come with a non-trivial overhead").
func runAblationOverhead(e *Env, w io.Writer) error {
	g := e.NFVGraph("yeast")
	racer := core.NewRacer(g)
	q := e.NFVWorkload("yeast")[0].Graph
	const reps = 200
	t := Table{
		Title:  "median wall time of a race with k identical VF2 attempts (easy query)",
		Header: []string{"k", "median", "overhead vs k=1"},
		Note:   fmt.Sprintf("%d repetitions per row; overhead explains sub-1 speedups on µs-scale workloads", reps),
	}
	var base time.Duration
	for _, k := range []int{1, 2, 4, 8} {
		attempts := make([]core.Attempt, k)
		for i := range attempts {
			attempts[i] = core.Attempt{Matcher: vf2.New(g), Rewriting: rewrite.Orig}
		}
		times := make([]time.Duration, reps)
		for i := range times {
			start := time.Now()
			if _, err := racer.Race(context.Background(), q, 1, attempts); err != nil {
				return err
			}
			times[i] = time.Since(start)
		}
		med := medianDuration(times)
		if k == 1 {
			base = med
		}
		t.AddRow(fmt.Sprintf("%d", k), fmtDur(med), fmtDur(med-base))
	}
	return t.Render(w)
}

func medianDuration(ts []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ts...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

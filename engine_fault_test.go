package psi_test

// Fault injection at the engine: a caller's callback that panics.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/difftest"
	"github.com/psi-graph/psi/internal/exec"
	"github.com/psi-graph/psi/internal/leakcheck"
)

// TestPanickingCallbackIsAnError: an AnswerStream emit that panics — at one
// shard and two, with and without Grapes' verifier — and a QueryStream sink
// that panics each come back from the call as an error, leave no goroutine
// behind once the engine is closed, and cost the engine nothing: its next
// query answers as the oracle does.
func TestPanickingCallbackIsAnError(t *testing.T) {
	d := difftest.Draw(2)
	q := difftest.Queries(rand.New(rand.NewSource(2)), d.Graphs, 1)[0] // extracted: some graph holds it
	// The shared pool lives as long as the process: start it before the leak
	// checks.
	exec.Default()
	for _, names := range [][]string{{"ftv"}, {"ftv", "grapes"}} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("AnswerStream/%s/shards=%d", strings.Join(names, "+"), shards), func(t *testing.T) {
				leakcheck.Check(t, 0)
				eng, err := psi.NewDatasetEngine(d.Graphs, psi.EngineOptions{Indexes: names, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				res, err := eng.AnswerStream(context.Background(), q, func(int) bool { panic("emit bug") })
				if err == nil || !strings.Contains(err.Error(), "panic") {
					t.Errorf("AnswerStream with a panicking emit = %+v, %v; want a panic error", res, err)
				}
				if err := checkPipelineAnswer(eng, q); err != nil {
					t.Errorf("the next query: %v", err)
				}
			})
		}
	}
	t.Run("QueryStream", func(t *testing.T) {
		leakcheck.Check(t, 0)
		g := d.Graphs[0]
		eng, err := psi.NewEngine(g, psi.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		q := psi.ExtractQuery(g, 3, 2)
		res, err := eng.QueryStream(context.Background(), q, 10, psi.SinkFunc(func(psi.Embedding) bool { panic("sink bug") }))
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Errorf("QueryStream with a panicking sink = %+v, %v; want a panic error", res, err)
		}
		res, err = eng.Query(context.Background(), q, 0)
		if want := len(difftest.Want([]*psi.Graph{g}, q)) > 0; err != nil || res.Contained() != want {
			t.Errorf("the next query = %+v, %v; the oracle says contained: %v", res, err, want)
		}
	})
}

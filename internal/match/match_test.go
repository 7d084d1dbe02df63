package match

import (
	"context"
	"testing"

	"github.com/psi-graph/psi/internal/graph"
)

func TestNormalizeLimit(t *testing.T) {
	cases := map[int]int{-5: 1, 0: 1, 1: 1, 7: 7, 1000: 1000}
	for in, want := range cases {
		if got := normalizeLimit(in); got != want {
			t.Errorf("normalizeLimit(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBudgetStepPollsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx)
	for i := 0; i < 100; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("unexpected error before cancel: %v", err)
		}
	}
	cancel()
	var got error
	for i := 0; i < 1000; i++ {
		if err := b.Step(); err != nil {
			got = err
			break
		}
	}
	if got != context.Canceled {
		t.Errorf("expected context.Canceled within a poll interval, got %v", got)
	}
	if b.Steps() == 0 {
		t.Error("Steps should count")
	}
}

func TestCollectorLimit(t *testing.T) {
	var got []Embedding
	c := newCollector(2, SinkFunc(func(e Embedding) bool {
		got = append(got, e)
		return true
	}))
	if err := c.found(Embedding{1}); err != nil {
		t.Errorf("first found: %v", err)
	}
	err := c.found(Embedding{2})
	if err != errStop {
		t.Errorf("second found should hit limit, got %v", err)
	}
	if finishErr := c.finish(err); finishErr != nil {
		t.Errorf("finish should swallow the stop sentinel, got %v", finishErr)
	}
	if len(got) != 2 {
		t.Errorf("sink saw %d embeddings, want 2", len(got))
	}
}

func TestCollectorSinkStopIsStop(t *testing.T) {
	c := newCollector(10, SinkFunc(func(Embedding) bool { return false }))
	if err := c.found(Embedding{1}); err != errStop {
		t.Errorf("a declining sink must stop the search, got %v", err)
	}
}

func TestCollectorFinishStreamPropagatesRealErrors(t *testing.T) {
	c := newCollector(5, SinkFunc(func(Embedding) bool { return true }))
	if err := c.finish(context.Canceled); err != context.Canceled {
		t.Errorf("finish must propagate non-sentinel errors, got %v", err)
	}
}

func TestCollectorClonesEmbeddings(t *testing.T) {
	var got []Embedding
	c := newCollector(10, SinkFunc(func(e Embedding) bool {
		got = append(got, e)
		return true
	}))
	e := Embedding{1, 2, 3}
	if err := c.found(e); err != nil {
		t.Fatal(err)
	}
	e[0] = 99
	if got[0][0] != 1 {
		t.Error("collector must emit a copy, not alias the search buffer")
	}
}

func TestVerifyEmbedding(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0, 1, 0}, [][2]int{{0, 1}, {1, 2}})
	q := graph.MustNew("q", []graph.Label{0, 1}, [][2]int{{0, 1}})
	for _, tc := range []struct {
		name  string
		e     Embedding
		valid bool
	}{
		{"valid", Embedding{0, 1}, true},
		{"valid, the edge (2,1)", Embedding{2, 1}, true},
		{"wrong length", Embedding{0}, false},
		{"out-of-range vertex", Embedding{0, 5}, false},
		{"non-injective", Embedding{1, 1}, false},
		{"label-mismatched", Embedding{1, 0}, false},
		{"missing edge (0-2)", Embedding{0, 2}, false},
	} {
		if err := VerifyEmbedding(q, g, tc.e); (err == nil) != tc.valid {
			t.Errorf("%s embedding %v: error %v, want valid %v", tc.name, tc.e, err, tc.valid)
		}
	}
}

func TestEmbeddingClone(t *testing.T) {
	e := Embedding{4, 5}
	c := e.Clone()
	c[0] = 9
	if e[0] != 4 {
		t.Error("Clone must not alias")
	}
}

func TestReferenceName(t *testing.T) {
	g := graph.MustNew("g", []graph.Label{0}, nil)
	if NewReference(g).Name() != "REF" {
		t.Error("reference matcher name")
	}
}

package main

import (
	"bytes"
	"slices"
	"testing"
)

// replayed is the sequence of request bodies a run sends in one pass.
func replayed(in *inputs) [][]byte {
	var out [][]byte
	for _, i := range in.order {
		out = append(out, in.pool[i].body)
	}
	return out
}

// The same seed must give byte-identical request bodies, ingest bodies and
// read order; another seed must replay the same population in another order.
func TestInputsAreMadeFromTheSeed(t *testing.T) {
	for _, w := range workloads() {
		w = w.smoke()
		a, b, other := makeInputs(w, 7), makeInputs(w, 7), makeInputs(w, 8)
		if len(a.pool) != w.Pool || len(a.order) != w.Pool {
			t.Errorf("%s: pool of %d in an order of %d, want %d", w.Name, len(a.pool), len(a.order), w.Pool)
		}
		if !slices.EqualFunc(replayed(a), replayed(b), bytes.Equal) {
			t.Errorf("%s: seed 7 gave two different request sequences", w.Name)
		}
		if !slices.EqualFunc(a.spare, b.spare, bytes.Equal) || !slices.Equal(a.reads, b.reads) {
			t.Errorf("%s: seed 7 gave two different mutation or read streams", w.Name)
		}
		if slices.EqualFunc(replayed(a), replayed(other), bytes.Equal) {
			t.Errorf("%s: seeds 7 and 8 replay the pool in the same order", w.Name)
		}
		sorted7, sorted8 := replayed(a), replayed(other)
		slices.SortFunc(sorted7, bytes.Compare)
		slices.SortFunc(sorted8, bytes.Compare)
		if !slices.EqualFunc(sorted7, sorted8, bytes.Equal) {
			t.Errorf("%s: seeds 7 and 8 drew different query populations", w.Name)
		}
		for i, q := range a.pool {
			if err := parseBody(q.body); err != nil {
				t.Errorf("%s: body %d does not parse: %v", w.Name, i, err)
			}
		}
		if w.Spare != len(a.spare) || (w.ZipfDraws > 0) != (len(a.reads) > 0) {
			t.Errorf("%s: %d spare graphs and %d reads for spec %+v", w.Name, len(a.spare), len(a.reads), w)
		}
	}
}

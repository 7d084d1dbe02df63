package index

// Masked presents a dense, tombstone-free view over an index built in "slot"
// space — the dataset store's (internal/live) bridge back to the repo's
// byte-parity discipline; a store that never mutated masks nothing. The store
// never renumbers on delete (renumbering would move graphs across shards and
// force a global rebuild); it tombstones the slot and leaves the sub-index
// untouched until compaction. Queries, however,
// must answer exactly as a from-scratch engine over the live graphs would:
// dense IDs 0..n-1 in ascending order, dead graphs never surfacing even
// though the underlying index still contains their features. Masked performs
// that translation: candidates streaming out of the inner index in ascending
// slot order are skipped when dead and renumbered to their rank among live
// slots otherwise — rank order preserves ascending order, so the merged
// stream is byte-identical to the dense rebuild's — and Verify routes a dense
// ID back to its owning slot.

import (
	"context"
	"fmt"
	"slices"

	"github.com/psi-graph/psi/internal/graph"
)

// Masked is the dense view. Construct with NewMasked; safe for concurrent
// use (all fields are immutable after construction — a mutation produces a
// new Masked over a new snapshot rather than editing this one).
type Masked struct {
	inner   Index
	ds      []*graph.Graph // dense: live graphs in slot order
	denseOf []int          // slot → dense ID, -1 for tombstoned slots
	slots   []int          // dense ID → slot
	stats   Stats
}

// NewMasked wraps inner (whose ID space is slots, including dead ones) with
// the dense view selected by alive. ds must hold exactly the live graphs, in
// slot order; len(alive) must equal the inner index's slot count. Masked does
// not take ownership of inner — Close is a no-op, because the store
// refcounts sub-indexes across snapshot generations and closes them itself
// when the last snapshot referencing them drains.
func NewMasked(inner Index, ds []*graph.Graph, alive []bool) *Masked {
	m := &Masked{
		inner:   inner,
		ds:      ds,
		denseOf: make([]int, len(alive)),
		slots:   make([]int, 0, len(ds)),
	}
	for slot, ok := range alive {
		if !ok {
			m.denseOf[slot] = -1
			continue
		}
		m.denseOf[slot] = len(m.slots)
		m.slots = append(m.slots, slot)
	}
	if len(m.slots) != len(ds) {
		panic(fmt.Sprintf("index: NewMasked: %d live slots but %d dense graphs", len(m.slots), len(ds)))
	}
	m.stats = inner.Stats()
	m.stats.Graphs = len(ds)
	if k := len(m.stats.Shards); k > 0 {
		// The inner breakdown counts slots, tombstoned ones included:
		// recount each shard's live graphs so the shards sum to Graphs.
		m.stats.Shards = slices.Clone(m.stats.Shards)
		for s := range m.stats.Shards {
			m.stats.Shards[s].Graphs = 0
		}
		for _, slot := range m.slots {
			m.stats.Shards[ShardOf(slot, k)].Graphs++
		}
	}
	return m
}

// Name implements ftv.Index, delegating to the slot-space index.
func (m *Masked) Name() string { return m.inner.Name() }

// Dataset implements ftv.Index: the dense live dataset.
func (m *Masked) Dataset() []*graph.Graph { return m.ds }

// Stats implements Index: the inner build shape with Graphs, total and per
// shard, counting only live graphs.
func (m *Masked) Stats() Stats { return m.stats }

// Close implements Index as a no-op; see NewMasked on ownership.
func (m *Masked) Close() {}

// Filter implements ftv.Index: the inner candidates with dead slots dropped
// and the rest renumbered densely. Ascending slot order maps to ascending
// dense order, so no re-sort is needed.
func (m *Masked) Filter(q *graph.Graph) []int {
	cands := m.inner.Filter(q)
	out := make([]int, 0, len(cands))
	for _, slot := range cands {
		if d := m.denseOf[slot]; d >= 0 {
			out = append(out, d)
		}
	}
	return out
}

// FilterStream implements Index, translating the inner stream on the fly.
func (m *Masked) FilterStream(ctx context.Context, q *graph.Graph, emit func(graphID int) bool) error {
	return m.inner.FilterStream(ctx, q, func(slot int) bool {
		d := m.denseOf[slot]
		if d < 0 {
			return true // tombstoned: skip, keep streaming
		}
		return emit(d)
	})
}

// Verify implements ftv.Index by routing the dense ID to its slot.
func (m *Masked) Verify(ctx context.Context, q *graph.Graph, graphID int) (bool, error) {
	if graphID < 0 || graphID >= len(m.slots) {
		return false, fmt.Errorf("index: graph ID %d out of range [0,%d)", graphID, len(m.slots))
	}
	return m.inner.Verify(ctx, q, m.slots[graphID])
}

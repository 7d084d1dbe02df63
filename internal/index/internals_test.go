package index

import "github.com/psi-graph/psi/internal/graph"

// Views of the flat table's internals for the external tests (package
// index_test), which can import the kinds built on the table.

// Seq returns the directory's sequence i.
func (d *PathDirectory) Seq(i int) []graph.Label { return d.seq(i) }

// Packed returns the list's bytes, skip table included.
func (l PostingList) Packed() []byte { return l.data }

package ftv

import "testing"

// Hooks for the external tests (package ftv_test), which can import the
// index kinds folded from an extraction.

// SetTrieSealSlots sets how large a worker's trie may grow before it is
// sealed, until t and its cleanups end.
func SetTrieSealSlots(t testing.TB, n int) {
	old := trieSealSlots
	trieSealSlots = n
	t.Cleanup(func() { trieSealSlots = old })
}

// Package leakcheck is the tests' one goroutine-leak check.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// settle is how long the count is given to come back.
var settle = 5 * time.Second

// Check snapshots the goroutine count and registers a cleanup that fails t
// unless the count comes back to within slack of the snapshot, printing every
// goroutine's stack if it does not. Cleanups run last-registered-first: what
// was handed to t.Cleanup before this call (a pool whose workers are in the
// snapshot) is still alive when the count is taken, while what the test
// defers or registers later has been released by then. grown reports how far
// the count is above the snapshot now, for a test that bounds it mid-flight.
func Check(t testing.TB, slack int) (grown func() int) {
	base := runtime.NumGoroutine()
	grown = func() int { return runtime.NumGoroutine() - base }
	t.Cleanup(func() {
		deadline := time.Now().Add(settle)
		for grown() > slack && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := grown(); n > slack {
			buf := make([]byte, 1<<20)
			t.Errorf("goroutine leak: %d at the snapshot, %d now (slack %d)\n%s",
				base, base+n, slack, buf[:runtime.Stack(buf, true)])
		}
	})
	return grown
}

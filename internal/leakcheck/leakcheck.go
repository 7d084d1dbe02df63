// Package leakcheck is the tests' one goroutine-leak check.
package leakcheck

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// settle is how long new goroutines are given to exit.
var settle = 5 * time.Second

// Check snapshots the running goroutines' IDs and registers a cleanup that
// fails t, printing their stacks, if more than slack goroutines absent from
// the snapshot still run: one of the snapshot that exits cannot hide a new
// one. Cleanups run last-registered-first: what was handed to t.Cleanup
// before this call (a pool whose workers are in the snapshot) is still alive
// when the check runs, while what the test defers or registers later has
// been released by then. grown reports how many new goroutines run now.
func Check(t testing.TB, slack int) (grown func() int) {
	base := goroutines()
	fresh := func() (stacks [][]byte) {
		for id, stack := range goroutines() {
			if _, ok := base[id]; !ok {
				stacks = append(stacks, stack)
			}
		}
		return stacks
	}
	grown = func() int { return len(fresh()) }
	t.Cleanup(func() {
		for deadline := time.Now().Add(settle); grown() > slack && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		if stacks := fresh(); len(stacks) > slack {
			t.Errorf("goroutine leak: %d new goroutines still run (slack %d)\n%s", len(stacks), slack, bytes.Join(stacks, []byte("\n\n")))
		}
	})
	return grown
}

// goroutines returns every running goroutine's stack keyed by the ID in its
// header: "goroutine 7" of "goroutine 7 [running]:".
func goroutines() map[string][]byte {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string][]byte)
	for _, stack := range bytes.Split(buf[:n], []byte("\n\n")) {
		id, _, _ := bytes.Cut(stack, []byte(" ["))
		out[string(id)] = stack
	}
	return out
}

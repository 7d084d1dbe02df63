package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fakeTB records what Check does to a test without failing this one.
type fakeTB struct {
	testing.TB
	cleanups []func()
	errors   []string
}

func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}

func TestCheck(t *testing.T) {
	old := settle
	settle = 200 * time.Millisecond
	defer func() { settle = old }()

	cases := []struct {
		name        string
		slack       int
		exitsIn     time.Duration // 0: the goroutine outlives the check
		predecessor bool          // a goroutine in the snapshot exits before this one starts
		wantLeak    bool
	}{
		{"a goroutine that exits before the deadline is no leak", 0, 20 * time.Millisecond, false, false},
		{"a goroutine within the slack is no leak", 1, 0, false, false},
		{"a goroutine that stays is a leak", 0, 0, false, true},
		{"one from the snapshot that exits does not hide a new one", 0, 0, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			gone := make(chan struct{})
			if tc.predecessor {
				go func() { <-gone }()
			}
			tb := &fakeTB{TB: t}
			grown := Check(tb, tc.slack)
			close(gone)
			// Once the predecessor is gone, a count would show no growth.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				if tc.exitsIn > 0 {
					time.Sleep(tc.exitsIn)
					return
				}
				<-stop
			}()
			if grown() < 1 {
				t.Errorf("grown() = %d with a goroutine started since the snapshot", grown())
			}
			if len(tb.cleanups) != 1 {
				t.Fatalf("Check registered %d cleanups, want 1", len(tb.cleanups))
			}
			tb.cleanups[0]()
			if leaked := len(tb.errors) > 0; leaked != tc.wantLeak {
				t.Fatalf("leak reported = %v, want %v: %v", leaked, tc.wantLeak, tb.errors)
			}
			if tc.wantLeak && !strings.Contains(tb.errors[0], "leakcheck.TestCheck") {
				t.Errorf("the report does not show the leaked goroutine's stack:\n%s", tb.errors[0])
			}
		})
	}
}

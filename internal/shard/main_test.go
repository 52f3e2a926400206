package shard

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain runs the package's tests, then fails the run if a goroutine
// with a frame in this package outlives them: a health prober, a fan-out
// call or a test's own helper that nothing stopped. Goroutines still
// winding down get until a deadline to exit.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := shardGoroutines(time.Now().Add(5 * time.Second)); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines outlived the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// shardGoroutines polls until no goroutine other than the caller's has a
// repro/internal/shard. frame, or until deadline, and returns the stacks
// of those left ("" when none are).
func shardGoroutines(deadline time.Time) string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) { // truncated: grow and take the dump again
			buf = make([]byte, 2*len(buf))
			continue
		}
		// The dump opens with the calling goroutine's own stack.
		var leaked []string
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			if strings.Contains(g, "repro/internal/shard.") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

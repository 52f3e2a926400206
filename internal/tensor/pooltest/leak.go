package pooltest

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// NoLeaks runs a package's tests and returns their exit code, failed when a
// goroutine with a frame naming one of frames ("repro/internal/serve.") is
// still running 5 s after them: a dispatcher or prober nothing stopped. Use
//
//	func TestMain(m *testing.M) { os.Exit(pooltest.NoLeaks(m, "repro/internal/serve.")) }
func NoLeaks(m *testing.M, frames ...string) int {
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0; time.Sleep(10 * time.Millisecond) {
		buf, n := make([]byte, 64<<10), 0
		for n = runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) { // truncated: grow
			buf = make([]byte, 2*len(buf))
		}
		var leaked []string
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] { // [0] is this goroutine
			if slices.ContainsFunc(frames, func(f string) bool { return strings.Contains(g, f) }) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "goroutines outlived the tests:\n\n%s\n", strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	return code
}

// Package pooltest holds the two goroutine checks tests share: FannedOut,
// that a kernel package's parity test reached the kernel pool's workers and
// so did not compare the serial path with itself, and NoLeaks, that no
// goroutine of a package outlived its tests.
package pooltest

import (
	"testing"
	"time"
)

// FannedOut reads how many tasks pool() has finished and returns a check
// that fails t unless more have finished by the time it runs:
//
//	defer pooltest.FannedOut(t, tensor.DefaultPool)()
//
// A worker counts its task after the caller it helped has returned, so the
// check waits up to 10 s for the count to move.
func FannedOut[P interface{ Stats() (int, int, uint64) }](t testing.TB, pool func() P) func() {
	done := func() uint64 { _, _, n := pool().Stats(); return n }
	before := done()
	return func() {
		t.Helper()
		for end := time.Now().Add(10 * time.Second); done() <= before; time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatal("the kernel pool ran no task: the test never fanned out")
			}
		}
	}
}

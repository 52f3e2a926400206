//go:build race

package stream

// raceEnabled lets the allocation guards skip themselves: the race
// detector's instrumentation allocates, so AllocsPerRun is meaningless.
const raceEnabled = true

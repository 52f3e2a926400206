//go:build race

package stats

// raceEnabled lets the allocation guards skip themselves: the race
// detector's instrumentation allocates, so AllocsPerRun is meaningless.
const raceEnabled = true

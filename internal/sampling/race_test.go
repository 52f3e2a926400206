//go:build race

package sampling

// raceEnabled lets the allocation guards skip themselves: the race
// detector's instrumentation allocates, so AllocsPerRun is meaningless.
const raceEnabled = true

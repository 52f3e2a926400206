//go:build race

package minimpi

// raceEnabled lets the allocation guards skip themselves: the race
// detector's instrumentation allocates.
const raceEnabled = true

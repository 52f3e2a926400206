//go:build race

package spectral

// raceEnabled lets the allocation guards skip themselves: the race
// detector's instrumentation allocates.
const raceEnabled = true

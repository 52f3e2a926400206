//go:build race

package cfd3d

// raceEnabled lets the allocation guards skip themselves: the race
// detector's instrumentation allocates.
const raceEnabled = true

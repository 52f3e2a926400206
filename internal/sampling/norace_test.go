//go:build !race

package sampling

const raceEnabled = false

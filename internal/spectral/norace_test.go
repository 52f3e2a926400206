//go:build !race

package spectral

const raceEnabled = false

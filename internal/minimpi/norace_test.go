//go:build !race

package minimpi

const raceEnabled = false

//go:build !race

package sickle

const raceEnabled = false

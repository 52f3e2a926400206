//go:build !race

package cfd3d

const raceEnabled = false

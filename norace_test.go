//go:build !race

package uindex

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false

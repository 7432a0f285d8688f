//go:build race

package uindex

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random share of the objects put back, so allocation counts vary run to
// run.
const raceEnabled = true

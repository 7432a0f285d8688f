//go:build !linux || nouring

package pager

// UringAvailable reports whether batched reads go through io_uring; this
// build (non-Linux, or the `nouring` escape hatch) always uses the portable
// bounded-goroutine fallback.
func UringAvailable() bool { return false }

// uringReadRuns reports false so readRuns takes the portable path.
func uringReadRuns(fd uintptr, runs []ioRun) bool { return false }

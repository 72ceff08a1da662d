//go:build race

package bptree

// raceEnabled reports whether the race detector is instrumenting this build;
// it makes sync.Pool drop items at random, so allocation gates don't hold.
const raceEnabled = true

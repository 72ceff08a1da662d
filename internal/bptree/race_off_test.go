//go:build !race

package bptree

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false

//go:build race

package core_test

// raceEnabled reports whether the race detector is instrumenting this build;
// its shadow memory updates allocate and sync.Pool drops what it is handed
// at random, so allocation gates don't hold.
const raceEnabled = true

//go:build race

package sim

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and so voids allocation counts.
const raceEnabled = true

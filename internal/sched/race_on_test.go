//go:build race

package sched

// raceEnabled reports whether the race detector is compiled in.  It
// drops sync.Pool entries at random, so a pooled scratch buffer is
// sometimes rebuilt and AllocsPerRun gates are skipped under -race
// (the checks around them still run there).
const raceEnabled = true

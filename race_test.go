//go:build race

package retypd

// raceEnabled reports a -race build. The race detector changes what an
// allocation guard counts (sync.Pool drops entries at random), so the
// whole-pipeline guard only runs without it.
const raceEnabled = true

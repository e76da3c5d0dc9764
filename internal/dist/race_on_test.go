//go:build race

package dist

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation gates skip under it.
const raceEnabled = true

//go:build !race

package dataset

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation gates skip under it.
const raceEnabled = false

//go:build !unix

package dist

import "time"

// processCPU reports that this platform's process CPU time is not read.
func processCPU() (time.Duration, bool) { return 0, false }

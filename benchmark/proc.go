package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// releaseMemory drops garbage left by a discarded set-up pass and resets
// this process's peak-RSS mark, so peak_rss_mb reads what one set-up plus
// the measured phase need, however many set-up passes ran before. The
// reset is best effort: where /proc/self/clear_refs is not writable the
// mark keeps the discarded passes, which the collection has bounded to one
// live network at a time.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

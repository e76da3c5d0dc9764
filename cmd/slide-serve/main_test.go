package main

import (
	"runtime/debug"
	"testing"
)

// TestGCTargetDefault: with no GOGC in the environment, the server
// lowers the GC target to 25%.
func TestGCTargetDefault(t *testing.T) {
	t.Setenv("GOGC", "")
	prev := debug.SetGCPercent(100)
	defer debug.SetGCPercent(prev)
	setGCTarget()
	if got := debug.SetGCPercent(100); got != 25 {
		t.Fatalf("GC percent %d after setGCTarget, want 25", got)
	}
}

// TestGCTargetLeavesGOGC: a GOGC in the environment, which the runtime
// applied at startup, is left in force.
func TestGCTargetLeavesGOGC(t *testing.T) {
	t.Setenv("GOGC", "200")
	prev := debug.SetGCPercent(200)
	defer debug.SetGCPercent(prev)
	setGCTarget()
	if got := debug.SetGCPercent(200); got != 200 {
		t.Fatalf("GC percent %d after setGCTarget with GOGC=200, want 200", got)
	}
}

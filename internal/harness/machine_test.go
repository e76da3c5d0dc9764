package harness

import (
	"runtime"
	"testing"
)

// TestCurrentMachine: the fingerprint stamped into benchmark results
// describes the running process.
func TestCurrentMachine(t *testing.T) {
	m := CurrentMachine()
	if m.CPUModel == "" {
		t.Error("empty CPU model; want the model name or \"unknown\"")
	}
	if m.Cores != runtime.NumCPU() || m.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("cores %d / GOMAXPROCS %d, runtime reports %d / %d", m.Cores, m.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	if m.GoVersion != runtime.Version() || m.OS != runtime.GOOS || m.Arch != runtime.GOARCH {
		t.Errorf("toolchain %s %s/%s, runtime reports %s %s/%s", m.GoVersion, m.OS, m.Arch, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	}
}

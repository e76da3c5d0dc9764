// Package harness fingerprints the machine a benchmark result was recorded
// on. The end-to-end benchmark (benchmark/) stamps every result file with
// it.
package harness

import (
	"os"
	"runtime"
	"strings"
)

// MachineInfo identifies the hardware and toolchain a benchmark result was
// recorded on. Results are only comparable point-to-point when this block
// matches; the paper's numbers come from a 44-core Xeon E5-2699A, and
// scaling results especially are meaningless without the core count
// attached.
type MachineInfo struct {
	CPUModel   string
	Cores      int
	GOMAXPROCS int
	GoVersion  string
	OS         string
	Arch       string
}

// CurrentMachine probes the running host.
func CurrentMachine() MachineInfo {
	return MachineInfo{
		CPUModel:   cpuModel(),
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel extracts the CPU model string from /proc/cpuinfo; other
// platforms (or restricted environments) report "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return "unknown"
}

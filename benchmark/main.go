// Command benchmark is the repository's one end-to-end benchmark: four
// named workloads over the SLIDE trainer, its sharded transport and its
// server, each generated from -seed, checked for correct outputs, and
// reported as named metrics with units. README.md has the workload and
// metric tables; BENCHMARK.json at the repository root is the contract the
// driver reads.
//
//	go run ./benchmark                         # all four workloads, end-to-end metrics
//	go run ./benchmark -trace 1                # per-layer metrics, writes benchmark/out/trace.json
//	go run ./benchmark -workload serve_open -seed 7 -seconds 16
//	go run ./benchmark -aa                     # two sets of runs, differences against the bounds
//
// Every workload runs in a fresh child process (this binary re-executed),
// so peak RSS, heap and GC state never carry from one into the next. The
// last line of standard output is one JSON object per workload run:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/harness"
)

var workloadNames = []string{"train_converge", "train_xwide", "train_2shard", "serve_open"}

// options is what a workload run is given. The program under test receives
// only inputs generated from seed.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string // where the run may write: the server binary, model files, trace.json
	toy     bool   // smoke-test shapes; set only by smoke_test.go
}

// runWorkload runs one workload in this process.
func runWorkload(name string, o options) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	r := newReport(o.trace)
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s/seed%d", name, o.seed))
	}
	var err error
	if name == "serve_open" {
		err = runServe(o, tr, r)
	} else {
		err = runTrain(name, o, tr, r)
	}
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(o.outDir, "trace.json")); err != nil {
		return nil, err
	}
	return r, r.finish()
}

func main() {
	var (
		workloads = flag.String("workload", strings.Join(workloadNames, ","), "workloads to run, comma-separated")
		seed      = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Int("seconds", nominalSeconds, "length of the measured phase the workloads are sized for")
		trace     = flag.String("trace", "0", "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
		aa        = flag.Bool("aa", false, "run the selected workloads twice and print each metric's relative difference against its bound")
		jsonPath  = flag.String("json", "", "also write every run, with the machine stamp, to this file")
		child     = flag.Bool("child", false, "internal: run the one named workload in this process")
	)
	flag.Parse()
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fatal(2, "-trace wants 0 or 1, got %q", *trace)
	}
	if *seconds < 1 {
		fatal(2, "-seconds must be at least 1, got %d", *seconds)
	}
	o := options{seed: *seed, seconds: *seconds, trace: traced, outDir: filepath.Join("benchmark", "out")}
	if *child {
		r, err := runWorkload(*workloads, o)
		if err != nil {
			fatal(1, "%s: %v", *workloads, err)
		}
		json.NewEncoder(os.Stdout).Encode(r)
		return
	}

	names := strings.Split(*workloads, ",")
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fatal(2, "no workload %q (have %s)", n, strings.Join(workloadNames, ", "))
		}
	}
	// The shapes assume two cores (two training threads; a one-processor
	// server beside a one-thread driver). On one core every timing would be
	// a different system's, so none is reported.
	if runtime.NumCPU() < 2 {
		fatal(2, "this machine has %d CPU; the benchmark needs 2 and reports nothing on fewer", runtime.NumCPU())
	}
	out := output{Machine: harness.CurrentMachine(), Commit: commit(), Seed: *seed, Seconds: *seconds, Trace: traced}
	sets := 1
	if *aa {
		sets = 2
	}
	ok := true
	for set := range sets {
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "== %s (seed %d, %d s, trace %v, set %d)\n", n, *seed, *seconds, traced, set+1)
			r, err := runChild(n)
			if err != nil {
				fatal(1, "%s: %v", n, err)
			}
			ok = ok && r.Correct
			out.Runs = append(out.Runs, run{Workload: n, Set: set + 1, report: r})
		}
	}
	out.print()
	if *aa {
		out.printAA()
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, b, 0o644)
		}
		if err != nil {
			fatal(1, "-json: %v", err)
		}
	}
	for _, r := range out.Runs {
		json.NewEncoder(os.Stdout).Encode(r.result)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runChild re-executes this binary for one workload, with this process's
// flags, and reads the child's report from its standard output.
func runChild(name string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" && f.Name != "aa" && f.Name != "json" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	cmd := exec.Command(exe, append(args, "-child", "-workload="+name)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	r := &report{}
	if err := json.Unmarshal(stdout.Bytes(), r); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return r, nil
}

// commit is the checkout's git revision, or "unknown" outside a repository.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// run is one workload run in the -json output.
type run struct {
	Workload string `json:"workload"`
	Set      int    `json:"set"`
	*report
}

// output is everything one invocation measured, stamped with where.
type output struct {
	Machine harness.MachineInfo `json:"machine"`
	Commit  string              `json:"commit"`
	Seed    uint64              `json:"seed"`
	Seconds int                 `json:"seconds"`
	Trace   bool                `json:"trace"`
	Runs    []run               `json:"runs"`
}

// print writes every metric by name with its unit, one table per run.
func (o output) print() {
	m := o.Machine
	fmt.Printf("machine: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s\n", m.CPUModel, m.Cores, m.GOMAXPROCS, m.GoVersion, o.Commit)
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	for _, r := range o.Runs {
		fmt.Printf("\n%s  set %d  correct=%v  attempted=%d  failed=%d\n", r.Workload, r.Set, r.Correct, r.Attempted, r.Failed)
		for _, d := range defs {
			fmt.Printf("  %-32s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
		}
		for _, n := range r.Notes {
			fmt.Printf("  note: %s\n", n)
		}
	}
}

// printAA compares the two sets metric by metric against the bounds in
// BENCHMARK.json, read from the working directory.
func (o output) printAA() {
	bounds := map[string]float64{}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil && json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	half := len(o.Runs) / 2
	fmt.Printf("\nA/A: relative difference between two runs of the same code\n")
	for i, a := range o.Runs[:half] {
		b := o.Runs[half+i]
		for _, d := range defs {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := ratio(math.Abs(va-vb), math.Abs(va))
			verdict := ""
			if bound, ok := bounds[d.name]; ok {
				verdict = fmt.Sprintf("bound %.2f ok", bound)
				if diff > bound {
					verdict = fmt.Sprintf("bound %.2f EXCEEDED", bound)
				}
			}
			fmt.Printf("  %-16s %-32s %12.6g %12.6g  %6.3f  %s\n", a.Workload, d.name, va, vb, diff, verdict)
		}
	}
}

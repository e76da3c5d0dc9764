package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one metric and its unit. The two tables below are the
// Go side of BENCHMARK.json; smoke_test.go fails when they disagree.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload. The names
// are shared across workloads (the driver reads one list for all four), so
// each workload defines them on its own unit of work; README.md has the
// table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"time_to_target_s", "s"},
	{"step_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run reports. A metric whose layer does no work
// on a workload reads 0 there.
var perLayer = []metricDef{
	{"machine.speed", "ratio"},
	{"dataset.generate_s", "s"},
	{"lsh.query_hash_ns", "ns"},
	{"lsh.rebuild_hash_rows_per_s", "rows/s"},
	{"hashtable.build_rows_per_s", "rows/s"},
	{"hashtable.bucket_fill_mean", "count"},
	{"hashtable.empty_bucket_share", "fraction"},
	{"sampling.sample_ns", "ns"},
	{"sampling.active_mean", "count"},
	{"sampling.short_share", "fraction"},
	{"sampling.label_recall", "fraction"},
	{"kernels.gather_ns_per_row", "ns"},
	{"kernels.scatter_ns_per_nnz", "ns"},
	{"vecmath.dot128_ns", "ns"},
	{"vecmath.axpy128_ns", "ns"},
	{"vecmath.computed_gb_per_s", "GB/s"},
	{"optim.adam_row_ns", "ns"},
	{"core.train_examples_per_s", "1/s"},
	{"core.train_seconds", "s"},
	{"core.time_to_p1_s", "s"},
	{"core.p_at_1", "fraction"},
	{"core.iter_ms_p50", "ms"},
	{"core.iter_ms_p99", "ms"},
	{"core.rebuilds", "count"},
	{"core.rebuild_stall_share", "fraction"},
	{"core.rebuild_build_s", "s"},
	{"core.rows_rehashed", "count"},
	{"core.rows_reused", "count"},
	{"core.rebuild_tables_s", "s"},
	{"core.utilization", "fraction"},
	{"core.touched_cells_per_iter", "count"},
	{"core.kernel_gather_share", "fraction"},
	{"core.mean_active", "count"},
	{"core.apply_delta_ns_per_cell", "ns"},
	{"core.predict_exact_us", "us"},
	{"core.predict_sampled_us", "us"},
	{"core.eval_examples_per_s", "1/s"},
	{"core.model_bytes", "bytes"},
	{"core.save_model_s", "s"},
	{"core.load_model_s", "s"},
	{"core.new_network_s", "s"},
	{"core.allocs_per_iter", "count"},
	{"core.gc_cycles", "count"},
	{"dense.examples_per_s", "1/s"},
	{"dense.speedup", "ratio"},
	{"dist.exchange_blocked_share", "fraction"},
	{"dist.exchange_ms_p50", "ms"},
	{"dist.exchange_ms_p99", "ms"},
	{"dist.bytes_out_per_round", "bytes"},
	{"dist.bytes_in_per_round", "bytes"},
	{"dist.rounds", "count"},
	{"dist.encode_ns_per_cell", "ns"},
	{"dist.decode_ns_per_cell", "ns"},
	{"dist.merge_ns_per_cell", "ns"},
	{"dist.scaling_efficiency", "ratio"},
	{"dist.rank_weights_equal", "bool"},
	{"serve.p50_ms", "ms"},
	{"serve.p95_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.slo_ok_share", "fraction"},
	{"serve.exact_p50_ms", "ms"},
	{"serve.sampled_p50_ms", "ms"},
	{"serve.srv_p50_ms", "ms"},
	{"serve.srv_p99_ms", "ms"},
	{"serve.mean_batch_size", "count"},
	{"serve.overload_goodput_qps", "1/s"},
	{"serve.overload_p99_ms", "ms"},
	{"serve.overload_shed_share", "fraction"},
	{"serve.overload_admitted_qps", "1/s"},
	{"serve.deadline_exceeded", "count"},
	{"serve.expected_wait_ms", "ms"},
	{"serve.allocs_per_req", "count"},
	{"serve.gc_pause_p99_ms", "ms"},
	{"serve.gc_cycles", "count"},
	{"serve.cold_start_s", "s"},
	{"serve.handler_us_p50", "us"},
	{"serve.overhead_us_p50", "us"},
	{"driver.late_ms_p99", "ms"},
	{"driver.achieved_qps", "1/s"},
	{"driver.dropped", "count"},
	{"trace.overhead_share", "fraction"},
	{"replay.explained_share", "fraction"},
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run: the result line plus what does not fit
// in it (why a check failed, validity notes).
type report struct {
	result
	Notes []string `json:"notes,omitempty"`
	units map[string]string
}

// newReport starts a run's report over one of the two metric tables. A
// traced run starts every per-layer metric at 0, since most layers do no
// work on most workloads; an untraced run must set every metric itself
// (finish checks).
func newReport(trace bool) *report {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := &report{result: result{Correct: true, Metrics: map[string]metric{}}, units: map[string]string{}}
	for _, d := range defs {
		r.units[d.name] = d.unit
		if trace {
			r.Metrics[d.name] = metric{0, d.unit}
		}
	}
	return r
}

// set records a metric. Names in the other table are dropped: every
// workload computes both kinds and the run's table picks. A name in neither
// is a misspelling in this package, which the smoke test then finds.
func (r *report) set(name string, v float64) {
	if unit, ok := r.units[name]; ok {
		r.Metrics[name] = metric{v, unit}
		return
	}
	named := func(d metricDef) bool { return d.name == name }
	if !slices.ContainsFunc(endToEnd, named) && !slices.ContainsFunc(perLayer, named) {
		panic("benchmark: no metric named " + name)
	}
}

// check records a correctness check; a failed one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.note("FAILED CHECK: "+format, args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish verifies the report carries every metric of its table exactly
// once, each finite.
func (r *report) finish() error {
	for name := range r.units {
		m, ok := r.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	return nil
}

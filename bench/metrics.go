package main

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (zero for
	// per-layer metrics, which have none).
	Bound float64
}

// endToEnd are the host-side metrics of the untraced repetitions, each
// reported per workload as the median over repetitions. Times are
// scaled to the reference machine speed (monitor.go). Simulated results
// never appear here; they only feed the per-repetition checks. A bound
// must hold the quartile spread of ten runs on ten different seeds
// (README, "Bounds"): allocation volume repeats exactly for one seed
// but follows the input across seeds.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"alloc_mb", "MB", "lower", 0.1},
	{"allocs_m", "M", "lower", 0.1},
}

// rawTimes are the unscaled times and the machine slowdown that scales
// them, reported beside the end-to-end metrics but not gated.
var rawTimes = []metricDef{
	{Name: "wall_raw_s", Unit: "s"},
	{Name: "setup_raw_s", Unit: "s"},
	{Name: "slowdown", Unit: "x"},
}

// experimentIDs pins the experiment registry: the experiments-quick
// workload fails when the registered list differs, so a change to the
// suite re-baselines the benchmark instead of silently moving it.
var experimentIDs = []string{
	"ablation-secondlevel", "ablation-baselines", "ablation-window",
	"ablation-overload", "ablation-tail", "ablation-queueing",
	"chain-slowdown", "cluster-dispatch", "keepalive",
	"fig1", "table1", "fig2a", "fig2b", "fig13", "fig14", "fig15", "fig16",
	"table2", "predicted-dispatch",
	"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12a", "fig12b",
	"synth-ramp",
}

// experimentMetric names the per-experiment wall-clock layer metric.
func experimentMetric(id string) string { return "experiments." + id + "_s" }

// perLayer are the traced repetition's metrics, named after the
// package each layer lives in. A workload that bypasses a layer reports
// zero for it.
var perLayer = append([]metricDef{
	{Name: "trace.decode_s", Unit: "s", Better: "lower"},
	{Name: "trace.next_calls", Unit: "count", Better: "lower"},
	{Name: "trace.next_s", Unit: "s", Better: "lower"},
	{Name: "sched.calls", Unit: "count", Better: "lower"},
	{Name: "sched.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "sched.s", Unit: "s", Better: "lower"},
	{Name: "cpusim.preemptions", Unit: "count", Better: "lower"},
	{Name: "cpusim.dispatches", Unit: "count", Better: "lower"},
	{Name: "lifecycle.policy_s", Unit: "s", Better: "lower"},
	{Name: "lifecycle.cold_starts", Unit: "count", Better: "lower"},
	{Name: "lifecycle.evictions", Unit: "count", Better: "lower"},
	{Name: "lifecycle.warm_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dispatch.picks", Unit: "count", Better: "lower"},
	{Name: "dispatch.holds", Unit: "count", Better: "lower"},
	{Name: "dispatch.pick_s", Unit: "s", Better: "lower"},
	{Name: "dispatch.observe_s", Unit: "s", Better: "lower"},
	{Name: "host.self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.central_queue_max", Unit: "count", Better: "lower"},
	{Name: "chain.workflows", Unit: "count", Better: "higher"},
	{Name: "chain.stages", Unit: "count", Better: "higher"},
	{Name: "shard.windows", Unit: "count", Better: "lower"},
	{Name: "shard.us_per_window", Unit: "us", Better: "lower"},
	{Name: "shard.speedup", Unit: "x", Better: "higher"},
	{Name: "metrics.summarize_s", Unit: "s", Better: "lower"},
	{Name: "experiments.critical_s", Unit: "s", Better: "lower"},
	{Name: "experiments.sum_s", Unit: "s", Better: "lower"},
	{Name: "experiments.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "runtime.cpu_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}, experimentDefs()...)

func experimentDefs() []metricDef {
	defs := make([]metricDef, len(experimentIDs))
	for i, id := range experimentIDs {
		defs[i] = metricDef{Name: experimentMetric(id), Unit: "s", Better: "lower"}
	}
	return defs
}

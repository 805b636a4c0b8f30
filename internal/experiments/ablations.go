package experiments

import (
	"fmt"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// Ablations beyond the paper's figures: design-choice studies DESIGN.md
// calls out (second-level scheduler choice, monitor window size,
// overload threshold, baseline scheduler family, tail sensitivity).

// ablationWorkload is the shared high-load trace workload.
func ablationWorkload(cfg Config, cores int) []*task.Task {
	n := scaleN(cfg, 10000)
	return azureWorkload(cfg, n, cores, 0.9, nil, 0)
}

// ablationRow is a run's row under ablationHeader, labelled with its
// scheduler name, followed by extra columns.
func ablationRow(r metrics.Run, extra ...string) []string {
	ps := r.Percentiles([]float64{50, 99})
	return append([]string{
		r.Scheduler,
		fmtMS(ps[0]),
		fmtMS(ps[1]),
		metrics.FormatDuration(r.MeanTurnaround()),
		fmt.Sprintf("%.0f%%", 100*r.FractionRTEAtLeast(0.95)),
	}, extra...)
}

func ablationHeader() []string {
	return []string{"scheduler", "p50(ms)", "p99(ms)", "mean", "RTE>=0.95"}
}

// runAblationSecondLevel swaps SFS's second level from CFS to EEVDF —
// the paper claims SFS is OS-scheduler-agnostic (§V-A); this verifies
// the claim against the scheduler that replaced CFS in Linux 6.6.
func runAblationSecondLevel(cfg Config) *Report {
	const cores = standaloneCores
	rep := &Report{
		Title:  "SFS is second-level agnostic: CFS vs EEVDF underneath",
		Paper:  "(extension; the paper's §V-A claims OS-scheduler-agnosticism)",
		Header: ablationHeader(),
	}
	runs := replay(cfg, ablationWorkload(cfg, cores), cores, 0.9,
		named("CFS"), named("EEVDF"), sfsWith("SFS-on-CFS", nil),
		sfsWith("SFS-on-EEVDF", func(c *core.Config) { c.SecondLevel = sched.NewEEVDF() }))
	for _, r := range runs {
		rep.Rows = append(rep.Rows, ablationRow(r.Run))
	}
	median := func(r result) string { return metrics.FormatDuration(r.Percentiles([]float64{50})[0]) }
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"SFS median with CFS underneath %s vs EEVDF underneath %s — the FILTER level dominates short-function latency either way",
		median(runs[2]), median(runs[3])))
	return rep
}

// runAblationBaselines pits SFS against the wider scheduler family the
// paper situates itself in: RT policies (FIFO/RR), centralized
// core-granular scheduling (§XI), and classic proportional share
// (lottery).
func runAblationBaselines(cfg Config) *Report {
	const cores = standaloneCores
	rep := &Report{
		Title:  "SFS vs the scheduler family: FIFO, RR, CoreGranular, Lottery, SRTF",
		Paper:  "(extension of Fig 2's lineup with §XI's core-granular scheduler and lottery scheduling)",
		Header: ablationHeader(),
	}
	runs := replay(cfg, ablationWorkload(cfg, cores), cores, 0.9,
		named("SFS"), named("SRTF"), named("FIFO"), named("RR"), named("CoreGranular"),
		variant{"Lottery", func() cpusim.Scheduler { return sched.NewLottery(0, cfg.Seed) }})
	for _, r := range runs {
		rep.Rows = append(rep.Rows, ablationRow(r.Run))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"core-granular utilization %.0f%% (reserved cores idle during I/O; SFS's work-conserving design avoids this)",
		100*runs[4].eng.Utilization()))
	return rep
}

// runAblationWindow sweeps the monitor's sliding-window size N (the
// paper fixes N=100 without a sensitivity study).
func runAblationWindow(cfg Config) *Report {
	const cores = standaloneCores
	rep := &Report{
		Title:  "Sensitivity to the monitor window size N (paper uses 100)",
		Paper:  "(extension; §V-C picks N=100)",
		Header: append(ablationHeader(), "recalcs"),
	}
	var vs []variant
	for _, n := range []int{25, 100, 400} {
		vs = append(vs, sfsWith(fmt.Sprintf("SFS N=%d", n), func(c *core.Config) { c.WindowSize = n }))
	}
	for _, r := range replay(cfg, ablationWorkload(cfg, cores), cores, 0.9, vs...) {
		rep.Rows = append(rep.Rows, ablationRow(r.Run, fmt.Sprint(len(r.sfs.Stat.SliceTimeline)-1)))
	}
	rep.Notes = append(rep.Notes, "small N adapts faster to bursts but jitters S; large N smooths at the cost of lag")
	return rep
}

// runAblationOverload sweeps the overload factor O (the paper sets O=3
// empirically).
func runAblationOverload(cfg Config) *Report {
	rep := &Report{
		Title:  "Sensitivity to the overload factor O (paper sets O=3)",
		Paper:  "(extension; §V-E chooses O=3 empirically)",
		Header: append(ablationHeader(), "routed", "maxQdelay"),
	}
	var vs []variant
	for _, o := range []float64{1.5, 3, 6, 1e9} {
		name := fmt.Sprintf("SFS O=%.1f", o)
		if o > 1e6 {
			name = "SFS O=inf"
		}
		vs = append(vs, sfsWith(name, func(c *core.Config) { c.OverloadFactor = o }))
	}
	for _, r := range replay(cfg, spikeWorkload(cfg), standaloneCores, 0.9, vs...) {
		rep.Rows = append(rep.Rows, ablationRow(r.Run,
			fmt.Sprint(r.sfs.Stat.OverloadRouted), metrics.FormatDuration(maxQueueDelay(r.sfs))))
	}
	rep.Notes = append(rep.Notes, "lower O routes more aggressively (draining spikes sooner, touching more requests); O=inf is Fig 12's no-hybrid")
	return rep
}

// runAblationQueueing quantifies §VI's design argument for a single
// global queue: per-core queues with round-robin assignment suffer load
// imbalance (a long request blocks everything routed behind it on the
// same queue while other workers idle).
func runAblationQueueing(cfg Config) *Report {
	const cores = standaloneCores
	rep := &Report{
		Title:  "Global queue vs per-core queues with round-robin assignment",
		Paper:  "(§VI: 'a single global queue guarantees natural work conservation with good load balancing'; per-core designs suffer imbalance)",
		Header: ablationHeader(),
	}
	runs := replay(cfg, ablationWorkload(cfg, cores), cores, 0.9,
		sfsWith("SFS (global queue)", nil),
		sfsWith("SFS (per-core queues)", func(c *core.Config) { c.PerCoreQueue = true }))
	for _, r := range runs {
		rep.Rows = append(rep.Rows, ablationRow(r.Run))
	}
	rep.Notes = append(rep.Notes,
		"per-core queues lose the single-queue model's natural load balancing: short requests stuck behind a local long one wait while other FILTER workers idle")
	return rep
}

// runAblationTail replaces the fib-materialized Table I long mode with
// the Azure trace's production heavy tail (up to 224 s) and shows the
// SFS-vs-CFS trade under it.
func runAblationTail(cfg Config) *Report {
	const cores = standaloneCores
	n := scaleN(cfg, 10000)
	rep := &Report{
		Title:  "Duration-tail sensitivity: fib 34-35 mode vs production heavy tail",
		Paper:  "(extension; the paper's benchmark truncates the Azure tail at fib(35))",
		Header: append([]string{"tail"}, ablationHeader()...),
	}
	for _, tail := range []string{"fib34-35", "pareto224s"} {
		spec := workload.Spec{N: n, Cores: cores, Load: derate(0.9), Seed: cfg.Seed}
		if tail == "pareto224s" {
			spec.Duration = workload.AzureTailDistribution()
		}
		w := trace.Collect(workload.Stream(spec))
		for _, r := range replay(cfg, w, cores, 0.9, named("SFS"), named("CFS")) {
			rep.Rows = append(rep.Rows, append([]string{tail}, ablationRow(r.Run)...))
		}
	}
	rep.Notes = append(rep.Notes,
		"under the production tail, SFS's short-function protection matters even more: CFS spreads multi-minute functions' interference over everyone")
	return rep
}

package experiments

import (
	"fmt"
	"time"

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
func init() {
	register("ablation-secondlevel", "SFS atop CFS vs atop EEVDF (Linux 6.6+)", runAblationSecondLevel)
	register("ablation-baselines", "SFS vs FIFO/RR/CoreGranular/Lottery baselines", runAblationBaselines)
	register("ablation-window", "Monitor window size N sensitivity", runAblationWindow)
	register("ablation-overload", "Overload factor O sensitivity", runAblationOverload)
	register("ablation-tail", "Table I fib tail vs production Azure heavy tail", runAblationTail)
	register("ablation-queueing", "Global queue vs per-core queues (§VI design argument)", runAblationQueueing)
}

// ablationWorkload is the shared high-load trace workload.
func ablationWorkload(cfg Config, cores int) []*task.Task {
	n := scaleN(cfg, 10000)
	return azureWorkload(cfg, n, cores, 0.9, nil, 0)
}

func summarize(rep *Report, name string, r metrics.Run) {
	ps := r.Percentiles([]float64{50, 99})
	rep.Rows = append(rep.Rows, []string{
		name,
		fmtMS(ps[0]),
		fmtMS(ps[1]),
		metrics.FormatDuration(r.MeanTurnaround()),
		fmt.Sprintf("%.0f%%", 100*r.FractionRTEAtLeast(0.95)),
	})
}

func ablationHeader() []string {
	return []string{"scheduler", "p50(ms)", "p99(ms)", "mean", "RTE>=0.95"}
}

// runAblationSecondLevel swaps SFS's second level from CFS to EEVDF —
// the paper claims SFS is OS-scheduler-agnostic (§V-A); this verifies
// the claim against the scheduler that replaced CFS in Linux 6.6.
func runAblationSecondLevel(cfg Config) *Report {
	const cores = standaloneCores
	w := ablationWorkload(cfg, cores)
	rep := &Report{
		ID:     "ablation-secondlevel",
		Title:  "SFS is second-level agnostic: CFS vs EEVDF underneath",
		Paper:  "(extension; the paper's §V-A claims OS-scheduler-agnosticism)",
		Header: ablationHeader(),
	}
	variants := []struct {
		name string
		mk   func() cpusim.Scheduler
	}{
		{"CFS", func() cpusim.Scheduler { return sched.NewCFS() }},
		{"EEVDF", func() cpusim.Scheduler { return sched.NewEEVDF() }},
		{"SFS-on-CFS", func() cpusim.Scheduler { return core.New(core.DefaultConfig()) }},
		{"SFS-on-EEVDF", func() cpusim.Scheduler {
			c := core.DefaultConfig()
			c.SecondLevel = sched.NewEEVDF()
			return core.New(c)
		}},
	}
	medians := map[string]time.Duration{}
	for _, v := range variants {
		r, _ := runOn(v.mk(), cores, trace.CloneTasks(w), 0.9)
		summarize(rep, v.name, r)
		medians[v.name] = r.Percentiles([]float64{50})[0]
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"SFS median with CFS underneath %s vs EEVDF underneath %s — the FILTER level dominates short-function latency either way",
		metrics.FormatDuration(medians["SFS-on-CFS"]), metrics.FormatDuration(medians["SFS-on-EEVDF"])))
	return rep
}

// runAblationBaselines pits SFS against the wider scheduler family the
// paper situates itself in: RT policies (FIFO/RR), centralized
// core-granular scheduling (§XI), and classic proportional share
// (lottery).
func runAblationBaselines(cfg Config) *Report {
	const cores = standaloneCores
	w := ablationWorkload(cfg, cores)
	rep := &Report{
		ID:     "ablation-baselines",
		Title:  "SFS vs the scheduler family: FIFO, RR, CoreGranular, Lottery, SRTF",
		Paper:  "(extension of Fig 2's lineup with §XI's core-granular scheduler and lottery scheduling)",
		Header: ablationHeader(),
	}
	variants := []struct {
		name string
		mk   func() cpusim.Scheduler
	}{
		{"SFS", func() cpusim.Scheduler { return core.New(core.DefaultConfig()) }},
		{"SRTF", func() cpusim.Scheduler { return sched.NewSRTF() }},
		{"FIFO", func() cpusim.Scheduler { return sched.NewFIFO() }},
		{"RR", func() cpusim.Scheduler { return sched.NewRR(0) }},
		{"CoreGranular", func() cpusim.Scheduler { return sched.NewCoreGranular() }},
		{"Lottery", func() cpusim.Scheduler { return sched.NewLottery(0, cfg.Seed) }},
	}
	for _, v := range variants {
		r, eng := runOn(v.mk(), cores, trace.CloneTasks(w), 0.9)
		summarize(rep, v.name, r)
		if v.name == "CoreGranular" {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"core-granular utilization %.0f%% (reserved cores idle during I/O; SFS's work-conserving design avoids this)",
				100*eng.Utilization()))
		}
	}
	return rep
}

// runAblationWindow sweeps the monitor's sliding-window size N (the
// paper fixes N=100 without a sensitivity study).
func runAblationWindow(cfg Config) *Report {
	const cores = standaloneCores
	w := ablationWorkload(cfg, cores)
	rep := &Report{
		ID:     "ablation-window",
		Title:  "Sensitivity to the monitor window size N (paper uses 100)",
		Paper:  "(extension; §V-C picks N=100)",
		Header: append(ablationHeader(), "recalcs"),
	}
	for _, n := range []int{25, 100, 400} {
		c := core.DefaultConfig()
		c.WindowSize = n
		s := core.New(c)
		r, _ := runOn(s, cores, trace.CloneTasks(w), 0.9)
		ps := r.Percentiles([]float64{50, 99})
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("SFS N=%d", n),
			fmtMS(ps[0]), fmtMS(ps[1]),
			metrics.FormatDuration(r.MeanTurnaround()),
			fmt.Sprintf("%.0f%%", 100*r.FractionRTEAtLeast(0.95)),
			fmt.Sprint(len(s.Stat.SliceTimeline) - 1),
		})
	}
	rep.Notes = append(rep.Notes, "small N adapts faster to bursts but jitters S; large N smooths at the cost of lag")
	return rep
}

// runAblationOverload sweeps the overload factor O (the paper sets O=3
// empirically).
func runAblationOverload(cfg Config) *Report {
	const cores = standaloneCores
	n := scaleN(cfg, 10000)
	width := n / 20
	if width < 150 {
		width = 150
	}
	w := trace.Collect(workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: cores, Load: derate(0.9), Seed: cfg.Seed,
		Spikes: 5, SpikeWidth: width,
	}))
	rep := &Report{
		ID:     "ablation-overload",
		Title:  "Sensitivity to the overload factor O (paper sets O=3)",
		Paper:  "(extension; §V-E chooses O=3 empirically)",
		Header: append(ablationHeader(), "routed", "maxQdelay"),
	}
	for _, o := range []float64{1.5, 3, 6, 1e9} {
		c := core.DefaultConfig()
		c.OverloadFactor = o
		s := core.New(c)
		r, _ := runOn(s, cores, trace.CloneTasks(w), 0.9)
		var maxD time.Duration
		for _, d := range s.Stat.QueueDelays {
			if d.Delay > maxD {
				maxD = d.Delay
			}
		}
		name := fmt.Sprintf("SFS O=%.1f", o)
		if o > 1e6 {
			name = "SFS O=inf"
		}
		ps := r.Percentiles([]float64{50, 99})
		rep.Rows = append(rep.Rows, []string{
			name, fmtMS(ps[0]), fmtMS(ps[1]),
			metrics.FormatDuration(r.MeanTurnaround()),
			fmt.Sprintf("%.0f%%", 100*r.FractionRTEAtLeast(0.95)),
			fmt.Sprint(s.Stat.OverloadRouted),
			metrics.FormatDuration(maxD),
		})
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
	w := ablationWorkload(cfg, cores)
	rep := &Report{
		ID:     "ablation-queueing",
		Title:  "Global queue vs per-core queues with round-robin assignment",
		Paper:  "(§VI: 'a single global queue guarantees natural work conservation with good load balancing'; per-core designs suffer imbalance)",
		Header: ablationHeader(),
	}
	for _, v := range []struct {
		name    string
		perCore bool
	}{{"SFS (global queue)", false}, {"SFS (per-core queues)", true}} {
		c := core.DefaultConfig()
		c.PerCoreQueue = v.perCore
		r, _ := runOn(core.New(c), cores, trace.CloneTasks(w), 0.9)
		summarize(rep, v.name, r)
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
		ID:     "ablation-tail",
		Title:  "Duration-tail sensitivity: fib 34-35 mode vs production heavy tail",
		Paper:  "(extension; the paper's benchmark truncates the Azure tail at fib(35))",
		Header: append([]string{"tail", "scheduler"}, ablationHeader()[1:]...),
	}
	for _, tail := range []string{"fib34-35", "pareto224s"} {
		spec := workload.Spec{N: n, Cores: cores, Load: derate(0.9), Seed: cfg.Seed}
		if tail == "pareto224s" {
			spec.Duration = workload.AzureTailDistribution()
		}
		w := trace.Collect(workload.Stream(spec))
		for _, mk := range []struct {
			name string
			mk   func() cpusim.Scheduler
		}{
			{"SFS", func() cpusim.Scheduler { return core.New(core.DefaultConfig()) }},
			{"CFS", func() cpusim.Scheduler { return sched.NewCFS() }},
		} {
			r, _ := runOn(mk.mk(), cores, trace.CloneTasks(w), 0.9)
			ps := r.Percentiles([]float64{50, 99})
			rep.Rows = append(rep.Rows, []string{
				tail, mk.name,
				fmtMS(ps[0]), fmtMS(ps[1]),
				metrics.FormatDuration(r.MeanTurnaround()),
				fmt.Sprintf("%.0f%%", 100*r.FractionRTEAtLeast(0.95)),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"under the production tail, SFS's short-function protection matters even more: CFS spreads multi-minute functions' interference over everyone")
	return rep
}

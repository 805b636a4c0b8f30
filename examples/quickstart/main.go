// Quickstart: generate a small Azure-like FaaS workload, run it under
// both CFS and SFS on a simulated 8-core host, and print the paper's
// headline metrics (turnaround percentiles, RTE, speedup split).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

func main() {
	const cores = 8

	// 1. A FaaSBench workload: Table I durations, Poisson arrivals
	//    calibrated to 100% offered CPU load on 8 cores.
	src := workload.Stream(workload.Spec{
		N:     3000,
		Cores: cores,
		Load:  1.0,
		Seed:  1,
	})
	w := trace.Collect(src)
	var ideal time.Duration
	for _, t := range w {
		ideal += t.IdealDuration()
	}
	span := time.Duration(w[len(w)-1].Arrival - w[0].Arrival)
	fmt.Printf("workload: %s\n", src)
	fmt.Printf("mean service %v, mean IAT %v\n\n", ideal/time.Duration(len(w)), span/time.Duration(len(w)-1))

	// 2. Replay the identical invocation stream under each scheduler,
	//    on a fresh copy of the collected tasks each time.
	run := func(s cpusim.Scheduler) metrics.Run {
		tasks := trace.CloneTasks(w)
		eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 100 * time.Hour}, s)
		eng.Submit(tasks...)
		makespan := eng.Run()
		fmt.Printf("%-4s: simulated %v, %d context switches\n",
			s.Name(), makespan.Round(time.Millisecond), eng.TotalCtxSwitches)
		return metrics.Run{Scheduler: s.Name(), Tasks: tasks}
	}
	cfs := run(sched.NewCFS())
	sfs := run(core.New(core.DefaultConfig()))

	// 3. The paper's metrics.
	fmt.Println()
	header := []string{"scheduler", "p50", "p90", "p99", "RTE>=0.95"}
	var rows [][]string
	for _, r := range []metrics.Run{cfs, sfs} {
		ps := r.Percentiles([]float64{50, 90, 99})
		rows = append(rows, []string{
			r.Scheduler,
			metrics.FormatDuration(ps[0]),
			metrics.FormatDuration(ps[1]),
			metrics.FormatDuration(ps[2]),
			fmt.Sprintf("%.0f%%", 100*r.FractionRTEAtLeast(0.95)),
		})
	}
	fmt.Print(metrics.Table(header, rows))

	sum := metrics.CompareRuns(cfs, sfs)
	fmt.Printf("\nSFS vs CFS: %.0f%% of requests improved (mean %.1fx); %.0f%% regressed (mean %.2fx)\n",
		100*sum.ShortFraction, sum.ShortSpeedupArith,
		100*sum.LongFraction, sum.LongSlowdownArith)
}

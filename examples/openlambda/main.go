// OpenLambda: the paper's §IX end-to-end evaluation in miniature — run
// the fib/md/sa application mix through the OpenLambda platform
// simulation (gateway + worker + sandbox overheads, UDP-notified SFS
// port) and compare OL+SFS against OL+CFS.
//
// Run with: go run ./examples/openlambda
package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/faas"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/trace"
)

func main() {
	const cores = 24 // scaled-down deployment; the paper uses 72
	const n = 4000

	// The same arguments regenerate the stream byte for byte, so each
	// deployment opens its own.
	open := func() trace.Source { return faas.OpenLambdaWorkload(n, cores, 0.9, 3) }
	fmt.Printf("workload: %s\n", open())

	cfsPlatform := faas.New(faas.Config{
		Cores:         cores,
		Overheads:     faas.DefaultOverheads(),
		CtxSwitchCost: 150 * time.Microsecond,
		Seed:          4,
	})
	cfsRes := cfsPlatform.RunTrace(open(), sched.NewCFS())

	sfs := core.New(core.DefaultConfig())
	sfsPlatform := faas.New(faas.Config{
		Cores:         cores,
		Overheads:     faas.DefaultOverheads(),
		CtxSwitchCost: 150 * time.Microsecond,
		SFSPort:       true, // sandbox -> SFS UDP notification hop
		Seed:          4,
	})
	sfsRes := sfsPlatform.RunTrace(open(), sfs)

	fmt.Printf("mean dispatch overhead: %v (CFS) / %v (SFS incl. UDP hop)\n\n",
		cfsRes.MeanDispatchOverhead.Round(time.Microsecond),
		sfsRes.MeanDispatchOverhead.Round(time.Microsecond))

	header := []string{"deployment", "p50", "p90", "p99", "mean", "ctx switches"}
	rows := [][]string{}
	for _, r := range []struct {
		name string
		res  faas.Result
	}{{"OL+CFS", cfsRes}, {"OL+SFS", sfsRes}} {
		ps := r.res.Run.Percentiles([]float64{50, 90, 99})
		rows = append(rows, []string{
			r.name,
			metrics.FormatDuration(ps[0]),
			metrics.FormatDuration(ps[1]),
			metrics.FormatDuration(ps[2]),
			metrics.FormatDuration(r.res.Run.MeanTurnaround()),
			fmt.Sprint(r.res.Engine.TotalCtxSwitches),
		})
	}
	fmt.Print(metrics.Table(header, rows))

	// Fig 16: per-request context-switch ratio.
	ratios := metrics.CtxSwitchRatios(cfsRes.Run, sfsRes.Run)
	sort.Float64s(ratios)
	above1, above10 := 0, 0
	for _, r := range ratios {
		if r > 1 {
			above1++
		}
		if r >= 10 {
			above10++
		}
	}
	fmt.Printf("\nper-request CFS/SFS context-switch ratio: >1x for %.0f%%, >=10x for %.0f%% of requests\n",
		100*float64(above1)/float64(len(ratios)), 100*float64(above10)/float64(len(ratios)))

	// Per-application breakdown, as the paper's workload mixes
	// CPU-heavy (fib), I/O-heavy (md), and mixed (sa) functions.
	fmt.Println("\nper-app median turnaround:")
	for _, app := range []string{"fib", "md", "sa"} {
		var cfsT, sfsT []time.Duration
		for _, t := range cfsRes.Run.Tasks {
			if t.App == app {
				cfsT = append(cfsT, t.Turnaround())
			}
		}
		for _, t := range sfsRes.Run.Tasks {
			if t.App == app {
				sfsT = append(sfsT, t.Turnaround())
			}
		}
		sort.Slice(cfsT, func(i, j int) bool { return cfsT[i] < cfsT[j] })
		sort.Slice(sfsT, func(i, j int) bool { return sfsT[i] < sfsT[j] })
		fmt.Printf("  %-4s OL+CFS %-10s OL+SFS %s\n", app,
			metrics.FormatDuration(cfsT[len(cfsT)/2]),
			metrics.FormatDuration(sfsT[len(sfsT)/2]))
	}

	// Table II flavour: modeled user-space overhead of the SFS port.
	model := faas.DefaultOverheadModel()
	pollCPU, schedCPU, rel := model.Estimate(
		sfs.Stat.FilterBusy, 4*time.Millisecond, sfs.Stat.SchedulingOps, cores, sfsRes.Makespan)
	fmt.Printf("\nSFS user-space overhead model: poll %v + sched %v = %.1f%% of deployment CPU\n",
		pollCPU.Round(time.Millisecond), schedCPU.Round(time.Millisecond), rel*100)
}

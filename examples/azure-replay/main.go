// Azure-replay: the paper's §VIII evaluation in miniature — replay a
// bursty Azure-sampled trace across load levels under SFS and CFS and
// watch SFS hold its median flat while CFS degrades (Fig 6/7), then
// demonstrate the overload hybrid on an injected spike train (Fig 12).
//
// Run with: go run ./examples/azure-replay
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

const cores = 12

// replay runs src under s. The same spec and seed regenerate a stream
// byte for byte, so each run opens its own.
func replay(src trace.Source, s cpusim.Scheduler) metrics.Run {
	tasks := trace.Collect(src)
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 100 * time.Hour}, s)
	eng.Submit(tasks...)
	eng.Run()
	return metrics.Run{Scheduler: s.Name(), Tasks: tasks}
}

func main() {
	fmt.Println("== load sweep (trace-driven arrivals) ==")
	header := []string{"load", "SFS p50", "CFS p50", "SFS RTE>=.95", "CFS RTE>=.95"}
	var rows [][]string
	for _, load := range []float64{0.65, 0.8, 1.0} {
		spec := workload.AzureSampledSpec{N: 4000, Cores: cores, Load: load, Seed: 11}
		sfs := replay(workload.AzureSampledStream(spec), core.New(core.DefaultConfig()))
		cfs := replay(workload.AzureSampledStream(spec), sched.NewCFS())
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", load*100),
			metrics.FormatDuration(sfs.Percentiles([]float64{50})[0]),
			metrics.FormatDuration(cfs.Percentiles([]float64{50})[0]),
			fmt.Sprintf("%.0f%%", 100*sfs.FractionRTEAtLeast(0.95)),
			fmt.Sprintf("%.0f%%", 100*cfs.FractionRTEAtLeast(0.95)),
		})
	}
	fmt.Print(metrics.Table(header, rows))

	fmt.Println("\n== transient overload (5 injected spikes, Fig 12 setup) ==")
	spikes := workload.AzureSampledSpec{
		N: 4000, Cores: cores, Load: 0.9, Seed: 11,
		Spikes: 5, SpikeWidth: 200,
	}
	for _, hybrid := range []bool{true, false} {
		cfg := core.DefaultConfig()
		cfg.Hybrid = hybrid
		s := core.New(cfg)
		replay(workload.AzureSampledStream(spikes), s)
		var maxDelay time.Duration
		for _, d := range s.Stat.QueueDelays {
			if d.Delay > maxDelay {
				maxDelay = d.Delay
			}
		}
		fmt.Printf("%-16s max queue delay %-10s overload-routed %d\n",
			s.Name(), metrics.FormatDuration(maxDelay), s.Stat.OverloadRouted)
	}
}

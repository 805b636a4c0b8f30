// Cluster: the multi-host simulation layer end to end — one Azure-like
// invocation stream fanned out across four simulated SFS hosts under
// every registered dispatch policy, with cluster-wide and per-host
// metrics, the pull-based central-queue trade-off, and a determinism
// check (same seed + spec + host count → identical results).
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

const (
	hosts        = 4
	coresPerHost = 8
	n            = 4000
	seed         = 17
)

// source regenerates the identical Azure-sampled stream on every call:
// sources are deterministic in (spec, seed), so each policy sees the
// exact same arrivals.
func source() trace.Source {
	return workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: hosts * coresPerHost, Load: 0.95, Seed: seed,
		// The fib/md/sa mix gives HASH affinity something to pin: each
		// application sticks to one host.
		Apps: workload.OpenLambdaMix(),
	})
}

// runPolicy simulates the stream across the cluster under one dispatch
// policy, each host running its own SFS instance.
func runPolicy(policy string) *cluster.Result {
	d, err := cluster.NewDispatcher(policy, cluster.FactoryConfig{Hosts: hosts, Seed: seed})
	if err != nil {
		panic(err)
	}
	cl, err := cluster.New(cluster.Config{
		Hosts:        hosts,
		CoresPerHost: coresPerHost,
		NewScheduler: func() cpusim.Scheduler { return core.New(core.DefaultConfig()) },
		Dispatcher:   d,
	})
	if err != nil {
		panic(err)
	}
	res, err := cl.Run(source())
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	fmt.Printf("cluster: %d hosts x %d cores, SFS on every host, %d invocations at 95%% load\n\n",
		hosts, coresPerHost, n)

	// 1. Every dispatch policy over the same stream.
	fmt.Println("== dispatch policy comparison ==")
	header := []string{"dispatch", "p50", "p99", "mean", "RTE>=0.95", "central q max", "q delay max"}
	var rows [][]string
	results := map[string]*cluster.Result{}
	for _, policy := range cluster.Names() {
		res := runPolicy(policy)
		results[policy] = res
		ps := res.Merged.Percentiles([]float64{50, 99})
		rows = append(rows, []string{
			policy,
			metrics.FormatDuration(ps[0]),
			metrics.FormatDuration(ps[1]),
			metrics.FormatDuration(res.Merged.MeanTurnaround()),
			fmt.Sprintf("%.1f%%", 100*res.Merged.FractionRTEAtLeast(0.95)),
			fmt.Sprintf("%d", res.CentralQueueMax),
			metrics.FormatDuration(res.QueueDelayMax),
		})
	}
	fmt.Print(metrics.Table(header, rows))

	// 2. Per-host balance under two contrasting policies: HASH
	//    concentrates each application on one host, LEASTLOADED spreads
	//    instantaneous load.
	fmt.Println("\n== per-host balance: HASH vs LEASTLOADED ==")
	for _, policy := range []string{"HASH", "LEASTLOADED"} {
		res := results[policy]
		fmt.Printf("%s:", policy)
		for _, hr := range res.PerHost {
			fmt.Printf("  %d reqs (%.0f%% util)", hr.Dispatches, hr.Utilization*100)
		}
		fmt.Println()
	}

	// 3. The pull-based trade-off: no host is ever oversubscribed, so
	//    per-host context switches vanish — the wait moves into the
	//    central queue instead.
	pull := results["PULL"]
	var pullCtx, rrCtx int64
	for _, hr := range pull.PerHost {
		pullCtx += hr.CtxSwitches
	}
	for _, hr := range results["RR"].PerHost {
		rrCtx += hr.CtxSwitches
	}
	fmt.Printf("\n== the Hiku trade-off ==\nPULL: %d host ctx switches (RR: %d); central queue peaked at %d held, max dispatch delay %s\n",
		pullCtx, rrCtx, pull.CentralQueueMax, metrics.FormatDuration(pull.QueueDelayMax))

	// 4. Determinism: replaying the identical spec yields identical
	//    cluster-level metrics, policy by policy.
	again := runPolicy("JSQ")
	first := results["JSQ"]
	same := again.Makespan == first.Makespan &&
		again.Merged.MeanTurnaround() == first.Merged.MeanTurnaround()
	fmt.Printf("\n== determinism ==\nJSQ replay: makespan %v == %v, mean %v == %v -> identical: %v\n",
		first.Makespan.Round(time.Millisecond), again.Makespan.Round(time.Millisecond),
		first.Merged.MeanTurnaround(), again.Merged.MeanTurnaround(), same)
	if !same {
		panic("cluster run was not deterministic")
	}
}

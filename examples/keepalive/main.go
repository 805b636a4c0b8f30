// Keepalive: the container lifecycle layer end to end — the same
// invocation stream under every registered keep-alive policy, cold
// starts on the critical path, memory pressure and LRU eviction, the
// histogram policy's pre-warming, the WARM-FIRST dispatcher on a
// cluster, and a determinism check (same seed + spec + policy →
// identical results).
//
// Run with: go run ./examples/keepalive
package main

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

const (
	cores = 8
	n     = 3000
	seed  = 33
	ttl   = 10 * time.Second // fixed window: covers bursts, misses long gaps
)

// source regenerates the identical Azure-sampled mix on every call, so
// each policy sees the exact same arrivals.
func source() trace.Source {
	return workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: cores, Load: 0.85, Seed: seed,
		Apps: workload.OpenLambdaMix(),
	})
}

// runPolicy replays the stream on one SFS host under a keep-alive
// policy and memory budget (0 = unlimited).
func runPolicy(policy string, memoryMB int) (lifecycle.Stats, metrics.Run) {
	p, err := lifecycle.NewPolicy(policy, lifecycle.PolicyConfig{TTL: ttl, Seed: seed})
	if err != nil {
		panic(err)
	}
	mgr, err := lifecycle.New(lifecycle.Config{Policy: p, MemoryMB: memoryMB, Seed: seed})
	if err != nil {
		panic(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, core.New(core.DefaultConfig()))
	if _, err := lifecycle.Run(source(), mgr, eng); err != nil {
		panic(err)
	}
	return mgr.Stats(), metrics.Run{Scheduler: policy, Tasks: eng.Tasks()}
}

func main() {
	fmt.Printf("keep-alive: %d Azure-sampled invocations on one %d-core SFS host\n\n", n, cores)

	// 1. Every policy over the same stream, unlimited memory: the cost
	//    of cold starts and the value of any keep-alive at all.
	fmt.Println("== keep-alive policy comparison (unlimited memory) ==")
	header := append([]string{"policy"}, metrics.ColdStartHeader()...)
	header = append(header, "p50", "p99", "mean")
	var rows [][]string
	for _, policy := range lifecycle.PolicyNames() {
		st, run := runPolicy(policy, 0)
		ps := run.Percentiles([]float64{50, 99})
		row := append([]string{policy}, st.Columns()...)
		row = append(row,
			metrics.FormatDuration(ps[0]),
			metrics.FormatDuration(ps[1]),
			metrics.FormatDuration(run.MeanTurnaround()))
		rows = append(rows, row)
	}
	fmt.Print(metrics.Table(header, rows))

	// 2. Memory pressure: shrink the budget and watch LRU eviction eat
	//    the warm pool.
	fmt.Println("\n== memory pressure (TTL policy) ==")
	for _, mem := range []int{0, 2048, 1024, 512} {
		st, _ := runPolicy("TTL", mem)
		label := "unlimited"
		if mem > 0 {
			label = fmt.Sprintf("%4d MB", mem)
		}
		fmt.Printf("%s: %5.1f%% warm hits, %4d cold starts, %4d evictions, peak %5d MB\n",
			label, 100*st.WarmHitRatio(), st.ColdStarts, st.Evictions, st.MemPeakMB)
	}

	// 3. The histogram policy's pre-warming: a rarely-but-regularly
	//    invoked app (every 30 s) misses a 10 s fixed window every time,
	//    while HIST learns the period and has a sandbox waiting.
	fmt.Println("\n== periodic app: fixed TTL vs histogram pre-warming ==")
	periodic := func(policy string) lifecycle.Stats {
		p, err := lifecycle.NewPolicy(policy, lifecycle.PolicyConfig{TTL: ttl, Seed: seed})
		if err != nil {
			panic(err)
		}
		mgr, err := lifecycle.New(lifecycle.Config{Policy: p, Seed: seed})
		if err != nil {
			panic(err)
		}
		eng := cpusim.NewEngine(cpusim.Config{Cores: 2}, core.New(core.DefaultConfig()))
		src := workload.Stream(workload.Spec{
			N: 60, Duration: dist.Constant{Value: 60 * time.Millisecond}, Seed: seed,
			Arrival: dist.NewTraceProcess([]time.Duration{30 * time.Second}),
			Apps:    []workload.AppChoice{{Profile: workload.AppProfile{Name: "cron", CPUFraction: 1}, Weight: 1}},
		})
		if _, err := lifecycle.Run(src, mgr, eng); err != nil {
			panic(err)
		}
		return mgr.Stats()
	}
	for _, policy := range []string{"TTL", "HIST"} {
		st := periodic(policy)
		fmt.Printf("%4s: %5.1f%% warm hits (%d cold, %d pre-warms)\n",
			policy, 100*st.WarmHitRatio(), st.ColdStarts, st.Prewarms)
	}

	// 4. Cluster: the WARM-FIRST dispatcher routes each invocation to a
	//    host already holding a warm sandbox for its app; RR scatters
	//    the same stream affinity-blind.
	fmt.Println("\n== cluster: WARMFIRST vs RR (4 hosts x 4 cores, TTL@1024MB each) ==")
	runDispatch := func(dispatch string) *cluster.Result {
		d, err := cluster.NewDispatcher(dispatch, cluster.FactoryConfig{Hosts: 4, Seed: seed})
		if err != nil {
			panic(err)
		}
		cl, err := cluster.New(cluster.Config{
			Hosts:        4,
			CoresPerHost: 4,
			NewScheduler: func() cpusim.Scheduler { return core.New(core.DefaultConfig()) },
			Dispatcher:   d,
			NewLifecycle: func() *lifecycle.Manager {
				mgr, err := lifecycle.New(lifecycle.Config{
					Policy:   lifecycle.NewFixedTTL(ttl),
					MemoryMB: 1024,
					Seed:     seed,
				})
				if err != nil {
					panic(err)
				}
				return mgr
			},
		})
		if err != nil {
			panic(err)
		}
		res, err := cl.Run(workload.AzureSampledStream(workload.AzureSampledSpec{
			N: n, Cores: 16, Load: 0.85, Seed: seed,
			Apps: workload.OpenLambdaMix(),
		}))
		if err != nil {
			panic(err)
		}
		return res
	}
	for _, dispatch := range []string{"RR", "WARMFIRST"} {
		res := runDispatch(dispatch)
		fmt.Printf("%9s: %5.1f%% warm hits, mean turnaround %s\n",
			dispatch, 100*res.Lifecycle.WarmHitRatio(),
			metrics.FormatDuration(res.Merged.MeanTurnaround()))
	}

	// 5. Determinism: identical spec + seed + policy replays to
	//    identical counters and metrics.
	st1, run1 := runPolicy("HIST", 1024)
	st2, run2 := runPolicy("HIST", 1024)
	same := st1 == st2 && run1.MeanTurnaround() == run2.MeanTurnaround()
	fmt.Printf("\n== determinism ==\nHIST@1024MB replay: %d==%d cold starts, mean %v == %v -> identical: %v\n",
		st1.ColdStarts, st2.ColdStarts, run1.MeanTurnaround(), run2.MeanTurnaround(), same)
	if !same {
		panic("lifecycle run was not deterministic")
	}
}

package cpusim_test

import (
	"runtime"
	"testing"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// TestEngineAllocsPerInvocation: an invocation's arrival, its I/O wakes
// and SFS's timers for it carry the task or the worker as their event
// payload, and event structs come from blocks, so a run of 4N
// invocations allocates at most 0.01 more per added invocation than a
// run of N — clones, engine and scheduler included. The OpenLambda mix
// at load 0.8, with a leading I/O op on half the requests, blocks
// FILTER tasks under both SFS modes.
func TestEngineAllocsPerInvocation(t *testing.T) {
	const n, cores = 2000, 4
	tasks := trace.Collect(workload.Stream(workload.Spec{
		N: 4 * n, Cores: cores, Load: 0.8, Apps: workload.OpenLambdaMix(), IOFraction: 0.5, Seed: 5,
	}))
	oblivious := core.DefaultConfig()
	oblivious.IOAware = false
	for _, tc := range []struct {
		name string
		mk   func() cpusim.Scheduler
	}{
		{"CFS", func() cpusim.Scheduler { return sched.NewCFS() }},
		{"SFS", func() cpusim.Scheduler { return core.New(core.DefaultConfig()) }},
		{"SFS-ioOblivious", func() cpusim.Scheduler { return core.New(oblivious) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			var ioTime [2]int64
			for i, m := range []int{n, 4 * n} {
				runtime.GC() // no GC cycle may start inside the measured runs
				allocs[i] = testing.AllocsPerRun(3, func() {
					eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, tc.mk())
					eng.Submit(trace.CloneTasks(tasks[:m])...)
					eng.Run()
					ioTime[i] = 0
					for _, tk := range eng.Tasks() {
						ioTime[i] += int64(tk.IOTime)
					}
				})
			}
			if ioTime[0] == 0 {
				t.Fatal("the workload must block on I/O")
			}
			if per := (allocs[1] - allocs[0]) / (3 * n); per > 0.01 {
				t.Fatalf("%v allocs for %d invocations, %v for %d: %.3f per added invocation, want at most 0.01",
					allocs[0], n, allocs[1], 4*n, per)
			}
			t.Logf("%v allocs for %d invocations, %v for %d", allocs[0], n, allocs[1], 4*n)
		})
	}
}

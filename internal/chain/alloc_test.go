package chain_test

import (
	"runtime"
	"testing"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// TestRunAllocsPerInvocation: chain.Run takes its sampled stage tasks
// from the injector's arena, recycles finished workflows and expands
// requests into reused scratch, so a run of 4N requests — each a
// DIAMOND of five stage invocations — allocates at most 0.01 more per
// added invocation than a run of N.
func TestRunAllocsPerInvocation(t *testing.T) {
	const n, cores = 1000, 4
	tasks := trace.Collect(workload.Stream(workload.Spec{
		N: 4 * n, Cores: cores, Load: 0.15, Apps: workload.OpenLambdaMix(), IOFraction: 0.5, Seed: 5,
	}))
	spec := chain.Diamond(chain.FamilyConfig{})
	var allocs [2]float64
	var stages [2]int
	for i, m := range []int{n, 4 * n} {
		runtime.GC() // no GC cycle may start inside the measured runs
		allocs[i] = testing.AllocsPerRun(3, func() {
			inj, err := chain.NewInjector(chain.Config{Default: &spec, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, core.New(core.DefaultConfig()))
			if _, err := chain.Run(trace.FromTasks("alloc", tasks[:m]), inj, nil, eng); err != nil {
				t.Fatal(err)
			}
			stages[i] = len(eng.Tasks())
		})
	}
	if stages[0] != 5*n {
		t.Fatalf("%d stages ran for %d requests, want %d", stages[0], n, 5*n)
	}
	if per := (allocs[1] - allocs[0]) / (3 * 5 * n); per > 0.01 {
		t.Fatalf("%v allocs for %d requests, %v for %d: %.3f per added stage invocation, want at most 0.01",
			allocs[0], n, allocs[1], 4*n, per)
	}
	t.Logf("%v allocs for %d requests, %v for %d", allocs[0], n, allocs[1], 4*n)
}

package cluster

import (
	"runtime"
	"testing"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// TestRunAllocsPerInvocation: a cluster run keeps its records in blocks
// that never move, and the hosts below it allocate nothing per
// invocation, so a run of 4N invocations allocates at most 0.01 more
// per added invocation than a run of N — in serial mode, on the batched
// sharded path (RR) and on the windowed one (JSQ reads host state).
func TestRunAllocsPerInvocation(t *testing.T) {
	const n, hosts, cores = 4000, 2, 4
	tasks := trace.Collect(workload.Stream(workload.Spec{
		N: 4 * n, Cores: hosts * cores, Load: 0.8, Apps: workload.OpenLambdaMix(), IOFraction: 0.5, Seed: 5,
	}))
	for _, tc := range []struct {
		name       string
		dispatcher string
		shards     int
	}{
		{"serial", "JSQ", 0},
		{"batched", "RR", 2},
		{"windowed", "JSQ", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			var handoffs [2]int
			for i, m := range []int{n, 4 * n} {
				runtime.GC() // no GC cycle may start inside the measured runs
				allocs[i] = testing.AllocsPerRun(3, func() {
					d, err := NewDispatcher(tc.dispatcher, FactoryConfig{Seed: 5})
					if err != nil {
						t.Fatal(err)
					}
					c, err := New(Config{
						Hosts:        hosts,
						CoresPerHost: cores,
						NewScheduler: func() cpusim.Scheduler { return core.New(core.DefaultConfig()) },
						Dispatcher:   d,
						Shards:       tc.shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := c.Run(trace.FromTasks("alloc", tasks[:m])); err != nil {
						t.Fatal(err)
					}
					handoffs[i] = c.handoffs
				})
			}
			if tc.shards > 0 && handoffs[1] <= handoffs[0] {
				t.Fatalf("%d handoffs for %d invocations, %d for %d: a longer run must hand off more",
					handoffs[0], n, handoffs[1], 4*n)
			}
			if per := (allocs[1] - allocs[0]) / (3 * n); per > 0.01 {
				t.Fatalf("%v allocs for %d invocations, %v for %d: %.3f per added invocation, want at most 0.01",
					allocs[0], n, allocs[1], 4*n, per)
			}
			t.Logf("%v allocs for %d invocations, %v for %d (%d and %d handoffs)",
				allocs[0], n, allocs[1], 4*n, handoffs[0], handoffs[1])
		})
	}
}

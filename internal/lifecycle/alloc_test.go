package lifecycle_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// TestRunAllocsPerInvocation: lifecycle.Run over trace.FromTasks clones
// its invocations in chunks, the manager recycles containers and its
// expiry and pre-warm events carry their container or pre-warm record,
// so a run of 4N invocations allocates at most 0.01 more per added
// invocation than a run of N. Fifty apps take turns, so each recurs
// about every 25 s: HIST's one-second fallback window expires their
// containers in between, and it pre-warms them for the next turn.
func TestRunAllocsPerInvocation(t *testing.T) {
	const n, cores, apps = 2000, 4, 50
	tasks := trace.Collect(workload.Stream(workload.Spec{
		N: 4 * n, Cores: cores, Load: 0.2, Apps: workload.OpenLambdaMix(), IOFraction: 0.5, Seed: 5,
	}))
	for i, tk := range tasks {
		tk.App = fmt.Sprintf("app%d", i%apps)
	}
	var allocs [2]float64
	var stats [2]lifecycle.Stats
	for i, m := range []int{n, 4 * n} {
		runtime.GC() // no GC cycle may start inside the measured runs
		allocs[i] = testing.AllocsPerRun(3, func() {
			mgr, err := lifecycle.NewByName("HIST", 0, time.Second, 5)
			if err != nil {
				t.Fatal(err)
			}
			eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, core.New(core.DefaultConfig()))
			if _, err := lifecycle.Run(trace.FromTasks("alloc", tasks[:m]), mgr, eng); err != nil {
				t.Fatal(err)
			}
			stats[i] = mgr.Stats()
		})
	}
	if s := stats[0]; s.ColdStarts == 0 || s.Expirations == 0 || s.Prewarms == 0 || s.PrewarmHits == 0 {
		t.Fatalf("stats %+v: the run must cold-start, expire containers and pre-warm them", s)
	}
	if per := (allocs[1] - allocs[0]) / (3 * n); per > 0.01 {
		t.Fatalf("%v allocs for %d invocations, %v for %d: %.3f per added invocation, want at most 0.01",
			allocs[0], n, allocs[1], 4*n, per)
	}
	t.Logf("%v allocs for %d invocations, %v for %d", allocs[0], n, allocs[1], 4*n)
}

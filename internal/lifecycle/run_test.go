package lifecycle_test

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// denseSource yields n sequential same-app invocations: 10 ms of CPU
// every 50 ms, so at most one is in flight and the pool never needs a
// second container.
func denseSource(n int) trace.Source {
	tasks := make([]*task.Task, n)
	for i := range tasks {
		tasks[i] = task.New(i, time.Duration(i)*50*time.Millisecond, 10*time.Millisecond)
		tasks[i].App = "fib"
	}
	return trace.FromTasks("dense", tasks)
}

// runPolicy drives src under p with a constant 30 ms cold start —
// shorter than the dense source's 50 ms gap, so a single container can
// serve the whole stream once warm.
func runPolicy(t *testing.T, p lifecycle.Policy, src trace.Source) (*lifecycle.Manager, []*task.Task) {
	t.Helper()
	mgr, err := lifecycle.New(lifecycle.Config{
		Policy:      p,
		ImagePull:   dist.Constant{Value: 20 * time.Millisecond},
		SandboxBoot: dist.Constant{Value: 10 * time.Millisecond},
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedulers.New("CFS")
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 4}, s)
	if _, err := lifecycle.Run(src, mgr, eng); err != nil {
		t.Fatal(err)
	}
	return mgr, eng.Tasks()
}

// TestFixedTTLDenseAllWarm: under an infinite-memory FIXED-TTL policy
// with dense arrivals, every invocation after the compulsory first cold
// start is a warm hit — the 100%-warm bound of the satellite checklist.
func TestFixedTTLDenseAllWarm(t *testing.T) {
	const n = 200
	mgr, tasks := runPolicy(t, lifecycle.NewFixedTTL(time.Minute), denseSource(n))
	st := mgr.Stats()
	if st.ColdStarts != 1 || st.WarmHits() != n-1 {
		t.Fatalf("stats %+v, want exactly 1 compulsory cold start and %d warm hits", st, n-1)
	}
	for _, tk := range tasks {
		if tk.Turnaround() < 0 {
			t.Fatalf("task %d unfinished", tk.ID)
		}
	}
}

// TestNoneDenseAllCold: under NONE the warm-hit ratio is 0% and every
// task's turnaround includes its cold-start latency.
func TestNoneDenseAllCold(t *testing.T) {
	const n = 50
	mgr, tasks := runPolicy(t, lifecycle.NewNone(), denseSource(n))
	st := mgr.Stats()
	if st.WarmHits() != 0 || st.ColdStarts != n {
		t.Fatalf("stats %+v, want 0 warm hits and %d cold starts", st, n)
	}
	if st.WarmHitRatio() != 0 {
		t.Fatalf("warm-hit ratio %f, want 0", st.WarmHitRatio())
	}
	// Cold latency is on the critical path: minimum turnaround is the
	// service time plus the smallest possible cold start.
	for _, tk := range tasks {
		if tk.Turnaround() < tk.Service {
			t.Fatalf("task %d turnaround %v below service %v", tk.ID, tk.Turnaround(), tk.Service)
		}
	}
	if mean := (metrics.Run{Tasks: tasks}).MeanTurnaround(); mean < st.MeanColdLatency() {
		t.Fatalf("mean turnaround %v does not reflect mean cold latency %v", mean, st.MeanColdLatency())
	}
}

// TestRunDeterministic: same seed/spec/policy → byte-identical metrics,
// the standalone half of the determinism criterion (the cluster half
// lives in internal/cluster).
func TestRunDeterministic(t *testing.T) {
	run := func() ([]time.Duration, lifecycle.Stats) {
		src := workload.AzureSampledStream(workload.AzureSampledSpec{
			N: 400, Cores: 4, Load: 0.9, Seed: 42,
			Apps: workload.OpenLambdaMix(),
		})
		mgr, err := lifecycle.New(lifecycle.Config{
			Policy:   lifecycle.NewHistogram(0),
			MemoryMB: 1024,
			Seed:     42,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := schedulers.New("SFS")
		if err != nil {
			t.Fatal(err)
		}
		eng := cpusim.NewEngine(cpusim.Config{Cores: 4}, s)
		if _, err := lifecycle.Run(src, mgr, eng); err != nil {
			t.Fatal(err)
		}
		var tas []time.Duration
		for _, tk := range eng.Tasks() {
			tas = append(tas, tk.Turnaround())
		}
		return tas, mgr.Stats()
	}
	ta1, st1 := run()
	ta2, st2 := run()
	if st1 != st2 {
		t.Fatalf("lifecycle stats diverged across identical runs:\n%+v\n%+v", st1, st2)
	}
	for i := range ta1 {
		if ta1[i] != ta2[i] {
			t.Fatalf("task %d turnaround diverged: %v vs %v", i, ta1[i], ta2[i])
		}
	}
}

// TestRunColdDelaysArrival: a constant-latency cold start must shift
// completion by exactly that latency relative to a pre-warmed run.
func TestRunColdDelaysArrival(t *testing.T) {
	mk := func() trace.Source {
		tk := task.New(0, 0, 20*time.Millisecond)
		tk.App = "solo"
		return trace.FromTasks("solo", []*task.Task{tk})
	}
	cold, err := lifecycle.New(lifecycle.Config{
		Policy:      lifecycle.NewNone(),
		ImagePull:   dist.Constant{Value: 300 * time.Millisecond},
		SandboxBoot: dist.Constant{Value: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := schedulers.New("FIFO")
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1}, s)
	if _, err := lifecycle.Run(mk(), cold, eng); err != nil {
		t.Fatal(err)
	}
	got := eng.Tasks()[0].Turnaround()
	want := 20*time.Millisecond + 400*time.Millisecond
	if got != want {
		t.Fatalf("turnaround %v, want service+cold = %v", got, want)
	}
	if eng.Tasks()[0].Arrival != 0 {
		t.Fatalf("arrival moved to %v", eng.Tasks()[0].Arrival)
	}
}

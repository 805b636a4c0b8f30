package schedulers

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// oracleTrace returns a random single-core trace with no I/O: a burst
// of arrivals at short random gaps, mostly short services and some long
// enough for CFS to renew their slice on an otherwise empty runqueue.
func oracleTrace(seed uint64) []*task.Task {
	r := rng.New(seed)
	n := 2 + r.Intn(30)
	tasks := make([]*task.Task, n)
	var at simtime.Time
	for i := range tasks {
		at += time.Duration(r.Intn(20_000)) * time.Microsecond
		svc := time.Duration(1+r.Intn(15_000)) * time.Microsecond
		if r.Intn(4) == 0 {
			svc = time.Duration(30+r.Intn(200)) * time.Millisecond
		}
		tasks[i] = task.New(i, at, svc)
	}
	return tasks
}

// summedTurnaround runs tasks on one core under the named scheduler, at
// unit speed with no switch cost, and returns the exact summed
// turnaround and the renewals the engine held.
func summedTurnaround(t *testing.T, name string, tasks []*task.Task) (time.Duration, int64) {
	t.Helper()
	s, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1, Deadline: time.Hour}, s)
	eng.Submit(trace.CloneTasks(tasks)...)
	eng.Run()
	if eng.Aborted() {
		t.Fatalf("%s left %d tasks unfinished", name, eng.Pending())
	}
	var sum time.Duration
	for _, tk := range eng.Tasks() {
		sum += tk.Turnaround()
	}
	return sum, eng.HeldRenewals
}

// TestSRTFOracle is the paper's §IV-B bound on random inputs: on one
// core with no I/O and no switch cost, shortest-remaining-time-first
// minimises the summed turnaround over every schedule, so no registered
// scheduler may beat SRTF by a single nanosecond. CFS and SFS must
// reach it through held slice renewals.
func TestSRTFOracle(t *testing.T) {
	held := map[string]int64{}
	for seed := uint64(1); seed <= 150; seed++ {
		tasks := oracleTrace(seed)
		bound, _ := summedTurnaround(t, "SRTF", tasks)
		for _, name := range Names() {
			if name == "SRTF" {
				continue
			}
			sum, h := summedTurnaround(t, name, tasks)
			held[name] += h
			if sum < bound {
				t.Fatalf("seed %d: %s summed turnaround %v beats SRTF's %v", seed, name, sum, bound)
			}
		}
	}
	for _, name := range []string{"CFS", "SFS"} {
		if held[name] == 0 {
			t.Errorf("%s held no slice renewals across the traces", name)
		}
	}
}

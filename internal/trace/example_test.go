package trace_test

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// mk builds a tiny materialized source for the examples: invocations at
// the given millisecond arrivals, each with 1 ms of CPU demand.
func mk(desc string, arrivalsMS ...int) trace.Source {
	var tasks []*task.Task
	for i, ms := range arrivalsMS {
		tasks = append(tasks, task.New(i, simtime.Time(ms)*simtime.Time(time.Millisecond), time.Millisecond))
	}
	return trace.FromTasks(desc, tasks)
}

func dump(src trace.Source) {
	for {
		t, ok := src.Next()
		if !ok {
			return
		}
		fmt.Printf("id=%d at=%v\n", t.ID, t.Arrival)
	}
}

// ExampleLimit caps an (arbitrarily long) stream at n invocations —
// the standard way to bound an N == 0 synthetic source.
func ExampleLimit() {
	src := trace.Limit(mk("ticks", 0, 10, 20, 30, 40), 2)
	dump(src)
	// Output:
	// id=0 at=0s
	// id=1 at=10ms
}

// ExampleMap rewrites invocations in flight; returning nil drops them.
// Here every odd invocation is dropped and the rest are given a name.
func ExampleMap() {
	src := trace.Map(mk("ticks", 0, 10, 20, 30), func(t *task.Task) *task.Task {
		if t.ID%2 == 1 {
			return nil
		}
		t.App = "fib"
		return t
	})
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		fmt.Printf("id=%d app=%s at=%v\n", t.ID, t.App, t.Arrival)
	}
	// Output:
	// id=0 app=fib at=0s
	// id=2 app=fib at=20ms
}

// ExampleMerge interleaves tenant streams by arrival time — the
// multi-tenant composition primitive. IDs are reassigned sequentially
// on the merged stream.
func ExampleMerge() {
	a := mk("tenant-a", 0, 30)
	b := mk("tenant-b", 10, 20)
	dump(trace.Merge(a, b))
	// Output:
	// id=0 at=0s
	// id=1 at=10ms
	// id=2 at=20ms
	// id=3 at=30ms
}

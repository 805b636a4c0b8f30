package workload_test

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// ExampleStream builds a small FaaSBench workload calibrated to 80%
// offered load on 4 cores.
func ExampleStream() {
	tasks := trace.Collect(workload.Stream(workload.Spec{
		N:     1000,
		Cores: 4,
		Load:  0.8,
		Seed:  1,
	}))
	var cpu time.Duration
	for _, t := range tasks {
		cpu += t.Service
	}
	span := time.Duration(tasks[len(tasks)-1].Arrival - tasks[0].Arrival)
	load := queueing.OfferedLoad(cpu/time.Duration(len(tasks)), span/time.Duration(len(tasks)-1), 4)
	fmt.Printf("%d tasks, offered load within 10%% of target: %v\n",
		len(tasks), load > 0.72 && load < 0.88)
	// Arrival times are non-decreasing and every task is valid.
	ok := true
	for i, t := range tasks {
		if t.Validate() != nil || (i > 0 && t.Arrival < tasks[i-1].Arrival) {
			ok = false
		}
	}
	fmt.Println("valid:", ok)
	// Output:
	// 1000 tasks, offered load within 10% of target: true
	// valid: true
}

// ExampleFibDuration shows the Table I fib cost model: fib(30) runs
// for a few hundred milliseconds.
func ExampleFibDuration() {
	d := workload.FibDuration(30)
	fmt.Println(d > 200*time.Millisecond && d < 400*time.Millisecond)
	// Output: true
}

// ExampleAppProfile_Build converts an ideal duration into CPU and I/O
// segments for the paper's md (markdown, I/O-heavy) application.
func ExampleAppProfile_Build() {
	t := exampleTask()
	workload.AppMd.Build(t, 100*time.Millisecond)
	fmt.Printf("service=%v ioOps=%d ideal=%v\n", t.Service, len(t.IOOps), t.IdealDuration())
	// Output: service=35ms ioOps=2 ideal=100ms
}

// exampleTask builds the blank task the examples fill in.
func exampleTask() *task.Task { return task.New(0, 0, time.Millisecond) }

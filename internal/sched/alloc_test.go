package sched_test

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/predict"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
)

// allocScript is a fixed op script for 2 cores: three long CPU-bound
// tasks at time zero plus a stream of short ones, every service scaled
// by k. Time slicing preempts the long tasks (CFS, EEVDF, SFS after
// demotion) and short arrivals preempt them (SRTF, PSRTF, SFS), so a
// larger k means more preemptions over the same set of tasks.
func allocScript(k time.Duration) []*task.Task {
	var tasks []*task.Task
	for i, svc := range []time.Duration{300, 400, 500} {
		t := task.New(i, 0, k*svc*time.Millisecond)
		t.App = "long"
		tasks = append(tasks, t)
	}
	for i := 0; i < 40; i++ {
		t := task.New(3+i, time.Duration(5+25*i)*time.Millisecond, k*4*time.Millisecond)
		t.App = "short"
		tasks = append(tasks, t)
	}
	return tasks
}

// TestSchedulerAllocsIndependentOfPreemptions: a preempted task goes
// back on its run queue without allocating. Doubling every service of
// the script at least doubles each scheduler's preemptions, yet the
// run's allocation count (engine, tasks, scheduler and all) must not
// move.
func TestSchedulerAllocsIndependentOfPreemptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() cpusim.Scheduler
	}{
		{"CFS", func() cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) }},
		{"EEVDF", func() cpusim.Scheduler { return sched.NewEEVDF(sched.EEVDFConfig{}) }},
		{"SRTF", func() cpusim.Scheduler { return sched.NewSRTF() }},
		{"PSRTF", func() cpusim.Scheduler {
			// Warm estimates, so short arrivals preempt long tasks.
			est := predict.New(predict.Config{})
			est.Observe("long", 10*time.Second)
			est.Observe("short", 4*time.Millisecond)
			return sched.NewPSRTF(est)
		}},
		{"SFS", func() cpusim.Scheduler { return core.New(core.DefaultConfig()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var preemptions [2]int64
			var allocs [2]float64
			for i, k := range []time.Duration{1, 2} {
				allocs[i] = testing.AllocsPerRun(5, func() {
					eng := cpusim.NewEngine(cpusim.Config{Cores: 2}, tc.mk())
					eng.Submit(allocScript(k)...)
					eng.Run()
					preemptions[i] = eng.TotalCtxSwitches
				})
			}
			if preemptions[0] == 0 || preemptions[1] < 2*preemptions[0] {
				t.Fatalf("preemptions %d at 1x, %d at 2x: the script must at least double them",
					preemptions[0], preemptions[1])
			}
			if allocs[1] != allocs[0] {
				t.Fatalf("%v allocs at 1x (%d preemptions), %v at 2x (%d): re-queueing allocates",
					allocs[0], preemptions[0], allocs[1], preemptions[1])
			}
		})
	}
}

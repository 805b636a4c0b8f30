package host

import (
	"reflect"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// TestReleaseBeforeQueuedTailPanics: released arrivals queue first in,
// first out, same-instant ones in release order, so a release arriving
// before the queued tail is a driver bug and panics.
func TestReleaseBeforeQueuedTailPanics(t *testing.T) {
	rt := New(cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO()))
	first := task.New(0, 10*time.Millisecond, time.Millisecond)
	rt.Release(first)
	rt.Release(task.New(1, 10*time.Millisecond, time.Millisecond))
	if h := rt.pend.head(); h != first {
		t.Fatalf("queue head is task %d, want the first release", h.ID)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a release before the queued tail did not panic")
		}
	}()
	rt.Release(task.New(2, 9*time.Millisecond, time.Millisecond))
}

// TestReleaseQueueFirstInFirstOut: pops return releases in push order,
// also when pushes and pops interleave, and an emptied queue starts
// over at the front of its array, so releasing and draining in rounds
// allocates nothing once the array has grown.
func TestReleaseQueueFirstInFirstOut(t *testing.T) {
	var q hookQueue
	tasks := make([]*task.Task, 4)
	for i := range tasks {
		tasks[i] = task.New(i, 0, time.Millisecond)
	}
	at := simtime.Time(0)
	allocs := testing.AllocsPerRun(100, func() {
		// Two same-instant releases, then one more behind each pop.
		tasks[0].Arrival, tasks[1].Arrival = at, at
		tasks[2].Arrival, tasks[3].Arrival = at, at+time.Millisecond
		q.push(tasks[0])
		q.push(tasks[1])
		for i, tk := range tasks {
			if i+2 < len(tasks) {
				q.push(tasks[i+2])
			}
			if h := q.head(); h != tk {
				t.Fatalf("head is task %d, want %d", h.ID, tk.ID)
			}
			if got := q.pop(); got != tk {
				t.Fatalf("popped task %d, want %d", got.ID, tk.ID)
			}
		}
		if h := q.head(); h != nil || q.next != 0 {
			t.Fatalf("drained queue has head %v at index %d, want none at 0", h, q.next)
		}
		at += 2 * time.Millisecond
	})
	if allocs != 0 {
		t.Fatalf("a release round allocates %v objects, want none", allocs)
	}
}

// releaseStage releases fan[id] when task id finishes, each at the
// completion instant, as a workflow stage releases its downstream
// stages.
type releaseStage struct {
	Base
	rt  *Runtime
	fan map[int][]*task.Task
}

func (s *releaseStage) BindRuntime(rt *Runtime) { s.rt = rt }

func (s *releaseStage) OnFinish(at simtime.Time, t *task.Task) {
	for _, r := range s.fan[t.ID] {
		r.Arrival = at
		s.rt.Release(r)
	}
}

// TestDriveSubmitsReleasesFirstInFirstOut: releases made at one
// completion enter the engine in release order and ahead of a source
// arrival at the same instant, so one FIFO core finishes them in that
// order too.
func TestDriveSubmitsReleasesFirstInFirstOut(t *testing.T) {
	ms := time.Millisecond
	st := &releaseStage{fan: map[int][]*task.Task{
		0:  {task.New(10, 0, ms), task.New(11, 0, ms)},
		10: {task.New(20, 0, ms)},
	}}
	var order []int
	rt := New(cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO()), st,
		FinishFunc(func(_ simtime.Time, t *task.Task) { order = append(order, t.ID) }))
	src := trace.FromTasks("src", []*task.Task{task.New(0, 0, 10*ms), task.New(1, 10*ms, ms)})
	end, err := rt.Drive(src)
	if err != nil {
		t.Fatal(err)
	}
	// Task 0 finishes at 10 ms and releases 10 and 11 ahead of the
	// source's task 1; task 10 finishes at 11 ms and releases 20, which
	// queues behind task 1.
	if want := []int{0, 10, 11, 1, 20}; !reflect.DeepEqual(order, want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	if end != 14*ms {
		t.Fatalf("run ended at %v, want 14ms", end)
	}
}

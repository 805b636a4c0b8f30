package host

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// delayStage delays every task's runnable instant by a fixed amount,
// the way a container cold start does.
type delayStage struct {
	Base
	d time.Duration
}

func (s delayStage) BeforeSubmit(simtime.Time, *task.Task) time.Duration { return s.d }

// TestPlaceDelaysRunnableNotArrival: a task placed after its arrival,
// with a driver delay and a stage delay, starts at the placement
// instant plus both delays and keeps its Arrival, so its turnaround
// counts the wait and the delays.
func TestPlaceDelaysRunnableNotArrival(t *testing.T) {
	const ms = time.Millisecond
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO())
	rt := New(eng, delayStage{d: 3 * ms})
	tk := task.New(0, 10*ms, 5*ms)
	rt.Place(12*ms, 2*ms, tk)
	for rt.NextEventTime() != simtime.Infinity {
		rt.StepEvent()
	}
	if tk.Arrival != 10*ms || tk.Start != 17*ms || tk.Finish != 22*ms || tk.Turnaround() != 12*ms {
		t.Fatalf("arrival %v, start %v, finish %v, turnaround %v; want 10ms, 17ms, 22ms, 12ms",
			tk.Arrival, tk.Start, tk.Finish, tk.Turnaround())
	}
}

// TestPlaceBeforeArrivalPanics: placing a task at an instant before its
// arrival is a driver bug, and Place names the task and the instant.
func TestPlaceBeforeArrivalPanics(t *testing.T) {
	const ms = time.Millisecond
	rt := New(cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO()))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("placing a task arriving at 10ms at 9ms did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "id=7") || !strings.Contains(msg, "9ms") || !strings.Contains(msg, "10ms") {
			t.Fatalf("panic %q does not name the task, the placement instant and the arrival", msg)
		}
	}()
	rt.Place(9*ms, 0, task.New(7, 10*ms, ms))
}

// passExpander is a stage whose Expand admits each invocation as is.
type passExpander struct{ Base }

func (passExpander) Expand(t *task.Task) []*task.Task { return []*task.Task{t} }

// TestSecondExpanderPanics: a pipeline holds at most one Expander.
func TestSecondExpanderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted two Expander stages")
		}
	}()
	New(cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO()), passExpander{}, passExpander{})
}

package sched_test

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

// stubAPI is the engine side of cpusim.API for a scheduler driven by
// hand: a fixed core count, nothing running and no timers.
type stubAPI struct{ cores int }

func (a stubAPI) Now() simtime.Time        { return 0 }
func (a stubAPI) NumCores() int            { return a.cores }
func (a stubAPI) Running(int) *task.Task   { return nil }
func (a stubAPI) RanFor(int) time.Duration { return 0 }
func (a stubAPI) After(time.Duration, simtime.Handler, any) simtime.EventRef {
	return simtime.EventRef{}
}
func (a stubAPI) Cancel(simtime.EventRef) {}
func (a stubAPI) Reschedule(int)          {}

// TestDescheduledRejectsTaskNotOnCore: CFS and EEVDF take a descheduled
// task's entity from the core it ran on instead of looking it up, so a
// task that is not running on that core must panic with a message
// naming the scheduler rather than charge another task's entity.
func TestDescheduledRejectsTaskNotOnCore(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() cpusim.Scheduler
	}{
		{"CFS", func() cpusim.Scheduler { return sched.NewCFS() }},
		{"EEVDF", func() cpusim.Scheduler { return sched.NewEEVDF() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk()
			s.Bind(stubAPI{cores: 2})
			a, b := task.New(1, 0, time.Second), task.New(2, 0, time.Second)
			s.Enqueue(0, a) // runqueue 0
			s.Enqueue(0, b) // runqueue 1, the less loaded
			if got, _ := s.PickNext(0, 0); got != a {
				t.Fatalf("PickNext(core 0) = %v, want task 1", got)
			}
			for _, bad := range []struct {
				what string
				core int
				t    *task.Task
			}{
				{"a queued task", 0, b},
				{"the running task on an idle core", 1, a},
				{"a task it never saw", 0, task.New(3, 0, time.Second)},
			} {
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					s.Descheduled(0, bad.core, bad.t, time.Millisecond, cpusim.ReasonPreempted)
					return "no panic"
				}()
				if !strings.Contains(msg, "sched: "+tc.name+" ") {
					t.Errorf("descheduling %s on core %d: got %q, want a panic naming %s",
						bad.what, bad.core, msg, tc.name)
				}
			}
			// The rejected calls left the running task's entity intact.
			s.Descheduled(0, 0, a, time.Millisecond, cpusim.ReasonFinished)
		})
	}
}

package cpusim_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// eventPath hides a scheduler's cpusim.Renewer, so every slice renewal
// is an event.
type eventPath struct{ cpusim.Scheduler }

// TestHeldRenewalsAtAnySpeed runs CFS at random host speeds, where a
// slice's CPU and a demand's wall time round in ways the engine's
// closed-form chain end must match (pass panics when a chain ends off
// its predicted instant), and requires every task record to equal the
// event path's.
func TestHeldRenewalsAtAnySpeed(t *testing.T) {
	r := rng.New(11)
	held := int64(0)
	for round := 0; round < 200; round++ {
		speed := 0.01 + 4*r.Float64()
		cores := 1 + r.Intn(3)
		var tasks []*task.Task
		for i := 0; i < 1+r.Intn(6); i++ {
			tk := task.New(i, time.Duration(r.Intn(50_000_000)), time.Duration(1+r.Int63n(int64(400*time.Millisecond))))
			if r.Intn(3) == 0 {
				tk.WithIO(tk.Service/3, time.Duration(r.Intn(30_000_000)))
			}
			tasks = append(tasks, tk)
		}
		cfg := cpusim.Config{Cores: cores, Speed: speed, CtxSwitchCost: time.Duration(r.Intn(2)) * 10 * time.Microsecond}
		run := func(s cpusim.Scheduler) *cpusim.Engine {
			eng := cpusim.NewEngine(cfg, s)
			eng.Submit(trace.CloneTasks(tasks)...)
			eng.Run()
			return eng
		}
		got := run(sched.NewCFS())
		want := run(eventPath{sched.NewCFS()})
		held += got.HeldRenewals
		for i, tk := range got.Tasks() {
			if !reflect.DeepEqual(*tk, *want.Tasks()[i]) {
				t.Fatalf("round %d (speed %v): task %d\n  held:  %+v\n  event: %+v", round, speed, tk.ID, *tk, *want.Tasks()[i])
			}
		}
		if got.Now() != want.Now() || got.BusyTime() != want.BusyTime() {
			t.Fatalf("round %d (speed %v): makespan %v busy %v, event path %v and %v", round, speed, got.Now(), got.BusyTime(), want.Now(), want.BusyTime())
		}
	}
	if held == 0 {
		t.Fatal("no renewal was held")
	}
}

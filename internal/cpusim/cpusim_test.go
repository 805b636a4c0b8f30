package cpusim_test

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func run(t *testing.T, s cpusim.Scheduler, cores int, tasks ...*task.Task) *cpusim.Engine {
	t.Helper()
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: time.Hour}, s)
	eng.Submit(tasks...)
	eng.Run()
	if eng.Aborted() {
		t.Fatal("simulation aborted")
	}
	return eng
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	tk := task.New(0, ms(5), ms(30))
	run(t, sched.NewFIFO(), 1, tk)
	if tk.Start != ms(5) {
		t.Fatalf("start %v, want 5ms", tk.Start)
	}
	if tk.Finish != ms(35) {
		t.Fatalf("finish %v, want 35ms", tk.Finish)
	}
	if tk.CtxSwitches != 0 || tk.WaitTime != 0 {
		t.Fatalf("ctx=%d wait=%v", tk.CtxSwitches, tk.WaitTime)
	}
	if tk.RTE() != 1.0 {
		t.Fatalf("rte %v", tk.RTE())
	}
}

func TestFIFOConvoy(t *testing.T) {
	long := task.New(0, 0, ms(1000))
	short := task.New(1, ms(1), ms(5))
	run(t, sched.NewFIFO(), 1, long, short)
	// Short arrives second and must wait for the full long task.
	if short.Start != ms(1000) {
		t.Fatalf("short started at %v, want 1000ms (convoy)", short.Start)
	}
	if short.Finish != ms(1005) {
		t.Fatalf("short finish %v", short.Finish)
	}
}

func TestRRInterleavesSlices(t *testing.T) {
	a := task.New(0, 0, ms(150))
	b := task.New(1, 0, ms(150))
	rr := sched.NewRR(ms(100))
	run(t, rr, 1, a, b)
	// a runs 0-100, b 100-200, a 200-250, b 250-300.
	if a.Finish != ms(250) {
		t.Fatalf("a finished at %v, want 250ms", a.Finish)
	}
	if b.Finish != ms(300) {
		t.Fatalf("b finished at %v, want 300ms", b.Finish)
	}
	if a.CtxSwitches != 1 {
		t.Fatalf("a ctx %d, want 1", a.CtxSwitches)
	}
}

func TestRRSoloTaskSliceRenewalNoSwitch(t *testing.T) {
	a := task.New(0, 0, ms(350))
	run(t, sched.NewRR(ms(100)), 1, a)
	// Slice expires 3 times but the task is alone: renewals, not switches.
	if a.CtxSwitches != 0 {
		t.Fatalf("solo RR task has %d ctx switches", a.CtxSwitches)
	}
	if a.Finish != ms(350) {
		t.Fatalf("finish %v", a.Finish)
	}
}

func TestSRTFPreemptsOnShorterArrival(t *testing.T) {
	long := task.New(0, 0, ms(100))
	short := task.New(1, ms(10), ms(20))
	run(t, sched.NewSRTF(), 1, long, short)
	// Short preempts at 10ms, runs to 30ms; long resumes and ends 120ms.
	if short.Finish != ms(30) {
		t.Fatalf("short finish %v, want 30ms", short.Finish)
	}
	if long.Finish != ms(120) {
		t.Fatalf("long finish %v, want 120ms", long.Finish)
	}
	if long.CtxSwitches != 1 {
		t.Fatalf("long ctx %d, want 1", long.CtxSwitches)
	}
}

func TestSRTFDoesNotPreemptForLonger(t *testing.T) {
	a := task.New(0, 0, ms(50))
	b := task.New(1, ms(10), ms(100))
	run(t, sched.NewSRTF(), 1, a, b)
	if a.CtxSwitches != 0 {
		t.Fatal("SRTF preempted for a longer task")
	}
	if b.Start != ms(50) {
		t.Fatalf("b started %v", b.Start)
	}
}

func TestIOBlockFreesCore(t *testing.T) {
	// a blocks for 50ms after 10ms CPU; b should use the core meanwhile.
	a := task.New(0, 0, ms(20)).WithIO(ms(10), ms(50))
	b := task.New(1, 0, ms(30))
	run(t, sched.NewFIFO(), 1, a, b)
	// Timeline: a 0-10 CPU, blocks; b 10-40; a wakes at 60, runs 60-70.
	if b.Finish != ms(40) {
		t.Fatalf("b finish %v, want 40ms", b.Finish)
	}
	if a.Finish != ms(70) {
		t.Fatalf("a finish %v, want 70ms", a.Finish)
	}
	if a.IOTime != ms(50) {
		t.Fatalf("a io time %v", a.IOTime)
	}
}

func TestIOAtServiceEnd(t *testing.T) {
	a := task.New(0, 0, ms(10)).WithIO(ms(10), ms(25))
	run(t, sched.NewFIFO(), 1, a)
	if a.Finish != ms(35) {
		t.Fatalf("finish %v, want 35ms (CPU then trailing IO)", a.Finish)
	}
}

func TestIOAtStart(t *testing.T) {
	a := task.New(0, 0, ms(10)).WithIO(0, ms(20))
	run(t, sched.NewFIFO(), 1, a)
	if a.Finish != ms(30) {
		t.Fatalf("finish %v, want 30ms (leading IO then CPU)", a.Finish)
	}
	if a.IdealDuration() != ms(30) {
		t.Fatalf("ideal %v", a.IdealDuration())
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	tasks := []*task.Task{
		task.New(0, 0, ms(100)),
		task.New(1, 0, ms(100)),
		task.New(2, 0, ms(100)),
		task.New(3, 0, ms(100)),
	}
	eng := run(t, sched.NewFIFO(), 4, tasks...)
	for _, tk := range tasks {
		if tk.Finish != ms(100) {
			t.Fatalf("task %d finish %v, want 100ms (parallel)", tk.ID, tk.Finish)
		}
	}
	if u := eng.Utilization(); u < 0.99 {
		t.Fatalf("utilization %v, want ~1", u)
	}
}

func TestCtxSwitchCostDelaysProgress(t *testing.T) {
	a := task.New(0, 0, ms(100))
	b := task.New(1, 0, ms(100))
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1, CtxSwitchCost: ms(1), Deadline: time.Hour}, sched.NewRR(ms(50)))
	eng.Submit(a, b)
	eng.Run()
	// 4 stints with alternating tasks: each pays 1ms switch cost.
	if eng.SwitchOverhead != ms(4) {
		t.Fatalf("switch overhead %v, want 4ms", eng.SwitchOverhead)
	}
	if b.Finish != ms(204) {
		t.Fatalf("b finish %v, want 204ms", b.Finish)
	}
	if a.CPUUsed != ms(100) || b.CPUUsed != ms(100) {
		t.Fatal("switch cost corrupted CPU accounting")
	}
}

func TestDeadlineAborts(t *testing.T) {
	a := task.New(0, 0, time.Hour)
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1, Deadline: time.Minute}, sched.NewFIFO())
	eng.Submit(a)
	eng.Run()
	if !eng.Aborted() {
		t.Fatal("expected abort at deadline")
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending %d", eng.Pending())
	}
}

func TestWaitTimeAccounting(t *testing.T) {
	a := task.New(0, 0, ms(100))
	b := task.New(1, 0, ms(50))
	run(t, sched.NewFIFO(), 1, a, b)
	if b.WaitTime != ms(100) {
		t.Fatalf("b waited %v, want 100ms", b.WaitTime)
	}
	// RTE of b: 50 / 150.
	if got := b.RTE(); got < 0.33 || got > 0.34 {
		t.Fatalf("b RTE %v", got)
	}
}

func TestRejectsInvalidTask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Submit accepted an invalid task")
		}
	}()
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO())
	eng.Submit(task.New(0, 0, 0))
}

func TestZeroCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine accepted zero cores")
		}
	}()
	cpusim.NewEngine(cpusim.Config{Cores: 0}, sched.NewFIFO())
}

// TestConservationInvariants checks global invariants over a random-ish
// workload: CPU conservation, wall-clock sanity, and wait-time symmetry.
func TestConservationInvariants(t *testing.T) {
	var tasks []*task.Task
	at := time.Duration(0)
	for i := 0; i < 200; i++ {
		svc := ms(1 + (i*7)%120)
		tk := task.New(i, at, svc)
		if i%5 == 0 {
			tk.WithIO(svc/2, ms(5+(i%20)))
		}
		tasks = append(tasks, tk)
		at += ms((i * 3) % 25)
	}
	for _, mk := range []func() cpusim.Scheduler{
		func() cpusim.Scheduler { return sched.NewCFS() },
		func() cpusim.Scheduler { return sched.NewRR(0) },
		func() cpusim.Scheduler { return sched.NewSRTF() },
	} {
		clones := make([]*task.Task, len(tasks))
		for i, tk := range tasks {
			c := task.New(tk.ID, tk.Arrival, tk.Service)
			c.IOOps = append([]task.IOOp(nil), tk.IOOps...)
			clones[i] = c
		}
		s := mk()
		eng := run(t, s, 3, clones...)
		for _, tk := range clones {
			if tk.CPUUsed != tk.Service {
				t.Fatalf("%s: task %d CPU %v != service %v", s.Name(), tk.ID, tk.CPUUsed, tk.Service)
			}
			// Turnaround decomposition: service + IO + wait == turnaround
			// (switch cost disabled).
			if got, want := tk.Turnaround(), tk.Service+tk.IOTime+tk.WaitTime; got != want {
				t.Fatalf("%s: task %d turnaround %v != svc+io+wait %v", s.Name(), tk.ID, got, want)
			}
			if tk.Turnaround() < tk.IdealDuration() {
				t.Fatalf("%s: task %d beat ideal", s.Name(), tk.ID)
			}
		}
		_ = eng
	}
}

package sched_test

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
)

func TestEEVDFFairSharing(t *testing.T) {
	a := task.New(0, 0, ms(300))
	b := task.New(1, 0, ms(300))
	run(t, sched.NewEEVDF(), 1, a, b)
	diff := a.Finish - b.Finish
	if diff < 0 {
		diff = -diff
	}
	if diff > ms(10) {
		t.Fatalf("finish gap %v too large for fair sharing", diff)
	}
	if a.Finish < ms(580) {
		t.Fatalf("a finished at %v; both should end near 600ms", a.Finish)
	}
}

func TestEEVDFLatencyForNewcomer(t *testing.T) {
	// A short task arriving into a queue of hogs becomes eligible
	// immediately (zero-lag placement) and finishes quickly.
	var hogs []*task.Task
	for i := 0; i < 6; i++ {
		hogs = append(hogs, task.New(i, 0, ms(400)))
	}
	late := task.New(99, ms(500), ms(6))
	run(t, sched.NewEEVDF(), 1, append(hogs, late)...)
	if latency := late.Turnaround(); latency > ms(60) {
		t.Fatalf("newcomer turnaround %v; EEVDF should schedule it within a few slices", latency)
	}
}

func TestEEVDFCompletesWithIO(t *testing.T) {
	a := task.New(0, 0, ms(40)).WithIO(ms(10), ms(30))
	b := task.New(1, 0, ms(50))
	eng := run(t, sched.NewEEVDF(), 1, a, b)
	if a.CPUUsed != a.Service || b.CPUUsed != b.Service {
		t.Fatal("CPU conservation violated")
	}
	if eng.Pending() != 0 {
		t.Fatal("tasks unfinished")
	}
}

func TestEEVDFMultiCoreBalance(t *testing.T) {
	var tasks []*task.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, task.New(i, 0, ms(100)))
	}
	run(t, sched.NewEEVDF(), 4, tasks...)
	// 8 equal tasks on 4 cores: pairs share, so everything ends ~200ms.
	for _, tk := range tasks {
		if tk.Finish > ms(215) {
			t.Fatalf("task %d finished at %v; load balancing broken", tk.ID, tk.Finish)
		}
	}
}

func TestCoreGranularRunToCompletion(t *testing.T) {
	long := task.New(0, 0, ms(500))
	short := task.New(1, ms(1), ms(10))
	run(t, sched.NewCoreGranular(), 2, long, short)
	if long.CtxSwitches != 0 || short.CtxSwitches != 0 {
		t.Fatal("core-granular must never preempt")
	}
	// Two cores: each task gets its own core immediately.
	if short.Finish != ms(11) {
		t.Fatalf("short finish %v, want 11ms", short.Finish)
	}
}

func TestCoreGranularReservesCoreDuringIO(t *testing.T) {
	// One core: the I/O task reserves it; the second task must wait for
	// full completion even while the first sleeps (non-work-conserving,
	// unlike SFS).
	io := task.New(0, 0, ms(20)).WithIO(ms(10), ms(100))
	waiter := task.New(1, ms(1), ms(5))
	run(t, sched.NewCoreGranular(), 1, io, waiter)
	if io.Finish != ms(120) {
		t.Fatalf("io task finish %v, want 120ms", io.Finish)
	}
	if waiter.Start < ms(120) {
		t.Fatalf("waiter started at %v during the owner's reservation", waiter.Start)
	}
}

func TestCoreGranularConvoy(t *testing.T) {
	// With one core and a long head-of-line task, the convoy effect is
	// as severe as FIFO.
	long := task.New(0, 0, ms(800))
	short := task.New(1, ms(1), ms(2))
	run(t, sched.NewCoreGranular(), 1, long, short)
	if short.Start < ms(800) {
		t.Fatalf("short started at %v; expected convoy behind the long task", short.Start)
	}
}

func TestLotteryCompletesAndShares(t *testing.T) {
	a := task.New(0, 0, ms(300))
	b := task.New(1, 0, ms(300))
	eng := run(t, sched.NewLottery(ms(10), 7), 1, a, b)
	if eng.Pending() != 0 {
		t.Fatal("unfinished tasks")
	}
	// Probabilistic interleaving: both finish in the second half of the
	// 600ms schedule.
	if a.Finish < ms(400) || b.Finish < ms(400) {
		t.Fatalf("finishes %v/%v suggest no sharing", a.Finish, b.Finish)
	}
}

func TestLotteryWeightBias(t *testing.T) {
	// A task with 4x tickets should finish (statistically) first.
	heavy := task.New(0, 0, ms(200))
	heavy.Weight = 4 * task.DefaultWeight
	light := task.New(1, 0, ms(200))
	run(t, sched.NewLottery(ms(5), 11), 1, heavy, light)
	if heavy.Finish >= light.Finish {
		t.Fatalf("heavy (4x tickets) finished at %v, after light at %v", heavy.Finish, light.Finish)
	}
}

func TestLotteryDeterministicPerSeed(t *testing.T) {
	mk := func(seed uint64) (time.Duration, time.Duration) {
		a := task.New(0, 0, ms(100))
		b := task.New(1, 0, ms(100))
		eng := cpusim.NewEngine(cpusim.Config{Cores: 1, Deadline: time.Hour}, sched.NewLottery(ms(5), seed))
		eng.Submit(a, b)
		eng.Run()
		return a.Finish, b.Finish
	}
	a1, b1 := mk(3)
	a2, b2 := mk(3)
	if a1 != a2 || b1 != b2 {
		t.Fatal("same-seed lottery runs diverged")
	}
}

package sched_test

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

func TestCFSFairSharing(t *testing.T) {
	// Two equal CPU-bound tasks on one core finish at nearly the same
	// time under CFS (fair sharing), unlike FIFO.
	a := task.New(0, 0, ms(300))
	b := task.New(1, 0, ms(300))
	run(t, sched.NewCFS(), 1, a, b)
	diff := a.Finish - b.Finish
	if diff < 0 {
		diff = -diff
	}
	// They alternate slices; finish gap is at most ~one slice.
	if diff > ms(25) {
		t.Fatalf("finish gap %v too large for fair sharing", diff)
	}
	if a.Finish < ms(575) || b.Finish < ms(575) {
		t.Fatalf("both should finish near 600ms: %v %v", a.Finish, b.Finish)
	}
}

func TestCFSSliceShrinksWithLoad(t *testing.T) {
	// With many runnable tasks, per-task slices shrink to the minimum
	// granularity, increasing context switches.
	var tasks []*task.Task
	for i := 0; i < 16; i++ {
		tasks = append(tasks, task.New(i, 0, ms(30)))
	}
	eng := run(t, sched.NewCFS(), 1, tasks...)
	// 16 tasks x 30ms = 480ms of work in ~3ms slices: roughly 160
	// slices, most of which are real switches.
	if eng.TotalCtxSwitches < 100 {
		t.Fatalf("expected heavy context switching, got %d", eng.TotalCtxSwitches)
	}
}

func TestCFSNewTaskNotStarved(t *testing.T) {
	// A task arriving into a busy queue gets min_vruntime placement and
	// must run within roughly one scheduling period, not after the
	// backlog drains.
	var tasks []*task.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, task.New(i, 0, ms(500)))
	}
	late := task.New(99, ms(1000), ms(3))
	tasks = append(tasks, late)
	run(t, sched.NewCFS(), 1, tasks...)
	if late.Start-late.Arrival > ms(100) {
		t.Fatalf("new task waited %v before first run", late.Start-late.Arrival)
	}
}

func TestCFSMultiQueueBalance(t *testing.T) {
	// Tasks arriving together spread across cores (least-loaded
	// placement) instead of piling on one runqueue.
	var tasks []*task.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, task.New(i, 0, ms(100)))
	}
	run(t, sched.NewCFS(), 4, tasks...)
	for _, tk := range tasks {
		if tk.Finish != ms(100) {
			t.Fatalf("task %d finish %v, want 100ms on its own core", tk.ID, tk.Finish)
		}
		if tk.CtxSwitches != 0 {
			t.Fatalf("task %d switched %d times", tk.ID, tk.CtxSwitches)
		}
	}
}

func TestCFSIdleBalanceSteals(t *testing.T) {
	// One long task occupies core 0's queue along with a waiting task;
	// when core 1 goes idle it should steal the waiting task.
	long1 := task.New(0, 0, ms(500))
	long2 := task.New(1, 0, ms(500))
	short1 := task.New(2, ms(1), ms(50))
	short2 := task.New(3, ms(1), ms(50))
	cfs := sched.NewCFS()
	run(t, cfs, 2, long1, long2, short1, short2)
	// All four tasks over two cores: total work 1100ms, makespan should
	// be near 550 with stealing rather than 600+ with one idle core.
	if short1.Finish > ms(300) && short2.Finish > ms(300) {
		t.Fatalf("shorts finished late (%v, %v); stealing broken?", short1.Finish, short2.Finish)
	}
}

func TestCFSWakeupPreemption(t *testing.T) {
	// A task that slept long accrues vruntime credit and preempts the
	// hog when it wakes.
	hog := task.New(0, 0, ms(1000))
	sleeper := task.New(1, 0, ms(20)).WithIO(ms(5), ms(200))
	run(t, sched.NewCFS(), 1, hog, sleeper)
	// Sleeper: runs early (5ms CPU), sleeps 200ms, wakes ~205-230ms, and
	// should preempt the hog quickly rather than waiting for it to end.
	if sleeper.Finish > ms(400) {
		t.Fatalf("woken sleeper finished at %v; wakeup preemption broken", sleeper.Finish)
	}
	if hog.CtxSwitches == 0 {
		t.Fatal("hog was never preempted")
	}
}

func TestCFSWeightedFairness(t *testing.T) {
	// A task with 3x the weight accrues vruntime at 1/3 the rate and so
	// receives ~3x the CPU share: with equal demands it finishes well
	// before the nice-0 task.
	heavy := task.New(0, 0, ms(300))
	heavy.Weight = 3 * task.DefaultWeight
	light := task.New(1, 0, ms(300))
	run(t, sched.NewCFS(), 1, heavy, light)
	if heavy.Finish >= light.Finish {
		t.Fatalf("heavy finish %v should precede light %v", heavy.Finish, light.Finish)
	}
	// Heavy gets ~3/4 of the CPU until it finishes: expected finish
	// around 300/(3/4) = 400ms.
	if heavy.Finish < ms(360) || heavy.Finish > ms(460) {
		t.Fatalf("heavy finish %v, want ~400ms for a 3:1 share", heavy.Finish)
	}
	if light.Finish < ms(590) {
		t.Fatalf("light finish %v, want ~600ms", light.Finish)
	}
}

func TestFIFORunToCompletion(t *testing.T) {
	a := task.New(0, 0, ms(500))
	b := task.New(1, ms(1), ms(5))
	c := task.New(2, ms(2), ms(5))
	run(t, sched.NewFIFO(), 1, a, b, c)
	if a.CtxSwitches != 0 || b.CtxSwitches != 0 || c.CtxSwitches != 0 {
		t.Fatal("FIFO tasks must not be preempted")
	}
	if !(a.Finish < b.Finish && b.Finish < c.Finish) {
		t.Fatalf("FIFO order violated: %v %v %v", a.Finish, b.Finish, c.Finish)
	}
}

func TestFIFOBlockedTaskLosesPosition(t *testing.T) {
	// a blocks; b and c run; a resumes after waking at the queue tail.
	a := task.New(0, 0, ms(20)).WithIO(ms(10), ms(5))
	b := task.New(1, ms(1), ms(100))
	c := task.New(2, ms(2), ms(100))
	run(t, sched.NewFIFO(), 1, a, b, c)
	// a wakes at 15ms, goes to tail behind b and c.
	if a.Finish < c.Finish {
		t.Fatalf("woken FIFO task should requeue at tail: a=%v c=%v", a.Finish, c.Finish)
	}
}

func TestRRDefaultSlice(t *testing.T) {
	rr := sched.NewRR(0)
	if rr.Slice != sched.DefaultRRSlice {
		t.Fatalf("default RR slice %v", rr.Slice)
	}
}

func TestSRTFOptimalMeanTurnaround(t *testing.T) {
	// Classic example: SRTF minimizes mean turnaround on one core.
	mk := func() []*task.Task {
		return []*task.Task{
			task.New(0, 0, ms(8)),
			task.New(1, ms(1), ms(4)),
			task.New(2, ms(2), ms(9)),
			task.New(3, ms(3), ms(5)),
		}
	}
	mean := func(tasks []*task.Task) time.Duration {
		var sum time.Duration
		for _, tk := range tasks {
			sum += tk.Turnaround()
		}
		return sum / time.Duration(len(tasks))
	}
	srtfTasks := mk()
	run(t, sched.NewSRTF(), 1, srtfTasks...)
	fifoTasks := mk()
	run(t, sched.NewFIFO(), 1, fifoTasks...)
	rrTasks := mk()
	run(t, sched.NewRR(ms(2)), 1, rrTasks...)
	if mean(srtfTasks) > mean(fifoTasks) || mean(srtfTasks) > mean(rrTasks) {
		t.Fatalf("SRTF mean %v not optimal (FIFO %v, RR %v)",
			mean(srtfTasks), mean(fifoTasks), mean(rrTasks))
	}
	// Known schedule: t1 finishes at 5, t3 at 10, t0 at 17, t2 at 26.
	if srtfTasks[1].Finish != ms(5) || srtfTasks[3].Finish != ms(10) ||
		srtfTasks[0].Finish != ms(17) || srtfTasks[2].Finish != ms(26) {
		t.Fatalf("SRTF schedule wrong: %v %v %v %v",
			srtfTasks[0].Finish, srtfTasks[1].Finish, srtfTasks[2].Finish, srtfTasks[3].Finish)
	}
}

func TestRunIdeal(t *testing.T) {
	a := task.New(0, ms(10), ms(50)).WithIO(ms(25), ms(30))
	b := task.New(1, ms(10), ms(50))
	sched.RunIdeal([]*task.Task{a, b})
	if a.Finish != ms(90) { // 10 + 50 + 30
		t.Fatalf("a finish %v", a.Finish)
	}
	if b.Finish != ms(60) {
		t.Fatalf("b finish %v", b.Finish)
	}
	if b.RTE() != 1.0 {
		t.Fatalf("ideal pure-CPU RTE %v", b.RTE())
	}
	// With IO, ideal RTE = service/(service+io) < 1, as the paper notes.
	if got := a.RTE(); got < 0.62 || got > 0.63 {
		t.Fatalf("ideal IO RTE %v, want 50/80", got)
	}
}

// TestFIFOQueueOrder: tasks leave in push order, a pushed-front task
// leaves first, an empty queue pops and peeks nil, and the order holds
// across the compaction that follows more than 1,024 pops.
func TestFIFOQueueOrder(t *testing.T) {
	var q sched.FIFOQueue
	if q.Pop() != nil || q.Peek() != nil || q.Len() != 0 {
		t.Fatal("an empty queue must pop and peek nil")
	}
	tasks := make([]*task.Task, 3000)
	for i := range tasks {
		tasks[i] = task.New(i, 0, time.Millisecond)
	}
	next := 0 // the index of the task that must leave next
	for i, tk := range tasks {
		q.Push(tk)
		if i%3 == 2 { // pop two of every three pushes, so the queue grows
			for k := 0; k < 2; k++ {
				if got := q.Pop(); got != tasks[next] {
					t.Fatalf("push %d: popped task %d, want %d", i, got.ID, next)
				}
				next++
			}
		}
	}
	front := task.New(-1, 0, time.Millisecond)
	q.PushFront(front)
	if q.Peek() != front || q.Pop() != front {
		t.Fatal("a pushed-front task must leave first")
	}
	for ; next < len(tasks); next++ {
		if q.Len() != len(tasks)-next {
			t.Fatalf("%d tasks queued, want %d", q.Len(), len(tasks)-next)
		}
		if got := q.Pop(); got != tasks[next] {
			t.Fatalf("drain: popped task %d, want %d", got.ID, next)
		}
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("a drained queue must be empty")
	}
}

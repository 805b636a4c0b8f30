package core_test

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func runSFS(t *testing.T, cfg core.Config, cores int, tasks ...*task.Task) (*core.SFS, *cpusim.Engine) {
	t.Helper()
	s := core.New(cfg)
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: time.Hour}, s)
	eng.Submit(tasks...)
	eng.Run()
	if eng.Aborted() {
		t.Fatal("simulation aborted")
	}
	return s, eng
}

func TestShortFunctionRunsUninterrupted(t *testing.T) {
	// A function shorter than S must complete in FILTER mode with zero
	// context switches and RTE 1 (§V-B case 4.1).
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(100)
	short := task.New(0, 0, ms(30))
	s, _ := runSFS(t, cfg, 1, short)
	if short.CtxSwitches != 0 {
		t.Fatalf("ctx switches %d", short.CtxSwitches)
	}
	if short.RTE() != 1.0 {
		t.Fatalf("RTE %v", short.RTE())
	}
	if short.DemotedToCFS {
		t.Fatal("short task was demoted")
	}
	if s.Stat.FilterCompletions != 1 {
		t.Fatalf("filter completions %d", s.Stat.FilterCompletions)
	}
}

func TestLongFunctionDemotedToCFS(t *testing.T) {
	// A function longer than S is preempted at the slice boundary and
	// demoted to CFS (§V-B case 4.2).
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(50)
	long := task.New(0, 0, ms(200))
	s, _ := runSFS(t, cfg, 1, long)
	if !long.DemotedToCFS {
		t.Fatal("long task was not demoted")
	}
	if s.Stat.Demotions != 1 {
		t.Fatalf("demotions %d", s.Stat.Demotions)
	}
	if long.Finish != ms(200) {
		t.Fatalf("finish %v (work conservation should complete it immediately)", long.Finish)
	}
}

func TestFilterPreemptsCFS(t *testing.T) {
	// A demoted long task is running under CFS; a new short request must
	// preempt it instantly (FIFO static priority beats CFS).
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(50)
	long := task.New(0, 0, ms(500))
	short := task.New(1, ms(100), ms(10))
	runSFS(t, cfg, 1, long, short)
	// Short arrives at 100ms while the demoted long runs under CFS; it
	// should start immediately and finish at 110ms.
	if short.Finish != ms(110) {
		t.Fatalf("short finish %v, want 110ms", short.Finish)
	}
	if short.WaitTime != 0 {
		t.Fatalf("short waited %v", short.WaitTime)
	}
}

func TestFIFOOrderWithinFilter(t *testing.T) {
	// FILTER schedules requests in enqueue order (First In...).
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(100)
	a := task.New(0, 0, ms(50))
	b := task.New(1, ms(1), ms(50))
	c := task.New(2, ms(2), ms(50))
	runSFS(t, cfg, 1, a, b, c)
	if !(a.Finish < b.Finish && b.Finish < c.Finish) {
		t.Fatalf("FILTER order violated: %v %v %v", a.Finish, b.Finish, c.Finish)
	}
	// b and c run to completion after waiting, with no preemption.
	if b.CtxSwitches != 0 || c.CtxSwitches != 0 {
		t.Fatal("queued FILTER tasks should not be preempted")
	}
}

func TestSliceAdaptsToIAT(t *testing.T) {
	// After WindowSize arrivals with mean IAT m, S should be ~m*cores
	// (§V-C).
	cfg := core.DefaultConfig()
	cfg.WindowSize = 50
	const cores = 4
	const iatMs = 20
	var tasks []*task.Task
	for i := 0; i < 120; i++ {
		tasks = append(tasks, task.New(i, time.Duration(i)*ms(iatMs), ms(5)))
	}
	s, _ := runSFS(t, cfg, cores, tasks...)
	want := ms(iatMs * cores)
	if s.Slice() != want {
		t.Fatalf("adapted S = %v, want %v", s.Slice(), want)
	}
	if len(s.Stat.SliceTimeline) < 3 {
		t.Fatalf("timeline has %d points, want >= 3 (initial + 2 recalcs)", len(s.Stat.SliceTimeline))
	}
}

func TestFixedSliceDoesNotAdapt(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.FixedSlice = ms(75)
	cfg.WindowSize = 10
	var tasks []*task.Task
	for i := 0; i < 50; i++ {
		tasks = append(tasks, task.New(i, time.Duration(i)*ms(5), ms(2)))
	}
	s, _ := runSFS(t, cfg, 2, tasks...)
	if s.Slice() != ms(75) {
		t.Fatalf("fixed S drifted to %v", s.Slice())
	}
}

func TestIOAwareStopsTimekeeping(t *testing.T) {
	// With I/O-aware polling, a leading I/O op must not consume the
	// FILTER slice: the function still completes in FILTER mode.
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(50)
	cfg.PollInterval = ms(4)
	// 40ms CPU after a 100ms leading I/O: oblivious SFS would demote
	// (100ms I/O > 50ms slice); aware SFS must not.
	tk := task.New(0, 0, ms(40)).WithIO(0, ms(100))
	s, _ := runSFS(t, cfg, 1, tk)
	if tk.DemotedToCFS {
		t.Fatal("I/O-aware SFS demoted a short task during its I/O")
	}
	if s.Stat.Demotions != 0 {
		t.Fatalf("demotions %d", s.Stat.Demotions)
	}
	// Turnaround: ~100ms I/O + 40ms CPU + up to one poll of detection
	// lag on the re-enqueue path.
	if tk.Turnaround() > ms(150) {
		t.Fatalf("turnaround %v too long", tk.Turnaround())
	}
}

func TestIOObliviousDemotesThroughSleep(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(50)
	cfg.IOAware = false
	tk := task.New(0, 0, ms(40)).WithIO(0, ms(100))
	s, _ := runSFS(t, cfg, 1, tk)
	if !tk.DemotedToCFS {
		t.Fatal("oblivious SFS should demote: the sleep burned the whole slice")
	}
	_ = s
}

func TestIOWorkConservationDuringBlock(t *testing.T) {
	// While a FILTER task sleeps, CFS tasks sneak onto the core (§V-D).
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(30)
	cfg.PollInterval = ms(4)
	// Long task demoted to CFS quickly.
	long := task.New(0, 0, ms(500))
	// Sleeper arrives, runs 5ms, sleeps 100ms.
	sleeper := task.New(1, ms(1), ms(10)).WithIO(ms(5), ms(100))
	runSFS(t, cfg, 1, long, sleeper)
	// The long task should finish around 500ms + overheads, having used
	// the sleeper's block time; without work conservation it would sit
	// idle 100ms.
	if long.Finish > ms(560) {
		t.Fatalf("long finish %v; core idled during the sleep", long.Finish)
	}
}

func TestOverloadRoutesToCFS(t *testing.T) {
	// A burst far exceeding FILTER throughput must trip the overload
	// detector and route requests straight to CFS (§V-E).
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(20)
	cfg.WindowSize = 1000 // keep S fixed during the burst
	var tasks []*task.Task
	for i := 0; i < 200; i++ {
		// All arrive at once: queueing delay for later requests greatly
		// exceeds O*S = 60ms.
		tasks = append(tasks, task.New(i, 0, ms(15)))
	}
	s, _ := runSFS(t, cfg, 2, tasks...)
	if s.Stat.OverloadRouted == 0 {
		t.Fatal("overload detector never fired")
	}
	if s.Stat.OverloadRouted < 100 {
		t.Fatalf("only %d requests routed to CFS during a 200-request burst", s.Stat.OverloadRouted)
	}
}

func TestNoHybridKeepsEverythingInFilter(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Hybrid = false
	cfg.InitialSlice = ms(20)
	var tasks []*task.Task
	for i := 0; i < 100; i++ {
		tasks = append(tasks, task.New(i, 0, ms(15)))
	}
	s, _ := runSFS(t, cfg, 2, tasks...)
	if s.Stat.OverloadRouted != 0 {
		t.Fatalf("hybrid disabled but %d requests routed", s.Stat.OverloadRouted)
	}
}

func TestHybridReducesQueueingDelay(t *testing.T) {
	// The paper's Fig 12: with hybrid, tail queueing delay during bursts
	// is much lower than without.
	mk := func() []*task.Task {
		var tasks []*task.Task
		id := 0
		at := time.Duration(0)
		// Steady phase, burst, steady phase.
		for i := 0; i < 100; i++ {
			tasks = append(tasks, task.New(id, at, ms(10)))
			id++
			at += ms(6)
		}
		for i := 0; i < 300; i++ { // burst: all within 30ms
			tasks = append(tasks, task.New(id, at+time.Duration(i)*100*time.Microsecond, ms(10)))
			id++
		}
		at += ms(30)
		for i := 0; i < 100; i++ {
			tasks = append(tasks, task.New(id, at, ms(10)))
			id++
			at += ms(6)
		}
		return tasks
	}
	cfgH := core.DefaultConfig()
	cfgH.InitialSlice = ms(12)
	cfgH.WindowSize = 100000 // pin S
	sH, _ := runSFS(t, cfgH, 2, mk()...)

	cfgN := cfgH
	cfgN.Hybrid = false
	sN, _ := runSFS(t, cfgN, 2, mk()...)

	maxDelay := func(s *core.SFS) time.Duration {
		var m time.Duration
		for _, d := range s.Stat.QueueDelays {
			if d.Delay > m {
				m = d.Delay
			}
		}
		return m
	}
	h, n := maxDelay(sH), maxDelay(sN)
	t.Logf("max queue delay: hybrid=%v nohybrid=%v", h, n)
	if h >= n {
		t.Fatalf("hybrid max delay %v should be below no-hybrid %v", h, n)
	}
}

func TestResumedTaskUsesRemainingSlice(t *testing.T) {
	// §V-D: when a woken function is rescheduled in FILTER, it runs for
	// the remainder of its slice, then demotes.
	cfg := core.DefaultConfig()
	cfg.InitialSlice = ms(50)
	cfg.PollInterval = ms(1)
	// 10ms CPU, sleep, then 60ms more CPU: slice (50ms) minus first
	// burst (10ms) leaves 40ms, so it demotes mid-second-burst.
	tk := task.New(0, 0, ms(70)).WithIO(ms(10), ms(30))
	s, _ := runSFS(t, cfg, 1, tk)
	if !tk.DemotedToCFS {
		t.Fatal("task should exhaust slice remainder and demote")
	}
	if s.Stat.Demotions != 1 {
		t.Fatalf("demotions %d", s.Stat.Demotions)
	}
	if tk.Finish < ms(100) || tk.Finish > ms(120) {
		t.Fatalf("finish %v, want ~100-120ms (70 CPU + 30 IO + overheads)", tk.Finish)
	}
}

func TestQueueDelayRecordedPerRequest(t *testing.T) {
	cfg := core.DefaultConfig()
	var tasks []*task.Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, task.New(i, time.Duration(i)*ms(1), ms(5)))
	}
	s, _ := runSFS(t, cfg, 2, tasks...)
	if len(s.Stat.QueueDelays) != 20 {
		t.Fatalf("recorded %d delay samples, want 20", len(s.Stat.QueueDelays))
	}
	seen := map[int]bool{}
	for _, d := range s.Stat.QueueDelays {
		if seen[d.Seq] {
			t.Fatalf("duplicate delay sample for request %d", d.Seq)
		}
		seen[d.Seq] = true
		if d.Delay < 0 {
			t.Fatalf("negative delay %v", d.Delay)
		}
	}
}

func TestSFSNames(t *testing.T) {
	if core.New(core.DefaultConfig()).Name() != "SFS" {
		t.Fatal("default name")
	}
	cfg := core.DefaultConfig()
	cfg.Hybrid = false
	if core.New(cfg).Name() != "SFS-noHybrid" {
		t.Fatal("noHybrid name")
	}
	cfg = core.DefaultConfig()
	cfg.IOAware = false
	if core.New(cfg).Name() != "SFS-ioOblivious" {
		t.Fatal("ioOblivious name")
	}
	cfg = core.DefaultConfig()
	cfg.FixedSlice = ms(100)
	if core.New(cfg).Name() != "SFS-fixed100ms" {
		t.Fatal("fixed name")
	}
}

func TestPerCoreQueueLoadImbalance(t *testing.T) {
	// Two cores, per-core queues, round-robin assignment: requests with
	// even submission order land on queue 0, odd on queue 1. A long
	// first request on queue 0 convoys every even-indexed short behind
	// it, while the global-queue variant lets any free worker take them.
	mk := func(perCore bool) (time.Duration, *core.SFS) {
		cfg := core.DefaultConfig()
		cfg.InitialSlice = time.Second // no demotion: pure queueing effect
		cfg.WindowSize = 100000
		cfg.PerCoreQueue = perCore
		var tasks []*task.Task
		tasks = append(tasks, task.New(0, 0, 800*time.Millisecond)) // queue 0
		for i := 1; i < 20; i++ {
			tasks = append(tasks, task.New(i, time.Duration(i)*time.Millisecond, 5*time.Millisecond))
		}
		s, _ := runSFS(t, cfg, 2, tasks...)
		var sum time.Duration
		for _, tk := range tasks[1:] {
			sum += tk.Turnaround()
		}
		return sum / time.Duration(len(tasks)-1), s
	}
	globalMean, _ := mk(false)
	perCoreMean, s := mk(true)
	if s.Name() != "SFS-perCoreQueue" {
		t.Fatalf("name %q", s.Name())
	}
	t.Logf("mean short turnaround: global=%v per-core=%v", globalMean, perCoreMean)
	if perCoreMean <= globalMean {
		t.Fatalf("per-core queues (%v) should convoy shorts vs global queue (%v)", perCoreMean, globalMean)
	}
}

func TestPerCoreQueueStillCompletesEverything(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.PerCoreQueue = true
	w := trace.Collect(workload.Stream(workload.Spec{N: 500, Cores: 4, Load: 0.9, Seed: 33, IOFraction: 0.3}))
	s, eng := runSFS(t, cfg, 4, w...)
	if eng.Pending() != 0 {
		t.Fatal("unfinished tasks under per-core queues")
	}
	if s.Stat.Requests != 500 {
		t.Fatalf("requests %d", s.Stat.Requests)
	}
}

func TestWorkloadIntegrationWithIOKnob(t *testing.T) {
	// Fig 11 setup: 75% of requests carry one leading 10-100ms I/O op.
	w := trace.Collect(workload.Stream(workload.Spec{
		N: 300, Cores: 2, Load: 0.8, Seed: 21,
		IOFraction: 0.75,
		Duration:   dist.Uniform{Lo: ms(5), Hi: ms(80)},
	}))
	withIO := 0
	for _, tk := range w {
		if len(tk.IOOps) > 0 {
			withIO++
		}
	}
	frac := float64(withIO) / float64(len(w))
	if frac < 0.65 || frac > 0.85 {
		t.Fatalf("IO fraction %.2f, want ~0.75", frac)
	}
	s, eng := runSFS(t, core.DefaultConfig(), 2, w...)
	_ = s
	if eng.Pending() != 0 {
		t.Fatal("unfinished tasks")
	}
}

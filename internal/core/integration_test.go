package core_test

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// runWorkload replays tasks under the given scheduler and returns a
// metrics run.
func runWorkload(t *testing.T, name string, s cpusim.Scheduler, cores int, tasks []*task.Task) metrics.Run {
	t.Helper()
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 24 * time.Hour}, s)
	eng.Submit(tasks...)
	eng.Run()
	if eng.Aborted() {
		t.Fatalf("%s: simulation aborted with %d pending tasks", name, eng.Pending())
	}
	for _, tk := range tasks {
		if tk.Turnaround() < 0 {
			t.Fatalf("%s: task %d unfinished", name, tk.ID)
		}
		if tk.CPUUsed != tk.Service {
			t.Fatalf("%s: task %d consumed %v of %v CPU", name, tk.ID, tk.CPUUsed, tk.Service)
		}
		if tk.Turnaround() < tk.IdealDuration() {
			t.Fatalf("%s: task %d turnaround %v below ideal %v", name, tk.ID, tk.Turnaround(), tk.IdealDuration())
		}
	}
	return metrics.Run{Scheduler: name, Tasks: tasks}
}

func testWorkload(cores int, n int, load float64, seed uint64) []*task.Task {
	return trace.Collect(workload.Stream(workload.Spec{
		N:     n,
		Cores: cores,
		Load:  load,
		Seed:  seed,
	}))
}

// TestAllSchedulersComplete runs the Azure-sampled workload under every
// scheduler and checks basic sanity of the outcome.
func TestAllSchedulersComplete(t *testing.T) {
	const cores = 4
	w := testWorkload(cores, 400, 0.8, 42)
	scheds := map[string]func() cpusim.Scheduler{
		"CFS":  func() cpusim.Scheduler { return sched.NewCFS() },
		"FIFO": func() cpusim.Scheduler { return sched.NewFIFO() },
		"RR":   func() cpusim.Scheduler { return sched.NewRR(0) },
		"SRTF": func() cpusim.Scheduler { return sched.NewSRTF() },
		"SFS":  func() cpusim.Scheduler { return core.New(core.DefaultConfig()) },
	}
	for name, mk := range scheds {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			runWorkload(t, name, mk(), cores, trace.CloneTasks(w))
		})
	}
}

// TestSFSBeatsCFSForShortFunctions is the headline claim: under high
// load, SFS dramatically improves the turnaround of the short-function
// majority relative to CFS, at a modest cost to the long minority.
func TestSFSBeatsCFSForShortFunctions(t *testing.T) {
	const cores = 8
	w := testWorkload(cores, 2000, 1.0, 7)

	cfsRun := runWorkload(t, "CFS", sched.NewCFS(), cores, trace.CloneTasks(w))
	sfsRun := runWorkload(t, "SFS", core.New(core.DefaultConfig()), cores, trace.CloneTasks(w))

	sum := metrics.CompareRuns(cfsRun, sfsRun)
	t.Logf("short fraction=%.2f speedup=%.1fx; long fraction=%.2f slowdown=%.2fx; median speedup=%.2fx",
		sum.ShortFraction, sum.ShortSpeedup, sum.LongFraction, sum.LongSlowdown, sum.MedianSpeedup)

	if sum.ShortFraction < 0.6 {
		t.Errorf("expected a majority of tasks to improve under SFS, got %.2f", sum.ShortFraction)
	}
	// At steady Poisson load the backlog is moderate; the dramatic
	// paper-scale speedups appear under bursty trace arrivals (see
	// TestBurstyTraceMagnitudes).
	if sum.ShortSpeedup < 1.25 {
		t.Errorf("expected substantial speedup for improved tasks, got %.2fx", sum.ShortSpeedup)
	}
	// The paper reports 1.29x average slowdown for the long minority; be
	// generous but bounded.
	if sum.LongSlowdown > 6 {
		t.Errorf("long-task slowdown too severe: %.2fx", sum.LongSlowdown)
	}

	// RTE claim: far more SFS requests achieve RTE >= 0.95 than CFS.
	sfsHigh := sfsRun.FractionRTEAtLeast(0.95)
	cfsHigh := cfsRun.FractionRTEAtLeast(0.95)
	t.Logf("RTE>=0.95: SFS %.2f vs CFS %.2f", sfsHigh, cfsHigh)
	if sfsHigh <= cfsHigh {
		t.Errorf("SFS high-RTE fraction %.2f should exceed CFS %.2f", sfsHigh, cfsHigh)
	}
}

// TestSRTFBeatsCFS checks the motivation study's ordering (Fig 2): the
// SRTF oracle outperforms CFS on mean turnaround, and FIFO suffers the
// convoy effect (worst median for short tasks).
func TestSRTFBeatsCFS(t *testing.T) {
	const cores = 4
	w := testWorkload(cores, 1000, 1.0, 99)

	srtf := runWorkload(t, "SRTF", sched.NewSRTF(), cores, trace.CloneTasks(w))
	cfs := runWorkload(t, "CFS", sched.NewCFS(), cores, trace.CloneTasks(w))
	fifo := runWorkload(t, "FIFO", sched.NewFIFO(), cores, trace.CloneTasks(w))

	if srtf.MeanTurnaround() >= cfs.MeanTurnaround() {
		t.Errorf("SRTF mean %v should beat CFS %v", srtf.MeanTurnaround(), cfs.MeanTurnaround())
	}
	// FIFO's convoy effect shows up at the median: short tasks queue
	// behind long ones.
	sp := metrics.StandardPercentiles
	fifoP := fifo.Percentiles(sp)
	srtfP := srtf.Percentiles(sp)
	if fifoP[0] <= srtfP[0] {
		t.Errorf("FIFO median %v should exceed SRTF median %v (convoy effect)", fifoP[0], srtfP[0])
	}
}

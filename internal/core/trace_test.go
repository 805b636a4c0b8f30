package core_test

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// TestBurstyTraceMagnitudes replays the Azure-sampled trace workload
// (bursty arrivals, §VII) and checks the paper's headline relationships
// at full load: SFS ≫ CFS for the short majority, SRTF close to optimal,
// and a large gap in high-RTE fractions.
func TestBurstyTraceMagnitudes(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay is slow")
	}
	const cores = 12
	w := trace.Collect(workload.AzureSampledStream(workload.AzureSampledSpec{
		N: 10000, Cores: cores, Load: 1.0, Seed: 5,
	}))

	run := func(name string, s cpusim.Scheduler) metrics.Run {
		tasks := trace.CloneTasks(w)
		eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 1000 * time.Hour}, s)
		eng.Submit(tasks...)
		eng.Run()
		if eng.Aborted() {
			t.Fatalf("%s aborted", name)
		}
		return metrics.Run{Scheduler: name, Tasks: tasks}
	}

	cfs := run("CFS", sched.NewCFS())
	sfs := run("SFS", core.New(core.DefaultConfig()))
	srtf := run("SRTF", sched.NewSRTF())

	sum := metrics.CompareRuns(cfs, sfs)
	t.Logf("SFS vs CFS: improved=%.0f%% geo=%.1fx arith=%.1fx; regressed=%.0f%% slowdown=%.2fx (arith %.2fx)",
		100*sum.ShortFraction, sum.ShortSpeedup, sum.ShortSpeedupArith,
		100*sum.LongFraction, sum.LongSlowdown, sum.LongSlowdownArith)
	t.Logf("RTE>=0.95: SFS %.2f CFS %.2f SRTF %.2f",
		sfs.FractionRTEAtLeast(0.95), cfs.FractionRTEAtLeast(0.95), srtf.FractionRTEAtLeast(0.95))

	if sum.ShortFraction < 0.7 {
		t.Errorf("expected >=70%% of requests improved, got %.2f", sum.ShortFraction)
	}
	if sum.ShortSpeedupArith < 2 {
		t.Errorf("expected large mean speedup for improved requests, got %.2fx", sum.ShortSpeedupArith)
	}
	if sum.LongSlowdownArith > 4 {
		t.Errorf("long-task mean slowdown too severe: %.2fx", sum.LongSlowdownArith)
	}
	if got, want := sfs.FractionRTEAtLeast(0.95), cfs.FractionRTEAtLeast(0.95); got < want+0.3 {
		t.Errorf("SFS high-RTE fraction %.2f should far exceed CFS %.2f", got, want)
	}
	// SRTF (oracle) should have the best mean turnaround, SFS between
	// SRTF and CFS.
	if srtf.MeanTurnaround() > sfs.MeanTurnaround() {
		t.Errorf("SRTF mean %v should not exceed SFS mean %v", srtf.MeanTurnaround(), sfs.MeanTurnaround())
	}
	if sfs.MeanTurnaround() > cfs.MeanTurnaround() {
		t.Errorf("SFS mean %v should not exceed CFS mean %v", sfs.MeanTurnaround(), cfs.MeanTurnaround())
	}
	// Context switches: CFS should dominate (Fig 16).
	ratios := metrics.CtxSwitchRatios(cfs, sfs)
	above1 := 0
	for _, r := range ratios {
		if r > 1 {
			above1++
		}
	}
	if frac := float64(above1) / float64(len(ratios)); frac < 0.5 {
		t.Errorf("expected most requests to context-switch more under CFS, got %.2f", frac)
	}
}

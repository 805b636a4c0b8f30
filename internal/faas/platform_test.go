package faas

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func smallWorkload(cores int, seed uint64) []*task.Task {
	return trace.Collect(workload.Stream(workload.Spec{
		N: 300, Cores: cores, Load: 0.8, Seed: seed,
		Duration: dist.Uniform{Lo: ms(5), Hi: ms(200)},
		Apps:     workload.OpenLambdaMix(),
	}))
}

// replay runs tasks on p under s.
func replay(p *Platform, tasks []*task.Task, s cpusim.Scheduler) Result {
	return p.RunTrace(trace.FromTasks("small", tasks), s)
}

func TestPlatformAddsOverheads(t *testing.T) {
	const cores = 4
	w := smallWorkload(cores, 1)

	// Bare engine run (no platform).
	bare := New(Config{Cores: cores, Seed: 2}) // zero overheads
	bareRes := replay(bare, w, sched.NewCFS())

	loaded := New(Config{Cores: cores, Overheads: DefaultOverheads(), Seed: 2})
	loadedRes := replay(loaded, w, sched.NewCFS())

	if loadedRes.MeanDispatchOverhead == 0 {
		t.Fatal("no dispatch overhead sampled")
	}
	if bareRes.MeanDispatchOverhead != 0 {
		t.Fatal("zero-overhead platform sampled overhead")
	}
	// Mean turnaround must be strictly larger with overheads.
	if loadedRes.Run.MeanTurnaround() <= bareRes.Run.MeanTurnaround() {
		t.Fatalf("overheads did not increase turnaround: %v vs %v",
			loadedRes.Run.MeanTurnaround(), bareRes.Run.MeanTurnaround())
	}
}

func TestPlatformRestoresEndToEndTimestamps(t *testing.T) {
	const cores = 2
	w := smallWorkload(cores, 3)
	p := New(Config{Cores: cores, Overheads: DefaultOverheads(), Seed: 4})
	res := replay(p, w, sched.NewFIFO())
	for i, tk := range res.Run.Tasks {
		if tk.Arrival != w[i].Arrival {
			t.Fatalf("task %d arrival moved: %v vs %v", i, tk.Arrival, w[i].Arrival)
		}
		// End-to-end turnaround strictly exceeds the ideal (overheads).
		if tk.Turnaround() <= tk.IdealDuration() {
			t.Fatalf("task %d turnaround %v not above ideal %v", i, tk.Turnaround(), tk.IdealDuration())
		}
	}
}

func TestSFSPortStillWinsUnderPlatform(t *testing.T) {
	// §IX headline: with platform overheads, OL+SFS still beats OL+CFS
	// for the short majority.
	const cores = 8
	w := func() trace.Source { return OpenLambdaWorkload(3000, cores, 0.9, 17) }
	cfsP := New(Config{Cores: cores, Overheads: DefaultOverheads(), Seed: 18})
	cfsRes := cfsP.RunTrace(w(), sched.NewCFS())
	sfsP := New(Config{Cores: cores, Overheads: DefaultOverheads(), SFSPort: true, Seed: 18})
	sfsRes := sfsP.RunTrace(w(), core.New(core.DefaultConfig()))

	sum := metrics.CompareRuns(cfsRes.Run, sfsRes.Run)
	t.Logf("OL: improved=%.0f%% arith=%.1fx regressed=%.0f%% (slowdown %.2fx)",
		100*sum.ShortFraction, sum.ShortSpeedupArith, 100*sum.LongFraction, sum.LongSlowdownArith)
	// Platform overheads and the I/O polling lag shave the improved
	// fraction below the bare-scheduler numbers (the paper makes the
	// same observation in §IX); the improvements must still dominate.
	if sum.ShortFraction < 0.5 {
		t.Errorf("expected majority improvement under the platform, got %.2f", sum.ShortFraction)
	}
	if sum.ShortSpeedupArith < 2 {
		t.Errorf("expected substantial wins for improved requests, got %.2fx", sum.ShortSpeedupArith)
	}
	// Geometric mean keeps the check robust to a few extreme stragglers
	// in the saturated tail.
	if sum.LongSlowdown > 4 {
		t.Errorf("regressions should be mild, got %.2fx (geo)", sum.LongSlowdown)
	}
	if sfsRes.Run.MeanTurnaround() > cfsRes.Run.MeanTurnaround() {
		t.Errorf("OL+SFS mean %v should not exceed OL+CFS %v",
			sfsRes.Run.MeanTurnaround(), cfsRes.Run.MeanTurnaround())
	}
}

func TestPlatformDeterminism(t *testing.T) {
	const cores = 2
	w := smallWorkload(cores, 7)
	r1 := replay(New(Config{Cores: cores, Overheads: DefaultOverheads(), Seed: 8}), w, sched.NewFIFO())
	r2 := replay(New(Config{Cores: cores, Overheads: DefaultOverheads(), Seed: 8}), w, sched.NewFIFO())
	for i := range r1.Run.Tasks {
		if r1.Run.Tasks[i].Finish != r2.Run.Tasks[i].Finish {
			t.Fatalf("same-seed platform runs diverge at task %d", i)
		}
	}
}

func TestOverheadModelEstimate(t *testing.T) {
	m := DefaultOverheadModel()
	// 72 workers busy ~60% of a 600s run: ~26,000s of aggregate FILTER
	// time, polled every 4ms (6.5M polls), plus ~1M scheduling ops.
	pollCPU, schedCPU, rel := m.Estimate(26000*time.Second, 4*time.Millisecond, 1_000_000, 72, 600*time.Second)
	if pollCPU <= 0 || schedCPU <= 0 {
		t.Fatal("zero overhead components")
	}
	if rel <= 0 || rel > 0.2 {
		t.Fatalf("relative overhead %.3f out of plausible range", rel)
	}
	// Polling should dominate (the paper reports ~74%).
	if float64(pollCPU)/float64(pollCPU+schedCPU) < 0.5 {
		t.Fatalf("polling share %.2f; expected dominant", float64(pollCPU)/float64(pollCPU+schedCPU))
	}
	if _, _, r := m.Estimate(0, 0, 0, 0, 0); r != 0 {
		t.Fatal("degenerate estimate should be zero")
	}
}

func TestPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{})
}

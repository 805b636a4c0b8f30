package faas

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
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
	bareRes := replay(bare, w, sched.NewCFS(sched.CFSConfig{}))

	loaded := New(Config{Cores: cores, Overheads: DefaultOverheads(), Seed: 2})
	loadedRes := replay(loaded, w, sched.NewCFS(sched.CFSConfig{}))

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
			t.Fatalf("task %d arrival not restored: %v vs %v", i, tk.Arrival, w[i].Arrival)
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
	cfsRes := cfsP.RunTrace(w(), sched.NewCFS(sched.CFSConfig{}))
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

func TestColdStartInjection(t *testing.T) {
	const cores = 2
	w := smallWorkload(cores, 5)
	lc := func(p lifecycle.Policy) *lifecycle.Config {
		return &lifecycle.Config{
			Policy:      p,
			ImagePull:   dist.Constant{Value: ms(80)},
			SandboxBoot: dist.Constant{Value: ms(20)},
			Seed:        6,
		}
	}

	// NONE: every invocation pays the constant 100ms cold start.
	none := replay(New(Config{Cores: cores, Lifecycle: lc(lifecycle.NewNone()), Seed: 6}), w, sched.NewFIFO())
	if none.ColdStarts != len(w) {
		t.Fatalf("NONE cold starts %d, want every one of %d", none.ColdStarts, len(w))
	}
	if r := none.Lifecycle.WarmHitRatio(); r != 0 {
		t.Fatalf("NONE warm-hit ratio %.2f, want 0", r)
	}

	// A generous TTL turns most of those into warm hits and lowers mean
	// turnaround accordingly.
	ttl := replay(New(Config{Cores: cores, Lifecycle: lc(lifecycle.NewFixedTTL(time.Minute)), Seed: 6}), w, sched.NewFIFO())
	if ttl.Lifecycle.WarmHitRatio() < 0.5 {
		t.Fatalf("TTL warm-hit ratio %.2f, want most invocations warm", ttl.Lifecycle.WarmHitRatio())
	}
	if ttl.Run.MeanTurnaround() >= none.Run.MeanTurnaround() {
		t.Fatalf("warm pools should cut mean turnaround: TTL %v vs NONE %v",
			ttl.Run.MeanTurnaround(), none.Run.MeanTurnaround())
	}
	// The cold-start latency is on the critical path, not in the
	// dispatch-overhead accounting.
	if none.MeanDispatchOverhead != 0 {
		t.Fatalf("cold starts leaked into dispatch overhead: %v", none.MeanDispatchOverhead)
	}
}

func TestColdStartDeterminismWithLifecycle(t *testing.T) {
	const cores = 2
	w := smallWorkload(cores, 9)
	run := func() Result {
		return replay(New(Config{
			Cores:     cores,
			Overheads: DefaultOverheads(),
			Lifecycle: &lifecycle.Config{Policy: lifecycle.NewHistogram(0), MemoryMB: 2048, Seed: 9},
			Seed:      9,
		}), w, sched.NewCFS(sched.CFSConfig{}))
	}
	r1, r2 := run(), run()
	if r1.Lifecycle != r2.Lifecycle {
		t.Fatalf("lifecycle stats diverged:\n%+v\n%+v", r1.Lifecycle, r2.Lifecycle)
	}
	for i := range r1.Run.Tasks {
		if r1.Run.Tasks[i].Finish != r2.Run.Tasks[i].Finish {
			t.Fatalf("same-seed lifecycle runs diverge at task %d", i)
		}
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

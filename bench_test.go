package sfs_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/experiments"
	"github.com/serverless-sched/sfs/internal/live"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/perfbench"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// benchExperiment runs one paper experiment per iteration (quick scale)
// and reports headline metrics extracted from its notes.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiments.Config{Quick: true, Seed: 42}
	var rep interface{ Render() string }
	for i := 0; i < b.N; i++ {
		rep = e.Run(cfg)
	}
	if rep == nil {
		b.Fatal("no report")
	}
}

// One benchmark per table/figure of the paper's evaluation. Each
// regenerates the experiment at quick scale; run cmd/experiments for the
// full-scale numbers recorded in EXPERIMENTS.md.

func BenchmarkFig01_AzureDurationCDF(b *testing.B)      { benchExperiment(b, "fig1") }
func BenchmarkTable1_DurationRanges(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkFig02a_MotivationDuration(b *testing.B)   { benchExperiment(b, "fig2a") }
func BenchmarkFig02b_MotivationRTE(b *testing.B)        { benchExperiment(b, "fig2b") }
func BenchmarkFig06_LoadSweepDuration(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig07_LoadSweepRTE(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig08_Percentiles(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig09_FixedVsAdaptiveSlice(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10_SliceTimeline(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11_IOPolling(b *testing.B)             { benchExperiment(b, "fig11") }
func BenchmarkFig12a_OverloadQueueDelay(b *testing.B)   { benchExperiment(b, "fig12a") }
func BenchmarkFig12b_OverloadDuration(b *testing.B)     { benchExperiment(b, "fig12b") }
func BenchmarkFig13_OpenLambdaDuration(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14_OpenLambdaRTE(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkFig15_OpenLambdaPercentiles(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16_CtxSwitchRatio(b *testing.B)        { benchExperiment(b, "fig16") }
func BenchmarkTable2_SchedulerOverhead(b *testing.B)    { benchExperiment(b, "table2") }

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationSecondLevel(b *testing.B) { benchExperiment(b, "ablation-secondlevel") }
func BenchmarkAblationBaselines(b *testing.B)   { benchExperiment(b, "ablation-baselines") }
func BenchmarkAblationWindow(b *testing.B)      { benchExperiment(b, "ablation-window") }
func BenchmarkAblationOverload(b *testing.B)    { benchExperiment(b, "ablation-overload") }
func BenchmarkAblationTail(b *testing.B)        { benchExperiment(b, "ablation-tail") }
func BenchmarkAblationQueueing(b *testing.B)    { benchExperiment(b, "ablation-queueing") }
func BenchmarkSynthRamp(b *testing.B)           { benchExperiment(b, "synth-ramp") }

// BenchmarkPerfbench runs the perf harness's micro-benchmarks (engine
// step, cluster dispatch, trace decode/encode, metrics summary) at
// quick scale through the normal `go test -bench` interface. The same
// scenarios, measured by cmd/perfbench, produce the BENCH_<date>.json
// trajectory files and CI's regression gate.
func BenchmarkPerfbench(b *testing.B) {
	for _, s := range perfbench.Scenarios(true, 42) {
		b.Run(s.Name, s.Bench)
	}
}

// BenchmarkRunAllParallel measures the parallel experiment runner's
// wall-clock at several worker counts (the speedup cmd/perfbench
// records under "experiments").
func BenchmarkRunAllParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.RunAll(experiments.Config{Quick: true, Seed: 42}, workers)
			}
		})
	}
}

// BenchmarkTracePipeline measures streaming generation throughput
// (invocations per second of wall time) of each scenario family pulled
// through trace.Source, without materializing the stream.
func BenchmarkTracePipeline(b *testing.B) {
	const n = 5000
	for _, fam := range []struct {
		name string
		mk   func(seed uint64) trace.Source
	}{
		{"table1-poisson", func(seed uint64) trace.Source {
			return workload.Stream(workload.Spec{N: n, Cores: 16, Load: 0.8, Seed: seed})
		}},
		{"azure-sampled", func(seed uint64) trace.Source {
			return workload.AzureSampledStream(workload.AzureSampledSpec{N: n, Cores: 16, Load: 1.0, Seed: seed})
		}},
		{"synth-ramp", func(seed uint64) trace.Source {
			return workload.SyntheticStream(workload.SyntheticSpec{
				Shape: trace.ShapeRamp, StartRPS: 100, TargetRPS: 1000,
				N: n, Horizon: time.Hour, Seed: seed,
			})
		}},
	} {
		fam := fam
		b.Run(fam.name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				src := fam.mk(uint64(i))
				for {
					if _, ok := src.Next(); !ok {
						break
					}
					total++
				}
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "inv/s")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator speed: virtual task
// completions per second of wall time under each scheduler.
func BenchmarkEngineThroughput(b *testing.B) {
	const cores = 16
	w := trace.Collect(workload.Stream(workload.Spec{N: 2000, Cores: cores, Load: 1.0, Seed: 7}))
	for _, mk := range []struct {
		name string
		mk   func() cpusim.Scheduler
	}{
		{"CFS", func() cpusim.Scheduler { return sched.NewCFS() }},
		{"FIFO", func() cpusim.Scheduler { return sched.NewFIFO() }},
		{"RR", func() cpusim.Scheduler { return sched.NewRR(0) }},
		{"SRTF", func() cpusim.Scheduler { return sched.NewSRTF() }},
		{"SFS", func() cpusim.Scheduler { return core.New(core.DefaultConfig()) }},
	} {
		mk := mk
		b.Run(mk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 100 * time.Hour}, mk.mk())
				eng.Submit(trace.CloneTasks(w)...)
				eng.Run()
			}
			b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// BenchmarkSpeedupSummary reports the paper's headline comparison as
// benchmark metrics: improved fraction and mean speedup of SFS over CFS
// on the trace workload.
func BenchmarkSpeedupSummary(b *testing.B) {
	const cores = 12
	w := trace.Collect(workload.AzureSampledStream(workload.AzureSampledSpec{N: 2000, Cores: cores, Load: 1.0, Seed: 5}))
	var sum metrics.SpeedupSummary
	for i := 0; i < b.N; i++ {
		run := func(s cpusim.Scheduler) metrics.Run {
			eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 100 * time.Hour}, s)
			tasks := trace.CloneTasks(w)
			eng.Submit(tasks...)
			eng.Run()
			return metrics.Run{Scheduler: s.Name(), Tasks: tasks}
		}
		cfs := run(sched.NewCFS())
		sfs := run(core.New(core.DefaultConfig()))
		sum = metrics.CompareRuns(cfs, sfs)
	}
	b.ReportMetric(100*sum.ShortFraction, "%improved")
	b.ReportMetric(sum.ShortSpeedupArith, "x-speedup")
	b.ReportMetric(sum.LongSlowdownArith, "x-slowdown")
}

// BenchmarkLiveRuntime measures the real goroutine-based SFS runtime:
// end-to-end latency of short functions through the live scheduler (the
// Table II counterpart on real hardware).
func BenchmarkLiveRuntime(b *testing.B) {
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := live.New(live.Config{Workers: workers, InitialSlice: 50 * time.Millisecond})
			s.Start()
			defer s.Stop()
			b.ResetTimer()
			var lastQ time.Duration
			for i := 0; i < b.N; i++ {
				fut, err := s.Submit("bench", func(ctx *live.Ctx) {
					ctx.Spin(200 * time.Microsecond)
				})
				if err != nil {
					b.Fatal(err)
				}
				res := fut.Wait()
				lastQ = res.QueueDelay
			}
			b.ReportMetric(float64(lastQ.Microseconds()), "qdelay-us")
		})
	}
}

// BenchmarkLiveSubmitOverhead isolates the scheduler's submission path
// (global-queue enqueue + monitor update), the per-request user-space
// cost the paper's Table II accounts under "scheduling activities".
func BenchmarkLiveSubmitOverhead(b *testing.B) {
	s := live.New(live.Config{Workers: 1, InitialSlice: time.Second, QueueCapacity: 1 << 20})
	// Not started: measures pure submission cost without execution.
	b.ResetTimer()
	futs := make([]*live.Future, 0, b.N)
	for i := 0; i < b.N; i++ {
		fut, err := s.Submit("noop", func(ctx *live.Ctx) {})
		if err != nil {
			b.Skip("queue full; raise capacity for larger -benchtime")
		}
		futs = append(futs, fut)
	}
	b.StopTimer()
	s.Start()
	for _, f := range futs {
		f.Wait()
	}
	s.Stop()
}

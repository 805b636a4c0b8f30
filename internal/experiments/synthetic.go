package experiments

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

func init() {
	register("synth-ramp", "Synthetic RPS ramp: SFS vs CFS as offered load crosses saturation", runSynthRamp)
}

// runSynthRamp goes beyond the paper's steady-state load levels: an
// invitro-style RPS ramp sweeps the offered load from comfortable to
// past saturation within one trace, so the comparison shows where along
// the ramp each scheduler's tail detaches — the transition the
// steady-state figures can only bracket.
func runSynthRamp(cfg Config) *Report {
	const cores = 16
	n := scaleN(cfg, 10000)

	// Calibrate the ramp around the saturation rate: with Table I
	// durations on 16 cores, RPS_sat = cores / E[service]. The ramp runs
	// 0.3x..1.3x of it.
	meanSvc := workload.TableIDistribution().Mean()
	satRPS := float64(cores) / meanSvc.Seconds()
	spec := workload.SyntheticSpec{
		Shape:     trace.ShapeRamp,
		StartRPS:  0.3 * satRPS,
		TargetRPS: 1.3 * satRPS,
		Horizon:   time.Duration(float64(n) / (0.8 * satRPS) * float64(time.Second)),
		N:         n,
		Seed:      cfg.Seed,
	}
	src := workload.SyntheticStream(spec)
	w := trace.Collect(src)

	sfsRun, _ := runOn(core.New(core.DefaultConfig()), cores, trace.CloneTasks(w), 0)
	cfsRun, _ := runOn(sched.NewCFS(), cores, trace.CloneTasks(w), 0)

	rep := &Report{
		ID:    "synth-ramp",
		Title: fmt.Sprintf("RPS ramp %.0f → %.0f rps on %d cores (saturation ~%.0f rps)", spec.StartRPS, spec.TargetRPS, cores, satRPS),
		Paper: "beyond the paper: load-transition behaviour, not a steady-state level",
	}

	// Per-quarter p99 turnaround along the ramp: where does each
	// scheduler's tail detach?
	quarters := 4
	header := []string{"ramp quarter", "offered rps", "SFS p99", "CFS p99", "SFS mean", "CFS mean"}
	span := w[len(w)-1].Arrival
	for q := 0; q < quarters; q++ {
		lo := span * time.Duration(q) / time.Duration(quarters)
		hi := span * time.Duration(q+1) / time.Duration(quarters)
		if q == quarters-1 {
			hi = span + 1 // the final arrival belongs to the last quarter
		}
		sfsQ := sliceRun(sfsRun, lo, hi)
		cfsQ := sliceRun(cfsRun, lo, hi)
		midRPS := spec.StartRPS + (spec.TargetRPS-spec.StartRPS)*(float64(q)+0.5)/float64(quarters)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d/4", q+1),
			fmt.Sprintf("%.0f", midRPS),
			metrics.FormatDuration(sfsQ.Percentiles([]float64{99})[0]),
			metrics.FormatDuration(cfsQ.Percentiles([]float64{99})[0]),
			metrics.FormatDuration(sfsQ.MeanTurnaround()),
			metrics.FormatDuration(cfsQ.MeanTurnaround()),
		})
	}
	rep.Header = header
	rep.Series = append(rep.Series,
		Series{Name: "SFS", Points: sfsRun.DurationCDF()},
		Series{Name: "CFS", Points: cfsRun.DurationCDF()})

	sum := metrics.CompareRuns(cfsRun, sfsRun)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("across the whole ramp: %.0f%% of requests improved under SFS (mean %.1fx), %.0f%% regressed (mean %.2fx)",
			100*sum.ShortFraction, sum.ShortSpeedupArith, 100*sum.LongFraction, sum.LongSlowdownArith),
		fmt.Sprintf("trace: %s", src.String()))
	return rep
}

// sliceRun restricts a run to tasks arriving in [lo, hi).
func sliceRun(r metrics.Run, lo, hi time.Duration) metrics.Run {
	out := metrics.Run{Scheduler: r.Scheduler, Load: r.Load}
	for _, t := range r.Tasks {
		if t.Arrival >= lo && t.Arrival < hi {
			out.Tasks = append(out.Tasks, t)
		}
	}
	return out
}

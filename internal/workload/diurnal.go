package workload

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// DiurnalSpec configures the diurnal scenario family: request rate
// follows a sine-on-trend daily cycle with a weekend dip, the
// non-stationary shape production FaaS fleets see at the hours scale
// (Shahrad et al.; Kaffes et al.'s Azure-trace scheduling study). The
// mean rate is calibrated so the whole horizon offers Load to Cores;
// within it, midday peaks run (1+Amplitude)x the daily mean and nights
// bottom out at (1-Amplitude)x, weekend days are scaled by WeekendDip,
// and TrendSlope grows the baseline linearly across the horizon.
type DiurnalSpec struct {
	// N caps the number of invocations and, when DayLength is zero,
	// sizes the simulated day so that ~N arrivals span Days days.
	N int
	// Cores the load is calibrated for.
	Cores int
	// Load is the horizon-average offered CPU load (default 0.8).
	Load float64
	// Days in the horizon (default 7: five weekdays, two weekend days).
	Days int
	// DayLength is the simulated length of one day. Zero derives it
	// from N and the calibrated rate so the horizon holds ~N arrivals.
	DayLength time.Duration
	// Amplitude is the sine swing around the daily mean in [0, 1)
	// (default 0.6).
	Amplitude float64
	// WeekendDip multiplies the rate on days 5 and 6 of each week
	// (default 0.5; 1 disables the dip).
	WeekendDip float64
	// TrendSlope grows the baseline linearly to (1+TrendSlope)x across
	// the horizon (default 0.1).
	TrendSlope float64
	// Duration samples ideal durations (default TableIDistribution).
	Duration dist.Distribution
	// Apps is the application mix (default pure fib).
	Apps []AppChoice
	// IOFraction adds the Fig 11 leading-I/O knob.
	IOFraction   float64
	IOMin, IOMax time.Duration
	// Seed drives all sampling.
	Seed uint64
}

// withDefaults fills the spec's derivable fields.
func (spec DiurnalSpec) withDefaults() DiurnalSpec {
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	if spec.Load <= 0 {
		spec.Load = 0.8
	}
	if spec.Days <= 0 {
		spec.Days = 7
	}
	if spec.Amplitude <= 0 || spec.Amplitude >= 1 {
		spec.Amplitude = 0.6
	}
	if spec.WeekendDip <= 0 || spec.WeekendDip > 1 {
		spec.WeekendDip = 0.5
	}
	if spec.TrendSlope < 0 {
		spec.TrendSlope = 0
	} else if spec.TrendSlope == 0 {
		spec.TrendSlope = 0.1
	}
	if spec.Duration == nil {
		spec.Duration = TableIDistribution()
	}
	if len(spec.Apps) == 0 {
		spec.Apps = []AppChoice{{Profile: AppFib, Weight: 1}}
	}
	return spec
}

// DiurnalStream returns the diurnal family as a pull-based
// trace.Source: arrivals are thinned from the sine-on-trend profile
// lazily, and each invocation is built through the shared
// app-mix/I/O-knob pipeline. Same spec → byte-identical stream.
func DiurnalStream(spec DiurnalSpec) trace.Source {
	spec = spec.withDefaults()
	if spec.N <= 0 && spec.DayLength <= 0 {
		panic("workload: diurnal spec needs N or DayLength")
	}

	// Calibrate the horizon-mean arrival rate to the requested load.
	meanCPU := time.Duration(float64(spec.Duration.Mean()) * meanCPUFraction(spec.Apps))
	meanRPS := float64(time.Second) / float64(queueing.IATForLoad(meanCPU, spec.Cores, spec.Load))

	day := spec.DayLength
	if day <= 0 {
		day = time.Duration(float64(spec.N) / meanRPS / float64(spec.Days) * float64(time.Second))
	}
	horizon := time.Duration(spec.Days) * day

	// The modulation's horizon mean, so base*mean(modulation) == meanRPS:
	// the sine integrates to 1 per full day, weekend days contribute
	// WeekendDip, and the linear trend averages (1 + slope/2).
	weekMean := 0.0
	for d := 0; d < spec.Days; d++ {
		if d%7 >= 5 {
			weekMean += spec.WeekendDip
		} else {
			weekMean += 1
		}
	}
	weekMean /= float64(spec.Days)
	modMean := weekMean * (1 + spec.TrendSlope/2)
	base := meanRPS / modMean

	rate := func(t time.Duration) float64 {
		frac := float64(t) / float64(day)
		// Trough at midnight, peak at midday.
		daily := 1 + spec.Amplitude*math.Sin(2*math.Pi*frac-math.Pi/2)
		wk := 1.0
		if int(t/day)%7 >= 5 {
			wk = spec.WeekendDip
		}
		trend := 1 + spec.TrendSlope*float64(t)/float64(horizon)
		return base * daily * wk * trend
	}
	peak := base * (1 + spec.Amplitude) * (1 + spec.TrendSlope)

	desc := fmt.Sprintf("diurnal(n=%d, days=%d, day=%v, amp=%.2f, dip=%.2f, trend=%.2f, load=%.2f on %d cores, seed=%d)",
		spec.N, spec.Days, day.Round(time.Millisecond), spec.Amplitude, spec.WeekendDip, spec.TrendSlope,
		spec.Load, spec.Cores, spec.Seed)
	inner := trace.NewRate(trace.RateSpec{
		Desc:     desc,
		Rate:     rate,
		Peak:     peak,
		Horizon:  horizon,
		N:        spec.N,
		Duration: spec.Duration,
		Seed:     spec.Seed,
	})
	return builderStream(inner, spec.Apps, spec.IOFraction, spec.IOMin, spec.IOMax, spec.Seed, desc)
}

// builderStream pipes an inner duration-sampled source (each task's
// Service holds the sampled ideal duration) through the shared
// app-mix/I/O-knob builder — the post-processing stage every
// rate-profile family shares.
func builderStream(inner trace.Source, apps []AppChoice, ioFraction float64, ioMin, ioMax time.Duration, seed uint64, desc string) trace.Source {
	r := rng.New(seed)
	appR := r.Split()
	ioR := r.Split()
	b := newBuilder(apps, ioFraction, ioMin, ioMax, appR, ioR)
	src := trace.Map(inner, func(t *task.Task) *task.Task {
		return b.build(t.ID, t.Arrival, t.Service)
	})
	return trace.Derive(desc, src.Next, src)
}

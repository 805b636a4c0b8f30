package workload

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// The diurnal family's shape: the request rate follows a sine-on-trend
// daily cycle with a weekend dip over diurnalDays days, the
// non-stationary shape production FaaS fleets see at the hours scale
// (Shahrad et al.; Kaffes et al.'s Azure-trace scheduling study).
// Midday peaks run (1+diurnalAmplitude)x the daily mean and nights
// bottom out at (1-diurnalAmplitude)x, days 5 and 6 of each week are
// scaled by diurnalWeekendDip, and the baseline grows linearly to
// (1+diurnalTrend)x across the horizon.
const (
	diurnalDays       = 7 // five weekdays, two weekend days
	diurnalAmplitude  = 0.6
	diurnalWeekendDip = 0.5
	diurnalTrend      = 0.1
)

// diurnalFamily streams the diurnal family, its horizon mean calibrated
// to offer cfg.Load (default 0.8) to cfg.Cores and its day sized so the
// horizon holds ~cfg.N arrivals. Each invocation is built through the
// shared app-mix builder. Same config → byte-identical stream.
func diurnalFamily(cfg FamilyConfig) trace.Source {
	if cfg.N <= 0 {
		panic("workload: diurnal family needs N")
	}
	dur, meanRPS := calibrate(&cfg, 0.8)
	day := time.Duration(float64(cfg.N) / meanRPS / diurnalDays * float64(time.Second))
	horizon := diurnalDays * day

	// The modulation's horizon mean, so base*mean(modulation) == meanRPS:
	// the sine integrates to 1 per full day, weekend days contribute
	// diurnalWeekendDip, and the linear trend averages (1 + trend/2).
	weekMean := 0.0
	for d := 0; d < diurnalDays; d++ {
		if d%7 >= 5 {
			weekMean += diurnalWeekendDip
		} else {
			weekMean += 1
		}
	}
	weekMean /= diurnalDays
	modMean := weekMean * (1 + diurnalTrend/2)
	base := meanRPS / modMean

	rate := func(t time.Duration) float64 {
		frac := float64(t) / float64(day)
		// Trough at midnight, peak at midday.
		daily := 1 + diurnalAmplitude*math.Sin(2*math.Pi*frac-math.Pi/2)
		wk := 1.0
		if int(t/day)%7 >= 5 {
			wk = diurnalWeekendDip
		}
		trend := 1 + diurnalTrend*float64(t)/float64(horizon)
		return base * daily * wk * trend
	}
	peak := base * (1 + diurnalAmplitude) * (1 + diurnalTrend)

	desc := fmt.Sprintf("diurnal(n=%d, days=%d, day=%v, amp=%.2f, dip=%.2f, trend=%.2f, load=%.2f on %d cores, seed=%d)",
		cfg.N, diurnalDays, day.Round(time.Millisecond), diurnalAmplitude, diurnalWeekendDip, diurnalTrend,
		cfg.Load, cfg.Cores, cfg.Seed)
	inner := trace.NewRate(trace.RateSpec{
		Desc:     desc,
		Rate:     rate,
		Peak:     peak,
		Horizon:  horizon,
		N:        cfg.N,
		Duration: dur,
		Seed:     cfg.Seed,
	})
	return builderStream(inner, cfg.Apps, 0, cfg.Seed, desc)
}

// builderStream pipes an inner duration-sampled source (each task's
// Service holds the sampled ideal duration) through the shared
// app-mix/I/O-knob builder — the post-processing stage every
// rate-profile family shares.
func builderStream(inner trace.Source, apps []AppChoice, ioFraction float64, seed uint64, desc string) trace.Source {
	r := rng.New(seed)
	appR := r.Split()
	ioR := r.Split()
	b := newBuilder(apps, ioFraction, appR, ioR)
	src := trace.Map(inner, func(t *task.Task) *task.Task {
		return b.build(t.ID, t.Arrival, t.Service)
	})
	return trace.Derive(desc, src.Next, src)
}

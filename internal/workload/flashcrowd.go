package workload

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// The flash-crowd family's shape: a steady baseline punctuated by
// flashSpikes sudden rate spikes — flashFactor x the baseline at onset,
// decaying exponentially with a time constant of a twelfth of the
// spike spacing — with correlated app skew: during a spike, flashSkew
// of arrivals hit that spike's single "crowd" app, the way a viral link
// or a retry storm hammers one function while the rest of the fleet
// idles along. This is the transient-overload regime the paper observes
// in production traces (§V-E) pushed to Hiku-scale burstiness, and the
// shape that separates dispatch policies that spread load from ones
// that concentrate it.
const (
	flashSpikes = 3
	flashFactor = 50.0
	flashSkew   = 0.8
)

// flashCrowdFamily streams the flash-crowd family, its horizon average
// (spike mass included) calibrated to offer cfg.Load to cfg.Cores
// (default 0.6, leaving headroom the spikes then blow through). Same
// config → byte-identical stream.
func flashCrowdFamily(cfg FamilyConfig) trace.Source {
	if cfg.N <= 0 {
		panic("workload: flash-crowd family needs N")
	}
	dur, meanRPS := calibrate(&cfg, 0.6)
	horizon := time.Duration(float64(cfg.N) / meanRPS * float64(time.Second))

	spacing := horizon / (flashSpikes + 1)
	// A twelfth of the spacing keeps spike residuals from stacking
	// across events.
	tau := spacing / 12

	// Each spike adds (flashFactor-1)*tau of extra rate-mass; the base
	// level absorbs it so the horizon mean stays at meanRPS.
	extra := flashSpikes * (flashFactor - 1) * float64(tau) / float64(horizon)
	base := meanRPS / (1 + extra)

	// Spike onsets at 1/(k+1), 2/(k+1), ... of the horizon, mirroring
	// AddSpikes' placement on the Azure-sampled family.
	onsets := make([]time.Duration, flashSpikes)
	for s := range onsets {
		onsets[s] = spacing * time.Duration(s+1)
	}
	rate := func(t time.Duration) float64 {
		m := 1.0
		for _, on := range onsets {
			if t >= on {
				m += (flashFactor - 1) * math.Exp(-float64(t-on)/float64(tau))
			}
		}
		return base * m
	}
	// Residual overlap past one spike is bounded by exp(-12) per prior
	// event; a 5% margin covers it.
	peak := base * flashFactor * 1.05

	desc := fmt.Sprintf("flashcrowd(n=%d, spikes=%dx%.0f, tau=%v, skew=%.2f, load=%.2f on %d cores, seed=%d)",
		cfg.N, flashSpikes, flashFactor, tau.Round(time.Millisecond), flashSkew,
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

	// The correlated-skew stage replaces the plain builder map: inside a
	// spike window, flashSkew of arrivals collapse onto that spike's
	// crowd app (pure CPU — the viral endpoint), the rest flow through
	// the base mix. crowdOf returns -1 outside every window.
	window := 5 * tau // covers >99% of each spike's excess mass
	crowdOf := func(t time.Duration) int {
		for s := len(onsets) - 1; s >= 0; s-- {
			if t >= onsets[s] && t < onsets[s]+window {
				return s
			}
		}
		return -1
	}
	r := rng.New(cfg.Seed)
	appR := r.Split()
	ioR := r.Split()
	skewR := r.Split()
	b := newBuilder(cfg.Apps, 0, appR, ioR)
	src := trace.Map(inner, func(t *task.Task) *task.Task {
		built := b.build(t.ID, t.Arrival, t.Service)
		// One skew draw per arrival keeps the base stream identical
		// whether or not a window is active.
		hit := skewR.Float64() < flashSkew
		if s := crowdOf(time.Duration(t.Arrival)); s >= 0 && hit {
			crowd := AppProfile{Name: fmt.Sprintf("crowd%02d", s), CPUFraction: 1}
			built = task.New(t.ID, t.Arrival, time.Millisecond)
			crowd.Build(built, t.Service)
		}
		return built
	})
	return trace.Derive(desc, src.Next, src)
}

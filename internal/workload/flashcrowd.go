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

// FlashCrowdSpec configures the flash-crowd scenario family: a steady
// baseline punctuated by sudden rate spikes — SpikeFactor x the
// baseline at onset, decaying exponentially — with correlated app skew:
// during a spike most arrivals hit that spike's single "crowd" app, the
// way a viral link or a retry storm hammers one function while the rest
// of the fleet idles along. This is the transient-overload regime the
// paper observes in production traces (§V-E) pushed to Hiku-scale
// burstiness, and the shape that separates dispatch policies that
// spread load from ones that concentrate it.
type FlashCrowdSpec struct {
	// N caps the number of invocations and sizes the horizon.
	N int
	// Cores the load is calibrated for.
	Cores int
	// Load is the horizon-average offered CPU load including spike mass
	// (default 0.6, leaving headroom the spikes then blow through).
	Load float64
	// Spikes is the number of flash events (default 3).
	Spikes int
	// SpikeFactor is the rate multiplier at spike onset (default 50).
	SpikeFactor float64
	// SpikeTau is the exponential decay constant; zero derives it from
	// the spike spacing (spacing/12, clamped to at most spacing/4).
	SpikeTau time.Duration
	// SkewProb is the probability an arrival inside a spike window hits
	// the spike's crowd app instead of the base mix (default 0.8).
	SkewProb float64
	// Duration samples ideal durations (default TableIDistribution).
	Duration dist.Distribution
	// Apps is the base application mix (default pure fib).
	Apps []AppChoice
	// IOFraction adds the Fig 11 leading-I/O knob to base-mix arrivals.
	IOFraction   float64
	IOMin, IOMax time.Duration
	// Seed drives all sampling.
	Seed uint64
}

// withDefaults fills the spec's derivable fields.
func (spec FlashCrowdSpec) withDefaults() FlashCrowdSpec {
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	if spec.Load <= 0 {
		spec.Load = 0.6
	}
	if spec.Spikes <= 0 {
		spec.Spikes = 3
	}
	if spec.SpikeFactor <= 1 {
		spec.SpikeFactor = 50
	}
	if spec.SkewProb <= 0 || spec.SkewProb > 1 {
		spec.SkewProb = 0.8
	}
	if spec.Duration == nil {
		spec.Duration = TableIDistribution()
	}
	if len(spec.Apps) == 0 {
		spec.Apps = []AppChoice{{Profile: AppFib, Weight: 1}}
	}
	return spec
}

// FlashCrowdStream returns the flash-crowd family as a pull-based
// trace.Source. Same spec → byte-identical stream.
func FlashCrowdStream(spec FlashCrowdSpec) trace.Source {
	spec = spec.withDefaults()
	if spec.N <= 0 {
		panic("workload: flash-crowd spec needs N")
	}

	// Calibrate the horizon-average rate (spike mass included) to Load.
	meanCPU := time.Duration(float64(spec.Duration.Mean()) * meanCPUFraction(spec.Apps))
	meanRPS := float64(time.Second) / float64(queueing.IATForLoad(meanCPU, spec.Cores, spec.Load))
	horizon := time.Duration(float64(spec.N) / meanRPS * float64(time.Second))

	spacing := horizon / time.Duration(spec.Spikes+1)
	tau := spec.SpikeTau
	if tau <= 0 {
		tau = spacing / 12
	}
	if tau > spacing/4 {
		tau = spacing / 4 // keeps spike residuals from stacking across events
	}

	// Each spike adds (SpikeFactor-1)*tau of extra rate-mass; the base
	// level absorbs it so the horizon mean stays at meanRPS.
	extra := float64(spec.Spikes) * (spec.SpikeFactor - 1) * float64(tau) / float64(horizon)
	base := meanRPS / (1 + extra)

	// Spike onsets at 1/(k+1), 2/(k+1), ... of the horizon, mirroring
	// AddSpikes' placement on the Azure-sampled family.
	onsets := make([]time.Duration, spec.Spikes)
	for s := range onsets {
		onsets[s] = spacing * time.Duration(s+1)
	}
	rate := func(t time.Duration) float64 {
		m := 1.0
		for _, on := range onsets {
			if t >= on {
				m += (spec.SpikeFactor - 1) * math.Exp(-float64(t-on)/float64(tau))
			}
		}
		return base * m
	}
	// Residual overlap past one spike is bounded by exp(-4) per prior
	// event (tau <= spacing/4); a 5% margin covers it.
	peak := base * spec.SpikeFactor * 1.05

	desc := fmt.Sprintf("flashcrowd(n=%d, spikes=%dx%.0f, tau=%v, skew=%.2f, load=%.2f on %d cores, seed=%d)",
		spec.N, spec.Spikes, spec.SpikeFactor, tau.Round(time.Millisecond), spec.SkewProb,
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

	// The correlated-skew stage replaces the plain builder map: inside a
	// spike window, SkewProb of arrivals collapse onto that spike's
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
	r := rng.New(spec.Seed)
	appR := r.Split()
	ioR := r.Split()
	skewR := r.Split()
	b := newBuilder(spec.Apps, spec.IOFraction, spec.IOMin, spec.IOMax, appR, ioR)
	src := trace.Map(inner, func(t *task.Task) *task.Task {
		built := b.build(t.ID, t.Arrival, t.Service)
		// One skew draw per arrival keeps the base stream identical
		// whether or not a window is active.
		hit := skewR.Float64() < spec.SkewProb
		if s := crowdOf(time.Duration(t.Arrival)); s >= 0 && hit {
			crowd := AppProfile{Name: fmt.Sprintf("crowd%02d", s), CPUFraction: 1}
			built = task.New(t.ID, t.Arrival, time.Millisecond)
			crowd.Build(built, t.Service)
		}
		return built
	})
	return trace.Derive(desc, src.Next, src)
}

package workload

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/trace"
)

// SyntheticSpec configures an invitro-style synthetic workload: instead
// of calibrating arrivals to an offered load, the request rate follows
// an explicit RPS profile (constant, linear ramp, RPS-slot staircase, or
// sine wave) over a horizon — the scenario family used to study how a
// scheduler tracks load transitions rather than a steady state.
type SyntheticSpec struct {
	// Shape, StartRPS, TargetRPS, Slots, SlotDur, Horizon, and N
	// parameterize the arrival profile exactly as trace.SynthSpec.
	Shape     trace.Shape
	StartRPS  float64
	TargetRPS float64
	Slots     int
	SlotDur   time.Duration
	Horizon   time.Duration
	N         int
	// Apps is the application mix (default pure fib).
	Apps []AppChoice
	// IOFraction adds the Fig 11 leading-I/O knob.
	IOFraction float64
	// Seed drives all sampling.
	Seed uint64
}

// SyntheticStream returns the synthetic workload as a pull-based
// trace.Source: arrivals are generated lazily by thinning a
// non-homogeneous Poisson process, and each invocation is built through
// the same app-mix/I/O-knob pipeline as the other scenario families.
// Ideal durations follow Table I.
func SyntheticStream(spec SyntheticSpec) trace.Source {
	if len(spec.Apps) == 0 {
		spec.Apps = []AppChoice{{Profile: AppFib, Weight: 1}}
	}
	inner := trace.NewSynthetic(spec.arrivals())
	// The inner source's Service is the sampled ideal duration; the
	// builder splits it into CPU and I/O per the app profile.
	desc := fmt.Sprintf("%s × %d apps", inner, len(spec.Apps))
	return builderStream(inner, spec.Apps, spec.IOFraction, spec.Seed, desc)
}

// Validate reports why the spec's arrival profile is unusable — the
// rate and span checks SyntheticStream would otherwise panic on.
func (spec SyntheticSpec) Validate() error { return spec.arrivals().Validate() }

// arrivals maps the spec onto the trace layer's synthetic source spec.
func (spec SyntheticSpec) arrivals() trace.SynthSpec {
	return trace.SynthSpec{
		Shape:     spec.Shape,
		StartRPS:  spec.StartRPS,
		TargetRPS: spec.TargetRPS,
		Slots:     spec.Slots,
		SlotDur:   spec.SlotDur,
		Horizon:   spec.Horizon,
		N:         spec.N,
		Duration:  TableIDistribution(),
		Seed:      spec.Seed,
	}
}

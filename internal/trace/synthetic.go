package trace

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
)

// Shape selects the request-rate profile of a synthetic trace, mirroring
// the vhive/invitro trace synthesizer's RPS modes: a constant rate, a
// linear ramp from a starting RPS to a target RPS, a staircase of fixed
// RPS slots, and a sinusoidal diurnal-style wave.
type Shape string

// Shapes.
const (
	ShapeConstant Shape = "constant"
	ShapeRamp     Shape = "ramp"
	ShapeStep     Shape = "step"
	ShapeSine     Shape = "sine"
)

// ParseShape validates a shape name from a CLI flag.
func ParseShape(s string) (Shape, error) {
	switch Shape(s) {
	case ShapeConstant, ShapeRamp, ShapeStep, ShapeSine:
		return Shape(s), nil
	}
	return "", fmt.Errorf("trace: unknown shape %q (want constant, ramp, step, or sine)", s)
}

// SynthSpec configures a synthetic invocation source.
type SynthSpec struct {
	// Shape is the RPS profile (default ShapeRamp).
	Shape Shape
	// StartRPS is the request rate at t=0 (requests per second).
	StartRPS float64
	// TargetRPS is the rate reached at the end of the horizon (ramp,
	// step, sine peak). Defaults to StartRPS.
	TargetRPS float64
	// Slots is the number of fixed-RPS slots of the step shape (the
	// invitro synthesizer's "RPS slots"; default 10).
	Slots int
	// SlotDur is the duration of one slot. When Horizon is zero the
	// horizon is Slots*SlotDur.
	SlotDur time.Duration
	// Horizon is the trace's total time span. Required unless Slots and
	// SlotDur define it.
	Horizon time.Duration
	// N caps the number of invocations (0 = until the horizon ends).
	N int
	// Duration samples each invocation's ideal duration.
	Duration dist.Distribution
	// Seed drives all sampling.
	Seed uint64
}

// horizon resolves the spec's time span.
func (s SynthSpec) horizon() time.Duration {
	if s.Horizon > 0 {
		return s.Horizon
	}
	return time.Duration(s.slots()) * s.SlotDur
}

func (s SynthSpec) slots() int {
	if s.Slots <= 0 {
		return 10
	}
	return s.Slots
}

// rps returns the instantaneous request rate at elapsed time t.
func (s SynthSpec) rps(t, horizon time.Duration) float64 {
	frac := float64(t) / float64(horizon)
	switch s.Shape {
	case ShapeConstant:
		return s.StartRPS
	case ShapeStep:
		slots := s.slots()
		k := int(frac * float64(slots))
		if k >= slots {
			k = slots - 1
		}
		if slots == 1 {
			return s.StartRPS
		}
		return s.StartRPS + (s.TargetRPS-s.StartRPS)*float64(k)/float64(slots-1)
	case ShapeSine:
		mid := (s.StartRPS + s.TargetRPS) / 2
		amp := (s.TargetRPS - s.StartRPS) / 2
		return mid + amp*math.Sin(2*math.Pi*frac)
	default: // ShapeRamp
		return s.StartRPS + (s.TargetRPS-s.StartRPS)*frac
	}
}

// peakRPS bounds the shape's rate from above (the thinning envelope).
func (s SynthSpec) peakRPS() float64 {
	return math.Max(s.StartRPS, s.TargetRPS)
}

// Validate reports why the spec cannot drive a synthetic source: a
// negative or non-finite rate, no positive rate, or no positive span (a
// zero TargetRPS stands for StartRPS, as in NewSynthetic). NewSynthetic
// panics with the same messages.
func (s SynthSpec) Validate() error {
	if s.TargetRPS == 0 {
		s.TargetRPS = s.StartRPS
	}
	switch {
	case math.IsNaN(s.StartRPS) || math.IsInf(s.StartRPS, 0) || math.IsNaN(s.TargetRPS) || math.IsInf(s.TargetRPS, 0):
		return errors.New("trace: non-finite RPS")
	case s.StartRPS < 0 || s.TargetRPS < 0:
		return errors.New("trace: negative RPS")
	case s.peakRPS() <= 0:
		return errors.New("trace: synthetic trace needs a positive StartRPS or TargetRPS")
	case s.horizon() <= 0:
		return errors.New("trace: synthetic trace needs Horizon or Slots*SlotDur")
	}
	return nil
}

// NewSynthetic builds a synthetic source: a rate source (NewRate)
// thinned against the shape's rate, whose invocations are all App
// "synth". It panics on an unusable spec (no positive rate, no horizon,
// or nil duration distribution) because specs are programmer-provided,
// as elsewhere in the generator layer.
func NewSynthetic(spec SynthSpec) Source {
	if spec.Shape == "" {
		spec.Shape = ShapeRamp
	}
	if spec.TargetRPS == 0 {
		spec.TargetRPS = spec.StartRPS
	}
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	if spec.Duration == nil {
		panic("trace: synthetic trace needs a duration distribution")
	}
	horizon := spec.horizon()
	return NewRate(RateSpec{
		Desc: fmt.Sprintf("synth(shape=%s, rps=%g..%g, horizon=%v, dur=%s, seed=%d)",
			spec.Shape, spec.StartRPS, spec.TargetRPS, horizon, spec.Duration, spec.Seed),
		Rate:     func(t time.Duration) float64 { return spec.rps(t, horizon) },
		Peak:     spec.peakRPS(),
		Horizon:  horizon,
		N:        spec.N,
		Duration: spec.Duration,
		App:      "synth",
		Seed:     spec.Seed,
	})
}

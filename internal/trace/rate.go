package trace

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// RateSpec configures an arbitrary-profile arrival source: instead of
// the fixed shape catalog in SynthSpec, the caller supplies the
// instantaneous request rate as a function of elapsed time. This is the
// substrate the richer scenario families (diurnal cycles with weekend
// dips, flash-crowd decay spikes, episodic tenant bursts) are built on.
type RateSpec struct {
	// Desc names the source for String (scenario family + knobs + seed).
	Desc string
	// Rate returns the instantaneous request rate in RPS at elapsed time
	// t in [0, Horizon). It must be non-negative and never exceed Peak.
	Rate func(t time.Duration) float64
	// Peak is the thinning envelope: an upper bound on Rate over the
	// horizon. The closer it sits to the true maximum, the fewer
	// candidate arrivals are rejected.
	Peak float64
	// Horizon is the trace's total time span.
	Horizon time.Duration
	// N caps the number of invocations (0 = until the horizon ends).
	N int
	// Duration samples each invocation's ideal duration.
	Duration dist.Distribution
	// App labels the emitted invocations (default "rate").
	App string
	// Seed drives all sampling.
	Seed uint64
}

// rateSource generates arrivals lazily by thinning a non-homogeneous
// Poisson process against the caller's rate function: candidates are
// drawn at the Peak rate and accepted with probability Rate(t)/Peak, so
// no arrival table is ever materialized. The shape-catalog synthetic
// source (NewSynthetic) is one of its profiles.
type rateSource struct {
	spec RateSpec
	arrR *rng.RNG
	durR *rng.RNG
	t    float64 // elapsed ns
	id   int
	done bool
}

// NewRate builds a rate-function source. Like NewSynthetic it panics on
// an unusable spec (non-positive peak or horizon, nil rate or duration)
// because specs are programmer-provided.
func NewRate(spec RateSpec) Source {
	if spec.Rate == nil {
		panic("trace: rate source needs a Rate function")
	}
	if spec.Peak <= 0 {
		panic("trace: rate source needs a positive Peak envelope")
	}
	if spec.Horizon <= 0 {
		panic("trace: rate source needs a positive Horizon")
	}
	if spec.Duration == nil {
		panic("trace: rate source needs a duration distribution")
	}
	if spec.App == "" {
		spec.App = "rate"
	}
	if spec.Desc == "" {
		spec.Desc = fmt.Sprintf("rate(peak=%g, horizon=%v, seed=%d)", spec.Peak, spec.Horizon, spec.Seed)
	}
	r := rng.New(spec.Seed)
	return &rateSource{
		spec: spec,
		arrR: r.Split(),
		durR: r.Split(),
	}
}

// Next implements Source.
func (s *rateSource) Next() (*task.Task, bool) {
	if s.done {
		return nil, false
	}
	if s.spec.N > 0 && s.id >= s.spec.N {
		s.done = true
		return nil, false
	}
	peak := s.spec.Peak / float64(time.Second) // arrivals per ns
	for {
		s.t += s.arrR.ExpFloat64() / peak
		at := time.Duration(s.t)
		if at >= s.spec.Horizon {
			s.done = true
			return nil, false
		}
		rate := s.spec.Rate(at)
		if rate < 0 {
			rate = 0
		}
		// A rate above the envelope would silently under-sample the
		// profile; clamping keeps the draw valid while the accept ratio
		// documents the envelope as a hard bound.
		accept := rate / s.spec.Peak
		if accept > 1 {
			accept = 1
		}
		if s.arrR.Float64() >= accept {
			continue
		}
		d := s.spec.Duration.Sample(s.durR)
		if d <= 0 {
			d = time.Millisecond
		}
		t := task.New(s.id, simtime.Time(at), d)
		t.App = s.spec.App
		s.id++
		return t, true
	}
}

// String implements Source.
func (s *rateSource) String() string { return s.spec.Desc }

// Package dist provides the probability distributions and arrival
// processes that parameterize workload generation: duration
// distributions (uniform, lognormal, constant, and weighted mixtures,
// the building blocks of the paper's Table I and the Azure duration
// population) and inter-arrival-time processes (Poisson and recorded
// traces).
//
// Every distribution exposes an analytic Mean so that arrival processes
// can be calibrated to a target offered load without materializing a
// probe sample first — the property the streaming trace pipeline in
// internal/trace depends on.
package dist

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
)

// Distribution samples durations. Implementations must be deterministic
// functions of the supplied RNG stream, so that a seeded generator
// replays identically.
type Distribution interface {
	// Sample draws one value.
	Sample(r *rng.RNG) time.Duration
	// Mean returns the analytic expectation.
	Mean() time.Duration
	// String describes the distribution for workload provenance lines.
	String() string
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi time.Duration
}

// Sample implements Distribution.
func (u Uniform) Sample(r *rng.RNG) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(r.Float64()*float64(u.Hi-u.Lo))
}

// Mean implements Distribution.
func (u Uniform) Mean() time.Duration { return (u.Lo + u.Hi) / 2 }

// String implements Distribution.
func (u Uniform) String() string { return fmt.Sprintf("uniform[%v,%v)", u.Lo, u.Hi) }

// Constant is the degenerate distribution that always returns Value.
type Constant struct {
	Value time.Duration
}

// Sample implements Distribution.
func (c Constant) Sample(*rng.RNG) time.Duration { return c.Value }

// Mean implements Distribution.
func (c Constant) Mean() time.Duration { return c.Value }

// String implements Distribution.
func (c Constant) String() string { return fmt.Sprintf("const(%v)", c.Value) }

// Lognormal is the log-normal distribution: exp(N(Mu, Sigma^2)), with Mu
// in log-nanoseconds (the median is exp(Mu) nanoseconds).
type Lognormal struct {
	Mu, Sigma float64
}

// Sample implements Distribution.
func (l Lognormal) Sample(r *rng.RNG) time.Duration {
	return time.Duration(math.Exp(l.Mu + l.Sigma*r.NormFloat64()))
}

// Mean implements Distribution.
func (l Lognormal) Mean() time.Duration {
	return time.Duration(math.Exp(l.Mu + l.Sigma*l.Sigma/2))
}

// String implements Distribution.
func (l Lognormal) String() string {
	return fmt.Sprintf("lognormal(median=%v,sigma=%.2f)", time.Duration(math.Exp(l.Mu)), l.Sigma)
}

// Mode is one weighted component of a Mixture.
type Mode struct {
	Weight float64
	Dist   Distribution
}

// Mixture is a weighted mixture of distributions. Weights need not sum
// to one; sampling normalizes by the total weight (the paper's Table I
// rows sum to 95.6% because sub-1% gaps are dropped).
type Mixture struct {
	modes []Mode
	total float64
}

// NewMixture builds a mixture from modes. It panics if no mode has
// positive weight or a positively-weighted mode has a nil distribution.
func NewMixture(modes ...Mode) Mixture {
	m := Mixture{modes: append([]Mode(nil), modes...)}
	for _, mode := range m.modes {
		if mode.Weight < 0 {
			panic("dist: negative mixture weight")
		}
		if mode.Weight > 0 && mode.Dist == nil {
			panic("dist: weighted mixture mode with nil distribution")
		}
		m.total += mode.Weight
	}
	if m.total <= 0 {
		panic("dist: mixture needs at least one positively weighted mode")
	}
	return m
}

// Sample implements Distribution: pick a mode with probability
// proportional to its weight, then sample it.
func (m Mixture) Sample(r *rng.RNG) time.Duration {
	u := r.Float64() * m.total
	for _, mode := range m.modes {
		if mode.Weight == 0 {
			continue
		}
		if u < mode.Weight {
			return mode.Dist.Sample(r)
		}
		u -= mode.Weight
	}
	// Floating-point slack: fall through to the last weighted mode.
	for i := len(m.modes) - 1; i >= 0; i-- {
		if m.modes[i].Weight > 0 {
			return m.modes[i].Dist.Sample(r)
		}
	}
	panic("dist: unreachable: mixture has no weighted mode")
}

// Mean implements Distribution.
func (m Mixture) Mean() time.Duration {
	var sum float64
	for _, mode := range m.modes {
		if mode.Weight > 0 {
			sum += mode.Weight * float64(mode.Dist.Mean())
		}
	}
	return time.Duration(sum / m.total)
}

// String implements Distribution.
func (m Mixture) String() string {
	var b strings.Builder
	b.WriteString("mixture(")
	for i, mode := range m.modes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.3f:%s", mode.Weight/m.total, mode.Dist)
	}
	b.WriteByte(')')
	return b.String()
}

// ArrivalProcess generates inter-arrival times. Like Distribution,
// implementations must be deterministic in the RNG stream.
type ArrivalProcess interface {
	// NextIAT returns the time between the previous arrival and the next.
	NextIAT(r *rng.RNG) time.Duration
	// String describes the process for workload provenance lines.
	String() string
}

// PoissonProcess generates exponentially distributed IATs with the given
// mean — the memoryless arrival model of the paper's standalone
// evaluation (§VIII-A).
type PoissonProcess struct {
	Mean time.Duration
}

// NextIAT implements ArrivalProcess.
func (p PoissonProcess) NextIAT(r *rng.RNG) time.Duration {
	return time.Duration(float64(p.Mean) * r.ExpFloat64())
}

// String implements ArrivalProcess.
func (p PoissonProcess) String() string { return fmt.Sprintf("poisson(mean=%v)", p.Mean) }

// TraceProcess replays a recorded IAT sequence, cycling when the
// sequence is exhausted so a short trace can drive an arbitrarily long
// generation run.
type TraceProcess struct {
	iats []time.Duration
	pos  int
}

// NewTraceProcess builds a replaying arrival process over iats. The
// slice is not copied; callers must not mutate it afterwards.
func NewTraceProcess(iats []time.Duration) *TraceProcess {
	return &TraceProcess{iats: iats}
}

// Len returns the number of recorded IATs.
func (t *TraceProcess) Len() int { return len(t.iats) }

// NextIAT implements ArrivalProcess, replaying the recorded sequence in
// order and wrapping around at the end. It draws nothing from r.
func (t *TraceProcess) NextIAT(*rng.RNG) time.Duration {
	if len(t.iats) == 0 {
		return 0
	}
	iat := t.iats[t.pos]
	t.pos = (t.pos + 1) % len(t.iats)
	return iat
}

// String implements ArrivalProcess.
func (t *TraceProcess) String() string { return fmt.Sprintf("trace(n=%d)", len(t.iats)) }

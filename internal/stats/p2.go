package stats

import (
	"math"
	"sort"
	"time"
)

// P2 estimates a single quantile online using the P² algorithm (Jain &
// Chlamtac, CACM 1985): five markers track the running minimum, maximum,
// the target quantile, and the two quantiles halfway to each extreme;
// marker heights are adjusted with piecewise-parabolic interpolation as
// observations stream past. State is O(1) regardless of sample count,
// which is what lets internal/metrics summarize million-invocation
// sweeps without retaining every turnaround for a post-hoc sort.
//
// The estimator is deterministic in its input order: the same sample
// sequence always yields the same estimate, so simulator outputs built
// on it stay byte-identical across runs (the experiment pipeline feeds
// samples in task order). Until five observations arrive the estimate
// falls back to the exact interpolated percentile of the stored
// samples, matching Percentile's definition on small inputs.
type P2 struct {
	p  float64    // target quantile in (0, 1)
	n  int64      // observations seen
	q  [5]float64 // marker heights
	np [5]float64 // marker positions (1-based, fractional between adjustments)
	dp [5]float64 // desired-position increments per observation
	ds [5]float64 // desired positions
}

// NewP2 returns an estimator for quantile p expressed as a percentile
// rank in [0, 100] (e.g. 99 for P99). It panics on a rank outside the
// open interval (0, 100); the extremes are tracked exactly by Online's
// Min/Max instead.
func NewP2(rank float64) *P2 {
	if rank <= 0 || rank >= 100 {
		panic("stats: P2 rank must be in (0, 100)")
	}
	p := rank / 100
	e := &P2{p: p}
	e.dp = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add incorporates x.
func (e *P2) Add(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := 0; i < 5; i++ {
				e.np[i] = float64(i + 1)
				e.ds[i] = 1 + 4*e.dp[i]
			}
		}
		return
	}
	e.n++

	// Locate the cell containing x, extending the extremes if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		e.np[i]++
	}
	for i := 0; i < 5; i++ {
		e.ds[i] += e.dp[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.ds[i] - e.np[i]
		if (d >= 1 && e.np[i+1]-e.np[i] > 1) || (d <= -1 && e.np[i-1]-e.np[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			// Piecewise-parabolic prediction; fall back to linear when
			// it would break marker monotonicity.
			qn := e.parabolic(i, sign)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.np[i] += sign
		}
	}
}

// AddDuration incorporates a duration in nanoseconds.
func (e *P2) AddDuration(d time.Duration) { e.Add(float64(d)) }

func (e *P2) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.np[i+1]-e.np[i-1])*
		((e.np[i]-e.np[i-1]+d)*(e.q[i+1]-e.q[i])/(e.np[i+1]-e.np[i])+
			(e.np[i+1]-e.np[i]-d)*(e.q[i]-e.q[i-1])/(e.np[i]-e.np[i-1]))
}

func (e *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.np[j]-e.np[i])
}

// Quantile returns the current estimate. Below five observations it is
// the exact interpolated percentile of the samples seen so far; with
// no observations it returns 0.
func (e *P2) Quantile() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		s := append([]float64(nil), e.q[:e.n]...)
		sort.Float64s(s)
		return percentileSorted(s, e.p*100)
	}
	return e.q[2]
}

// QuantileDuration returns the estimate as a duration, rounding the
// marker height to the nearest nanosecond.
func (e *P2) QuantileDuration() time.Duration {
	return time.Duration(math.Round(e.Quantile()))
}

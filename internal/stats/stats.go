// Package stats provides the statistical building blocks used across the
// SFS reproduction: online moment accumulators, sliding windows (the SFS
// monitor's IAT window), and exact percentile/CDF extraction for
// experiment output.
//
// The accumulators fall into two families with different cost models:
//
//   - Streaming: Online (Welford's single-pass mean/variance) and
//     Window (fixed-capacity ring, the structure behind SFS's
//     mean-of-last-k-IATs slice adaptation) never hold more than O(1)
//     or O(k) state and are safe on the simulator's hot paths.
//   - Materialized: Percentile and CDF sort full samples and are meant
//     for end-of-run reporting, where the paper's figures need exact
//     (not approximated) quantiles.
//
// Percentiles interpolate linearly between the two nearest ranks of a
// sorted copy; inputs are never mutated. CDFPoint slices are what internal/experiments
// plots as figure series.
package stats

import (
	"math"
	"sort"
	"time"
)

// Online accumulates count/mean/variance in one pass using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// AddDuration incorporates a duration in nanoseconds.
func (o *Online) AddDuration(d time.Duration) { o.Add(float64(d)) }

// N returns the number of samples.
func (o *Online) N() int64 { return o.n }

// Mean returns the sample mean (0 if empty).
func (o *Online) Mean() float64 { return o.mean }

// MeanDuration returns the mean as a duration.
func (o *Online) MeanDuration() time.Duration { return time.Duration(o.mean) }

// Var returns the unbiased sample variance (0 for n < 2).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest sample (0 if empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample (0 if empty).
func (o *Online) Max() float64 { return o.max }

// Window is a fixed-capacity sliding window over durations. It backs the
// SFS monitor's view of the last N inter-arrival times (§V-C of the
// paper, N = 100).
type Window struct {
	buf  []time.Duration
	head int
	n    int
	sum  time.Duration
}

// NewWindow returns a window holding up to capacity values. It panics if
// capacity <= 0.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("stats: window capacity must be positive")
	}
	return &Window{buf: make([]time.Duration, capacity)}
}

// Push appends d, evicting the oldest value when full.
func (w *Window) Push(d time.Duration) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.head]
		w.buf[w.head] = d
		w.sum += d
		w.head = (w.head + 1) % len(w.buf)
		return
	}
	w.buf[(w.head+w.n)%len(w.buf)] = d
	w.sum += d
	w.n++
}

// Len returns the number of values currently held.
func (w *Window) Len() int { return w.n }

// Mean returns the mean of held values, or 0 when empty.
func (w *Window) Mean() time.Duration {
	if w.n == 0 {
		return 0
	}
	return w.sum / time.Duration(w.n)
}

// Values returns the window contents oldest-first.
func (w *Window) Values() []time.Duration {
	out := make([]time.Duration, 0, w.n)
	for i := 0; i < w.n; i++ {
		out = append(out, w.buf[(w.head+i)%len(w.buf)])
	}
	return out
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It sorts a copy; xs is left
// unmodified. Returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	// Equal neighbors interpolate to themselves exactly: the weighted
	// form a*(1-f)+a*f reintroduces floating-point error on duplicate
	// samples (e.g. 7.5 -> 7.4999999999999999), which matters to
	// byte-identity claims downstream.
	if lo == hi || s[lo] == s[hi] {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// DurationPercentiles computes multiple percentiles of a duration sample
// in one sort. ps are percentile ranks in [0, 100].
func DurationPercentiles(ds []time.Duration, ps []float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(ds) == 0 {
		return out
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d)
	}
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = time.Duration(percentileSorted(s, p))
	}
	return out
}

// CDFPoint is one point of an empirical CDF: fraction F of samples are <=
// X.
type CDFPoint struct {
	X float64
	F float64
}

// CDF computes the empirical CDF of xs, deduplicating equal values. The
// result is suitable for plotting the paper's CDF figures.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, 0, len(s))
	n := float64(len(s))
	for i := 0; i < len(s); i++ {
		// Collapse runs of equal values to their final (highest) F.
		if i+1 < len(s) && s[i+1] == s[i] {
			continue
		}
		out = append(out, CDFPoint{X: s[i], F: float64(i+1) / n})
	}
	return out
}

// DurationCDF computes the empirical CDF of durations in milliseconds.
func DurationCDF(ds []time.Duration) []CDFPoint {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return CDF(xs)
}

// FractionBelow returns the fraction of xs that are <= bound.
func FractionBelow(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= bound {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

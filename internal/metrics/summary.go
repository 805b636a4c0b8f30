package metrics

import (
	"time"

	"github.com/serverless-sched/sfs/internal/stats"
)

// Summary accumulates a run's turnaround statistics in one streaming
// pass: Welford moments (count, mean, min, max) plus one P² marker set
// per requested percentile rank. Unlike the sort-based helpers in
// internal/stats it never retains samples, so summarizing a host, a
// window, or a whole cluster costs O(ranks) memory regardless of
// invocation count.
type Summary struct {
	ranks   []float64
	moments stats.Online
	est     []*stats.P2 // one per in-range rank
}

// NewSummary returns a streaming summary for the given percentile
// ranks. Ranks at or beyond the extremes (<= 0, >= 100) are answered
// from the tracked min/max rather than a marker set.
func NewSummary(ranks ...float64) *Summary {
	s := &Summary{ranks: append([]float64(nil), ranks...), est: make([]*stats.P2, len(ranks))}
	for i, r := range s.ranks {
		if r > 0 && r < 100 {
			s.est[i] = stats.NewP2(r)
		}
	}
	return s
}

// Add incorporates one turnaround sample.
func (s *Summary) Add(d time.Duration) {
	s.moments.AddDuration(d)
	for _, e := range s.est {
		if e != nil {
			e.AddDuration(d)
		}
	}
}

// N returns the number of samples.
func (s *Summary) N() int64 { return s.moments.N() }

// Mean returns the mean sample.
func (s *Summary) Mean() time.Duration { return s.moments.MeanDuration() }

// Std returns the sample standard deviation in nanoseconds.
func (s *Summary) Std() float64 { return s.moments.Std() }

// Min returns the smallest sample (0 if empty).
func (s *Summary) Min() time.Duration { return time.Duration(s.moments.Min()) }

// Max returns the largest sample (0 if empty).
func (s *Summary) Max() time.Duration { return time.Duration(s.moments.Max()) }

// Percentiles returns the values at the ranks the summary was built
// with, in the same order.
func (s *Summary) Percentiles() []time.Duration {
	out := make([]time.Duration, len(s.ranks))
	for i, r := range s.ranks {
		switch {
		case s.moments.N() == 0:
			out[i] = 0
		case r <= 0:
			out[i] = s.Min()
		case r >= 100:
			out[i] = s.Max()
		default:
			out[i] = s.est[i].QuantileDuration()
		}
	}
	return out
}

// Summarize streams every finished task's turnaround through a Summary
// in one pass — the single-pass replacement for calling Percentiles and
// MeanTurnaround separately (each of which re-materialized the sample
// slice).
func (r Run) Summarize(ranks ...float64) *Summary {
	s := NewSummary(ranks...)
	for _, t := range r.Tasks {
		if ta := t.Turnaround(); ta >= 0 {
			s.Add(ta)
		}
	}
	return s
}

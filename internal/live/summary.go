package live

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/metrics"
)

// Summary aggregates finished invocation results into the paper's
// metrics, the live counterpart of internal/metrics for simulator runs.
type Summary struct {
	N              int
	FilterComplete int
	CFSComplete    int
	MeanTurnaround time.Duration
	P50, P90, P99  time.Duration
	MaxQueueDelay  time.Duration
}

// Summarize computes a Summary over results. Unfinished (zero-valued)
// results are skipped. Turnarounds go through metrics.Summary, so live
// percentiles are defined exactly as the simulator's.
func Summarize(results []Result) Summary {
	var s Summary
	ta := metrics.NewSummary(50, 90, 99)
	for _, r := range results {
		if r.Finished.IsZero() {
			continue
		}
		if r.Mode == ModeFilter {
			s.FilterComplete++
		} else {
			s.CFSComplete++
		}
		ta.Add(r.Turnaround())
		if r.QueueDelay > s.MaxQueueDelay {
			s.MaxQueueDelay = r.QueueDelay
		}
	}
	s.N = int(ta.N())
	if s.N == 0 {
		return s
	}
	s.MeanTurnaround = ta.Mean()
	ps := ta.Percentiles()
	s.P50, s.P90, s.P99 = ps[0], ps[1], ps[2]
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d filter=%d cfs=%d mean=%v p50=%v p90=%v p99=%v maxQ=%v",
		s.N, s.FilterComplete, s.CFSComplete,
		s.MeanTurnaround.Round(time.Microsecond),
		s.P50.Round(time.Microsecond), s.P90.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.MaxQueueDelay.Round(time.Microsecond))
}

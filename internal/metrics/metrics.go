// Package metrics extracts the paper's evaluation quantities from
// finished task sets: execution-duration distributions, run-time
// effectiveness (RTE), percentile breakdowns, context-switch ratios, and
// short/long speedup summaries.
//
// The central type is Run — a scheduler name plus the tasks it executed.
// Runs are cheap views over task slices (no copying), so one simulation
// can be sliced many ways: per arrival window (the synth-ramp
// experiment), per host (the cluster layer), or cluster-wide. Only
// finished tasks (Turnaround() >= 0) contribute to any statistic, which
// lets aborted or deadline-capped runs still report on what completed.
//
// CompareRuns matches tasks by ID across a baseline and a treatment of
// the same workload and produces the paper's headline split: the short
// majority's speedup versus the long minority's bounded slowdown (§I).
// Table and FormatDuration render results the way cmd/experiments and
// EXPERIMENTS.md present them.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/task"
)

// StandardPercentiles are the breakdown points of the paper's Fig 8 and
// Fig 15.
var StandardPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// Run summarizes one scheduler execution over a workload.
type Run struct {
	Scheduler string
	Load      float64
	Tasks     []*task.Task
}

// Turnarounds returns every finished task's turnaround time, in task ID
// order.
func (r Run) Turnarounds() []time.Duration {
	out := make([]time.Duration, 0, len(r.Tasks))
	for _, t := range r.Tasks {
		if ta := t.Turnaround(); ta >= 0 {
			out = append(out, ta)
		}
	}
	return out
}

// RTEs returns every finished task's run-time effectiveness.
func (r Run) RTEs() []float64 {
	out := make([]float64, 0, len(r.Tasks))
	for _, t := range r.Tasks {
		if t.Turnaround() >= 0 {
			out = append(out, t.RTE())
		}
	}
	return out
}

// DurationCDF returns the empirical turnaround CDF in milliseconds.
func (r Run) DurationCDF() []stats.CDFPoint {
	return stats.DurationCDF(r.Turnarounds())
}

// RTECDF returns the empirical RTE CDF.
func (r Run) RTECDF() []stats.CDFPoint {
	return stats.CDF(r.RTEs())
}

// Percentiles returns the turnaround values at the given percentile
// ranks: streaming P² estimates computed in one pass without retaining
// samples.
func (r Run) Percentiles(ps []float64) []time.Duration {
	return r.Summarize(ps...).Percentiles()
}

// MeanTurnaround returns the mean turnaround across finished tasks.
func (r Run) MeanTurnaround() time.Duration {
	var o stats.Online
	for _, ta := range r.Turnarounds() {
		o.AddDuration(ta)
	}
	return o.MeanDuration()
}

// FractionRTEAtLeast returns the fraction of tasks with RTE >= bound
// (the paper's "93% of requests receive an RTE >= 0.95" style numbers).
func (r Run) FractionRTEAtLeast(bound float64) float64 {
	rtes := r.RTEs()
	if len(rtes) == 0 {
		return 0
	}
	n := 0
	for _, v := range rtes {
		if v >= bound {
			n++
		}
	}
	return float64(n) / float64(len(rtes))
}

// SpeedupSummary captures the paper's headline comparison (§I): the
// short majority improves by a large factor while the long minority
// regresses slightly.
type SpeedupSummary struct {
	ShortFraction     float64 // fraction of tasks classified as improved/short
	ShortSpeedup      float64 // geometric-mean factor by which they improved
	ShortSpeedupArith float64 // arithmetic-mean factor (the paper's 49.6x metric)
	LongFraction      float64
	LongSlowdown      float64 // geometric-mean factor by which the rest regressed
	LongSlowdownArith float64 // arithmetic-mean slowdown (the paper's 1.29x metric)
	MedianSpeedup     float64
	OverallSpeedup    float64 // ratio of mean turnarounds (baseline/treatment)
}

// CompareRuns computes per-task turnaround ratios baseline/treatment for
// the same workload (matched by task ID) and summarizes improvements
// versus regressions.
func CompareRuns(baseline, treatment Run) SpeedupSummary {
	base := map[int]time.Duration{}
	for _, t := range baseline.Tasks {
		if t.Turnaround() >= 0 {
			base[t.ID] = t.Turnaround()
		}
	}
	var ratios []float64
	var meanBase, meanTreat stats.Online
	for _, t := range treatment.Tasks {
		b, ok := base[t.ID]
		ta := t.Turnaround()
		if !ok || ta <= 0 {
			continue
		}
		ratios = append(ratios, float64(b)/float64(ta))
		meanBase.AddDuration(b)
		meanTreat.AddDuration(ta)
	}
	if len(ratios) == 0 {
		return SpeedupSummary{}
	}
	var sum SpeedupSummary
	var nShort, nLong int
	var logShort, logLong, sumShort, sumLong float64
	for _, r := range ratios {
		if r >= 1 {
			nShort++
			logShort += logOf(r)
			sumShort += r
		} else {
			nLong++
			logLong += logOf(1 / r)
			sumLong += 1 / r
		}
	}
	n := float64(len(ratios))
	sum.ShortFraction = float64(nShort) / n
	sum.LongFraction = float64(nLong) / n
	if nShort > 0 {
		sum.ShortSpeedup = expOf(logShort / float64(nShort))
		sum.ShortSpeedupArith = sumShort / float64(nShort)
	}
	if nLong > 0 {
		sum.LongSlowdown = expOf(logLong / float64(nLong))
		sum.LongSlowdownArith = sumLong / float64(nLong)
	}
	sum.MedianSpeedup = stats.Percentile(ratios, 50)
	if meanTreat.Mean() > 0 {
		sum.OverallSpeedup = meanBase.Mean() / meanTreat.Mean()
	}
	return sum
}

// CtxSwitchRatios returns, per matched task, the ratio of baseline
// context switches to treatment context switches (Fig 16). Both counts
// are offset by one so tasks with zero switches under the treatment
// produce finite ratios.
func CtxSwitchRatios(baseline, treatment Run) []float64 {
	base := map[int]int{}
	for _, t := range baseline.Tasks {
		base[t.ID] = t.CtxSwitches
	}
	out := make([]float64, 0, len(treatment.Tasks))
	for _, t := range treatment.Tasks {
		b, ok := base[t.ID]
		if !ok {
			continue
		}
		out = append(out, float64(b+1)/float64(t.CtxSwitches+1))
	}
	return out
}

// ColdStartStats summarizes a run's container cold-start behaviour:
// how many invocations found a warm container, how many paid a cold
// start, and the summed sampled cold-start latency. The lifecycle
// layer produces these; the reporting tables render them through
// ColdStartHeader and Columns.
type ColdStartStats struct {
	// Invocations is the total requests observed.
	Invocations int
	// ColdStarts is the number that created a container on demand.
	ColdStarts int
	// ColdLatency is the summed sampled cold-start latency.
	ColdLatency time.Duration
}

// WarmHits returns the invocations served by an already-warm container.
func (c ColdStartStats) WarmHits() int { return c.Invocations - c.ColdStarts }

// WarmHitRatio returns WarmHits / Invocations (0 when idle).
func (c ColdStartStats) WarmHitRatio() float64 {
	if c.Invocations == 0 {
		return 0
	}
	return float64(c.WarmHits()) / float64(c.Invocations)
}

// MeanColdLatency returns the mean sampled latency per cold start.
func (c ColdStartStats) MeanColdLatency() time.Duration {
	if c.ColdStarts == 0 {
		return 0
	}
	return c.ColdLatency / time.Duration(c.ColdStarts)
}

// ColdStartHeader returns the standard cold-start table columns,
// matching ColdStartStats.Columns cell for cell.
func ColdStartHeader() []string { return []string{"cold", "warm-hit", "cold-mean"} }

// Columns renders the stats as table cells in ColdStartHeader order.
func (c ColdStartStats) Columns() []string {
	return []string{
		fmt.Sprintf("%d", c.ColdStarts),
		fmt.Sprintf("%.1f%%", 100*c.WarmHitRatio()),
		FormatDuration(c.MeanColdLatency()),
	}
}

// Table renders labeled percentile rows as an aligned text table, the
// form the experiment harness prints for Fig 8/15.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatDuration renders a duration in the unit the paper uses
// (milliseconds below 10 s, seconds above).
func FormatDuration(d time.Duration) string {
	if d < 10*time.Second {
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

func logOf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log(x)
}

func expOf(x float64) float64 { return math.Exp(x) }

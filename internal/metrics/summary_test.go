package metrics

import (
	"math"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/task"
)

// lognormalRun builds a run with heavy-tailed turnarounds, the shape the
// simulator actually produces.
func lognormalRun(n int, seed uint64) Run {
	r := rng.New(seed)
	tasks := make([]*task.Task, n)
	for i := range tasks {
		ta := time.Duration(math.Exp(math.Log(50e6) + 1.2*r.NormFloat64()))
		tasks[i] = mkTask(i, ta/2, ta)
	}
	return Run{Tasks: tasks}
}

// TestStreamingWithinTolerance: the default streaming estimates must
// land within a few percent of the exact sort on realistic samples.
func TestStreamingWithinTolerance(t *testing.T) {
	r := lognormalRun(20000, 11)
	exact := stats.DurationPercentiles(r.Turnarounds(), []float64{50, 90, 99})
	got := r.Percentiles([]float64{50, 90, 99})
	for i, tol := range []float64{0.05, 0.05, 0.10} {
		relErr := math.Abs(float64(got[i]-exact[i])) / float64(exact[i])
		if relErr > tol {
			t.Errorf("rank %d: streaming %v vs exact %v (rel err %.3f > %.2f)",
				i, got[i], exact[i], relErr, tol)
		}
	}
}

// TestSummarySinglePassMatchesMultiPass: Summarize's moments must agree
// with the independent MeanTurnaround path, and extreme ranks map to
// tracked min/max.
func TestSummarySinglePassMatchesMultiPass(t *testing.T) {
	r := lognormalRun(1000, 3)
	sum := r.Summarize(0, 50, 100)
	if sum.Mean() != r.MeanTurnaround() {
		t.Fatalf("summary mean %v != MeanTurnaround %v", sum.Mean(), r.MeanTurnaround())
	}
	if int(sum.N()) != len(r.Turnarounds()) {
		t.Fatalf("summary N %d != %d", sum.N(), len(r.Turnarounds()))
	}
	ps := sum.Percentiles()
	exact := stats.DurationPercentiles(r.Turnarounds(), []float64{0, 50, 100})
	if ps[0] != exact[0] || ps[2] != exact[2] {
		t.Fatalf("extreme ranks: got (%v, %v), want exact (%v, %v)", ps[0], ps[2], exact[0], exact[2])
	}
}

// TestSummaryEmptyRun: no finished tasks must not panic or divide by
// zero anywhere.
func TestSummaryEmptyRun(t *testing.T) {
	r := Run{Tasks: []*task.Task{task.New(0, 0, time.Millisecond)}}
	sum := r.Summarize(50, 99)
	if sum.N() != 0 || sum.Mean() != 0 {
		t.Fatalf("empty run: N=%d mean=%v", sum.N(), sum.Mean())
	}
	for _, p := range sum.Percentiles() {
		if p != 0 {
			t.Fatalf("empty run percentile %v", p)
		}
	}
}

// TestSummaryEmptyAndSingle: a run with zero or one finished task must
// report zeros (never NaN, never a panic) for the moments and sane
// percentiles — the degenerate inputs a deadline-aborted or
// single-request simulation produces.
func TestSummaryEmptyAndSingle(t *testing.T) {
	// Empty: an unfinished task contributes nothing.
	empty := Run{Tasks: []*task.Task{task.New(0, 0, time.Millisecond)}}
	sum := empty.Summarize(50, 99, 99.9)
	if sum.N() != 0 || sum.Mean() != 0 || sum.Min() != 0 || sum.Max() != 0 {
		t.Fatalf("empty run moments N=%d mean=%v min=%v max=%v", sum.N(), sum.Mean(), sum.Min(), sum.Max())
	}
	if std := sum.Std(); std != 0 || math.IsNaN(std) {
		t.Fatalf("empty run std %v, want 0", std)
	}
	for _, p := range sum.Percentiles() {
		if p != 0 {
			t.Fatalf("empty run percentile %v, want 0", p)
		}
	}
	if mt := empty.MeanTurnaround(); mt != 0 {
		t.Fatalf("empty run mean turnaround %v", mt)
	}

	// Single finished task: every statistic is that sample.
	tk := task.New(0, 0, time.Millisecond)
	tk.MarkFinished(7 * time.Millisecond)
	single := Run{Tasks: []*task.Task{tk}}
	sum = single.Summarize(0, 50, 99, 100)
	if sum.N() != 1 || sum.Mean() != 7*time.Millisecond {
		t.Fatalf("single run N=%d mean=%v", sum.N(), sum.Mean())
	}
	if std := sum.Std(); std != 0 || math.IsNaN(std) {
		t.Fatalf("single run std %v, want 0 (not NaN)", std)
	}
	for i, p := range sum.Percentiles() {
		if p != 7*time.Millisecond {
			t.Fatalf("single run percentile %d = %v, want the sample", i, p)
		}
	}
}

// TestWorkflowRunDegenerate: the workflow-level summaries share the
// same zero guarantees.
func TestWorkflowRunDegenerate(t *testing.T) {
	empty := WorkflowRun{Workflows: []Workflow{{ID: 1, Finish: -1}}}
	if empty.Completed() != 0 || empty.MeanSlowdown() != 0 {
		t.Fatalf("unfinished-only run: completed=%d mean=%v", empty.Completed(), empty.MeanSlowdown())
	}
	for _, v := range empty.SlowdownPercentiles(50, 99) {
		if v != 0 {
			t.Fatalf("unfinished-only slowdown percentile %v", v)
		}
	}
	one := WorkflowRun{Workflows: []Workflow{{ID: 1, Arrival: 0, Finish: 10 * time.Millisecond, Ideal: 5 * time.Millisecond, Stages: 2}}}
	if one.Completed() != 1 || one.MeanSlowdown() != 2 {
		t.Fatalf("single workflow: completed=%d mean slowdown=%v, want 1/2.0", one.Completed(), one.MeanSlowdown())
	}
	if w := one.Workflows[0]; w.Turnaround() != 10*time.Millisecond {
		t.Fatalf("turnaround %v", w.Turnaround())
	}
	zeroIdeal := Workflow{Finish: 1, Ideal: 0}
	if s := zeroIdeal.Slowdown(); s != 0 || math.IsNaN(s) {
		t.Fatalf("zero-ideal slowdown %v, want 0", s)
	}
}

package metrics

import (
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/task"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// mkTask builds a finished task with the given service and turnaround.
func mkTask(id int, service, turnaround time.Duration) *task.Task {
	t := task.New(id, 0, service)
	t.CPUUsed = service
	t.MarkFinished(turnaround)
	return t
}

func TestRunBasics(t *testing.T) {
	r := Run{Tasks: []*task.Task{
		mkTask(0, ms(10), ms(20)),
		mkTask(1, ms(30), ms(30)),
		task.New(2, 0, ms(5)), // unfinished: excluded
	}}
	tas := r.Turnarounds()
	if len(tas) != 2 {
		t.Fatalf("turnarounds %v", tas)
	}
	if r.MeanTurnaround() != ms(25) {
		t.Fatalf("mean %v", r.MeanTurnaround())
	}
	rtes := r.RTEs()
	if len(rtes) != 2 || rtes[0] != 0.5 || rtes[1] != 1.0 {
		t.Fatalf("rtes %v", rtes)
	}
	if got := r.FractionRTEAtLeast(0.95); got != 0.5 {
		t.Fatalf("frac %v", got)
	}
	cdf := r.DurationCDF()
	if len(cdf) != 2 || cdf[1].F != 1 {
		t.Fatalf("cdf %v", cdf)
	}
}

func TestPercentilesOrder(t *testing.T) {
	var tasks []*task.Task
	for i := 1; i <= 100; i++ {
		tasks = append(tasks, mkTask(i, ms(i), ms(i)))
	}
	r := Run{Tasks: tasks}
	ps := r.Percentiles(StandardPercentiles)
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			t.Fatalf("percentiles not monotone: %v", ps)
		}
	}
	if ps[0] < ms(49) || ps[0] > ms(52) {
		t.Fatalf("p50 = %v", ps[0])
	}
}

func TestCompareRuns(t *testing.T) {
	// Baseline: everything takes 100ms. Treatment: task 0-8 take 10ms
	// (10x faster), task 9 takes 200ms (2x slower).
	var base, treat []*task.Task
	for i := 0; i < 10; i++ {
		base = append(base, mkTask(i, ms(10), ms(100)))
		if i < 9 {
			treat = append(treat, mkTask(i, ms(10), ms(10)))
		} else {
			treat = append(treat, mkTask(i, ms(10), ms(200)))
		}
	}
	sum := CompareRuns(Run{Tasks: base}, Run{Tasks: treat})
	if sum.ShortFraction != 0.9 || sum.LongFraction != 0.1 {
		t.Fatalf("fractions %+v", sum)
	}
	if sum.ShortSpeedup < 9.99 || sum.ShortSpeedup > 10.01 {
		t.Fatalf("short speedup %v", sum.ShortSpeedup)
	}
	if sum.ShortSpeedupArith < 9.99 || sum.ShortSpeedupArith > 10.01 {
		t.Fatalf("short arith %v", sum.ShortSpeedupArith)
	}
	if sum.LongSlowdown < 1.99 || sum.LongSlowdown > 2.01 {
		t.Fatalf("long slowdown %v", sum.LongSlowdown)
	}
	if sum.MedianSpeedup != 10 {
		t.Fatalf("median %v", sum.MedianSpeedup)
	}
	// Overall mean: 100 / (9*10+200)/10 = 100/29.
	if sum.OverallSpeedup < 3.44 || sum.OverallSpeedup > 3.45 {
		t.Fatalf("overall %v", sum.OverallSpeedup)
	}
}

func TestCompareRunsEmpty(t *testing.T) {
	sum := CompareRuns(Run{}, Run{})
	if sum.ShortFraction != 0 || sum.OverallSpeedup != 0 {
		t.Fatalf("empty compare %+v", sum)
	}
}

func TestCompareRunsMatchesByID(t *testing.T) {
	base := []*task.Task{mkTask(1, ms(10), ms(100))}
	treat := []*task.Task{mkTask(2, ms(10), ms(10)), mkTask(1, ms(10), ms(50))}
	sum := CompareRuns(Run{Tasks: base}, Run{Tasks: treat})
	// Only ID 1 matches: ratio 2.
	if sum.ShortFraction != 1 || sum.MedianSpeedup != 2 {
		t.Fatalf("%+v", sum)
	}
}

func TestCtxSwitchRatios(t *testing.T) {
	b := mkTask(0, ms(10), ms(10))
	b.CtxSwitches = 9
	s := mkTask(0, ms(10), ms(10))
	s.CtxSwitches = 0
	ratios := CtxSwitchRatios(Run{Tasks: []*task.Task{b}}, Run{Tasks: []*task.Task{s}})
	if len(ratios) != 1 || ratios[0] != 10 {
		t.Fatalf("ratios %v", ratios)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"name", "p50"}, [][]string{{"CFS", "100ms"}, {"SFS", "9ms"}})
	if !strings.Contains(out, "CFS") || !strings.Contains(out, "SFS") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(ms(1500)); got != "1500.0ms" {
		t.Fatalf("got %q", got)
	}
	if got := FormatDuration(22100 * time.Millisecond); got != "22.10s" {
		t.Fatalf("got %q", got)
	}
}

func TestColdStartStats(t *testing.T) {
	c := ColdStartStats{Invocations: 10, ColdStarts: 4, ColdLatency: ms(1000)}
	if got := c.WarmHits(); got != 6 {
		t.Fatalf("warm hits %d, want 6", got)
	}
	if got := c.WarmHitRatio(); got != 0.6 {
		t.Fatalf("warm-hit ratio %f, want 0.6", got)
	}
	if got := c.MeanColdLatency(); got != ms(250) {
		t.Fatalf("mean cold latency %v, want 250ms", got)
	}
	if (ColdStartStats{}).WarmHitRatio() != 0 || (ColdStartStats{}).MeanColdLatency() != 0 {
		t.Fatal("zero-value stats must not divide by zero")
	}
	header, cols := ColdStartHeader(), c.Columns()
	if len(header) != len(cols) {
		t.Fatalf("header has %d columns, row %d", len(header), len(cols))
	}
	row := strings.Join(cols, " ")
	for _, want := range []string{"4", "60.0%", "250.0ms"} {
		if !strings.Contains(row, want) {
			t.Fatalf("columns %q missing %q", row, want)
		}
	}
}

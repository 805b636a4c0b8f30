package live

import (
	"strings"
	"testing"
	"time"
)

func mkResult(mode Mode, turnaround, qdelay time.Duration) Result {
	base := time.Unix(1000, 0)
	return Result{
		Submitted:  base,
		Started:    base.Add(qdelay),
		Finished:   base.Add(turnaround),
		Mode:       mode,
		QueueDelay: qdelay,
	}
}

func TestSummarize(t *testing.T) {
	results := []Result{
		mkResult(ModeFilter, 10*time.Millisecond, time.Millisecond),
		mkResult(ModeFilter, 20*time.Millisecond, 2*time.Millisecond),
		mkResult(ModeCFS, 90*time.Millisecond, 5*time.Millisecond),
		{}, // unfinished: skipped
	}
	s := Summarize(results)
	if s.N != 3 {
		t.Fatalf("n %d", s.N)
	}
	if s.FilterComplete != 2 || s.CFSComplete != 1 {
		t.Fatalf("modes %d/%d", s.FilterComplete, s.CFSComplete)
	}
	if s.MeanTurnaround != 40*time.Millisecond {
		t.Fatalf("mean %v", s.MeanTurnaround)
	}
	if s.P50 != 20*time.Millisecond {
		t.Fatalf("p50 %v", s.P50)
	}
	// Interpolated like every metrics.Summary percentile: rank 1.98 of
	// {10, 20, 90} ms.
	if s.P99 != 88600*time.Microsecond {
		t.Fatalf("p99 %v", s.P99)
	}
	if s.MaxQueueDelay != 5*time.Millisecond {
		t.Fatalf("maxQ %v", s.MaxQueueDelay)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Fatalf("render %q", s.String())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.MeanTurnaround != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestSummarizeEndToEnd(t *testing.T) {
	sched := New(Config{Workers: 2, FixedSlice: 10 * time.Millisecond})
	sched.Start()
	defer sched.Stop()
	var results []Result
	for i := 0; i < 20; i++ {
		d := time.Millisecond
		if i%5 == 0 {
			d = 40 * time.Millisecond // these demote
		}
		fut, err := sched.Submit("x", func(ctx *Ctx) { ctx.Spin(d) })
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, fut.Wait())
	}
	s := Summarize(results)
	if s.N != 20 {
		t.Fatalf("n %d", s.N)
	}
	if s.CFSComplete == 0 {
		t.Fatal("expected some demotions")
	}
	if s.P50 <= 0 || s.P99 < s.P50 {
		t.Fatalf("percentiles %v/%v", s.P50, s.P99)
	}
}

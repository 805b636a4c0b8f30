package live

import (
	"math"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// replayTrace builds a tiny trace: short CPU bursts arriving 5ms apart,
// one with an I/O op.
func replayTrace() trace.Source {
	a := task.New(0, 0, 2*time.Millisecond)
	a.App = "short"
	b := task.New(1, 5*time.Millisecond, 2*time.Millisecond)
	b.App = "io"
	b.WithIO(time.Millisecond, 10*time.Millisecond)
	c := task.New(2, 10*time.Millisecond, 2*time.Millisecond)
	c.App = "short"
	return trace.FromTasks("replay-test", []*task.Task{a, b, c})
}

func TestReplayExecutesWholeTrace(t *testing.T) {
	s := newStarted(t, Config{Workers: 2, InitialSlice: 500 * time.Millisecond})
	rep, err := Replay(s, replayTrace(), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 3 || rep.Dropped != 0 {
		t.Fatalf("submitted %d dropped %d", rep.Submitted, rep.Dropped)
	}
	if rep.Summary.N != 3 {
		t.Fatalf("summary over %d results", rep.Summary.N)
	}
	if rep.Summary.FilterComplete != 3 {
		t.Fatalf("%d of 3 completed in FILTER", rep.Summary.FilterComplete)
	}
	// Arrival pacing: the whole trace spans 10ms, so wall time must be
	// at least that (plus the last function's work).
	if rep.Wall < 10*time.Millisecond {
		t.Fatalf("replay finished in %v, faster than the trace span", rep.Wall)
	}
	for _, r := range rep.Results {
		if r.Turnaround() <= 0 {
			t.Fatal("non-positive turnaround")
		}
	}
}

func TestReplaySpeedupAndCap(t *testing.T) {
	// A 2s-long trace replayed 100x compressed must finish in far less
	// than 2s of wall time.
	tasks := make([]*task.Task, 20)
	for i := range tasks {
		tk := task.New(i, time.Duration(i)*100*time.Millisecond, 5*time.Millisecond)
		tk.App = "paced"
		tasks[i] = tk
	}
	s := newStarted(t, Config{Workers: 2, InitialSlice: 500 * time.Millisecond})
	rep, err := Replay(s, trace.Limit(trace.FromTasks("paced", tasks), 10), ReplayConfig{Speedup: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 10 {
		t.Fatalf("cap ignored: %d submitted", rep.Submitted)
	}
	if rep.Wall > time.Second {
		t.Fatalf("compressed replay took %v", rep.Wall)
	}
}

// TestReplayRejectsBadConfig: nonsense configurations must be reported
// as errors, not silently coerced (a negative Speedup used to replay in
// real time); the zero value still means the documented real-time
// default.
func TestReplayRejectsBadConfig(t *testing.T) {
	s := newStarted(t, Config{Workers: 1})
	for _, cfg := range []ReplayConfig{
		{Speedup: -1},
		{Speedup: math.Inf(1)},
		{Speedup: math.NaN()},
		{MaxService: -time.Millisecond},
	} {
		if _, err := Replay(s, replayTrace(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	// Zero Speedup is the documented default, not an error.
	if _, err := Replay(s, replayTrace(), ReplayConfig{}); err != nil {
		t.Fatalf("zero-value config rejected: %v", err)
	}
}

// TestReplayPlanClampsCompressedService: MaxService bounds the
// compressed (wall-clock) spin total exactly — the clamp used to apply
// to trace time, a different bound than documented — and scaled
// segments must telescope with no per-segment truncation drift.
func TestReplayPlanClampsCompressedService(t *testing.T) {
	tk := task.New(0, 0, 10*time.Second)
	tk.WithIO(time.Second, 50*time.Millisecond)
	tk.WithIO(4*time.Second, 70*time.Millisecond)
	cfg := ReplayConfig{Speedup: 100, MaxService: 20 * time.Millisecond}
	// Compressed service is 100ms > 20ms cap: the spins must sum to the
	// cap exactly (cumulative mapping, not per-segment truncation).
	plan := replayPlan(tk, cfg)
	if len(plan) != 3 {
		t.Fatalf("plan has %d steps, want 3 (two I/O ops + final burst)", len(plan))
	}
	var spins time.Duration
	for _, st := range plan {
		spins += st.spin
	}
	if spins != cfg.MaxService {
		t.Fatalf("clamped spins sum to %v, want exactly %v", spins, cfg.MaxService)
	}
	// I/O ops keep their proportional positions: op at 1s of 10s -> 10%
	// of the clamped budget spun before the first sleep.
	if want := cfg.MaxService / 10; plan[0].spin != want {
		t.Errorf("first burst %v, want %v (10%% of the clamped budget)", plan[0].spin, want)
	}
	// Sleeps are compressed but not clamped.
	if plan[0].sleep != 500*time.Microsecond || plan[1].sleep != 700*time.Microsecond {
		t.Errorf("sleeps %v/%v, want 0.5ms/0.7ms", plan[0].sleep, plan[1].sleep)
	}
	// Below the cap, no clamping: spins sum to the compressed service.
	uncapped := replayPlan(tk, ReplayConfig{Speedup: 1000, MaxService: 20 * time.Millisecond})
	spins = 0
	for _, st := range uncapped {
		spins += st.spin
	}
	if spins != 10*time.Millisecond {
		t.Fatalf("uncapped spins sum to %v, want the 10ms compressed service", spins)
	}
}

// TestReplayPlanDuplicateOps: ops sharing an At position must not
// regress the CPU cursor or produce negative bursts.
func TestReplayPlanDuplicateOps(t *testing.T) {
	tk := task.New(0, 0, 8*time.Millisecond)
	tk.WithIO(2*time.Millisecond, time.Millisecond)
	tk.WithIO(2*time.Millisecond, time.Millisecond)
	var spins time.Duration
	for _, st := range replayPlan(tk, ReplayConfig{}) {
		if st.spin < 0 {
			t.Fatalf("negative burst %v", st.spin)
		}
		spins += st.spin
	}
	if spins != 8*time.Millisecond {
		t.Fatalf("spins sum to %v, want the full 8ms service", spins)
	}
}

func TestReplayClampsHeavyTail(t *testing.T) {
	tk := task.New(0, 0, 10*time.Second) // would spin 10s uncapped
	tk.App = "heavy"
	s := newStarted(t, Config{Workers: 1, InitialSlice: time.Second})
	start := time.Now()
	rep, err := Replay(s, trace.FromTasks("heavy", []*task.Task{tk}),
		ReplayConfig{MaxService: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 1 {
		t.Fatalf("submitted %d", rep.Submitted)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("clamp ineffective: replay took %v", elapsed)
	}
}

package live

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Replay drives the live scheduler with an invocation stream from the
// trace pipeline: the same trace.Source that feeds the simulator can be
// executed on real goroutines, with each invocation submitted at its
// (time-compressed) arrival instant, spinning real CPU for its service
// time and sleeping through its I/O ops.
//
// This is how simulator scenarios are cross-checked against the live
// runtime: policy metrics come from the simulator, real scheduling
// overhead from here.

// ReplayConfig tunes a live replay.
type ReplayConfig struct {
	// Speedup divides all trace times: arrivals, service, and I/O run
	// Speedup× faster than recorded. Zero means the default of 1 (real
	// time); a negative or non-finite value is a configuration error.
	// A 10s trace replayed at Speedup 100 takes ~100ms of wall time.
	Speedup float64
	// MaxService clamps each invocation's compressed (wall-clock)
	// service time, so a heavy-tailed trace cannot pin a worker for
	// seconds of wall time (0 = no clamp; negative is a configuration
	// error). The clamp scales the invocation's CPU segments
	// proportionally, keeping every I/O op at its relative position;
	// I/O durations themselves are compressed but not clamped.
	MaxService time.Duration
}

// validate rejects nonsensical replay configurations instead of
// silently coercing them (a negative Speedup used to replay in real
// time, hiding the caller's bug).
func (cfg ReplayConfig) validate() error {
	if cfg.Speedup < 0 || math.IsInf(cfg.Speedup, 0) || math.IsNaN(cfg.Speedup) {
		return fmt.Errorf("live: replay speedup must be positive (got %v); leave it zero for real time", cfg.Speedup)
	}
	if cfg.MaxService < 0 {
		return fmt.Errorf("live: negative MaxService %v", cfg.MaxService)
	}
	return nil
}

// ReplayReport summarizes a finished replay.
type ReplayReport struct {
	Results []Result
	Summary Summary
	// Wall is the elapsed wall-clock time of the replay.
	Wall time.Duration
	// Submitted counts invocations handed to the scheduler; Dropped
	// counts submissions rejected by a full global queue.
	Submitted int
	Dropped   int
}

// Replay pulls invocations from src and executes them on s, which must
// already be started. It blocks until every submitted invocation
// finishes.
func Replay(s *Scheduler, src trace.Source, cfg ReplayConfig) (ReplayReport, error) {
	if err := cfg.validate(); err != nil {
		return ReplayReport{}, err
	}
	if cfg.Speedup == 0 {
		cfg.Speedup = 1
	}
	compress := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / cfg.Speedup)
	}

	var report ReplayReport
	var futs []*Future
	start := time.Now()
	for {
		tk, ok := src.Next()
		if !ok {
			break
		}
		// Pace: wait until this invocation's compressed arrival instant.
		if wait := compress(time.Duration(tk.Arrival)) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		fut, err := s.Submit(tk.App, replayFunction(tk, cfg))
		if err != nil {
			if err == ErrStopped {
				return report, fmt.Errorf("live: replay submit: %w", err)
			}
			report.Dropped++ // queue full: count and keep pacing
			continue
		}
		report.Submitted++
		futs = append(futs, fut)
	}
	if err := trace.Err(src); err != nil {
		return report, err
	}
	for _, f := range futs {
		report.Results = append(report.Results, f.Wait())
	}
	report.Wall = time.Since(start)
	report.Summary = Summarize(report.Results)
	return report, nil
}

// replayStep is one CPU burst followed by one I/O sleep (the final step
// has no sleep), both in compressed wall-clock time.
type replayStep struct {
	spin  time.Duration
	sleep time.Duration
}

// replayPlan converts a trace invocation into its wall-clock execution
// plan, computed before the function runs so the plan is testable and
// the closure does no arithmetic. MaxService bounds the *compressed*
// service total: when it clamps, CPU segments are scaled through one
// cumulative trace-position → wall-position mapping, so the bursts
// telescope to exactly the clamped total and every I/O op keeps its
// proportional position in the stream. (The previous per-segment
// scaling clamped the un-compressed service — a different bound than
// documented — and truncated each burst independently, drifting the
// segment boundaries away from the op list.)
func replayPlan(tk *task.Task, cfg ReplayConfig) []replayStep {
	speedup := cfg.Speedup
	if speedup == 0 {
		speedup = 1
	}
	compress := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / speedup)
	}
	scale := 1.0
	if total := compress(tk.Service); cfg.MaxService > 0 && total > cfg.MaxService {
		scale = float64(cfg.MaxService) / float64(total)
	}
	cum := func(d time.Duration) time.Duration {
		return time.Duration(float64(compress(d)) * scale)
	}
	plan := make([]replayStep, 0, len(tk.IOOps)+1)
	var done time.Duration // trace-time CPU position
	for _, op := range tk.IOOps {
		at := op.At
		if at < done {
			at = done
		}
		plan = append(plan, replayStep{spin: cum(at) - cum(done), sleep: compress(op.Dur)})
		done = at
	}
	return append(plan, replayStep{spin: cum(tk.Service) - cum(done)})
}

// replayFunction converts a trace invocation into a live function: CPU
// segments spin, I/O ops sleep through Ctx.IO (releasing the worker in
// FILTER mode, §V-D), in the order the task definition interleaves them.
func replayFunction(tk *task.Task, cfg ReplayConfig) Function {
	plan := replayPlan(tk, cfg)
	return func(ctx *Ctx) {
		for _, st := range plan {
			if st.spin > 0 {
				ctx.Spin(st.spin)
			}
			if st.sleep > 0 {
				ctx.Sleep(st.sleep)
			}
		}
	}
}

package sched

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/predict"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// SRTF is the offline oracle scheduler: Shortest Remaining Time First.
// It assumes a priori knowledge of every task's remaining CPU demand and
// always runs the c globally shortest-remaining tasks, preempting on
// arrival when a shorter task appears. The paper uses it as the
// achievable lower bound on turnaround time (§IV-B).
type SRTF struct{ shortestRemaining }

// NewSRTF returns the SRTF oracle.
func NewSRTF() *SRTF { return &SRTF{} }

// Name implements cpusim.Scheduler.
func (s *SRTF) Name() string { return "SRTF" }

// PSRTF is predicted shortest-remaining-time-first: the data-driven
// counterpart of SRTF. Where SRTF reads each task's true remaining CPU
// demand (clairvoyant, the paper's lower bound), PSRTF substitutes an
// online per-application estimate (internal/predict) learned from the
// completions this host has observed — the policy a real platform
// could actually run, per Przybylski et al.'s data-driven scheduling.
// Its gap to SRTF is pure prediction error; its gap to SFS is the
// value (or cost) of acting on estimates, which the predicted-dispatch
// experiment sweeps across error regimes.
//
// Ordering keys are snapshotted at enqueue time: the estimator learns
// continuously, so each queued task carries, inline in its run-queue
// entry, the prediction that was current when it entered the queue
// (re-snapshotted on preemption re-entry). Completions feed the
// estimator with the task's true demand — the moment a real platform
// logs the invocation's CPU time.
type PSRTF struct{ shortestRemaining }

// NewPSRTF returns a predicted-SRTF scheduler learning into est; a nil
// est gets a fresh default estimator (each host learns locally).
func NewPSRTF(est *predict.Estimator) *PSRTF {
	if est == nil {
		est = predict.New(predict.Config{})
	}
	return &PSRTF{shortestRemaining{est: est}}
}

// Name implements cpusim.Scheduler.
func (s *PSRTF) Name() string { return "PSRTF" }

// shortestRemaining is SRTF and PSRTF: it always runs the tasks with
// the least remaining CPU demand, with an unbounded slice (a task runs
// until completion, block, or a shorter arrival). The two differ only
// in how they read remaining demand (see remaining) and in PSRTF's
// learning from each completion.
type shortestRemaining struct {
	api cpusim.API
	est *predict.Estimator   // nil for SRTF
	q   runQueue[*task.Task] // keyed by remaining demand
}

// remaining returns t's remaining CPU demand; ran is how long t has run
// in its current stint (zero for a queued task), which its accounting
// does not include yet. SRTF reads the truth. PSRTF reads the app's
// predicted total minus the demand already retired, floored at 1ns — a
// task that has outrun its prediction is "about to finish", the
// natural reading, rather than negative — and compares running tasks
// by that estimate too, ignoring ran.
//
// A queued task's key is read at insert and stays put: only running
// tasks consume CPU, so SRTF's key stays the task's true remaining
// demand until it is picked, and PSRTF's later learning never reorders
// queued tasks.
func (s *shortestRemaining) remaining(t *task.Task, ran time.Duration) time.Duration {
	if s.est == nil {
		return t.Remaining() - ran
	}
	return max(s.est.Predict(t.App)-t.CPUUsed, 1)
}

// Bind implements cpusim.Scheduler; it starts an empty run queue.
func (s *shortestRemaining) Bind(api cpusim.API) {
	s.api = api
	s.q = runQueue[*task.Task]{}
}

// Enqueue implements cpusim.Scheduler.
func (s *shortestRemaining) Enqueue(now simtime.Time, t *task.Task) {
	s.q.Insert(s.remaining(t, 0), t.ID, t)
}

// PickNext implements cpusim.Scheduler: globally shortest remaining,
// unbounded slice.
func (s *shortestRemaining) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	t, ok := s.q.PopMin()
	if !ok {
		return nil, 0
	}
	return t, 0
}

// Descheduled implements cpusim.Scheduler: a preempted task re-enters
// the queue. Under PSRTF a completion is the learning signal: the
// platform now knows the invocation's true CPU demand and feeds it to
// the estimator.
func (s *shortestRemaining) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	switch reason {
	case cpusim.ReasonPreempted:
		s.q.Insert(s.remaining(t, 0), t.ID, t)
	case cpusim.ReasonFinished:
		if s.est != nil {
			s.est.Observe(t.App, t.Service)
		}
	}
}

// WantsPreempt implements cpusim.Scheduler: preempt only the core whose
// current task has the largest live remaining time, and only if the
// shortest queued task beats it. Restricting to the argmax core makes
// the preemption SRTF-optimal when the engine scans cores in order.
func (s *shortestRemaining) WantsPreempt(now simtime.Time, core int) bool {
	min, _, ok := s.q.Min()
	if !ok {
		return false
	}
	cur := s.api.Running(core)
	if cur == nil {
		return false
	}
	live := s.remaining(cur, s.api.RanFor(core))
	if min >= live {
		return false
	}
	// Only yield on the worst (largest live remaining) busy core.
	for other := 0; other < s.api.NumCores(); other++ {
		if other == core {
			continue
		}
		o := s.api.Running(other)
		if o == nil {
			continue
		}
		oLive := s.remaining(o, s.api.RanFor(other))
		if oLive > live || (oLive == live && other < core) {
			return false
		}
	}
	return true
}

// Queued returns the number of waiting tasks; exposed for tests.
func (s *shortestRemaining) Queued() int { return s.q.Len() }

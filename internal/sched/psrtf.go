package sched

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/predict"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

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
type PSRTF struct {
	api cpusim.API
	est *predict.Estimator
	q   runQueue[*task.Task] // keyed by the predicted-remaining snapshot
}

// NewPSRTF returns a predicted-SRTF scheduler learning into est; a nil
// est gets a fresh default estimator (each host learns locally).
func NewPSRTF(est *predict.Estimator) *PSRTF {
	if est == nil {
		est = predict.New(predict.Config{})
	}
	return &PSRTF{est: est}
}

// Name implements cpusim.Scheduler.
func (s *PSRTF) Name() string { return "PSRTF" }

// Bind implements cpusim.Scheduler; it starts an empty run queue.
func (s *PSRTF) Bind(api cpusim.API) {
	s.api = api
	s.q = runQueue[*task.Task]{}
}

// predictedRemaining estimates how much CPU demand t has left: the
// app's predicted total minus the demand already retired, floored at
// 1ns — a task that has outrun its prediction is "about to finish",
// the natural reading, rather than negative.
func (s *PSRTF) predictedRemaining(t *task.Task) time.Duration {
	rem := s.est.Predict(t.App) - t.CPUUsed
	if rem < 1 {
		rem = 1
	}
	return rem
}

// Enqueue implements cpusim.Scheduler: snapshot the prediction and
// insert. The snapshot (not the live estimate) is the run-queue key, so
// later learning never reorders queued tasks.
func (s *PSRTF) Enqueue(now simtime.Time, t *task.Task) {
	s.q.Insert(s.predictedRemaining(t), t.ID, t)
}

// PickNext implements cpusim.Scheduler: shortest predicted remaining,
// unbounded slice (like SRTF it runs until completion, block, or a
// shorter prediction arrives).
func (s *PSRTF) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	t, ok := s.q.PopMin()
	if !ok {
		return nil, 0
	}
	return t, 0
}

// Descheduled implements cpusim.Scheduler. A completion is the
// learning signal: the platform now knows the invocation's true CPU
// demand and feeds it to the estimator.
func (s *PSRTF) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	switch reason {
	case cpusim.ReasonPreempted:
		s.q.Insert(s.predictedRemaining(t), t.ID, t)
	case cpusim.ReasonFinished:
		s.est.Observe(t.App, t.Service)
	}
}

// WantsPreempt implements cpusim.Scheduler, mirroring SRTF's argmax
// rule under predicted quantities: preempt only the busy core whose
// task has the largest predicted remaining, and only if the shortest
// queued prediction beats it. Running tasks are compared by their live
// estimate (prediction minus retired demand) — deterministic, since
// both inputs are engine state.
func (s *PSRTF) WantsPreempt(now simtime.Time, core int) bool {
	min, _, ok := s.q.Min()
	if !ok {
		return false
	}
	cur := s.api.Running(core)
	if cur == nil {
		return false
	}
	live := s.predictedRemaining(cur)
	if min >= live {
		return false
	}
	for other := 0; other < s.api.NumCores(); other++ {
		if other == core {
			continue
		}
		o := s.api.Running(other)
		if o == nil {
			continue
		}
		oLive := s.predictedRemaining(o)
		if oLive > live || (oLive == live && other < core) {
			return false
		}
	}
	return true
}

// Queued returns the number of waiting tasks; exposed for tests.
func (s *PSRTF) Queued() int { return s.q.Len() }

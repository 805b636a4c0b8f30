package sched

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// SRTF is the offline oracle scheduler: Shortest Remaining Time First.
// It assumes a priori knowledge of every task's remaining CPU demand and
// always runs the c globally shortest-remaining tasks, preempting on
// arrival when a shorter task appears. The paper uses it as the
// achievable lower bound on turnaround time (§IV-B).
type SRTF struct {
	api cpusim.API
	q   runQueue[*task.Task] // keyed by remaining demand
}

// NewSRTF returns the SRTF oracle.
func NewSRTF() *SRTF {
	return &SRTF{}
}

// Name implements cpusim.Scheduler.
func (s *SRTF) Name() string { return "SRTF" }

// Bind implements cpusim.Scheduler; it starts an empty run queue.
func (s *SRTF) Bind(api cpusim.API) {
	s.api = api
	s.q = runQueue[*task.Task]{}
}

// Enqueue implements cpusim.Scheduler.
//
// Note: the ordering key (Remaining) is stable while a task is queued,
// because only running tasks consume CPU, so the key read at insert
// stays the task's true remaining demand until it is picked.
func (s *SRTF) Enqueue(now simtime.Time, t *task.Task) { s.q.Insert(t.Remaining(), t.ID, t) }

// PickNext implements cpusim.Scheduler: globally shortest remaining,
// unbounded slice (it runs until completion, block, or a shorter
// arrival).
func (s *SRTF) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	t, ok := s.q.PopMin()
	if !ok {
		return nil, 0
	}
	return t, 0
}

// Descheduled implements cpusim.Scheduler.
func (s *SRTF) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	if reason == cpusim.ReasonPreempted {
		s.q.Insert(t.Remaining(), t.ID, t)
	}
}

// WantsPreempt implements cpusim.Scheduler: preempt only the core whose
// current task has the largest live remaining time, and only if the
// shortest queued task beats it. Restricting to the argmax core makes
// the preemption SRTF-optimal when the engine scans cores in order.
func (s *SRTF) WantsPreempt(now simtime.Time, core int) bool {
	min, _, ok := s.q.Min()
	if !ok {
		return false
	}
	cur := s.api.Running(core)
	if cur == nil {
		return false
	}
	live := cur.Remaining() - s.api.RanFor(core)
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
		oLive := o.Remaining() - s.api.RanFor(other)
		if oLive > live || (oLive == live && other < core) {
			return false
		}
	}
	return true
}

// Queued returns the number of waiting tasks; exposed for tests.
func (s *SRTF) Queued() int { return s.q.Len() }

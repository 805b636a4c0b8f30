package lifecycle

import (
	"time"

	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// HostStage adapts a container lifecycle Manager to the host-runtime
// stage pipeline: every submitted invocation acquires a warm or cold
// container at its placement instant (a cold start delays the instant
// it becomes runnable), and the container returns to the warm pool
// the instant the invocation finishes. One HostStage serves one host;
// it tracks which container each in-flight invocation holds.
type HostStage struct {
	mgr   *Manager
	owner map[*task.Task]*Container
}

var _ host.Stage = (*HostStage)(nil)

// NewHostStage wraps mgr as a pipeline stage.
func NewHostStage(mgr *Manager) *HostStage {
	return &HostStage{mgr: mgr, owner: map[*task.Task]*Container{}}
}

// BeforeSubmit acquires t's container as of the placement instant and
// reports the cold-start delay (zero on a warm hit).
func (s *HostStage) BeforeSubmit(at simtime.Time, t *task.Task) time.Duration {
	delay, c := s.mgr.Acquire(at, t.App)
	s.owner[t] = c
	return delay
}

// OnFinish releases t's container back to the warm pool.
func (s *HostStage) OnFinish(at simtime.Time, t *task.Task) {
	if c := s.owner[t]; c != nil {
		s.mgr.Release(at, c)
		delete(s.owner, t)
	}
}

package chain

import (
	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// HostStage adapts a workflow Injector to the host-runtime stage
// pipeline: admitted requests expand into their root stages, and each
// completion releases the downstream stages whose dependencies are met
// back into the runtime as arrivals at the completion instant. Released
// stages are not submitted mid-event: the runtime queues them until
// its loop clock reaches their arrival, so lifecycle state always
// advances in global time order.
//
// (It is named HostStage because Stage in this package is a workflow
// stage — one function of a chain — not a pipeline hook.)
type HostStage struct {
	host.Base
	inj *Injector
	rt  *host.Runtime
}

var (
	_ host.Stage    = (*HostStage)(nil)
	_ host.Expander = (*HostStage)(nil)
	_ host.Binder   = (*HostStage)(nil)
)

// NewHostStage wraps inj as a pipeline stage.
func NewHostStage(inj *Injector) *HostStage {
	return &HostStage{inj: inj}
}

// BindRuntime implements host.Binder: released stages re-enter rt.
func (s *HostStage) BindRuntime(rt *host.Runtime) { s.rt = rt }

// Expand implements host.Expander: a chained request becomes its root
// stages, all arriving at the request instant.
func (s *HostStage) Expand(t *task.Task) []*task.Task { return s.inj.Expand(t) }

// OnFinish releases the downstream stages t's completion unblocks.
func (s *HostStage) OnFinish(at simtime.Time, t *task.Task) {
	for _, nt := range s.inj.OnFinish(t) {
		s.rt.Release(nt)
	}
}

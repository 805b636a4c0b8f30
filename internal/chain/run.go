package chain

import (
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Run drives a request stream through a workflow injector and a cpusim
// engine on one global event loop: requests expand into their root
// stages at their arrival instants, each completion releases the
// downstream stages whose dependencies are met, and released stages
// re-enter the loop as ordinary arrivals at the completion instant.
// With a non-nil lifecycle manager, every stage additionally acquires a
// container at its own arrival — a cold start delays the instant the
// stage becomes runnable — and releases it the moment it finishes, so
// chains interact with per-app warm pools stage by stage.
//
// Run is a stage configuration of the unified host runtime
// (internal/host): lifecycle then chain hooks, in that order, on the
// runtime's Drive loop — engine events before same-instant arrivals,
// released stages before same-instant requests, exactly as the cluster
// loop orders them — so same-seed replays are byte-identical. The
// engine must be fresh. A stage's arrival stays its request's or
// release instant, so turnarounds are end-to-end: cold-start latency
// counts against each stage (and therefore the workflow).
func Run(src trace.Source, inj *Injector, mgr *lifecycle.Manager, eng *cpusim.Engine) (simtime.Time, error) {
	var stages []host.Stage
	if mgr != nil {
		stages = append(stages, lifecycle.NewHostStage(mgr))
	}
	stages = append(stages, NewHostStage(inj))
	return host.New(eng, stages...).Drive(src)
}

package lifecycle

import (
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Run drives an invocation stream through a container lifecycle manager
// and a cpusim engine on one global event loop: each invocation
// acquires its container at its arrival instant (a cold start delays
// the instant the task becomes runnable by the sampled latency, until
// its sandbox is up), and containers return to the warm pool the
// instant their invocation finishes.
//
// Run is a stage configuration of the unified host runtime
// (internal/host): the runtime's Drive loop supplies the event
// ordering — engine events before same-instant arrivals, exactly as
// the cluster loop orders them — so same-seed replays are
// byte-identical. The engine must be fresh (no tasks submitted, no
// tracer installed). Arrivals are left as the source emitted them, so
// turnarounds are end-to-end: cold-start latency counts against the
// request.
func Run(src trace.Source, mgr *Manager, eng *cpusim.Engine) (simtime.Time, error) {
	return host.New(eng, NewHostStage(mgr)).Drive(src)
}

// Package schedulers is the shared name → constructor registry for the
// CLIs and harnesses that select a scheduler from a flag, so the set of
// recognized names cannot drift between tools.
//
// It lives outside internal/sched because SFS (internal/core) itself
// imports internal/sched for its second scheduling level.
package schedulers

import (
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/registry"
	"github.com/serverless-sched/sfs/internal/sched"
)

// reg maps canonical names to default-config constructors, in
// presentation order.
var reg = registry.New[func() cpusim.Scheduler]("scheduler").
	Add("SFS", func() cpusim.Scheduler { return core.New(core.DefaultConfig()) }).
	Add("CFS", func() cpusim.Scheduler { return sched.NewCFS() }).
	Add("EEVDF", func() cpusim.Scheduler { return sched.NewEEVDF() }).
	Add("FIFO", func() cpusim.Scheduler { return sched.NewFIFO() }).
	Add("RR", func() cpusim.Scheduler { return sched.NewRR(0) }).
	Add("SRTF", func() cpusim.Scheduler { return sched.NewSRTF() }).
	Add("PSRTF", func() cpusim.Scheduler { return sched.NewPSRTF(nil) }).
	Add("COREGRANULAR", func() cpusim.Scheduler { return sched.NewCoreGranular() }).
	Add("LOTTERY", func() cpusim.Scheduler { return sched.NewLottery(0, 1) })

// Names returns the canonical scheduler names New recognizes.
func Names() []string { return reg.Names() }

// New constructs a scheduler by case-insensitive name with its default
// configuration. Callers needing tuned configurations (e.g. faasbench
// replay's SFS flags) construct those directly and fall back here for
// the rest.
func New(name string) (cpusim.Scheduler, error) {
	mk, err := reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

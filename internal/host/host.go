// Package host is the unified per-host runtime at the center of every
// simulation driver in this repository.
//
// A Runtime is one composable core for the concerns every driver
// shares (container acquire/release, workflow stage release,
// completion observation): it owns a cpusim engine plus an ordered
// pipeline of pluggable Stages, and guarantees one deterministic hook
// ordering everywhere:
//
//   - engine events fire before same-instant arrivals, so a completion
//     frees capacity (and warm containers) the next arrival can see;
//   - arrivals a stage releases mid-run (workflow fan-out) are queued
//     first in, first out — a stage releases each at its upstream
//     completion instant, so they come in time order — and precede
//     same-instant source arrivals, because they originate from earlier
//     completions;
//   - at an arrival, stages hook in pipeline order: Expand rewrites the
//     admitted invocation, then each BeforeSubmit may delay the instant
//     the task becomes runnable (cold starts); at a completion, OnFinish
//     runs in the same pipeline order.
//
// A task's Arrival stays the instant its request arrived. The driver
// hands the engine the instant the task becomes runnable — its
// placement instant plus the delays on the way (the cluster's network
// hop, each stage's BeforeSubmit) — so a finished task's Turnaround is
// end to end the moment it finishes.
//
// The public drivers are thin shells over this core: lifecycle.Run,
// chain.Run and the faas platform are stage configurations of
// Runtime.Drive, and the cluster coordinator drives many
// Runtimes through one Group per shard — serial mode steps a single
// Group over every host one event at a time, sharded mode advances
// each shard's Group through whole windows — and every delivery takes
// the same Runtime.Place hook path, so a stage written once works
// standalone and at any -shards count, serial included. A standalone
// Runtime.Drive is byte-identical to a one-host cluster under a
// trivial dispatcher (the degenerate-case parity pinned by
// TestStandaloneClusterParity).
package host

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Stage is one composable hook bundle in a host runtime's pipeline.
// Stages observe and perturb the per-invocation lifecycle; the engine
// and all scheduling stay in cpusim. Hooks run in pipeline order at
// deterministic instants, so a stage list plus a seed fully determines
// a run.
//
// A stage that rewrites admitted invocations additionally implements
// Expander; stages that release follow-up arrivals implement Binder to
// receive the Runtime they feed.
type Stage interface {
	// BeforeSubmit fires when t is about to enter the engine at instant
	// at. The returned delay postpones the instant t becomes runnable —
	// a container cold start — without moving the instant the stage
	// itself observed. Stages must not retain t past OnFinish.
	BeforeSubmit(at simtime.Time, t *task.Task) time.Duration
	// OnFinish fires at t's completion instant.
	OnFinish(at simtime.Time, t *task.Task)
}

// Expander is implemented by a stage that rewrites an admitted source
// invocation into the task(s) actually entering the host — the chain
// stage expands a request into its workflow's root stages. Only source
// admissions are expanded; tasks released mid-run re-enter as-is. A
// pipeline holds at most one Expander.
type Expander interface {
	Expand(t *task.Task) []*task.Task
}

// Binder is implemented by stages that feed arrivals back into the
// runtime (workflow fan-out). BindRuntime is called once, before the
// run starts.
type Binder interface {
	BindRuntime(rt *Runtime)
}

// Base is a no-op Stage for embedding, so concrete stages implement
// only the hooks they use.
type Base struct{}

// BeforeSubmit implements Stage as a no-op.
func (Base) BeforeSubmit(simtime.Time, *task.Task) time.Duration { return 0 }

// OnFinish implements Stage as a no-op.
func (Base) OnFinish(simtime.Time, *task.Task) {}

// FinishFunc adapts a completion callback into a Stage — the shape the
// cluster uses for predictor observation (a dispatcher's
// CompletionObserver), for metrics taps, and for collecting the
// completions a chain coordinator fans back through dispatch.
type FinishFunc func(at simtime.Time, t *task.Task)

// BeforeSubmit implements Stage as a no-op.
func (FinishFunc) BeforeSubmit(simtime.Time, *task.Task) time.Duration { return 0 }

// OnFinish implements Stage by calling the function.
func (f FinishFunc) OnFinish(at simtime.Time, t *task.Task) { f(at, t) }

// Runtime is one simulated host: a cpusim engine wrapped in an ordered
// stage pipeline. The engine must be fresh — no tasks submitted, no
// tracer installed — because the Runtime owns the engine's tracer when
// any stage is present.
type Runtime struct {
	eng    *cpusim.Engine
	stages []Stage
	exp    Expander  // the stage expanding source admissions, or nil
	pend   hookQueue // released arrivals, in (time, release) order
	queued int       // assigned but not yet submitted (sharded windows)
}

// New wraps eng in a runtime running the given stage pipeline. Stages
// hook in the order given; stages implementing Binder are bound here.
// It panics when more than one stage implements Expander.
func New(eng *cpusim.Engine, stages ...Stage) *Runtime {
	rt := &Runtime{eng: eng, stages: stages}
	for _, s := range stages {
		if ex, ok := s.(Expander); ok {
			if rt.exp != nil {
				panic("host: more than one stage implements Expander")
			}
			rt.exp = ex
		}
		if b, ok := s.(Binder); ok {
			b.BindRuntime(rt)
		}
	}
	if len(stages) > 0 {
		eng.SetTracer(func(ev cpusim.TraceEvent) {
			if ev.Kind != cpusim.TraceFinish {
				return
			}
			for _, s := range rt.stages {
				s.OnFinish(ev.At, ev.Task)
			}
		})
	}
	return rt
}

// Queued is the number of invocations assigned to this host but not
// yet submitted to its engine — nonzero only inside sharded windows,
// where delivery is deferred to the owning shard (see Group.Enqueue).
func (rt *Runtime) Queued() int { return rt.queued }

// NextEventTime is the runtime's key in a next-event ordering: the
// engine's earliest pending event that is not a held slice renewal
// (cpusim.Engine.NextPendingEventTime) while it has unfinished work,
// and simtime.Infinity otherwise. Idle engines may hold re-arming timer
// events that would spin a driver forever; parking them at Infinity is
// the contract every drive loop keys on.
func (rt *Runtime) NextEventTime() simtime.Time { return rt.eng.NextPendingEventTime() }

// StepEvent fires the engine's earliest pending event that is not a
// held renewal, passing the held renewals before it.
func (rt *Runtime) StepEvent() bool { return rt.eng.StepEvent() }

// Place runs the pipeline's BeforeSubmit hooks for t at instant at and
// hands the task to the engine, runnable at at plus delay (the driver's
// own, say a network hop) plus each delay a stage returns. t.Arrival is
// not touched, and Place panics when at precedes it. This is the single
// submit path shared by every driver: the standalone Drive loop and the
// cluster's delivery in either mode. Every engine event up to at has
// fired by then; the engine first passes the held renewals due by at,
// so the arrival takes the queue sequence number it would take if
// renewals were events.
func (rt *Runtime) Place(at simtime.Time, delay time.Duration, t *task.Task) {
	if at < t.Arrival {
		panic(fmt.Sprintf("host: %v placed at %v, before its arrival", t, at))
	}
	rt.eng.CatchUp(at)
	runnable := at + delay
	for _, s := range rt.stages {
		if d := s.BeforeSubmit(at, t); d > 0 {
			runnable += d
		}
	}
	rt.eng.SubmitAt(runnable, t)
}

// Release queues t as a future arrival of this runtime at t.Arrival.
// Stages call it from OnFinish (workflow fan-out) with the completion
// instant as the arrival, so releases come in time order, and the
// Drive loop submits them first in, first out: same-instant releases
// enter in the order their upstream completions produced them — the
// tie-break that keeps replays byte-identical. Release panics when t
// arrives before the last release still queued.
func (rt *Runtime) Release(t *task.Task) { rt.pend.push(t) }

// Drive pulls src to exhaustion through the stage pipeline and runs
// the engine to completion on one event loop — the standalone (1-host)
// driver every single-host entry point shells out to. Engine events
// fire before same-instant arrivals, and released arrivals precede
// same-instant source arrivals, exactly as the cluster coordinator
// orders them. Each task is placed at its Arrival, so stage-injected
// delays (cold starts) count against the request in its Turnaround.
func (rt *Runtime) Drive(src trace.Source) (simtime.Time, error) {
	next, more := src.Next()
	for {
		evT := rt.NextEventTime()
		arrT := simtime.Infinity
		fromQueue := false
		if h := rt.pend.head(); h != nil {
			arrT = h.Arrival
			fromQueue = true
		}
		if more && next.Arrival < arrT {
			// Released arrivals precede same-instant source arrivals:
			// they originate from earlier completions.
			arrT = next.Arrival
			fromQueue = false
		}
		if evT == simtime.Infinity && arrT == simtime.Infinity {
			break
		}
		if evT <= arrT {
			// Completions free containers (and release downstream
			// stages) the next arrival can see.
			rt.StepEvent()
			continue
		}
		if fromQueue {
			t := rt.pend.pop()
			rt.Place(t.Arrival, 0, t)
			continue
		}
		if rt.exp == nil {
			rt.Place(next.Arrival, 0, next)
		} else {
			for _, t := range rt.exp.Expand(next) {
				rt.Place(t.Arrival, 0, t)
			}
		}
		next, more = src.Next()
	}
	return rt.eng.Now(), trace.Err(src)
}

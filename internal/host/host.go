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
//     on a single (time, sequence) hook queue and precede same-instant
//     source arrivals, because they originate from earlier completions;
//   - at an arrival, stages hook in pipeline order: Expand rewrites the
//     admitted invocation, then each BeforeSubmit may delay the
//     engine-visible arrival (cold starts); at a completion, OnFinish
//     runs in the same pipeline order.
//
// The public drivers are thin shells over this core: lifecycle.Run and
// chain.Run are stage configurations of Runtime.Drive, the faas
// platform composes both, and the cluster coordinator drives many
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
// Stages that rewrite admitted invocations additionally implement
// Expander; stages that release follow-up arrivals implement Binder to
// receive the Runtime they feed.
type Stage interface {
	// BeforeSubmit fires when t is about to enter the engine at instant
	// at. The returned delay postpones the engine-visible arrival — a
	// container cold start — without moving the instant the stage
	// itself observed. Stages must not retain t past OnFinish.
	BeforeSubmit(at simtime.Time, t *task.Task) time.Duration
	// OnFinish fires at t's completion instant.
	OnFinish(at simtime.Time, t *task.Task)
}

// Expander is implemented by stages that rewrite an admitted source
// invocation into the task(s) actually entering the host — the chain
// stage expands a request into its workflow's root stages. Only source
// admissions are expanded; tasks released mid-run re-enter as-is.
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
	eng       *cpusim.Engine
	stages    []Stage
	expanders []Expander
	pend      hookQueue // (time, seq)-ordered released arrivals
	seq       uint64
	queued    int // assigned but not yet submitted (sharded windows)
}

// New wraps eng in a runtime running the given stage pipeline. Stages
// hook in the order given; stages implementing Binder are bound here.
func New(eng *cpusim.Engine, stages ...Stage) *Runtime {
	rt := &Runtime{eng: eng, stages: stages}
	for _, s := range stages {
		if ex, ok := s.(Expander); ok {
			rt.expanders = append(rt.expanders, ex)
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

// Engine returns the wrapped engine (for metrics extraction and the
// read-only views dispatchers decide from).
func (rt *Runtime) Engine() *cpusim.Engine { return rt.eng }

// Queued is the number of invocations assigned to this host but not
// yet submitted to its engine — nonzero only inside sharded windows,
// where delivery is deferred to the owning shard (see Group.Enqueue).
func (rt *Runtime) Queued() int { return rt.queued }

// NextEventTime is the runtime's key in a next-event ordering: the
// engine's earliest pending event while it has unfinished work, and
// simtime.Infinity otherwise. Idle engines may hold re-arming timer
// events (e.g. the SFS monitor) that would spin a driver forever;
// parking them at Infinity is the contract every drive loop keys on.
func (rt *Runtime) NextEventTime() simtime.Time { return rt.eng.NextPendingEventTime() }

// StepEvent fires the engine's earliest pending event.
func (rt *Runtime) StepEvent() bool { return rt.eng.StepEvent() }

// Place runs the pipeline's BeforeSubmit hooks for t at instant at —
// each returned delay postpones the engine-visible arrival — and hands
// the task to the engine. This is the single submit path shared by
// every driver: the standalone Drive loop and the cluster's delivery in
// either mode.
func (rt *Runtime) Place(at simtime.Time, t *task.Task) {
	for _, s := range rt.stages {
		if d := s.BeforeSubmit(at, t); d > 0 {
			t.Arrival += d
		}
	}
	rt.eng.Submit(t)
}

// Release queues t as a future arrival of this runtime at t.Arrival.
// Stages call it from OnFinish (workflow fan-out); the Drive loop
// submits released tasks in (arrival time, release sequence) order, so
// same-instant releases enter in the order their upstream completions
// produced them — the tie-break that keeps replays byte-identical.
func (rt *Runtime) Release(t *task.Task) {
	rt.pend.push(t, rt.seq)
	rt.seq++
}

// expand applies the pipeline's Expanders to an admitted source
// invocation in order. With no expanders the invocation passes through
// untouched (and the caller takes an allocation-free path).
func (rt *Runtime) expand(t *task.Task) []*task.Task {
	tasks := []*task.Task{t}
	for _, ex := range rt.expanders {
		var out []*task.Task
		for _, tt := range tasks {
			out = append(out, ex.Expand(tt)...)
		}
		tasks = out
	}
	return tasks
}

// Drive pulls src to exhaustion through the stage pipeline and runs
// the engine to completion on one event loop — the standalone (1-host)
// driver every single-host entry point shells out to. Engine events
// fire before same-instant arrivals, and released arrivals precede
// same-instant source arrivals, exactly as the cluster coordinator
// orders them. Turnarounds measured afterwards are end-to-end: original
// arrivals are restored, so stage-injected delays (cold starts) count
// against the request.
func (rt *Runtime) Drive(src trace.Source) (simtime.Time, error) {
	orig := map[*task.Task]simtime.Time{}
	var tasks []*task.Task
	submit := func(t *task.Task) {
		orig[t] = t.Arrival
		tasks = append(tasks, t)
		rt.Place(t.Arrival, t)
	}

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
			submit(rt.pend.pop())
			continue
		}
		if len(rt.expanders) == 0 {
			submit(next)
		} else {
			for _, t := range rt.expand(next) {
				submit(t)
			}
		}
		next, more = src.Next()
	}
	if err := trace.Err(src); err != nil {
		return rt.eng.Now(), err
	}
	// Restore end-to-end arrivals: turnaround and RTE must charge
	// stage-injected delays to the request, not hide them.
	for _, t := range tasks {
		t.Arrival = orig[t]
	}
	return rt.eng.Now(), nil
}

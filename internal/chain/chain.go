// Package chain is the function-chain workflow layer: real serverless
// applications are rarely single invocations — a request fans through a
// chain (or DAG) of functions, and the end-to-end response time the
// user sees is the composition of every stage's queueing delay. The
// paper evaluates per-invocation metrics; this layer measures how the
// scheduler's per-stage wins (or losses) compound across stages, the
// regime data-driven serverless scheduling targets (Przybylski et al.)
// and where wrong decisions are most costly under bursty load (Kaffes
// et al.).
//
// A workflow Spec is a DAG of Stages declared per application: when a
// request for that application arrives, every stage's payload is
// sampled up front (from internal/dist, in stage order, so sampling
// never depends on scheduling), the root stages are released at the
// request's arrival, and each completion releases the downstream stages
// whose dependencies are all met — fan-out when several stages depend
// on one, fan-in when one stage depends on several. The Injector is the
// driver-facing state machine: Expand turns a request into its root
// stage tasks, OnFinish turns a completion into the stage tasks it
// releases, and Workflows reports per-workflow end-to-end turnaround
// and slowdown (internal/metrics.Workflow).
//
// Determinism: an Injector is a deterministic function of its Config
// and the sequence of Expand/OnFinish calls. Drivers issue those calls
// in simulation order — chain.Run and internal/cluster both process
// completions before same-instant arrivals — so the same seed and
// chain spec replay byte-identically, standalone or across a cluster.
package chain

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/task"
)

// Stage is one function of a workflow DAG.
type Stage struct {
	// Name labels the stage's invocations (their task App, which is
	// also the warm-pool key in internal/lifecycle). Empty derives
	// "<requestApp>#<index>", so one Spec can serve many applications.
	Name string
	// Service samples the stage's CPU demand per workflow instance. Nil
	// inherits the triggering request's service time, so chains built
	// from nil-Service stages replay the request's sampled payload at
	// every stage.
	Service dist.Distribution
	// Deps are the upstream stage indices that must all complete before
	// this stage is released. Each must be smaller than the stage's own
	// index (edges point forward), which makes every Spec acyclic by
	// construction. An empty Deps marks a root stage, released at the
	// request's arrival.
	Deps []int
}

// Spec is a workflow: a DAG of stages in topological order.
type Spec struct {
	Stages []Stage
}

// Validate checks the spec's structural invariants: at least one stage,
// and only forward, non-duplicate dependency edges.
func (s Spec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("chain: spec needs at least one stage")
	}
	for i, st := range s.Stages {
		seen := map[int]bool{}
		for _, d := range st.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("chain: stage %d depends on %d; edges must point forward (dep < stage)", i, d)
			}
			if seen[d] {
				return fmt.Errorf("chain: stage %d lists dependency %d twice", i, d)
			}
			seen[d] = true
		}
	}
	return nil
}

// ServiceFactor returns the chain's mean total CPU demand as a multiple
// of the triggering request's mean service time: nil-Service stages
// contribute 1x, sampled stages contribute Mean()/rootMean. Load
// calibration divides a per-request offered load by this factor so a
// chain workload offers the requested load in aggregate.
func (s Spec) ServiceFactor(rootMean time.Duration) float64 {
	f := 0.0
	for _, st := range s.Stages {
		if st.Service == nil || rootMean <= 0 {
			f++
			continue
		}
		f += float64(st.Service.Mean()) / float64(rootMean)
	}
	return f
}

// String implements fmt.Stringer with the spec's shape.
func (s Spec) String() string {
	edges := 0
	for _, st := range s.Stages {
		edges += len(st.Deps)
	}
	return fmt.Sprintf("chain(%d stages, %d edges)", len(s.Stages), edges)
}

// Config assembles an Injector.
type Config struct {
	// Specs maps request application names to their workflows. Requests
	// for unlisted applications pass through as plain invocations.
	Specs map[string]Spec
	// Default, when non-nil, applies to every application without a
	// Specs entry — how the CLIs chain an entire trace behind one
	// -chain flag.
	Default *Spec
	// Seed drives stage payload sampling.
	Seed uint64
}

// stageIDBase is the first task ID the Injector assigns to sampled
// stage tasks. Root stages keep their request's ID; the high range
// keeps injected IDs disjoint from any realistic trace's IDs.
const stageIDBase = 1 << 30

// compiled is a validated spec plus its downstream adjacency.
type compiled struct {
	spec     Spec
	children [][]int // children[i] = stages that list i in Deps
}

func compile(spec Spec) (*compiled, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &compiled{spec: spec, children: make([][]int, len(spec.Stages))}
	for i, st := range spec.Stages {
		for _, d := range st.Deps {
			c.children[d] = append(c.children[d], i)
		}
	}
	return c, nil
}

// instance is one in-flight workflow. Its end-to-end record lives in
// Injector.workflows, so a finished instance holds nothing a report
// needs and is recycled with its per-stage slices.
type instance struct {
	c         *compiled
	wf        *metrics.Workflow // the workflow's record in Injector.workflows
	tasks     []*task.Task
	waiting   []int // unfinished dependency count per stage
	remaining int
}

// records holds every workflow's end-to-end record in request order, in
// blocks that never move, so an instance can point at its record and a
// growing run copies no records. Blocks double from 16 records up to
// 1,024, so a small run allocates little and a large one one block per
// 1,024 workflows.
type records struct {
	blocks [][]metrics.Workflow
	n      int
}

// add appends w and returns where it lives.
func (r *records) add(w metrics.Workflow) *metrics.Workflow {
	last := len(r.blocks) - 1
	if last < 0 || len(r.blocks[last]) == cap(r.blocks[last]) {
		size := 16
		if last >= 0 {
			size = min(2*cap(r.blocks[last]), 1024)
		}
		r.blocks = append(r.blocks, make([]metrics.Workflow, 0, size))
		last++
	}
	r.blocks[last] = append(r.blocks[last], w)
	r.n++
	return &r.blocks[last][len(r.blocks[last])-1]
}

// all returns a copy of every record in request order.
func (r *records) all() []metrics.Workflow {
	out := make([]metrics.Workflow, 0, r.n)
	for _, b := range r.blocks {
		out = append(out, b...)
	}
	return out
}

// stageRef locates a task inside its workflow.
type stageRef struct {
	inst  *instance
	stage int
}

// Injector is the workflow state machine one simulation run drives. It
// is single-use and not safe for concurrent use; drivers call Expand
// for requests and OnFinish for completions in simulation order.
type Injector struct {
	specs     map[string]*compiled
	def       *compiled
	r         *rng.RNG
	nextID    int
	byTask    map[*task.Task]stageRef
	names     map[string][]string // request app -> its stages' task Apps
	workflows records
	pending   int
	// arena holds the sampled stage tasks (every stage but stage 0,
	// which is the request task itself).
	arena task.Arena
	// free holds finished workflows' instances, per-stage slices
	// included, for Expand to reuse.
	free []*instance
	// Scratch reused across calls: the slices Expand and OnFinish
	// return, and Expand's critical-path lengths.
	roots, released []*task.Task
	longest         []time.Duration
}

// NewInjector validates every spec and builds the injector.
func NewInjector(cfg Config) (*Injector, error) {
	in := &Injector{
		specs:  map[string]*compiled{},
		r:      rng.New(cfg.Seed ^ 0xc4a1),
		nextID: stageIDBase,
		byTask: map[*task.Task]stageRef{},
		names:  map[string][]string{},
	}
	for app, spec := range cfg.Specs {
		c, err := compile(spec)
		if err != nil {
			return nil, fmt.Errorf("%w (app %q)", err, app)
		}
		in.specs[app] = c
	}
	if cfg.Default != nil {
		c, err := compile(*cfg.Default)
		if err != nil {
			return nil, fmt.Errorf("%w (default spec)", err)
		}
		in.def = c
	}
	return in, nil
}

// lookup resolves the workflow spec for a request app (nil = plain
// invocation).
func (in *Injector) lookup(app string) *compiled {
	if c, ok := in.specs[app]; ok {
		return c
	}
	return in.def
}

// stageNames returns the task App of each stage of reqApp's workflow
// c: the stage's Name, or "<reqApp>#<index>" when it has none. The
// names are formatted once per request app, not once per request.
func (in *Injector) stageNames(reqApp string, c *compiled) []string {
	if names, ok := in.names[reqApp]; ok {
		return names
	}
	names := make([]string, len(c.spec.Stages))
	for i, sg := range c.spec.Stages {
		if names[i] = sg.Name; names[i] == "" {
			names[i] = fmt.Sprintf("%s#%d", reqApp, i)
		}
	}
	in.names[reqApp] = names
	return names
}

// Expand consumes one request invocation. For an application with a
// registered spec it instantiates the workflow — sampling every stage's
// payload now, in stage order, so the sample stream depends only on
// request order — and returns the root stage tasks, all arriving at the
// request's arrival time (the request task itself becomes stage 0).
// Requests for unregistered applications are returned unchanged and
// untracked. Drivers must call Expand in arrival order. The returned
// slice is the injector's own and is valid until the next Expand.
func (in *Injector) Expand(t *task.Task) []*task.Task {
	c := in.lookup(t.App)
	in.roots = in.roots[:0]
	if c == nil {
		in.roots = append(in.roots, t)
		return in.roots
	}

	reqApp, reqService := t.App, t.Service
	inst := in.newInstance(c)
	wf := in.workflows.add(metrics.Workflow{
		ID:      t.ID,
		App:     reqApp,
		Stages:  len(c.spec.Stages),
		Arrival: t.Arrival,
		Finish:  -1,
	})

	names := in.stageNames(reqApp, c)
	longest := in.longest[:0]
	for i, sg := range c.spec.Stages {
		svc := reqService
		if sg.Service != nil {
			if svc = sg.Service.Sample(in.r); svc <= 0 {
				svc = time.Millisecond
			}
		}
		var st *task.Task
		if i == 0 {
			// The request task is stage 0: it keeps its ID (the
			// workflow's ID) and, when the stage inherits its service,
			// its I/O profile.
			st = t
			if sg.Service != nil {
				st.Service = svc
				st.IOOps = nil // sampled payloads replace the request's I/O shape
			}
		} else {
			st = in.arena.New(in.nextID, t.Arrival, svc)
			in.nextID++
			st.Weight = t.Weight
		}
		st.App = names[i]
		inst.tasks[i] = st
		inst.waiting[i] = len(sg.Deps)
		in.byTask[st] = stageRef{inst: inst, stage: i}
		if len(sg.Deps) == 0 {
			in.roots = append(in.roots, st)
		}

		// Critical path: a stage's earliest uncontended completion is
		// its own ideal duration after its slowest dependency.
		longest = append(longest, st.IdealDuration())
		for _, d := range sg.Deps {
			if longest[d]+st.IdealDuration() > longest[i] {
				longest[i] = longest[d] + st.IdealDuration()
			}
		}
		if longest[i] > wf.Ideal {
			wf.Ideal = longest[i]
		}
	}
	inst.wf = wf
	in.longest = longest
	in.pending++
	return in.roots
}

// newInstance returns an instance of workflow c with per-stage slices
// whose contents Expand overwrites. It reuses a finished workflow's
// instance, and that instance's slices when they are large enough.
func (in *Injector) newInstance(c *compiled) *instance {
	n := len(c.spec.Stages)
	var inst *instance
	if k := len(in.free); k > 0 {
		inst = in.free[k-1]
		in.free = in.free[:k-1]
	} else {
		inst = new(instance)
	}
	if cap(inst.tasks) < n {
		inst.tasks, inst.waiting = make([]*task.Task, n), make([]int, n)
	}
	inst.c, inst.remaining = c, n
	inst.tasks, inst.waiting = inst.tasks[:n], inst.waiting[:n]
	return inst
}

// OnFinish records a completed invocation at its Finish time and
// returns the downstream stage tasks it releases, each arriving at the
// completion instant. It is safe to call for tasks that are not chain
// stages (returns nil). The last completion of a workflow seals its
// end-to-end result and recycles the workflow's instance. The returned
// slice is the injector's own and is valid until the next OnFinish.
func (in *Injector) OnFinish(t *task.Task) []*task.Task {
	ref, ok := in.byTask[t]
	if !ok {
		return nil
	}
	delete(in.byTask, t)
	inst := ref.inst
	inst.remaining--
	if inst.remaining == 0 {
		// The last stage to finish has no children left to release.
		inst.wf.Finish = t.Finish
		in.pending--
		clear(inst.tasks)
		in.free = append(in.free, inst)
		return nil
	}
	in.released = in.released[:0]
	for _, s := range inst.c.children[ref.stage] {
		inst.waiting[s]--
		if inst.waiting[s] > 0 {
			continue
		}
		inst.tasks[s].Arrival = t.Finish
		in.released = append(in.released, inst.tasks[s])
	}
	return in.released
}

// Pending returns the number of workflows with unfinished stages.
func (in *Injector) Pending() int { return in.pending }

// Workflows returns every workflow's end-to-end result in request
// arrival order (unfinished workflows report Finish -1).
func (in *Injector) Workflows() []metrics.Workflow {
	return in.workflows.all()
}

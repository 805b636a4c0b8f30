package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Renewal parity: an engine whose scheduler implements cpusim.Renewer
// holds pure slice renewals on their cores instead of queueing events
// for them. These tests run every input twice, once with each scheduler
// as it is and once wrapped in plainSched, which hides the Renewer so
// every renewal takes the event path, and require the two runs to agree
// on everything a run reports.

// plainSched hides a scheduler's cpusim.Renewer.
type plainSched struct{ cpusim.Scheduler }

// paritySched is one scheduler configuration of the parity matrix; sfs
// is set when the scheduler is SFS, whose Stat the runs compare.
type paritySched struct {
	name string
	cfs  bool
	sfs  func() core.Config
}

var paritySchedulers = []paritySched{
	{name: "CFS", cfs: true},
	{name: "SFS", sfs: core.DefaultConfig},
	{name: "SFS-perCoreQueue", sfs: func() core.Config {
		c := core.DefaultConfig()
		c.PerCoreQueue = true
		return c
	}},
	{name: "SFS-ioOblivious", sfs: func() core.Config {
		c := core.DefaultConfig()
		c.IOAware = false
		return c
	}},
	{name: "SFS-ioOblivious-overloaded", sfs: func() core.Config {
		// A worker parked on a sleeping FILTER task until its slice
		// deadline can come free with an overloaded request queued,
		// which the next slice expiry hands to CFS.
		c := core.DefaultConfig()
		c.IOAware = false
		c.OverloadFactor = 0.1
		return c
	}},
	{name: "SFS-noHybrid", sfs: func() core.Config {
		c := core.DefaultConfig()
		c.Hybrid = false
		return c
	}},
	{name: "SFS-fixed", sfs: func() core.Config {
		c := core.DefaultConfig()
		c.FixedSlice = 10 * time.Millisecond
		return c
	}},
	{name: "SFS-window", sfs: func() core.Config {
		c := core.DefaultConfig()
		c.WindowSize = 8
		return c
	}},
	{name: "SFS-on-EEVDF", sfs: func() core.Config {
		c := core.DefaultConfig()
		c.SecondLevel = sched.NewEEVDF()
		return c
	}},
}

// parityInput is one fuzzed scenario: a trace and an engine variant.
type parityInput struct {
	seed    uint64
	n       int
	grid    time.Duration
	variant int
}

// engineConfig decodes the input's engine variant: core count, host
// speed, context-switch cost, and a deadline that stops the run while
// long tasks are mid-chain.
func (in parityInput) engineConfig(tasks []*task.Task) cpusim.Config {
	cfg := cpusim.Config{
		Cores: 1 + in.variant%4,
		Speed: []float64{1, 0.5, 1.5}[in.variant/4%3],
	}
	if in.variant/12%2 == 1 {
		cfg.CtxSwitchCost = 30 * time.Microsecond
	}
	if in.variant/24%2 == 1 {
		cfg.Deadline = tasks[len(tasks)-1].Arrival/2 + 37*time.Millisecond
	}
	return cfg
}

// renewalTrace builds n invocations whose arrivals, services and I/O
// sit on a coarse grid, so arrivals, wakes, SFS polls and CFS slice
// expiries often fall on one instant and their order is decided by
// queue sequence numbers; a third of the tasks run long enough for
// chains of slice renewals, and some sleep long enough for a chain to
// start while their SFS worker waits for them.
func renewalTrace(in parityInput) []*task.Task {
	r := rng.New(in.seed)
	tasks := make([]*task.Task, in.n)
	var at simtime.Time
	for i := range tasks {
		at += time.Duration(r.Intn(4)) * in.grid
		svc := time.Duration(1+r.Intn(30)) * time.Millisecond
		if r.Intn(3) == 0 {
			svc = time.Duration(50+r.Intn(400)) * time.Millisecond
		}
		t := task.New(i, at, svc)
		t.App = fmt.Sprintf("app%d", r.Intn(3))
		if r.Intn(4) == 0 {
			ioAt := time.Duration(r.Intn(int(svc/time.Millisecond))) * time.Millisecond
			t.WithIO(ioAt, time.Duration(1+r.Intn(150))*time.Millisecond)
		}
		tasks[i] = t
	}
	return tasks
}

// parityOutcome is everything one run reports: per-task records, each
// SFS instance's Stat, engine counters, makespan, lifecycle stats and,
// for cluster runs, the cluster result's own fields.
type parityOutcome struct {
	Tasks      []task.Task
	SFS        []core.Stats
	Engines    []engineCounters
	Makespan   simtime.Time
	Aborted    bool
	Lifecycle  lifecycle.Stats
	Cluster    []HostResult
	QueueDelay [2]time.Duration
	QueueMax   int

	held int64 // renewals passed without an event, across engines
}

type engineCounters struct {
	Dispatches, CtxSwitches int64
	SwitchOverhead, Busy    time.Duration
	Now                     simtime.Time
}

func countersOf(eng *cpusim.Engine) engineCounters {
	return engineCounters{eng.TotalDispatches, eng.TotalCtxSwitches, eng.SwitchOverhead, eng.BusyTime(), eng.Now()}
}

// taskValues copies the tasks' records, unexported accounting included.
func taskValues(ts []*task.Task) []task.Task {
	out := make([]task.Task, len(ts))
	for i, t := range ts {
		out[i] = *t
	}
	return out
}

// instances makes one scheduler per call and remembers the SFS
// instances so their Stat can be compared after the run.
type instances struct {
	ps    paritySched
	plain bool
	sfs   []*core.SFS
}

func (b *instances) new() cpusim.Scheduler {
	var s cpusim.Scheduler
	if b.ps.cfs {
		s = sched.NewCFS()
	} else {
		x := core.New(b.ps.sfs())
		b.sfs = append(b.sfs, x)
		s = x
	}
	if b.plain {
		return plainSched{s}
	}
	return s
}

func (b *instances) stats() []core.Stats {
	var out []core.Stats
	for _, s := range b.sfs {
		out = append(out, s.Stat)
	}
	return out
}

// parityDriver runs one input under one scheduler configuration.
type parityDriver struct {
	name string
	run  func(in parityInput, tasks []*task.Task, b *instances) (parityOutcome, error)
}

const parityTTL = 30 * time.Millisecond

func parityManager(seed uint64) *lifecycle.Manager {
	m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(parityTTL), Seed: seed})
	if err != nil {
		panic(err)
	}
	return m
}

// clusterDriver runs the input on three hosts under dispatcher name.
func clusterDriver(name, dispatcher string, shards int, withLifecycle bool) parityDriver {
	return parityDriver{name: name, run: func(in parityInput, tasks []*task.Task, b *instances) (parityOutcome, error) {
		ecfg := in.engineConfig(tasks)
		d, err := NewDispatcher(dispatcher, FactoryConfig{Hosts: 3, Seed: in.seed})
		if err != nil {
			return parityOutcome{}, err
		}
		cfg := Config{
			Hosts: 3, CoresPerHost: ecfg.Cores,
			Deadline:     ecfg.Deadline,
			NewScheduler: b.new,
			Dispatcher:   d,
			Shards:       shards,
		}
		if ecfg.Speed != 1 {
			cfg.Speeds = []float64{ecfg.Speed, 1, ecfg.Speed}
		}
		if withLifecycle {
			cfg.NewLifecycle = func() *lifecycle.Manager { return parityManager(in.seed) }
		}
		cl, err := New(cfg)
		if err != nil {
			return parityOutcome{}, err
		}
		res, err := cl.Run(trace.FromTasks("parity", tasks))
		if err != nil {
			return parityOutcome{}, err
		}
		out := parityOutcome{
			Tasks:      taskValues(res.Merged.Tasks),
			SFS:        b.stats(),
			Makespan:   res.Makespan,
			Aborted:    res.Aborted,
			Lifecycle:  res.Lifecycle,
			Cluster:    res.PerHost,
			QueueDelay: [2]time.Duration{res.QueueDelayMax, res.QueueDelayMean},
			QueueMax:   res.CentralQueueMax,
		}
		for i := range out.Cluster {
			out.Cluster[i].Run.Tasks = nil // compared through Tasks
		}
		for _, n := range cl.nodes {
			out.Engines = append(out.Engines, countersOf(n.eng))
			out.held += n.eng.HeldRenewals
		}
		return out, nil
	}}
}

var parityDrivers = []parityDriver{
	{name: "Engine.Run", run: func(in parityInput, tasks []*task.Task, b *instances) (parityOutcome, error) {
		eng := cpusim.NewEngine(in.engineConfig(tasks), b.new())
		eng.Submit(trace.CloneTasks(tasks)...)
		makespan := eng.Run()
		return parityOutcome{
			Tasks: taskValues(eng.Tasks()), SFS: b.stats(), Engines: []engineCounters{countersOf(eng)},
			Makespan: makespan, Aborted: eng.Aborted(), held: eng.HeldRenewals,
		}, nil
	}},
	{name: "lifecycle.Run", run: func(in parityInput, tasks []*task.Task, b *instances) (parityOutcome, error) {
		cfg := in.engineConfig(tasks)
		cfg.Deadline = 0 // Drive runs to completion
		eng := cpusim.NewEngine(cfg, b.new())
		mgr := parityManager(in.seed)
		makespan, err := lifecycle.Run(trace.FromTasks("parity", tasks), mgr, eng)
		return parityOutcome{
			Tasks: taskValues(eng.Tasks()), SFS: b.stats(), Engines: []engineCounters{countersOf(eng)},
			Makespan: makespan, Lifecycle: mgr.Stats(), held: eng.HeldRenewals,
		}, err
	}},
	clusterDriver("serial JSQ", "JSQ", 0, true),
	clusterDriver("windowed JSQ", "JSQ", 2, true),
	clusterDriver("windowed PULL", "PULL", 2, true),
	clusterDriver("windowed WARMFIRST", "WARMFIRST", 2, true),
	clusterDriver("batched RR", "RR", 2, false),
}

// checkRenewalParity runs in under every scheduler and driver, as-is
// and with renewals on the event path, fails t on any difference, and
// returns the renewals each driver held.
func checkRenewalParity(t *testing.T, in parityInput) map[string]int64 {
	t.Helper()
	tasks := renewalTrace(in)
	held := map[string]int64{}
	for _, ps := range paritySchedulers {
		for _, d := range parityDrivers {
			got, err := d.run(in, tasks, &instances{ps: ps})
			if err != nil {
				t.Fatalf("%s %s: %v", ps.name, d.name, err)
			}
			want, err := d.run(in, tasks, &instances{ps: ps, plain: true})
			if err != nil {
				t.Fatalf("%s %s (event path): %v", ps.name, d.name, err)
			}
			if want.held != 0 {
				t.Fatalf("%s %s: the event path held %d renewals", ps.name, d.name, want.held)
			}
			held[d.name] += got.held
			got.held = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s on %+v: held renewals changed the run\n%s", ps.name, d.name, in, firstOutcomeDiff(got, want))
			}
		}
	}
	return held
}

// firstOutcomeDiff names the first task or field on which two outcomes
// differ.
func firstOutcomeDiff(got, want parityOutcome) string {
	for i := range min(len(got.Tasks), len(want.Tasks)) {
		if !reflect.DeepEqual(got.Tasks[i], want.Tasks[i]) {
			return fmt.Sprintf("task %d:\n  held:  %+v\n  event: %+v", want.Tasks[i].ID, got.Tasks[i], want.Tasks[i])
		}
	}
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range g.NumField() {
		if f := g.Type().Field(i); f.IsExported() && !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			return fmt.Sprintf("%s:\n  held:  %+v\n  event: %+v", f.Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return "no field differs"
}

// parityCorpus covers every engine variant: core counts 1–4, speeds
// 0.5 and 1.5, a context-switch cost and a mid-run deadline, on grids
// from 1 ms to CFS's 24 ms slice. The first input fails when sharded
// windows skip the instants of held renewals (WARMFIRST then reads warm
// pools at a lifecycle clock that lags the event path's), and when SFS
// renews a second-level task while an overloaded request waits in the
// FILTER queue, which the event path would hand to CFS.
var parityCorpus = []parityInput{
	{seed: 6, n: 42, grid: 23 * time.Millisecond, variant: 20},
	{seed: 1, n: 41, grid: 22 * time.Millisecond, variant: 20},
	{seed: 1, n: 40, grid: time.Millisecond, variant: 1},
	{seed: 2, n: 48, grid: 4 * time.Millisecond, variant: 3},
	{seed: 3, n: 32, grid: 24 * time.Millisecond, variant: 0},
	{seed: 4, n: 40, grid: 2 * time.Millisecond, variant: 5},
	{seed: 5, n: 40, grid: 8 * time.Millisecond, variant: 10},
	{seed: 6, n: 48, grid: 4 * time.Millisecond, variant: 13},
	{seed: 7, n: 40, grid: 12 * time.Millisecond, variant: 26},
	{seed: 8, n: 48, grid: time.Millisecond, variant: 43},
	{seed: 9, n: 40, grid: 4 * time.Millisecond, variant: 31},
}

// TestRenewalParity runs the corpus and requires every driver to have
// held renewals somewhere in it, so the parity it checks is not vacuous.
func TestRenewalParity(t *testing.T) {
	held := map[string]int64{}
	for _, in := range parityCorpus {
		for d, n := range checkRenewalParity(t, in) {
			held[d] += n
		}
	}
	for _, d := range parityDrivers {
		if held[d.name] == 0 {
			t.Errorf("%s held no renewals across the corpus", d.name)
		}
	}
}

// FuzzRenewalParity explores traces and engine variants beyond the
// corpus.
func FuzzRenewalParity(f *testing.F) {
	for _, in := range parityCorpus[:3] {
		f.Add(in.seed, uint8(in.n), uint8(in.grid/time.Millisecond), uint8(in.variant))
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, gridMS, variant uint8) {
		in := parityInput{
			seed:    seed,
			n:       1 + int(n)%64,
			grid:    time.Duration(1+int(gridMS)%24) * time.Millisecond,
			variant: int(variant) % 48,
		}
		checkRenewalParity(t, in)
	})
}

package chain

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// oneRequest returns a source with a single request for app at t=0.
func oneRequest(app string, svc time.Duration) trace.Source {
	t := task.New(0, 0, svc)
	t.App = app
	return trace.FromTasks("one", []*task.Task{t})
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"empty", Spec{}, false},
		{"single", Spec{Stages: []Stage{{}}}, true},
		{"forward", Spec{Stages: []Stage{{}, {Deps: []int{0}}}}, true},
		{"self", Spec{Stages: []Stage{{}, {Deps: []int{1}}}}, false},
		{"backward", Spec{Stages: []Stage{{Deps: []int{0}}}}, false},
		{"negative", Spec{Stages: []Stage{{}, {Deps: []int{-1}}}}, false},
		{"duplicate", Spec{Stages: []Stage{{}, {}, {Deps: []int{0, 0}}}}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestDiamondTiming: a fan-out/fan-in diamond of constant-service
// stages on an uncontended FIFO host must replay its exact schedule:
// branches released at the entry's completion, the join at the slowest
// branch's completion, end-to-end equal to the critical path
// (slowdown 1.0).
func TestDiamondTiming(t *testing.T) {
	spec := Spec{Stages: []Stage{
		{Name: "entry", Service: dist.Constant{Value: ms(10)}},
		{Name: "left", Service: dist.Constant{Value: ms(20)}, Deps: []int{0}},
		{Name: "right", Service: dist.Constant{Value: ms(20)}, Deps: []int{0}},
		{Name: "join", Service: dist.Constant{Value: ms(5)}, Deps: []int{1, 2}},
	}}
	inj, err := NewInjector(Config{Specs: map[string]Spec{"wf": spec}})
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 4}, sched.NewFIFO())
	if _, err := Run(oneRequest("wf", ms(999)), inj, nil, eng); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Tasks()); got != 4 {
		t.Fatalf("engine saw %d tasks, want 4 stages", got)
	}
	byApp := map[string]*task.Task{}
	for _, tk := range eng.Tasks() {
		byApp[tk.App] = tk
	}
	// The entry stage is the request task with its service overridden by
	// the stage distribution.
	if byApp["entry"].Service != ms(10) {
		t.Fatalf("entry service %v, want the sampled 10ms", byApp["entry"].Service)
	}
	for app, wantArr := range map[string]time.Duration{
		"entry": 0, "left": ms(10), "right": ms(10), "join": ms(30),
	} {
		if got := time.Duration(byApp[app].Arrival); got != wantArr {
			t.Errorf("%s arrival %v, want %v", app, got, wantArr)
		}
	}
	wfs := inj.Workflows()
	if len(wfs) != 1 {
		t.Fatalf("%d workflows, want 1", len(wfs))
	}
	w := wfs[0]
	if !w.Done() || w.Stages != 4 {
		t.Fatalf("workflow %+v not complete with 4 stages", w)
	}
	if w.Turnaround() != ms(35) {
		t.Errorf("end-to-end turnaround %v, want 35ms (10+20+5)", w.Turnaround())
	}
	if w.Ideal != ms(35) {
		t.Errorf("critical-path ideal %v, want 35ms", w.Ideal)
	}
	if s := w.Slowdown(); s != 1.0 {
		t.Errorf("slowdown %v, want exactly 1.0 on an uncontended host", s)
	}
	if inj.Pending() != 0 {
		t.Errorf("%d workflows still pending", inj.Pending())
	}
}

// TestUnregisteredAppPassesThrough: requests without a spec run as
// plain invocations and are not tracked as workflows.
func TestUnregisteredAppPassesThrough(t *testing.T) {
	inj, err := NewInjector(Config{Specs: map[string]Spec{"wf": Linear(FamilyConfig{Depth: 2})}})
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO())
	if _, err := Run(oneRequest("plain", ms(7)), inj, nil, eng); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Tasks()); got != 1 {
		t.Fatalf("engine saw %d tasks, want 1 pass-through invocation", got)
	}
	if len(inj.Workflows()) != 0 {
		t.Fatal("pass-through invocation was tracked as a workflow")
	}
}

// TestLinearInheritsRequestService: nil-Service stages replay the
// request's own payload, and a depth-1 chain equals the plain task.
func TestLinearInheritsRequestService(t *testing.T) {
	inj, err := NewInjector(Config{Default: &Spec{Stages: []Stage{{}, {Deps: []int{0}}, {Deps: []int{1}}}}})
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 2}, sched.NewFIFO())
	if _, err := Run(oneRequest("f", ms(8)), inj, nil, eng); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Tasks()); got != 3 {
		t.Fatalf("engine saw %d tasks, want 3", got)
	}
	for _, tk := range eng.Tasks() {
		if tk.Service != ms(8) {
			t.Errorf("stage %s service %v, want inherited 8ms", tk.App, tk.Service)
		}
		if !strings.HasPrefix(tk.App, "f#") && tk.App != "f#0" {
			t.Errorf("derived stage name %q, want f#<idx>", tk.App)
		}
	}
	w := inj.Workflows()[0]
	if w.Turnaround() != ms(24) || w.Ideal != ms(24) {
		t.Fatalf("turnaround %v ideal %v, want 24ms/24ms", w.Turnaround(), w.Ideal)
	}
}

// TestStageIDsDisjointFromTrace: sampled stage tasks get IDs in the
// reserved high range; stage 0 keeps the request's ID (the workflow's
// ID).
func TestStageIDsDisjointFromTrace(t *testing.T) {
	inj, err := NewInjector(Config{Specs: map[string]Spec{"wf": Linear(FamilyConfig{Depth: 3})}})
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO())
	if _, err := Run(oneRequest("wf", ms(5)), inj, nil, eng); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, tk := range eng.Tasks() {
		if seen[tk.ID] {
			t.Fatalf("duplicate task ID %d", tk.ID)
		}
		seen[tk.ID] = true
		if tk.ID != 0 && tk.ID < stageIDBase {
			t.Fatalf("stage task ID %d collides with the trace ID range", tk.ID)
		}
	}
	if w := inj.Workflows()[0]; w.ID != 0 {
		t.Fatalf("workflow ID %d, want the request's ID 0", w.ID)
	}
}

// chainRun replays the synthetic chain family once and returns the
// workflow results plus every stage task's (arrival, finish) pairs.
func chainRun(t *testing.T, depth int, mgr *lifecycle.Manager) ([]time.Duration, []any) {
	t.Helper()
	tasks := make([]*task.Task, 40)
	for i := range tasks {
		tk := task.New(i, time.Duration(i)*ms(7), ms(5+i%11))
		tk.App = "wf"
		tasks[i] = tk
	}
	spec := Linear(FamilyConfig{Depth: depth, Service: dist.Uniform{Lo: ms(2), Hi: ms(30)}})
	spec.Stages[0].Service = nil
	inj, err := NewInjector(Config{Specs: map[string]Spec{"wf": spec}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 2}, sched.NewCFS())
	if _, err := Run(trace.FromTasks("det", tasks), inj, mgr, eng); err != nil {
		t.Fatal(err)
	}
	var stamps []time.Duration
	for _, tk := range eng.Tasks() {
		stamps = append(stamps, time.Duration(tk.Arrival), time.Duration(tk.Finish))
	}
	var wfs []any
	for _, w := range inj.Workflows() {
		wfs = append(wfs, w)
	}
	return stamps, wfs
}

// TestRunDeterministic: same seed + same chain spec must replay
// byte-identically — every stage timestamp and every workflow result —
// including under a container lifecycle manager.
func TestRunDeterministic(t *testing.T) {
	mkMgr := func() *lifecycle.Manager {
		m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(ms(500)), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, withLifecycle := range []bool{false, true} {
		var m1, m2 *lifecycle.Manager
		if withLifecycle {
			m1, m2 = mkMgr(), mkMgr()
		}
		s1, w1 := chainRun(t, 4, m1)
		s2, w2 := chainRun(t, 4, m2)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("lifecycle=%v: stage timestamps diverged", withLifecycle)
		}
		if !reflect.DeepEqual(w1, w2) {
			t.Fatalf("lifecycle=%v: workflow results diverged", withLifecycle)
		}
		if withLifecycle && m1.Stats() != m2.Stats() {
			t.Fatalf("lifecycle stats diverged:\n%+v\n%+v", m1.Stats(), m2.Stats())
		}
	}
}

// TestLifecycleWarmPoolsPerStage: each stage name is its own warm-pool
// key, so a second workflow reuses the first's containers stage by
// stage.
func TestLifecycleWarmPoolsPerStage(t *testing.T) {
	reqs := make([]*task.Task, 2)
	for i := range reqs {
		// Requests far enough apart that the first workflow's cold
		// starts have all resolved before the second arrives.
		tk := task.New(i, time.Duration(i)*10*time.Second, ms(10))
		tk.App = "wf"
		reqs[i] = tk
	}
	mgr, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(time.Minute), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(Config{Specs: map[string]Spec{"wf": Linear(FamilyConfig{Depth: 3})}})
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 4}, sched.NewFIFO())
	if _, err := Run(trace.FromTasks("warm", reqs), inj, mgr, eng); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.Invocations != 6 {
		t.Fatalf("%d container acquires, want 6 (2 workflows x 3 stages)", st.Invocations)
	}
	if st.ColdStarts != 3 || st.WarmHits() != 3 {
		t.Fatalf("cold=%d warm=%d, want 3 compulsory colds and 3 per-stage warm hits (stats %+v)",
			st.ColdStarts, st.WarmHits(), st)
	}
}

// TestFamilyRegistry: every presented name must resolve, lookups must
// be case-insensitive, and unknown names must list the choices. (The
// shared registry helper enforces name↔constructor sync structurally.)
func TestFamilyRegistry(t *testing.T) {
	for _, n := range sortedFamilyNames() {
		if _, err := NewFamily(n, FamilyConfig{}); err != nil {
			t.Errorf("name %s has no constructor: %v", n, err)
		}
		if _, err := NewFamily(strings.ToLower(n), FamilyConfig{}); err != nil {
			t.Errorf("NewFamily(%q) case-insensitive lookup failed: %v", strings.ToLower(n), err)
		}
	}
	_, err := NewFamily("nope", FamilyConfig{})
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, n := range FamilyNames() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not mention %s", err, n)
		}
	}
	// The shapes themselves must validate at representative depths.
	for _, n := range FamilyNames() {
		for _, depth := range []int{0, 1, 2, 7} {
			spec, err := NewFamily(n, FamilyConfig{Depth: depth})
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(); err != nil {
				t.Errorf("%s depth %d: %v", n, depth, err)
			}
		}
	}
}

// TestServiceFactor: nil-Service stages count 1x the request mean,
// sampled stages their own mean.
func TestServiceFactor(t *testing.T) {
	spec := Spec{Stages: []Stage{
		{},
		{Service: dist.Constant{Value: ms(30)}, Deps: []int{0}},
	}}
	if f := spec.ServiceFactor(ms(10)); f != 4 {
		t.Fatalf("ServiceFactor = %v, want 4 (1 inherited + 30ms/10ms)", f)
	}
	if f := Linear(FamilyConfig{Depth: 5}).ServiceFactor(ms(10)); f != 5 {
		t.Fatalf("all-inherit linear factor = %v, want 5", f)
	}
}

// TestInjectorReusesFinishedWorkflows drives requests of a two-stage
// chain and a four-stage diamond by hand, each finishing before the
// next arrives, so every Expand after the first reuses a finished
// workflow's instance, sometimes one sized for the other spec. Each
// workflow must still release exactly its own stages and report its
// own record across record blocks, and a steady-state request must
// allocate nothing but the stage tasks it creates.
func TestInjectorReusesFinishedWorkflows(t *testing.T) {
	inj, err := NewInjector(Config{Specs: map[string]Spec{
		"line":    {Stages: []Stage{{}, {Deps: []int{0}}}},
		"diamond": {Stages: []Stage{{}, {Deps: []int{0}}, {Deps: []int{0}}, {Deps: []int{1, 2}}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	var released [4]*task.Task
	// finish completes tk a millisecond later and returns the stages it
	// releases, copied out of the injector's scratch into released.
	finish := func(tk *task.Task) []*task.Task {
		now += time.Millisecond
		tk.Finish = now
		out := released[:0]
		for _, r := range inj.OnFinish(tk) {
			if r.Arrival != now {
				t.Fatalf("stage %d released at %v, want %v", r.ID, r.Arrival, now)
			}
			out = append(out, r)
		}
		return out
	}
	// request runs one workflow to its end, checking what each
	// completion releases.
	request := func(id int) {
		line := id%3 != 0
		req := task.New(id, now, ms(1))
		req.App = "diamond"
		if line {
			req.App = "line"
		}
		if roots := inj.Expand(req); len(roots) != 1 || roots[0] != req {
			t.Fatalf("request %d: roots %v, want the request alone", id, roots)
		}
		next := finish(req)
		if line {
			if len(next) != 1 || len(finish(next[0])) != 0 {
				t.Fatalf("request %d: the line did not release exactly its second stage", id)
			}
			return
		}
		if len(next) != 2 {
			t.Fatalf("request %d: the diamond's entry released %d stages, want both branches", id, len(next))
		}
		second := next[1]
		if len(finish(next[0])) != 0 {
			t.Fatalf("request %d: the first branch released the join early", id)
		}
		join := finish(second)
		if len(join) != 1 || len(finish(join[0])) != 0 {
			t.Fatalf("request %d: the second branch did not release exactly the join", id)
		}
	}
	for id := 0; id < 100; id++ {
		request(id)
	}
	if inj.Pending() != 0 || len(inj.byTask) != 0 {
		t.Fatalf("%d workflows and %d stages still tracked", inj.Pending(), len(inj.byTask))
	}
	wfs := inj.Workflows()
	if len(wfs) != 100 {
		t.Fatalf("%d workflow records, want 100", len(wfs))
	}
	for id, w := range wfs {
		stages := 2
		if id%3 == 0 {
			stages = 4
		}
		if w.ID != id || w.Stages != stages || w.Finish <= w.Arrival {
			t.Fatalf("record %d: %+v", id, w)
		}
	}
	// A warm line request allocates the request task the test builds
	// and the one stage task Expand creates, and nothing else.
	id := 1000
	if avg := testing.AllocsPerRun(50, func() { request(3*id + 1); id++ }); avg > 2 {
		t.Fatalf("a line request allocates %v objects, want 2: the request and its one stage task", avg)
	}
}

// TestArrivalUnchangedAtCompletion: on the standalone Drive loop with
// container cold starts and chain releases, every task carries its own
// arrival at its completion instant, not only once the run is over: a
// request the arrival its source emitted, a released stage the
// completion instant of the upstream stage that released it. So a
// finished task's Turnaround is end to end the moment it finishes.
func TestArrivalUnchangedAtCompletion(t *testing.T) {
	mgr, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(ms(40)), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec := Linear(FamilyConfig{Depth: 3, Service: dist.Uniform{Lo: ms(2), Hi: ms(30)}})
	inj, err := NewInjector(Config{Specs: map[string]Spec{"wf": spec}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*task.Task, 60)
	for i := range reqs {
		reqs[i] = task.New(i, time.Duration(i)*ms(9), ms(4+i%13))
		reqs[i].App = "wf"
		if i%4 == 3 {
			reqs[i].App = "solo" // no workflow: passes through
		}
	}
	src := trace.FromTasks("reqs", reqs)
	arrivals := map[*task.Task]simtime.Time{} // source invocations
	recorded := trace.New("recorded", func() (*task.Task, bool) {
		tk, ok := src.Next()
		if ok {
			arrivals[tk] = tk.Arrival
		}
		return tk, ok
	})
	finishes := map[simtime.Time]bool{}
	requests, stages := 0, 0
	check := host.FinishFunc(func(at simtime.Time, tk *task.Task) {
		if want, ok := arrivals[tk]; ok {
			requests++
			if tk.Arrival != want {
				t.Errorf("request %d finished at %v carrying arrival %v, want its source's %v", tk.ID, at, tk.Arrival, want)
			}
		} else {
			stages++
			if !finishes[tk.Arrival] {
				t.Errorf("stage %d (%s) finished at %v carrying arrival %v, which is no upstream completion", tk.ID, tk.App, at, tk.Arrival)
			}
		}
		finishes[at] = true
	})
	eng := cpusim.NewEngine(cpusim.Config{Cores: 2}, sched.NewCFS())
	if _, err := host.New(eng, lifecycle.NewHostStage(mgr), NewHostStage(inj), check).Drive(recorded); err != nil {
		t.Fatal(err)
	}
	if requests != len(reqs) || stages != 2*45 {
		t.Fatalf("%d requests and %d released stages finished, want %d and %d", requests, stages, len(reqs), 2*45)
	}
	if st := mgr.Stats(); st.ColdStarts == 0 {
		t.Fatalf("no cold start delayed any task: %+v", st)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// TestTracedRepMatchesUntraced runs every replay workload in-process at
// 1/100 scale, with and without probes: the wrappers must not change a
// single simulated result, and may only report declared per-layer
// metrics. experiments-quick has no smaller scale (~17 s a repetition
// under -race) and no probes to wrap; TestExperimentIDsPinned covers
// its set-up.
func TestTracedRepMatchesUntraced(t *testing.T) {
	dir := t.TempDir()
	declared := map[string]bool{}
	for _, def := range perLayer {
		declared[def.Name] = true
	}
	for _, w := range newWorkloads(100) {
		if w.name == "experiments-quick" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			in := input{seed: 7}
			if w.tape != nil {
				var err error
				if in.tape, err = generateTape(dir, w, in.seed); err != nil {
					t.Fatal(err)
				}
			}
			plain := runRep(w, in, false)
			traced := runRep(w, in, true)
			for _, r := range []repReport{plain, traced} {
				if r.Err != "" {
					t.Fatal(r.Err)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("traced digest %s, untraced %s", traced.Digest, plain.Digest)
			}
			if plain.Layers != nil {
				t.Errorf("untraced repetition reported layers %v", plain.Layers)
			}
			for k := range traced.Layers {
				if !declared[k] {
					t.Errorf("traced repetition reports undeclared metric %q", k)
				}
			}
			if len(traced.Spans) != 4 {
				t.Errorf("%d phase spans, want setup/run/summarize/check", len(traced.Spans))
			}
		})
	}
}

// TestExperimentIDsPinned runs experiments-quick's set-up, which fails
// when the experiment registry no longer matches the pinned IDs.
func TestExperimentIDsPinned(t *testing.T) {
	w := lookupWorkload(newWorkloads(1), "experiments-quick")
	if err := w.rep(input{seed: 7}, nil).setup(); err != nil {
		t.Fatal(err)
	}
}

// plainSource is a source that cannot fail mid-stream.
type plainSource struct{}

func (plainSource) Next() (*task.Task, bool) { return nil, false }
func (plainSource) String() string           { return "plain" }

func TestProbesPassOptionalInterfacesExactly(t *testing.T) {
	pr := newProbes()
	for name, observer := range map[string]bool{"RR": false, "PREDICTED": true} {
		d, err := cluster.NewDispatcher(name, cluster.FactoryConfig{Hosts: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pr.dispatcher(d).(cluster.CompletionObserver); ok != observer {
			t.Errorf("wrapped %s: CompletionObserver = %v, want %v", name, ok, observer)
		}
	}

	csv, err := trace.NewCSVSource(strings.NewReader("id,app,arrival_us,service_us,io_ops\n0,fib,0,1000,\n1,fib,10,0,\n"))
	if err != nil {
		t.Fatal(err)
	}
	src := pr.source(csv)
	trace.Collect(src)
	if trace.Err(src) == nil {
		t.Error("wrapped CSV source no longer reports its row error")
	}
	if _, ok := pr.source(plainSource{}).(trace.Failer); ok {
		t.Error("wrapped infallible source became a trace.Failer")
	}
}

// finishedTasks simulates a few invocations on one SFS core.
func finishedTasks(t *testing.T) []*task.Task {
	t.Helper()
	s, err := schedulers.New("SFS")
	if err != nil {
		t.Fatal(err)
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: 1}, s)
	for i := 0; i < 4; i++ {
		eng.Submit(task.New(i, time.Duration(i)*time.Millisecond, time.Duration(5+i)*time.Millisecond))
	}
	eng.Run()
	return eng.Tasks()
}

func TestChecksTripOnDoctoredResults(t *testing.T) {
	if err := checkTasks(finishedTasks(t), 4); err != nil {
		t.Fatalf("clean result failed its check: %v", err)
	}
	doctor := map[string]func([]*task.Task) []*task.Task{
		"unfinished task": func(ts []*task.Task) []*task.Task { ts[1].Finish = -1; return ts },
		"dropped task":    func(ts []*task.Task) []*task.Task { return ts[:3] },
		"duplicated task": func(ts []*task.Task) []*task.Task { ts[3] = ts[0]; return ts },
		"CPU mismatch":    func(ts []*task.Task) []*task.Task { ts[2].CPUUsed -= time.Microsecond; return ts },
		"faster than ideal": func(ts []*task.Task) []*task.Task {
			ts[0].Finish = ts[0].Arrival + ts[0].Service/2
			return ts
		},
	}
	for name, fn := range doctor {
		if err := checkTasks(fn(finishedTasks(t)), 4); err == nil {
			t.Errorf("%s passed the check", name)
		}
	}

	wfs := []metrics.Workflow{{ID: 1, Finish: 10}, {ID: 2, Finish: 20}}
	if err := checkWorkflows(wfs, 2); err != nil {
		t.Fatalf("clean workflows failed their check: %v", err)
	}
	wfs[1].Finish = -1
	if checkWorkflows(wfs, 2) == nil {
		t.Error("unfinished workflow passed the check")
	}
	if checkWorkflows(wfs[:1], 2) == nil {
		t.Error("dropped workflow passed the check")
	}
}

func TestDigestMismatchFailsRepetition(t *testing.T) {
	ok := func(kind, digest string) *repResult {
		return &repResult{kind: kind, start: time.Now(), slowdown: 1, report: repReport{Digest: digest, RunNs: 1e9}}
	}
	w := &workload{name: "w"}
	b := &bench{runs: []*workloadRun{{
		w:     w,
		reps:  []*repResult{ok(kindRep, "aa"), ok(kindRep, "aa"), {kind: kindRep, err: errors.New("crashed")}},
		extra: []*repResult{ok(kindTraced, "bb")},
	}}}
	s := b.summarize(true)[0]
	if s.Attempted != 4 || s.Failed != 2 {
		t.Errorf("attempted %d failed %d, want 4 and 2", s.Attempted, s.Failed)
	}
	if s.EndToEnd["wall_s"].N != 2 {
		t.Errorf("wall_s over %d repetitions, want the 2 that passed", s.EndToEnd["wall_s"].N)
	}
	if line := resultLine([]*summary{s}, false); line.Correct {
		t.Error("result line claims correct with failed repetitions")
	}
}

// TestMonitorReadsEveryCPU starts the per-CPU monitor, reads a slowdown
// over an interval weighted by this process's own CPU usage, and stops
// it: close must return only once every sampling thread has exited.
func TestMonitorReadsEveryCPU(t *testing.T) {
	m, err := startMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	for _, cpu := range m.cpus {
		m.mu.Lock()
		n := len(m.samples[cpu])
		m.mu.Unlock()
		if n == 0 {
			t.Errorf("CPU %d has no sample after start", cpu)
		}
	}
	u := newCPUUsage(os.Getpid())
	u.poll()
	var ticks float64
	for _, v := range u.ticks {
		ticks += v
	}
	if ticks <= 0 {
		t.Errorf("own CPU usage read as %v ticks", ticks)
	}
	now := time.Now()
	for _, usage := range []map[int]float64{u.ticks, nil} {
		s := m.slowdown(now.Add(-time.Second).UnixNano(), now.UnixNano(), usage)
		if !(s > 0) || math.IsInf(s, 0) {
			t.Errorf("slowdown %v with usage %v", s, usage)
		}
	}
}

func TestExactLoadFixesOfferedDemand(t *testing.T) {
	in := []*task.Task{
		task.New(0, 0, 3*time.Second),
		task.New(1, 5*time.Second, time.Second),
		task.New(2, 10*time.Second, 4*time.Second).WithIO(2*time.Second, time.Second),
	}
	src, err := exactLoad(trace.FromTasks("t", in), 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out := trace.Collect(src)
	var demand time.Duration
	for _, tk := range out {
		demand += tk.Service
		if err := tk.Validate(); err != nil {
			t.Error(err)
		}
	}
	// 0.5 load on 2 cores over a 10 s span: 10 s of CPU, 1.25x the 8 s offered.
	if demand != 10*time.Second || out[2].Service != 5*time.Second || out[2].IOOps[0].At != 2500*time.Millisecond {
		t.Errorf("demand %v, last task %v with I/O at %v", demand, out[2].Service, out[2].IOOps[0].At)
	}
	if _, err := exactLoad(trace.FromTasks("t", in[:1]), 2, 0.5); err == nil {
		t.Error("a one-invocation trace got a load")
	}
}

// TestRoundServiceKeepsTapesReadable pins the codec follow-up the tape
// generator works around: a sub-microsecond service encodes as zero
// and the decoder rejects it, unless rounded first.
func TestRoundServiceKeepsTapesReadable(t *testing.T) {
	decode := func(svc time.Duration, fn func(*task.Task) *task.Task) error {
		var buf bytes.Buffer
		src := trace.FromTasks("t", []*task.Task{task.New(0, 0, time.Millisecond), task.New(1, 1, svc)})
		if _, err := trace.WriteBinary(&buf, trace.Map(src, fn)); err != nil {
			return err
		}
		_, err := trace.ReadBinary(&buf)
		return err
	}
	if err := decode(526*time.Nanosecond, roundService); err != nil {
		t.Errorf("rounded tape failed to decode: %v", err)
	}
	for svc, want := range map[time.Duration]time.Duration{
		526 * time.Nanosecond:  time.Microsecond,
		1400 * time.Nanosecond: time.Microsecond,
		1600 * time.Nanosecond: 2 * time.Microsecond,
		5 * time.Millisecond:   5 * time.Millisecond,
	} {
		if got := roundService(task.New(0, 0, svc)).Service; got != want {
			t.Errorf("roundService(%v) = %v, want %v", svc, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which describes
// this benchmark to the outside, in step with the code that measures.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	ws := newWorkloads(1)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code runs %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, -seconds defaults to %v", spec.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v: want bench/run.sh inside bench", spec.Command, spec.Paths)
	}
}

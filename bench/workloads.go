package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/experiments"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	wl "github.com/serverless-sched/sfs/internal/workload"
)

// workload is one fixed benchmark input and the public calls that
// replay it.
type workload struct {
	name string
	why  string
	// tape, when set, generates the input trace the parent encodes once
	// per invocation; repetitions replay the encoded file.
	tape func(seed uint64) (trace.Source, error)
	// self names the metric under which the traced repetition reports
	// its serial run loop's self time: the run span minus its timed
	// layers ("" for none).
	self string
	// parallel workloads add a GOMAXPROCS=1 repetition to the traced
	// pass, which gives shard.speedup.
	parallel bool
	rep      func(in input, pr *probes) *phases
}

// input is what one repetition replays.
type input struct {
	seed uint64
	tape string // encoded trace, for tape workloads
}

// phases are one repetition's steps. The child times setup, run and
// summarize; check runs outside the timed region.
type phases struct {
	setup     func() error
	run       func() error
	summarize func()
	// check verifies the simulated result and returns its digest. On a
	// traced repetition it also records the workload's own per-layer
	// counts, which it reads off the same result.
	check func() (uint64, error)
}

// fibMdSa is the OpenLambda application mix faasbench's -mix selects.
var fibMdSa = []wl.AppChoice{
	{Profile: wl.AppFib, Weight: 0.5},
	{Profile: wl.AppMd, Weight: 0.25},
	{Profile: wl.AppSa, Weight: 0.25},
}

// newWorkloads returns the benchmark's workloads with every invocation
// and host count divided by div (1 is the benchmark; tests use 100).
// experiments-quick has nothing to divide: quick mode is already the
// suite's smallest scale.
func newWorkloads(div int) []*workload {
	return []*workload{
		experimentsQuick(),
		hostReplay(100000 / div),
		fleetSerial(50000/div, max(1, 256/div)),
		fleetSharded(100000/div, max(1, 250/div)),
	}
}

func lookupWorkload(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newSFS builds the per-host scheduler every workload runs.
func newSFS(pr *probes) (cpusim.Scheduler, error) {
	s, err := schedulers.New("SFS")
	if err != nil {
		return nil, err
	}
	return pr.scheduler(s), nil
}

// newManager builds one host's container manager the way
// lifecycle.NewByName does, with the policy passed through pr.
func newManager(pr *probes, policy string, memoryMB int, seed uint64) (*lifecycle.Manager, error) {
	pol, err := lifecycle.NewPolicy(policy, lifecycle.PolicyConfig{TTL: lifecycle.DefaultTTL, Seed: seed})
	if err != nil {
		return nil, err
	}
	return lifecycle.New(lifecycle.Config{Policy: pr.policy(pol), MemoryMB: memoryMB, Seed: seed})
}

// openTape opens an encoded trace the way the CLIs' -in flag does. The
// caller closes the file.
func openTape(path string) (*os.File, trace.Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := trace.DetectSource(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, src, nil
}

// printPercentiles renders the turnaround and RTE summary lines both
// faasbench replay and faasbench cluster print.
func printPercentiles(w io.Writer, r metrics.Run) {
	ps := r.Percentiles([]float64{50, 90, 99, 99.9})
	fmt.Fprintf(w, "turnaround: p50=%s p90=%s p99=%s p99.9=%s mean=%s\n",
		metrics.FormatDuration(ps[0]), metrics.FormatDuration(ps[1]),
		metrics.FormatDuration(ps[2]), metrics.FormatDuration(ps[3]),
		metrics.FormatDuration(r.MeanTurnaround()))
	for _, bound := range []float64{0.5, 0.95} {
		fmt.Fprintf(w, "RTE >= %.2f: %.1f%% of requests\n", bound, 100*r.FractionRTEAtLeast(bound))
	}
}

// exactLoad collects a generated trace and scales every service, and
// the I/O positions within it, so that the trace offers exactly load on
// cores over its arrival span. The generators calibrate arrivals to the
// service distribution's analytic mean; the demand one seed realizes
// strays from it by a few percent, and a replay's work follows the
// demand. Fixed, every seed offers the same load while keeping its own
// arrivals, apps and service shape.
func exactLoad(src trace.Source, cores int, load float64) (trace.Source, error) {
	tasks := trace.Collect(src)
	if err := trace.Err(src); err != nil {
		return nil, err
	}
	if len(tasks) < 2 {
		return nil, fmt.Errorf("%d invocations: no arrival span to load", len(tasks))
	}
	var demand float64
	for _, t := range tasks {
		demand += float64(t.Service)
	}
	span := tasks[len(tasks)-1].Arrival - tasks[0].Arrival
	f := load * float64(cores) * float64(span) / demand
	for _, t := range tasks {
		t.Service = time.Duration(float64(t.Service) * f)
		for i := range t.IOOps {
			t.IOOps[i].At = time.Duration(float64(t.IOOps[i].At) * f)
		}
	}
	return trace.FromTasks(src.String(), tasks), nil
}

// setTaskCounts records the engine work the finished tasks account for:
// each task counts its own dispatches and involuntary preemptions,
// which sum to the engines' totals.
func setTaskCounts(pr *probes, tasks []*task.Task) {
	var dispatches, preemptions int
	for _, t := range tasks {
		dispatches += t.Dispatches
		preemptions += t.CtxSwitches
	}
	pr.set("cpusim.dispatches", float64(dispatches))
	pr.set("cpusim.preemptions", float64(preemptions))
}

func setLifecycle(pr *probes, st lifecycle.Stats) {
	pr.set("lifecycle.cold_starts", float64(st.ColdStarts))
	pr.set("lifecycle.evictions", float64(st.Evictions))
	pr.set("lifecycle.warm_hit_ratio", st.WarmHitRatio())
}

// suiteSeed is the experiments CLI's default -seed, at which
// experiments-quick regenerates the figures. The workload ignores the
// benchmark's seed: the suite's wall time is the cluster-dispatch
// experiment's, whose work moves by up to half between seeds (2.2 s to
// 3.3 s of a 2.7-4.0 s repetition), so a per-seed input would make the
// ten-seed spread measure the seed instead of the code.
const suiteSeed = 42

// experimentsQuick regenerates every figure and table at quick scale,
// as `experiments -all -quick` does.
func experimentsQuick() *workload {
	return &workload{
		name: "experiments-quick",
		why:  "the paper's figure suite at its default seed: thousands of short single-host runs under every scheduler; dispatch and shard layers idle",
		rep: func(_ input, pr *probes) *phases {
			var (
				reports  []*experiments.Report
				rendered [][]byte
				wall     time.Duration
			)
			cfg := experiments.Config{Quick: true, Seed: suiteSeed}
			workers := runtime.GOMAXPROCS(0)
			return &phases{
				setup: func() error {
					var ids []string
					for _, e := range experiments.All() {
						ids = append(ids, e.ID)
					}
					if !slices.Equal(ids, experimentIDs) {
						return fmt.Errorf("experiment registry changed: got %v, pinned %v", ids, experimentIDs)
					}
					return nil
				},
				run: func() error {
					t0 := time.Now()
					reports = experiments.RunAll(cfg, workers)
					wall = time.Since(t0)
					return nil
				},
				summarize: func() {
					for _, r := range reports {
						rendered = append(rendered, []byte(r.Render()), []byte(r.CSV()))
					}
				},
				check: func() (uint64, error) {
					if len(reports) != len(experimentIDs) {
						return 0, fmt.Errorf("%d experiment reports, want %d", len(reports), len(experimentIDs))
					}
					var critical, sum time.Duration
					for i, r := range reports {
						if len(rendered[2*i]) == 0 {
							return 0, fmt.Errorf("experiment %s rendered nothing", r.ID)
						}
						pr.set(experimentMetric(r.ID), r.WallClock.Seconds())
						critical = max(critical, r.WallClock)
						sum += r.WallClock
					}
					pr.set("experiments.critical_s", critical.Seconds())
					pr.set("experiments.sum_s", sum.Seconds())
					pr.set("experiments.parallel_eff", sum.Seconds()/(wall.Seconds()*float64(workers)))
					return digestBytes(rendered), nil
				},
			}
		},
	}
}

// hostReplay replays an AZURE tape through the calls
// `faasbench replay -in T.sftb -sched SFS -cores 16 -keepalive HIST
// -memory 2048` makes.
func hostReplay(n int) *workload {
	const cores = 16
	return &workload{
		name: "host-replay",
		why:  "CLI tape replay on one 16-core SFS host with HIST keep-alive: scheduler, engine and lifecycle eviction do the work",
		self: "host.self_s",
		tape: func(seed uint64) (trace.Source, error) {
			src, err := wl.NewFamily("AZURE", wl.FamilyConfig{N: n, Cores: cores, Load: 0.9, Apps: fibMdSa, Seed: seed})
			if err != nil {
				return nil, err
			}
			return exactLoad(src, cores, 0.9)
		},
		rep: func(in input, pr *probes) *phases {
			var (
				tasks    []*task.Task
				eng      *cpusim.Engine
				mgr      *lifecycle.Manager
				makespan time.Duration
			)
			return &phases{
				setup: func() error {
					t0 := time.Now()
					f, src, err := openTape(in.tape)
					if err != nil {
						return err
					}
					defer f.Close()
					tasks = trace.Collect(src)
					pr.set("trace.decode_s", time.Since(t0).Seconds())
					if err := trace.Err(src); err != nil {
						return err
					}
					if len(tasks) == 0 {
						return fmt.Errorf("empty trace")
					}
					s, err := newSFS(pr)
					if err != nil {
						return err
					}
					eng = cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 10000 * time.Hour}, s)
					mgr, err = newManager(pr, "HIST", 2048, in.seed)
					return err
				},
				run: func() error {
					var err error
					makespan, err = lifecycle.Run(pr.source(trace.FromTasks(in.tape, tasks)), mgr, eng)
					return err
				},
				summarize: func() {
					fmt.Fprintf(io.Discard, "simulated %v (%d ctx switches, %.0f%% utilization)\n",
						makespan, eng.TotalCtxSwitches, eng.Utilization()*100)
					fmt.Fprintln(io.Discard, mgr.Stats().Summary("HIST"))
					printPercentiles(io.Discard, metrics.Run{Scheduler: "SFS", Tasks: eng.Tasks()})
				},
				check: func() (uint64, error) {
					out := eng.Tasks()
					if err := checkTasks(out, len(tasks)); err != nil {
						return 0, err
					}
					for i, t := range out {
						if t.ID != tasks[i].ID {
							return 0, fmt.Errorf("task %d replayed as task %d", tasks[i].ID, t.ID)
						}
					}
					st := mgr.Stats()
					if st.Invocations != len(out) {
						return 0, fmt.Errorf("lifecycle saw %d invocations for %d tasks", st.Invocations, len(out))
					}
					setTaskCounts(pr, out)
					setLifecycle(pr, st)
					return digestTasks(out), nil
				},
			}
		},
	}
}

// fleetSerial runs the TRIGGER family's workflows on a serial
// (zero-latency) cluster of 4-core SFS hosts behind the PREDICTED
// dispatcher, with TTL keep-alive.
func fleetSerial(n, hosts int) *workload {
	const hostCores = 4
	spec := func(seed uint64) wl.TriggerSpec {
		return wl.TriggerSpec{N: n, Cores: hosts * hostCores, Load: 0.9, Seed: seed}
	}
	return &workload{
		name: "fleet-serial",
		why:  "chained TRIGGER workflows on 256 serial hosts behind PREDICTED: O(hosts) placement, predictor, chain injector, warm hits",
		self: "cluster.self_s",
		rep: func(in input, pr *probes) *phases {
			var (
				src    trace.Source
				cl     *cluster.Cluster
				res    *cluster.Result
				mgrErr error
			)
			return &phases{
				setup: func() error {
					t0 := time.Now()
					s, chainCfg, err := wl.TriggerStream(spec(in.seed))
					pr.set("trace.decode_s", time.Since(t0).Seconds())
					if err != nil {
						return err
					}
					src = pr.source(s)
					d, err := cluster.NewDispatcher("PREDICTED", cluster.FactoryConfig{Hosts: hosts, Seed: in.seed})
					if err != nil {
						return err
					}
					cl, err = cluster.New(cluster.Config{
						Hosts:        hosts,
						CoresPerHost: hostCores,
						NewScheduler: func() cpusim.Scheduler {
							s, _ := newSFS(pr) // "SFS" is a registered name
							return s
						},
						Dispatcher: pr.dispatcher(d),
						NewLifecycle: func() *lifecycle.Manager {
							m, err := newManager(pr, "TTL", 4096, in.seed)
							if err != nil {
								mgrErr = err
							}
							return m
						},
						Chain: &chainCfg,
					})
					if mgrErr != nil {
						return mgrErr
					}
					return err
				},
				run: func() error {
					var err error
					res, err = cl.Run(src)
					return err
				},
				summarize: func() {
					fmt.Fprint(io.Discard, res.RenderPerHost())
					fmt.Fprintln(io.Discard, res.Lifecycle.Summary("TTL"))
					printPercentiles(io.Discard, res.Merged)
					fmt.Fprintln(io.Discard, res.Workflows.Render())
					fmt.Fprint(io.Discard, res.Workflows.SlowdownPercentiles(50, 99))
				},
				check: func() (uint64, error) {
					if res.Aborted {
						return 0, fmt.Errorf("cluster run aborted")
					}
					// Regenerate the request stream to count, independently
					// of the run, the workflows and stages it must produce.
					gen, chainCfg, err := wl.TriggerStream(spec(in.seed))
					if err != nil {
						return 0, err
					}
					requests, stages := 0, 0
					for t, ok := gen.Next(); ok; t, ok = gen.Next() {
						requests++
						if wf, chained := chainCfg.Specs[t.App]; chained {
							stages += len(wf.Stages)
						} else {
							stages++
						}
					}
					tasks := res.Merged.Tasks
					if err := checkTasks(tasks, stages); err != nil {
						return 0, err
					}
					if err := checkWorkflows(res.Workflows.Workflows, requests); err != nil {
						return 0, err
					}
					if res.Lifecycle.Invocations != len(tasks) {
						return 0, fmt.Errorf("lifecycle saw %d invocations for %d tasks", res.Lifecycle.Invocations, len(tasks))
					}
					setTaskCounts(pr, tasks)
					setLifecycle(pr, res.Lifecycle)
					pr.set("cluster.central_queue_max", float64(res.CentralQueueMax))
					pr.set("chain.workflows", float64(requests))
					pr.set("chain.stages", float64(stages))
					return digestTasks(tasks), nil
				},
			}
		},
	}
}

// fleetSharded replays a POISSON tape as `faasbench cluster -in T.sftb
// -hosts 250 -host-cores 4 -dispatch RR -sched SFS -shards 16` does.
func fleetSharded(n, hosts int) *workload {
	const hostCores = 4
	return &workload{
		name:     "fleet-sharded",
		why:      "cluster-1m's shape on 250 hosts of the sharded engine: O(1) RR dispatch, so window barriers and retained records show",
		parallel: true,
		tape: func(seed uint64) (trace.Source, error) {
			src, err := wl.NewFamily("POISSON", wl.FamilyConfig{N: n, Cores: hosts * hostCores, Load: 1.0, Seed: seed})
			if err != nil {
				return nil, err
			}
			return exactLoad(src, hosts*hostCores, 1.0)
		},
		rep: func(in input, pr *probes) *phases {
			var (
				f   *os.File
				src trace.Source
				cl  *cluster.Cluster
				res *cluster.Result
			)
			return &phases{
				setup: func() error {
					t0 := time.Now()
					var err error
					if f, src, err = openTape(in.tape); err != nil {
						return err
					}
					pr.set("trace.decode_s", time.Since(t0).Seconds())
					d, err := cluster.NewDispatcher("RR", cluster.FactoryConfig{Hosts: hosts, Seed: in.seed})
					if err != nil {
						return err
					}
					cl, err = cluster.New(cluster.Config{
						Hosts:        hosts,
						CoresPerHost: hostCores,
						NewScheduler: func() cpusim.Scheduler {
							s, _ := newSFS(pr) // "SFS" is a registered name
							return s
						},
						Dispatcher: pr.dispatcher(d),
						Shards:     16,
					})
					return err
				},
				run: func() error {
					defer f.Close()
					var err error
					res, err = cl.Run(pr.source(src))
					return err
				},
				summarize: func() {
					fmt.Fprint(io.Discard, res.RenderPerHost())
					printPercentiles(io.Discard, res.Merged)
				},
				check: func() (uint64, error) {
					if res.Aborted {
						return 0, fmt.Errorf("cluster run aborted")
					}
					tasks := res.Merged.Tasks
					if err := checkTasks(tasks, n); err != nil {
						return 0, err
					}
					setTaskCounts(pr, tasks)
					pr.set("cluster.central_queue_max", float64(res.CentralQueueMax))
					// The engine runs one window per lookahead interval
					// that holds an event, so makespan/lookahead bounds the
					// window count from above.
					pr.set("shard.windows", float64(res.Makespan/res.Lookahead))
					return digestTasks(tasks), nil
				},
			}
		},
	}
}

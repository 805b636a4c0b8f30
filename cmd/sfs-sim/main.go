// Command sfs-sim runs a single scheduler × workload simulation — or,
// with -hosts N, a multi-host cluster simulation behind a dispatch
// policy — and prints the paper's metrics: duration percentiles, RTE
// distribution, context switches, and (for SFS) scheduler-internal
// statistics.
//
// Examples:
//
//	sfs-sim -sched SFS -n 10000 -cores 16 -load 1.0
//	sfs-sim -sched CFS -n 10000 -cores 16 -load 0.8 -arrivals trace
//	sfs-sim -sched SFS -fixed-slice 100ms -io-fraction 0.75
//	sfs-sim -hosts 4 -dispatch JSQ -sched SFS -cores 8 -load 0.9
//	sfs-sim -hosts 1000 -cores 4 -dispatch RR -shards 16 -workload big.sftb
//	sfs-sim -hosts 8 -dispatch PREDICTED -sched PSRTF -speeds 1.5x4,0.5x4 -net-delay 200us-2ms
//	sfs-sim -keepalive HIST -memory 4096 -arrivals trace
//	sfs-sim -chain LINEAR -chain-depth 4 -sched SFS -load 0.9
//	sfs-sim -chain DIAMOND -hosts 4 -dispatch WARMFIRST -keepalive TTL
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// keepaliveOpts carries the container lifecycle flags. Zero Policy
// means the paper's pre-warmed setup (no cold starts modeled).
type keepaliveOpts struct {
	policy string
	memory int
	ttl    time.Duration
	seed   uint64
}

// enabled reports whether lifecycle modeling was requested.
func (k keepaliveOpts) enabled() bool { return k.policy != "" }

// newManager builds one host's lifecycle manager from the flags.
func (k keepaliveOpts) newManager() (*lifecycle.Manager, error) {
	return lifecycle.NewByName(k.policy, k.memory, k.ttl, k.seed)
}

// report prints the cold-start summary line shared by both modes.
func (k keepaliveOpts) report(st lifecycle.Stats) {
	fmt.Println(st.Summary(k.policy))
}

// fleetOpts carries the cluster fleet-shape flags: heterogeneous host
// speed factors and the dispatcher->host network-delay distribution.
// Zero values model the uniform zero-delay fleet.
type fleetOpts struct {
	speeds   []float64
	netDelay dist.Distribution
	seed     uint64
}

// chainOpts carries the function-chain workflow flags, with the family
// resolved once up front. A nil spec means plain single-invocation
// requests.
type chainOpts struct {
	family string
	depth  int
	seed   uint64
	spec   *chain.Spec // resolved family; nil when disabled
}

// resolve validates the family flag and caches its spec. Stages inherit
// each request's sampled service time, so the chain multiplies the
// trace's per-request CPU demand by the stage count.
func (c *chainOpts) resolve() error {
	if c.family == "" {
		return nil
	}
	spec, err := chain.NewFamily(c.family, chain.FamilyConfig{Depth: c.depth})
	if err != nil {
		return err
	}
	c.spec = &spec
	return nil
}

// enabled reports whether workflow expansion was requested.
func (c chainOpts) enabled() bool { return c.spec != nil }

// config builds the injector config applying the family to every app in
// the trace.
func (c chainOpts) config() chain.Config {
	return chain.Config{Default: c.spec, Seed: c.seed}
}

// loadDivisor returns the factor by which the requested offered load is
// divided before workload generation, so the chain's total CPU demand
// (every stage, not just the request) offers the asked-for load.
func (c chainOpts) loadDivisor() float64 {
	if !c.enabled() {
		return 1
	}
	return c.spec.ServiceFactor(0) // all stages inherit: factor = stage count
}

func main() {
	var (
		schedName  = flag.String("sched", "SFS", "scheduler: "+strings.Join(schedulers.Names(), ", ")+", or IDEAL (single host only)")
		n          = flag.Int("n", 10000, "number of function invocations")
		cores      = flag.Int("cores", 16, "CPU cores (per host when -hosts > 1)")
		load       = flag.Float64("load", 1.0, "offered CPU load fraction (calibrated to hosts x cores)")
		hosts      = flag.Int("hosts", 1, "simulated hosts; > 1 enables cluster mode")
		dispatch   = flag.String("dispatch", "RR", "cluster dispatch policy: "+strings.Join(cluster.Names(), ", "))
		arrivals   = flag.String("arrivals", "poisson", "arrival process: synth (RPS ramp) or a scenario family: "+strings.Join(workload.FamilyNames(), ", ")+" (trace = azure)")
		seed       = flag.Uint64("seed", 42, "RNG seed")
		fixedSlice = flag.Duration("fixed-slice", 0, "pin the SFS time slice (0 = adaptive)")
		poll       = flag.Duration("poll", 4*time.Millisecond, "SFS kernel-status polling interval")
		noHybrid   = flag.Bool("no-hybrid", false, "disable SFS overload fallback")
		noIO       = flag.Bool("io-oblivious", false, "disable SFS I/O-aware polling")
		ioFraction = flag.Float64("io-fraction", 0, "fraction of requests with one leading 10-100ms I/O op")
		wlFile     = flag.String("workload", "", "replay a workload trace, CSV or binary (see faasbench export/convert), instead of generating one")
		shards     = flag.Int("shards", 0, "cluster mode: run the sharded parallel engine with this many shards (0 = serial)")
		dispatchL  = flag.Duration("dispatch-latency", 0, "sharded mode: dispatcher->host latency and lookahead window (default 1ms)")
		speedSpec  = flag.String("speeds", "", "cluster mode: per-host speed factors, e.g. \"1.5x4,0.5x4\" or a single value for all hosts (empty = uniform 1.0)")
		netDelaySp = flag.String("net-delay", "", "cluster mode: dispatcher->host network delay, e.g. \"500us\" or \"200us-2ms\" (uniform)")
		startRPS   = flag.Float64("start-rps", 50, "synth arrivals: starting RPS")
		targetRPS  = flag.Float64("target-rps", 500, "synth arrivals: RPS at the end of the ramp")
		horizon    = flag.Duration("horizon", 60*time.Second, "synth arrivals: trace span")
		keepalive  = flag.String("keepalive", "", "container keep-alive policy: "+strings.Join(lifecycle.PolicyNames(), ", ")+" (empty = pre-warmed, no cold starts)")
		memory     = flag.Int("memory", 0, "container memory capacity in MB per host (0 = unlimited; needs -keepalive)")
		kaTTL      = flag.Duration("keepalive-ttl", lifecycle.DefaultTTL, "fixed keep-alive window (TTL policy) and HIST fallback")
		chainName  = flag.String("chain", "", "expand each request into a workflow: "+strings.Join(chain.FamilyNames(), ", ")+" (empty = plain invocations; poisson/trace loads are recalibrated to the whole chain)")
		chainDepth = flag.Int("chain-depth", 3, "workflow scale: LINEAR stages / DIAMOND branches (needs -chain)")
	)
	flag.Parse()

	if *hosts < 1 || *cores < 1 {
		fmt.Fprintln(os.Stderr, "-hosts and -cores must be at least 1")
		os.Exit(1)
	}
	// Every family but synth (where -n 0 means "until -horizon") needs
	// a positive count: the others would panic or stream forever.
	if *wlFile == "" && (*n < 0 || *n == 0 && *arrivals != "synth") {
		fmt.Fprintf(os.Stderr, "-n must be positive with -arrivals %s (only synth takes -n 0, meaning until -horizon)\n", *arrivals)
		os.Exit(1)
	}
	if (*speedSpec != "" || *netDelaySp != "") && *hosts == 1 {
		fmt.Fprintln(os.Stderr, "-speeds and -net-delay model the cluster fleet; they need -hosts > 1")
		os.Exit(1)
	}
	speeds, err := cluster.ParseSpeeds(*speedSpec, *hosts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	netDelay, err := cluster.ParseNetDelay(*netDelaySp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fleet := fleetOpts{speeds: speeds, netDelay: netDelay, seed: *seed}
	ka := keepaliveOpts{policy: *keepalive, memory: *memory, ttl: *kaTTL, seed: *seed}
	ch := chainOpts{family: *chainName, depth: *chainDepth, seed: *seed}
	// Validate the family name (and cache its spec) before simulating
	// anything.
	if err := ch.resolve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !ka.enabled() && *memory != 0 {
		fmt.Fprintln(os.Stderr, "-memory needs -keepalive (pre-warmed runs model no containers)")
		os.Exit(1)
	}
	if ka.enabled() {
		// Validate the policy name before simulating anything.
		if _, err := ka.newManager(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	totalCores := *hosts * *cores

	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src, err := trace.DetectSource(f)
		if err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tasks := trace.Collect(src)
		f.Close()
		if err := trace.Err(src); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *hosts > 1 {
			runCluster(trace.FromTasks(*wlFile, tasks), *schedName, *dispatch, *hosts, *cores, *shards, *dispatchL, *seed, *fixedSlice, *poll, *noHybrid, *noIO, ka, ch, fleet)
			return
		}
		runReplay(tasks, *schedName, *cores, *fixedSlice, *poll, *noHybrid, *noIO, ka, ch)
		return
	}

	// With -chain, the offered load is recalibrated to the whole chain's
	// CPU demand (stage count x per-request demand) for the calibrated
	// arrival families; synth arrivals follow their explicit RPS profile.
	genLoad := *load / ch.loadDivisor()
	var src trace.Source
	switch *arrivals {
	case "poisson":
		src = workload.Stream(workload.Spec{
			N: *n, Cores: totalCores, Load: genLoad, Seed: *seed, IOFraction: *ioFraction,
		})
	case "trace":
		src = workload.AzureSampledStream(workload.AzureSampledSpec{
			N: *n, Cores: totalCores, Load: genLoad, Seed: *seed, IOFraction: *ioFraction,
		})
	case "synth":
		src = workload.SyntheticStream(workload.SyntheticSpec{
			Shape: trace.ShapeRamp, StartRPS: *startRPS, TargetRPS: *targetRPS,
			Horizon: *horizon, N: *n, Seed: *seed, IOFraction: *ioFraction,
		})
	default:
		// Any registered scenario family (diurnal, flashcrowd,
		// multitenant, trigger, ... — poisson and trace were handled
		// above with their extra knobs).
		var err error
		src, err = workload.NewFamily(*arrivals, workload.FamilyConfig{
			N: *n, Cores: totalCores, Load: genLoad, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	tasks := trace.Collect(src)
	if err := trace.Err(src); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	describe(src.String(), tasks, totalCores)
	if ch.enabled() {
		if *arrivals == "synth" {
			fmt.Printf("chain: %s depth %d applied to every request (synth follows its RPS profile; no load recalibration)\n",
				strings.ToUpper(ch.family), ch.depth)
		} else {
			fmt.Printf("chain: %s depth %d applied to every request (per-request load divided by %.0f)\n",
				strings.ToUpper(ch.family), ch.depth, ch.loadDivisor())
		}
	}

	if *hosts > 1 {
		runCluster(trace.FromTasks(src.String(), tasks), *schedName, *dispatch, *hosts, *cores, *shards, *dispatchL, *seed, *fixedSlice, *poll, *noHybrid, *noIO, ka, ch, fleet)
		return
	}
	runReplay(tasks, *schedName, *cores, *fixedSlice, *poll, *noHybrid, *noIO, ka, ch)
}

// describe prints the generated workload's line: its description, mean
// ideal duration (I/O included), mean inter-arrival time (the span over
// n-1 gaps) and the offered CPU load on cores.
func describe(desc string, tasks []*task.Task, cores int) {
	var ideal, cpu, meanSvc, meanCPU, meanIAT time.Duration
	for _, t := range tasks {
		ideal += t.IdealDuration()
		cpu += t.Service
	}
	if n := len(tasks); n > 0 {
		meanSvc, meanCPU = ideal/time.Duration(n), cpu/time.Duration(n)
	}
	if n := len(tasks); n > 1 {
		meanIAT = time.Duration(tasks[n-1].Arrival-tasks[0].Arrival) / time.Duration(n-1)
	}
	fmt.Printf("workload: %s (mean service %v, mean IAT %v, offered load %.2f)\n",
		desc, meanSvc, meanIAT, queueing.OfferedLoad(meanCPU, meanIAT, cores))
}

// mkFactory builds the per-host scheduler constructor for cluster mode,
// honoring the SFS tuning knobs.
func mkFactory(schedName string, fixedSlice, poll time.Duration, noHybrid, noIO bool) (func() cpusim.Scheduler, error) {
	if strings.EqualFold(schedName, "SFS") {
		cfg := core.DefaultConfig()
		cfg.FixedSlice = fixedSlice
		cfg.PollInterval = poll
		cfg.Hybrid = !noHybrid
		cfg.IOAware = !noIO
		return func() cpusim.Scheduler { return core.New(cfg) }, nil
	}
	// Validate the name once up front so a typo fails before simulating.
	if _, err := schedulers.New(schedName); err != nil {
		return nil, err
	}
	return func() cpusim.Scheduler {
		s, err := schedulers.New(schedName)
		if err != nil {
			panic(err)
		}
		return s
	}, nil
}

// runCluster simulates the source across hosts behind the named
// dispatch policy and reports merged plus per-host metrics.
func runCluster(src trace.Source, schedName, dispatch string, hosts, cores, shards int, dispatchLatency time.Duration, seed uint64, fixedSlice, poll time.Duration, noHybrid, noIO bool, ka keepaliveOpts, ch chainOpts, fleet fleetOpts) {
	factory, err := mkFactory(schedName, fixedSlice, poll, noHybrid, noIO)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d, err := cluster.NewDispatcher(dispatch, cluster.FactoryConfig{Hosts: hosts, Seed: seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := cluster.Config{
		Hosts:           hosts,
		CoresPerHost:    cores,
		NewScheduler:    factory,
		Dispatcher:      d,
		Shards:          shards,
		DispatchLatency: dispatchLatency,
		Speeds:          fleet.speeds,
		NetDelay:        fleet.netDelay,
		NetDelaySeed:    fleet.seed,
	}
	if ka.enabled() {
		cfg.NewLifecycle = func() *lifecycle.Manager {
			m, err := ka.newManager()
			if err != nil {
				panic(err) // validated in main
			}
			return m
		}
	}
	if ch.enabled() {
		ccfg := ch.config()
		cfg.Chain = &ccfg
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	start := time.Now()
	res, err := cl.Run(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("cluster: %d hosts x %d cores, %s dispatch, %s per host\n", hosts, cores, res.Dispatcher, res.Scheduler)
	if res.Shards > 0 {
		fmt.Printf("sharded engine: %d shards, %v lookahead\n", res.Shards, res.Lookahead)
	}
	fmt.Printf("simulated %v of virtual time in %v wall time\n",
		res.Makespan.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Print(res.RenderPerHost())
	if ka.enabled() {
		ka.report(res.Lifecycle)
	}
	if ch.enabled() {
		fmt.Println(res.Workflows.Render())
	}
	fmt.Println()
	report(res.Merged, nil, res.Makespan, nil)
}

// runReplay simulates tasks under the named scheduler and reports.
func runReplay(tasks []*task.Task, schedName string, cores int, fixedSlice, poll time.Duration, noHybrid, noIO bool, ka keepaliveOpts, ch chainOpts) {
	var sfs *core.SFS
	var s cpusim.Scheduler
	switch strings.ToUpper(schedName) {
	case "SFS":
		cfg := core.DefaultConfig()
		cfg.FixedSlice = fixedSlice
		cfg.PollInterval = poll
		cfg.Hybrid = !noHybrid
		cfg.IOAware = !noIO
		sfs = core.New(cfg)
		s = sfs
	case "IDEAL":
		if ka.enabled() || ch.enabled() {
			// IDEAL is the analytic zero-interference oracle; silently
			// dropping cold starts or chain expansion would make
			// baseline comparisons unfair, so refuse rather than ignore
			// the flags.
			fmt.Fprintln(os.Stderr, "-keepalive and -chain are not supported with -sched IDEAL (the oracle models no containers or workflows)")
			os.Exit(1)
		}
		sched.RunIdeal(tasks)
		report(metrics.Run{Scheduler: "IDEAL", Tasks: tasks}, nil, 0, nil)
		return
	default:
		var err error
		if s, err = schedulers.New(schedName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 10000 * time.Hour}, s)
	start := time.Now()
	var makespan time.Duration
	var mgr *lifecycle.Manager
	if ka.enabled() {
		var err error
		if mgr, err = ka.newManager(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	var inj *chain.Injector
	switch {
	case ch.enabled():
		var err error
		if inj, err = chain.NewInjector(ch.config()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if makespan, err = chain.Run(trace.FromTasks("replay", tasks), inj, mgr, eng); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tasks = eng.Tasks()
	case mgr != nil:
		var err error
		if makespan, err = lifecycle.Run(trace.FromTasks("replay", tasks), mgr, eng); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tasks = eng.Tasks()
	default:
		eng.Submit(tasks...)
		makespan = eng.Run()
	}
	fmt.Printf("simulated %v of virtual time in %v wall time (%d ctx switches, %.0f%% utilization)\n",
		makespan.Round(time.Millisecond), time.Since(start).Round(time.Millisecond),
		eng.TotalCtxSwitches, eng.Utilization()*100)
	if mgr != nil {
		ka.report(mgr.Stats())
	}
	if inj != nil {
		fmt.Println(metrics.WorkflowRun{Scheduler: s.Name(), Workflows: inj.Workflows()}.Render())
	}
	report(metrics.Run{Scheduler: s.Name(), Tasks: tasks}, eng, makespan, sfs)
}

func report(r metrics.Run, eng *cpusim.Engine, makespan time.Duration, sfs *core.SFS) {
	ps := r.Percentiles(metrics.StandardPercentiles)
	header := []string{"metric"}
	row := []string{r.Scheduler}
	for i, p := range metrics.StandardPercentiles {
		header = append(header, fmt.Sprintf("p%g", p))
		row = append(row, metrics.FormatDuration(ps[i]))
	}
	fmt.Print(metrics.Table(header, [][]string{row}))
	fmt.Printf("mean turnaround: %s\n", metrics.FormatDuration(r.MeanTurnaround()))
	for _, bound := range []float64{0.5, 0.8, 0.95} {
		fmt.Printf("RTE >= %.2f: %.1f%% of requests\n", bound, 100*r.FractionRTEAtLeast(bound))
	}
	rtes := r.RTEs()
	fmt.Printf("RTE < 0.2: %.1f%% of requests\n", 100*stats.FractionBelow(rtes, 0.2))
	if sfs != nil {
		fmt.Printf("SFS: S=%v, %d requests, %d FILTER completions, %d demotions, %d overload-routed\n",
			sfs.Slice(), sfs.Stat.Requests, sfs.Stat.FilterCompletions,
			sfs.Stat.Demotions, sfs.Stat.OverloadRouted)
	}
}

// Command faasbench generates, exports, and replays FaaS invocation
// traces through the streaming trace pipeline (the paper's FaaSBench,
// §VII, plus an invitro-style synthetic RPS synthesizer).
//
// Subcommands:
//
//	faasbench gen     [flags]              # generate and summarize (default)
//	faasbench export  [flags] -o out.csv   # generate and stream to CSV or
//	                                       # binary (-format binary)
//	faasbench replay  -in out.csv [flags]  # replay a CSV or binary trace in
//	                                       # the simulator (format sniffed)
//	faasbench convert -in a.csv -o a.sftb  # convert a trace between CSV and
//	                                       # the binary (SFTB) format
//	faasbench cluster [flags]              # fan a trace across -hosts simulated
//	                                       # hosts behind a -dispatch policy;
//	                                       # -shards N runs the sharded engine
//	faasbench chain   [flags]              # expand each request into a -family
//	                                       # workflow and report end-to-end stats
//	faasbench ingest  -invocations f.csv   # stream a real Azure Functions 2019
//	                                       # dataset CSV onto a replayable trace
//
// Scenario families (-arrivals):
//
//	poisson      Table I durations, Poisson IATs calibrated to -load
//	trace        Azure-sampled bursty arrivals (§VII), optional -spikes
//	synth        explicit RPS profile: -shape constant|ramp|step|sine,
//	             -start-rps/-target-rps over -horizon (or -slots × -slot-dur,
//	             the invitro synthesizer's RPS-slot staircase)
//	diurnal      sine-on-trend day/night cycle with a weekend dip
//	flashcrowd   exponential-decay 50x spikes with correlated app skew
//	multitenant  one heavy bursty tenant against many light steady ones
//	trigger      timer/queue/http mixes; under chain, each class feeds its
//	             own workflow shape
//
// Examples:
//
//	faasbench gen -n 10000 -cores 16 -load 0.8
//	faasbench gen -arrivals trace -spikes 5
//	faasbench gen -arrivals diurnal -n 100000 -cores 16 -load 0.7
//	faasbench cluster -arrivals flashcrowd -hosts 8 -dispatch JSQ
//	faasbench chain -arrivals trigger -sched SFS -n 20000
//	faasbench ingest -invocations invocations_per_function_md.anon.d01.csv \
//	    -durations function_durations_percentiles.anon.d01.csv \
//	    -minutes 540:600 -scale 0.1 -o azure-d01.sftb
//	faasbench export -arrivals synth -shape ramp -start-rps 50 -target-rps 500 -horizon 60s -o ramp.csv
//	faasbench replay -in ramp.csv -sched SFS -cores 16
//	faasbench replay -in ramp.csv -sched SFS -keepalive HIST -memory 2048
//	faasbench export -arrivals trace -n 1000000 -format binary -o big.sftb
//	faasbench convert -in ramp.csv -o ramp.sftb
//	faasbench cluster -hosts 4 -host-cores 8 -dispatch PULL -sched SFS -arrivals trace
//	faasbench cluster -in ramp.csv -hosts 2 -host-cores 16 -dispatch JSQ
//	faasbench cluster -in big.sftb -hosts 1000 -host-cores 4 -dispatch RR -shards 16
//	faasbench cluster -hosts 4 -dispatch WARMFIRST -keepalive TTL -memory 1024 -arrivals trace
//	faasbench cluster -hosts 8 -dispatch PREDICTED -sched PSRTF -speeds 1.5x4,0.5x4 -net-delay 200us-2ms
//	faasbench chain -family LINEAR -depth 4 -sched SFS -arrivals trace -load 0.9
//	faasbench chain -family DIAMOND -sched CFS -keepalive HIST -memory 2048
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/azure"
	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// kaFlags is the container keep-alive flag set shared by the replay and
// cluster subcommands.
type kaFlags struct {
	policy *string
	memory *int
	ttl    *time.Duration
}

func newKAFlags(fs *flag.FlagSet) *kaFlags {
	return &kaFlags{
		policy: fs.String("keepalive", "", "container keep-alive policy: "+strings.Join(lifecycle.PolicyNames(), ", ")+" (empty = pre-warmed, no cold starts)"),
		memory: fs.Int("memory", 0, "container memory capacity in MB per host (0 = unlimited; needs -keepalive)"),
		ttl:    fs.Duration("keepalive-ttl", lifecycle.DefaultTTL, "fixed keep-alive window (TTL policy) and HIST fallback"),
	}
}

func (k *kaFlags) enabled() bool { return *k.policy != "" }

// newManager builds one host's manager; call only when enabled (the
// name and capacity were checked by validate, so errors here are
// internal).
func (k *kaFlags) newManager(seed uint64) *lifecycle.Manager {
	m, err := lifecycle.NewByName(*k.policy, *k.memory, *k.ttl, seed)
	if err != nil {
		fatal(err)
	}
	return m
}

func (k *kaFlags) validate() {
	if !k.enabled() {
		if *k.memory != 0 {
			fatal(fmt.Errorf("-memory needs -keepalive (pre-warmed runs model no containers)"))
		}
		return
	}
	if _, err := lifecycle.NewByName(*k.policy, *k.memory, *k.ttl, 0); err != nil {
		fatal(err)
	}
}

func (k *kaFlags) report(st lifecycle.Stats) {
	fmt.Println(st.Summary(*k.policy))
}

func main() {
	args := os.Args[1:]
	cmd := "gen"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "gen":
		cmdGen(args)
	case "export":
		cmdExport(args)
	case "replay":
		cmdReplay(args)
	case "convert":
		cmdConvert(args)
	case "cluster":
		cmdCluster(args)
	case "chain":
		cmdChain(args)
	case "ingest":
		cmdIngest(args)
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q (want gen, export, replay, convert, cluster, chain, or ingest)\n", cmd)
		os.Exit(1)
	}
}

// genFlags holds the generation flag set shared by gen and export.
type genFlags struct {
	fs         *flag.FlagSet
	n          *int
	cores      *int
	load       *float64
	arrivals   *string
	seed       *uint64
	ioFraction *float64
	spikes     *int
	mix        *bool
	// synth shape flags (invitro synthesizer UX).
	shape     *string
	startRPS  *float64
	targetRPS *float64
	slots     *int
	slotDur   *time.Duration
	horizon   *time.Duration
}

func newGenFlags(name string) *genFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &genFlags{
		fs:         fs,
		n:          fs.Int("n", 10000, "number of invocations (synth: cap, 0 = until horizon)"),
		cores:      fs.Int("cores", 16, "cores the load is calibrated for"),
		load:       fs.Float64("load", 0.8, "offered CPU load fraction (poisson/trace)"),
		arrivals:   fs.String("arrivals", "poisson", "scenario family: synth, or one of "+strings.Join(workload.FamilyNames(), ", ")+" (trace = azure)"),
		seed:       fs.Uint64("seed", 42, "RNG seed"),
		ioFraction: fs.Float64("io-fraction", 0, "fraction of requests with a leading I/O op"),
		spikes:     fs.Int("spikes", 0, "overload spikes to inject (trace arrivals only)"),
		mix:        fs.Bool("mix", false, "use the fib/md/sa application mix instead of pure fib"),
		shape:      fs.String("shape", "ramp", "synth RPS profile: constant, ramp, step, or sine"),
		startRPS:   fs.Float64("start-rps", 50, "synth: starting RPS value"),
		targetRPS:  fs.Float64("target-rps", 500, "synth: target RPS reached in the last slot / at the horizon"),
		slots:      fs.Int("slots", 10, "synth step: number of fixed-RPS slots"),
		slotDur:    fs.Duration("slot-dur", 10*time.Second, "synth step: duration of each RPS slot"),
		horizon:    fs.Duration("horizon", 60*time.Second, "synth: total trace span (ramp/sine/constant)"),
	}
}

// parse parses the subcommand's flags and rejects the generation flags
// no family can honour: -n must be positive for every family but synth
// (where 0 means "until -horizon"; the others would panic or stream
// forever), and -cores at least 1.
func (g *genFlags) parse(args []string) {
	g.fs.Parse(args)
	if *g.n < 0 || *g.n == 0 && *g.arrivals != "synth" {
		fatal(fmt.Errorf("-n must be positive with -arrivals %s (only synth takes -n 0, meaning until -horizon)", *g.arrivals))
	}
	if *g.cores < 1 {
		fatal(fmt.Errorf("-cores must be at least 1"))
	}
}

func (g *genFlags) apps() []workload.AppChoice {
	if !*g.mix {
		return nil
	}
	return workload.OpenLambdaMix()
}

// source builds the configured scenario family as a trace.Source.
func (g *genFlags) source() trace.Source {
	switch *g.arrivals {
	case "poisson":
		return workload.Stream(workload.Spec{
			N: *g.n, Cores: *g.cores, Load: *g.load, Seed: *g.seed,
			IOFraction: *g.ioFraction, Apps: g.apps(),
		})
	case "trace":
		return workload.AzureSampledStream(workload.AzureSampledSpec{
			N: *g.n, Cores: *g.cores, Load: *g.load, Seed: *g.seed,
			IOFraction: *g.ioFraction, Apps: g.apps(), Spikes: *g.spikes,
		})
	case "synth":
		shape, err := trace.ParseShape(*g.shape)
		if err != nil {
			fatal(err)
		}
		spec := workload.SyntheticSpec{
			Shape: shape, StartRPS: *g.startRPS, TargetRPS: *g.targetRPS,
			Slots: *g.slots, SlotDur: *g.slotDur, N: *g.n,
			IOFraction: *g.ioFraction, Apps: g.apps(), Seed: *g.seed,
		}
		if shape != trace.ShapeStep {
			spec.Horizon = *g.horizon
		}
		return workload.SyntheticStream(spec)
	default:
		// Any registered scenario family (diurnal, flashcrowd,
		// multitenant, trigger, ...); poisson/trace/synth were handled
		// above with their extra knobs.
		src, err := workload.NewFamily(*g.arrivals, workload.FamilyConfig{
			N: *g.n, Cores: *g.cores, Load: *g.load, Seed: *g.seed, Apps: g.apps(),
		})
		if err != nil {
			fatal(err)
		}
		return src
	}
}

func cmdGen(args []string) {
	g := newGenFlags("gen")
	emit := g.fs.Bool("emit", false, "emit the trace as per-invocation CSV to stdout instead of a summary")
	g.parse(args)
	src := g.source()
	if *emit {
		fmt.Println("id,app,arrival_ms,service_ms,io_ops,io_total_ms")
		for {
			t, ok := src.Next()
			if !ok {
				break
			}
			fmt.Printf("%d,%s,%.3f,%.3f,%d,%.3f\n",
				t.ID, t.App,
				float64(t.Arrival)/float64(time.Millisecond),
				float64(t.Service)/float64(time.Millisecond),
				len(t.IOOps),
				float64(t.TotalIO())/float64(time.Millisecond))
		}
		checkErr(src)
		return
	}
	summarize(src, *g.cores)
}

func cmdExport(args []string) {
	g := newGenFlags("export")
	out := g.fs.String("o", "", "output path (default stdout); replayable by faasbench replay and sfs-sim -workload")
	format := g.fs.String("format", "csv", "output format: csv or binary (the length-prefixed SFTB codec)")
	g.parse(args)
	if *format != "csv" && *format != "binary" {
		fatal(fmt.Errorf("unknown -format %q (want csv or binary)", *format))
	}
	src := g.source()
	w := os.Stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fatal(err)
		}
		w = f
	}
	write := trace.WriteCSV
	if *format == "binary" {
		write = trace.WriteBinary
	}
	n, err := write(w, src)
	if err != nil {
		fatal(err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d invocations to %s (%s, %s)\n", n, *out, src, *format)
	}
}

// cmdConvert re-encodes a trace between the CSV and binary formats.
// Both directions are lossless: timestamps are already microsecond
// fixed points in either codec, so converting back reproduces the
// original bytes.
func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace, CSV or binary (required; format sniffed)")
	out := fs.String("o", "", "output path (default stdout)")
	to := fs.String("to", "", "target format: csv or binary (default: the opposite of the input)")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("convert needs -in trace"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	src, err := trace.DetectSource(f)
	if err != nil {
		fatal(err)
	}
	target := *to
	if target == "" {
		if src.String() == "binary" {
			target = "csv"
		} else {
			target = "binary"
		}
	}
	write := trace.WriteCSV
	switch target {
	case "csv":
	case "binary":
		write = trace.WriteBinary
	default:
		fatal(fmt.Errorf("unknown -to format %q (want csv or binary)", target))
	}
	w := os.Stdout
	var of *os.File
	if *out != "" {
		if of, err = os.Create(*out); err != nil {
			fatal(err)
		}
		w = of
	}
	n, err := write(w, src)
	if err != nil {
		fatal(err)
	}
	if of != nil {
		if err := of.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("converted %d invocations: %s (%s) -> %s (%s)\n", n, *in, src, *out, target)
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "trace to replay, CSV or binary (required; format sniffed)")
	schedName := fs.String("sched", "", "simulate the trace under a scheduler ("+strings.Join(schedulers.Names(), ", ")+"); empty = summarize only")
	cores := fs.Int("cores", 16, "cores of the simulated host")
	seed := fs.Uint64("seed", 42, "RNG seed for cold-start sampling")
	ka := newKAFlags(fs)
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("replay needs -in trace.csv"))
	}
	if *cores < 1 {
		fatal(fmt.Errorf("-cores must be at least 1"))
	}
	ka.validate()
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	src, err := trace.DetectSource(f)
	if err != nil {
		fatal(err)
	}
	if *schedName == "" {
		summarize(src, *cores)
		return
	}
	s := mkScheduler(*schedName)
	tasks := trace.Collect(src)
	checkErr(src)
	if len(tasks) == 0 {
		fatal(fmt.Errorf("empty trace"))
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: *cores, Deadline: 10000 * time.Hour}, s)
	start := time.Now()
	var makespan time.Duration
	var mgr *lifecycle.Manager
	if ka.enabled() {
		mgr = ka.newManager(*seed)
		if makespan, err = lifecycle.Run(trace.FromTasks(*in, tasks), mgr, eng); err != nil {
			fatal(err)
		}
		tasks = eng.Tasks()
	} else {
		eng.Submit(tasks...)
		makespan = eng.Run()
	}
	fmt.Printf("replayed %d invocations from %s under %s on %d cores\n", len(tasks), *in, s.Name(), *cores)
	fmt.Printf("simulated %v of virtual time in %v wall time (%d ctx switches, %.0f%% utilization)\n",
		makespan.Round(time.Millisecond), time.Since(start).Round(time.Millisecond),
		eng.TotalCtxSwitches, eng.Utilization()*100)
	if mgr != nil {
		ka.report(mgr.Stats())
	}
	r := metrics.Run{Scheduler: s.Name(), Tasks: tasks}
	ps := r.Percentiles([]float64{50, 90, 99, 99.9})
	fmt.Printf("turnaround: p50=%s p90=%s p99=%s p99.9=%s mean=%s\n",
		metrics.FormatDuration(ps[0]), metrics.FormatDuration(ps[1]),
		metrics.FormatDuration(ps[2]), metrics.FormatDuration(ps[3]),
		metrics.FormatDuration(r.MeanTurnaround()))
	for _, bound := range []float64{0.5, 0.95} {
		fmt.Printf("RTE >= %.2f: %.1f%% of requests\n", bound, 100*r.FractionRTEAtLeast(bound))
	}
}

func mkScheduler(name string) cpusim.Scheduler {
	s, err := schedulers.New(name)
	if err != nil {
		fatal(err)
	}
	return s
}

// cmdCluster fans a generated or replayed trace out across N simulated
// hosts behind a dispatch policy, each host running its own scheduler
// instance, and reports merged plus per-host metrics.
func cmdCluster(args []string) {
	g := newGenFlags("cluster")
	hosts := g.fs.Int("hosts", 4, "number of simulated hosts")
	hostCores := g.fs.Int("host-cores", 8, "cores per host (load calibration uses hosts x host-cores, overriding -cores)")
	dispatch := g.fs.String("dispatch", "RR", "dispatch policy: "+strings.Join(cluster.Names(), ", "))
	schedName := g.fs.String("sched", "SFS", "per-host scheduler: "+strings.Join(schedulers.Names(), ", "))
	in := g.fs.String("in", "", "replay this trace (CSV or binary, sniffed) instead of generating (gen flags ignored)")
	shards := g.fs.Int("shards", 0, "run the sharded parallel engine with this many shards (0 = serial)")
	dispatchLatency := g.fs.Duration("dispatch-latency", 0, "sharded mode: dispatcher->host latency and lookahead window (default 1ms)")
	speedSpec := g.fs.String("speeds", "", "per-host speed factors, e.g. \"1.5x4,0.5x4\" or a single value for all hosts (empty = uniform 1.0)")
	netDelaySpec := g.fs.String("net-delay", "", "dispatcher->host network delay, e.g. \"500us\" or \"200us-2ms\" (uniform)")
	ka := newKAFlags(g.fs)
	g.parse(args)
	if *hosts < 1 || *hostCores < 1 {
		fatal(fmt.Errorf("cluster needs -hosts >= 1 and -host-cores >= 1"))
	}
	ka.validate()
	speeds, err := cluster.ParseSpeeds(*speedSpec, *hosts)
	if err != nil {
		fatal(err)
	}
	netDelay, err := cluster.ParseNetDelay(*netDelaySpec)
	if err != nil {
		fatal(err)
	}

	var src trace.Source
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if src, err = trace.DetectSource(f); err != nil {
			fatal(err)
		}
	} else {
		*g.cores = *hosts * *hostCores // calibrate offered load to the whole cluster
		src = g.source()
	}

	if _, err := schedulers.New(*schedName); err != nil {
		fatal(err)
	}
	d, err := cluster.NewDispatcher(*dispatch, cluster.FactoryConfig{Hosts: *hosts, Seed: *g.seed})
	if err != nil {
		fatal(err)
	}
	cfg := cluster.Config{
		Hosts:           *hosts,
		CoresPerHost:    *hostCores,
		NewScheduler:    func() cpusim.Scheduler { return mkScheduler(*schedName) },
		Dispatcher:      d,
		Shards:          *shards,
		DispatchLatency: *dispatchLatency,
		Speeds:          speeds,
		NetDelay:        netDelay,
		NetDelaySeed:    *g.seed,
	}
	if ka.enabled() {
		cfg.NewLifecycle = func() *lifecycle.Manager { return ka.newManager(*g.seed) }
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := cl.Run(src)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("cluster: %d hosts x %d cores, %s dispatch, %s per host\n",
		*hosts, *hostCores, res.Dispatcher, res.Scheduler)
	if res.Shards > 0 {
		fmt.Printf("sharded engine: %d shards, %v lookahead\n", res.Shards, res.Lookahead)
	}
	fmt.Printf("simulated %v of virtual time in %v wall time\n",
		res.Makespan.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Print(res.RenderPerHost())
	if ka.enabled() {
		ka.report(res.Lifecycle)
	}
	ps := res.Merged.Percentiles([]float64{50, 90, 99, 99.9})
	fmt.Printf("cluster-wide turnaround: p50=%s p90=%s p99=%s p99.9=%s mean=%s\n",
		metrics.FormatDuration(ps[0]), metrics.FormatDuration(ps[1]),
		metrics.FormatDuration(ps[2]), metrics.FormatDuration(ps[3]),
		metrics.FormatDuration(res.Merged.MeanTurnaround()))
	for _, bound := range []float64{0.5, 0.95} {
		fmt.Printf("RTE >= %.2f: %.1f%% of requests\n", bound, 100*res.Merged.FractionRTEAtLeast(bound))
	}
}

// cmdChain expands every generated request into a workflow of the
// selected family and simulates it on one host, reporting per-stage
// percentiles alongside per-workflow end-to-end turnaround and slowdown
// — the metric per-invocation tables cannot show. The generated load is
// divided by the chain's stage count so the whole chain offers the
// requested -load.
func cmdChain(args []string) {
	g := newGenFlags("chain")
	family := g.fs.String("family", "LINEAR", "workflow family: "+strings.Join(chain.FamilyNames(), ", "))
	depth := g.fs.Int("depth", 3, "workflow scale: LINEAR stages / DIAMOND branches")
	schedName := g.fs.String("sched", "SFS", "scheduler: "+strings.Join(schedulers.Names(), ", "))
	ka := newKAFlags(g.fs)
	g.parse(args)
	ka.validate()

	var src trace.Source
	var injCfg chain.Config
	var familyDesc string
	if *g.arrivals == "trigger" {
		// The trigger family carries its own per-class workflow map
		// (http/queue/timer chains); -family and -depth are ignored and
		// the load is already calibrated to the whole chains.
		var cfg chain.Config
		var err error
		src, cfg, err = workload.TriggerStream(workload.TriggerSpec{
			N: *g.n, Cores: *g.cores, Load: *g.load, Seed: *g.seed,
		})
		if err != nil {
			fatal(err)
		}
		injCfg = cfg
		familyDesc = "TRIGGER mix"
	} else {
		spec, err := chain.NewFamily(*family, chain.FamilyConfig{Depth: *depth})
		if err != nil {
			fatal(err)
		}
		// Stages inherit each request's sampled service, so the chain
		// multiplies per-request CPU demand by the stage count;
		// recalibrate the calibrated families to the whole chain.
		if *g.arrivals != "synth" {
			*g.load /= spec.ServiceFactor(0)
		}
		src = g.source()
		injCfg = chain.Config{Default: &spec, Seed: *g.seed}
		familyDesc = fmt.Sprintf("%s depth %d", strings.ToUpper(*family), *depth)
	}
	inj, err := chain.NewInjector(injCfg)
	if err != nil {
		fatal(err)
	}
	s := mkScheduler(*schedName)
	eng := cpusim.NewEngine(cpusim.Config{Cores: *g.cores, Deadline: 10000 * time.Hour}, s)
	var mgr *lifecycle.Manager
	if ka.enabled() {
		mgr = ka.newManager(*g.seed)
	}
	start := time.Now()
	makespan, err := chain.Run(src, inj, mgr, eng)
	if err != nil {
		fatal(err)
	}
	tasks := eng.Tasks()
	if len(tasks) == 0 {
		fatal(fmt.Errorf("empty trace"))
	}

	fmt.Printf("chained %d invocations (%s) under %s on %d cores\n",
		len(tasks), familyDesc, s.Name(), *g.cores)
	fmt.Printf("simulated %v of virtual time in %v wall time (%d ctx switches, %.0f%% utilization)\n",
		makespan.Round(time.Millisecond), time.Since(start).Round(time.Millisecond),
		eng.TotalCtxSwitches, eng.Utilization()*100)
	if mgr != nil {
		ka.report(mgr.Stats())
	}
	r := metrics.Run{Scheduler: s.Name(), Tasks: tasks}
	ps := r.Percentiles([]float64{50, 90, 99, 99.9})
	fmt.Printf("per-stage turnaround: p50=%s p90=%s p99=%s p99.9=%s mean=%s\n",
		metrics.FormatDuration(ps[0]), metrics.FormatDuration(ps[1]),
		metrics.FormatDuration(ps[2]), metrics.FormatDuration(ps[3]),
		metrics.FormatDuration(r.MeanTurnaround()))
	wfr := metrics.WorkflowRun{Scheduler: s.Name(), Workflows: inj.Workflows()}
	fmt.Println(wfr.Render())
	slow := wfr.SlowdownPercentiles(50, 99)
	fmt.Printf("e2e slowdown: p50=%.2fx p99=%.2fx\n", slow[0], slow[1])
}

// summarize streams a source once, printing the headline statistics and
// the Table I range check.
func summarize(src trace.Source, cores int) {
	var durs []time.Duration
	byApp := map[string]int{}
	withIO := 0
	var tasks []*task.Task
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		tasks = append(tasks, t)
		durs = append(durs, t.IdealDuration())
		byApp[t.App]++
		if len(t.IOOps) > 0 {
			withIO++
		}
	}
	checkErr(src)
	if len(tasks) == 0 {
		fatal(fmt.Errorf("empty trace"))
	}

	var svcSum time.Duration
	for _, t := range tasks {
		svcSum += t.Service
	}
	meanCPU := svcSum / time.Duration(len(tasks))
	span := time.Duration(tasks[len(tasks)-1].Arrival - tasks[0].Arrival)
	meanIAT := time.Duration(0)
	offered := 0.0
	if len(tasks) > 1 && span > 0 {
		meanIAT = span / time.Duration(len(tasks)-1)
		offered = float64(meanCPU) / float64(meanIAT) / float64(cores)
	}

	fmt.Printf("trace: %s\n", src)
	fmt.Printf("requests: %d, span %v, mean CPU demand %v, mean IAT %v, offered load on %d cores: %.3f\n",
		len(tasks), span.Round(time.Millisecond), meanCPU, meanIAT, cores, offered)
	ps := stats.DurationPercentiles(durs, []float64{50, 90, 99, 99.9})
	fmt.Printf("ideal duration percentiles: p50=%v p90=%v p99=%v p99.9=%v\n", ps[0], ps[1], ps[2], ps[3])
	fmt.Printf("apps: %v; %d requests carry I/O ops\n", byApp, withIO)

	fmt.Println("\nTable I check (generated fraction per duration range):")
	for _, row := range workload.TableI() {
		lo, hi := row.Lo, row.Hi
		count := 0
		for _, d := range durs {
			if d >= lo && (hi == 0 || d < hi) {
				count++
			}
		}
		rangeStr := fmt.Sprintf("%8v - %8v", lo, hi)
		if hi == 0 {
			rangeStr = fmt.Sprintf(">= %v      ", lo)
		}
		fmt.Printf("  %s  paper %5.1f%%  generated %5.1f%%\n",
			rangeStr, row.Probability*100, 100*float64(count)/float64(len(durs)))
	}
}

// cmdIngest streams a real Azure Functions 2019 invocation CSV (row
// per function x 1440 minute columns, multi-GB at full size) onto a
// compact arrival-ordered tape and writes it out as a replayable
// trace. Memory is bounded by the emitted invocations plus the
// per-function duration index — never the CSV size — so a laptop can
// carve an experiment-sized window out of the full dataset.
func cmdIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	invPath := fs.String("invocations", "", "invocations_per_function CSV (required)")
	durPath := fs.String("durations", "", "function_durations_percentiles CSV servicing the invocations (optional; missing functions get -default-ms)")
	minutes := fs.String("minutes", "", "dataset minute window lo:hi (1-based, inclusive; empty = whole day)")
	scale := fs.Float64("scale", 1, "keep each invocation with this probability (0 < scale <= 1)")
	max := fs.Int("max", 0, "stop after this many invocations (0 = unlimited)")
	defaultMS := fs.Int("default-ms", 100, "service time in ms for functions without a durations row")
	seed := fs.Uint64("seed", 42, "RNG seed for thinning and within-minute placement")
	out := fs.String("o", "", "output path (default stdout); replayable by faasbench replay and sfs-sim -workload")
	format := fs.String("format", "binary", "output format: csv or binary (the length-prefixed SFTB codec)")
	fs.Parse(args)
	if *invPath == "" {
		fatal(fmt.Errorf("ingest needs -invocations file.csv"))
	}
	if *format != "csv" && *format != "binary" {
		fatal(fmt.Errorf("unknown -format %q (want csv or binary)", *format))
	}
	cfg := azure.IngestConfig{
		Scale:           *scale,
		MaxInvocations:  *max,
		DefaultDuration: time.Duration(*defaultMS) * time.Millisecond,
		Seed:            *seed,
	}
	if *minutes != "" {
		if _, err := fmt.Sscanf(*minutes, "%d:%d", &cfg.MinuteLo, &cfg.MinuteHi); err != nil {
			fatal(fmt.Errorf("bad -minutes %q (want lo:hi, e.g. 60:120): %v", *minutes, err))
		}
	}

	idx := map[azure.FuncKey]time.Duration{}
	if *durPath != "" {
		df, err := os.Open(*durPath)
		if err != nil {
			fatal(err)
		}
		if idx, err = azure.DurationsIndex(df); err != nil {
			df.Close()
			fatal(err)
		}
		df.Close()
	}

	inf, err := os.Open(*invPath)
	if err != nil {
		fatal(err)
	}
	defer inf.Close()
	start := time.Now()
	tp, st, err := azure.IngestTape(inf, idx, cfg)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fatal(err)
		}
		w = f
	}
	write := trace.WriteCSV
	if *format == "binary" {
		write = trace.WriteBinary
	}
	n, err := write(w, tp.Source())
	if err != nil {
		fatal(err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	truncated := ""
	if st.Truncated {
		truncated = " (truncated by -max)"
	}
	fmt.Fprintf(os.Stderr, "ingested %d invocations from %d rows (%d functions, %d defaulted durations)%s in %v; wrote %d records (%s)\n",
		st.Invocations, st.Rows, st.Functions, st.NoDuration, truncated,
		time.Since(start).Round(time.Millisecond), n, *format)
}

func checkErr(src trace.Source) {
	if err := trace.Err(src); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Command faasbench generates, exports, and replays FaaS invocation
// traces through the streaming trace pipeline (the paper's FaaSBench,
// §VII, plus an invitro-style synthetic RPS synthesizer), simulating
// them on one host or on a cluster of hosts behind a dispatch policy.
//
// Subcommands:
//
//	faasbench gen     [flags]              # generate and summarize (default)
//	faasbench export  [flags] -o out.csv   # generate and stream to CSV or
//	                                       # binary (-format binary)
//	faasbench replay  [flags]              # simulate a trace (-in, format
//	                                       # sniffed; else the -arrivals family)
//	                                       # on one host, or -hosts N behind a
//	                                       # -dispatch policy (-shards N: the
//	                                       # sharded engine); -chain expands each
//	                                       # request into a workflow
//	faasbench convert -in a.csv -o a.sftb  # convert a trace between CSV and
//	                                       # the binary (SFTB) format
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
//	trigger      timer/queue/http mixes; under replay -chain, each class
//	             feeds its own workflow shape
//
// Examples:
//
//	faasbench gen -n 10000 -cores 16 -load 0.8
//	faasbench gen -arrivals trace -spikes 5
//	faasbench gen -arrivals diurnal -n 100000 -cores 16 -load 0.7
//	faasbench ingest -invocations invocations_per_function_md.anon.d01.csv \
//	    -durations function_durations_percentiles.anon.d01.csv \
//	    -minutes 540:600 -scale 0.1 -o azure-d01.sftb
//	faasbench export -arrivals synth -shape ramp -start-rps 50 -target-rps 500 -horizon 60s -o ramp.csv
//	faasbench replay -in ramp.csv -sched SFS -cores 16
//	faasbench replay -in ramp.csv -sched SFS -keepalive HIST -memory 2048
//	faasbench replay -sched CFS -n 10000 -load 0.8 -arrivals trace
//	faasbench replay -fixed-slice 100ms -io-fraction 0.75
//	faasbench export -arrivals trace -n 1000000 -format binary -o big.sftb
//	faasbench convert -in ramp.csv -o ramp.sftb
//	faasbench replay -hosts 4 -cores 8 -dispatch PULL -arrivals trace
//	faasbench replay -in big.sftb -hosts 1000 -cores 4 -dispatch RR -shards 16
//	faasbench replay -hosts 4 -dispatch WARMFIRST -keepalive TTL -memory 1024 -arrivals flashcrowd
//	faasbench replay -hosts 8 -cores 8 -dispatch PREDICTED -sched PSRTF -speeds 1.5x4,0.5x4 -net-delay 200us-2ms
//	faasbench replay -chain LINEAR -chain-depth 4 -arrivals trace -load 0.9
//	faasbench replay -chain DIAMOND -sched CFS -keepalive HIST -memory 2048
//	faasbench replay -arrivals trigger -chain LINEAR -hosts 64 -cores 4 -dispatch PREDICTED
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/azure"
	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
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
	case "ingest":
		cmdIngest(args)
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q (want gen, export, replay, convert, or ingest)\n", cmd)
		os.Exit(1)
	}
}

// genFlags holds the generation flag set shared by gen, export and
// replay.
type genFlags struct {
	fs         *flag.FlagSet
	names      map[string]bool // the generation flags, by name
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
	g := &genFlags{
		fs:         fs,
		n:          fs.Int("n", 10000, "number of invocations (synth: cap, 0 = until horizon)"),
		cores:      fs.Int("cores", 16, "cores the load is calibrated for (replay: cores per host)"),
		load:       fs.Float64("load", 0.8, "offered CPU load fraction (replay: of -hosts x -cores)"),
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
	g.names = map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { g.names[f.Name] = true })
	return g
}

// parse parses the subcommand's flags, rejects -cores < 1, and
// canonicalizes -arrivals: lower case, with azure meaning trace.
func (g *genFlags) parse(args []string) {
	g.fs.Parse(args)
	if *g.cores < 1 {
		fatal(fmt.Errorf("-cores must be at least 1"))
	}
	if *g.arrivals = strings.ToLower(*g.arrivals); *g.arrivals == "azure" {
		*g.arrivals = "trace"
	}
}

// check rejects the generation flags no family can honour: -n must be
// positive for every family but synth (where 0 means "until -horizon";
// the others would panic or stream forever), -load positive and finite,
// -io-fraction within [0, 1], and the synth flags must give a positive
// rate over a positive span. A set flag the family ignores is an error
// too, rather than a silent no-op.
func (g *genFlags) check() {
	family := *g.arrivals
	g.fs.Visit(func(f *flag.Flag) {
		if why := ignoredBy(f.Name, family, *g.shape); why != "" {
			fatal(fmt.Errorf("-%s has no effect with -arrivals %s: %s", f.Name, family, why))
		}
	})
	if *g.n < 0 || *g.n == 0 && family != "synth" {
		fatal(fmt.Errorf("-n must be positive with -arrivals %s (only synth takes -n 0, meaning until -horizon)", family))
	}
	if !(*g.load > 0) || math.IsInf(*g.load, 1) {
		fatal(fmt.Errorf("-load must be positive and finite, got %v", *g.load))
	}
	if !(*g.ioFraction >= 0 && *g.ioFraction <= 1) {
		fatal(fmt.Errorf("-io-fraction must be within [0, 1], got %v", *g.ioFraction))
	}
	if family == "synth" {
		if err := g.synthSpec().Validate(); err != nil {
			fatal(fmt.Errorf("bad synth flags (-start-rps, -target-rps, -horizon, -slots, -slot-dur): %v", err))
		}
	}
}

// ignoredBy says why the -arrivals family ignores the generation flag
// name (with -shape shape), or returns "" when the family honours it.
func ignoredBy(name, family, shape string) string {
	switch name {
	case "io-fraction":
		if family != "poisson" && family != "trace" && family != "synth" {
			return "only poisson, trace and synth honour it"
		}
	case "spikes":
		if family != "trace" {
			return "only trace honours it"
		}
	case "mix":
		if family == "trigger" {
			return "trigger fixes its own applications"
		}
	case "load":
		if family == "synth" {
			return "synth's rate comes from -start-rps and -target-rps"
		}
	case "shape", "start-rps", "target-rps", "slots", "slot-dur", "horizon":
		step := shape == string(trace.ShapeStep)
		switch {
		case family != "synth":
			return "only synth honours the shape flags"
		case (name == "slots" || name == "slot-dur") && !step:
			return "only -shape step honours it"
		case name == "horizon" && step:
			return "-shape step spans -slots x -slot-dur"
		}
	}
	return ""
}

func (g *genFlags) apps() []workload.AppChoice {
	if !*g.mix {
		return nil
	}
	return workload.OpenLambdaMix()
}

func (g *genFlags) synthSpec() workload.SyntheticSpec {
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
	return spec
}

// source checks the flags and builds the configured scenario family as
// a trace.Source, its load calibrated to cores.
func (g *genFlags) source(cores int) trace.Source {
	g.check()
	switch *g.arrivals {
	case "poisson":
		return workload.Stream(workload.Spec{
			N: *g.n, Cores: cores, Load: *g.load, Seed: *g.seed,
			IOFraction: *g.ioFraction, Apps: g.apps(),
		})
	case "trace":
		return workload.AzureSampledStream(workload.AzureSampledSpec{
			N: *g.n, Cores: cores, Load: *g.load, Seed: *g.seed,
			IOFraction: *g.ioFraction, Apps: g.apps(), Spikes: *g.spikes,
		})
	case "synth":
		return workload.SyntheticStream(g.synthSpec())
	default:
		// Any registered scenario family (diurnal, flashcrowd,
		// multitenant, trigger, ...); poisson/trace/synth were handled
		// above with their extra knobs.
		src, err := workload.NewFamily(*g.arrivals, workload.FamilyConfig{
			N: *g.n, Cores: cores, Load: *g.load, Seed: *g.seed, Apps: g.apps(),
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
	src := g.source(*g.cores)
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
	out := g.fs.String("o", "", "output path (default stdout); replayable by faasbench replay -in")
	format := g.fs.String("format", "csv", "output format: csv or binary (the length-prefixed SFTB codec)")
	g.parse(args)
	if *format != "csv" && *format != "binary" {
		fatal(fmt.Errorf("unknown -format %q (want csv or binary)", *format))
	}
	src := g.source(*g.cores)
	n, err := writeTrace(src, *out, *format)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("wrote %d invocations to %s (%s, %s)\n", n, *out, src, *format)
	}
}

// writeTrace encodes src in format ("csv" or "binary") to the file at
// path, or to stdout when path is empty, and returns the records
// written.
func writeTrace(src trace.Source, path, format string) (int, error) {
	write := trace.WriteCSV
	if format == "binary" {
		write = trace.WriteBinary
	}
	if path == "" {
		return write(os.Stdout, src)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := write(f, src)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
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
	src, closeIn := openTrace(*in)
	defer closeIn()
	target := *to
	if target == "" {
		if src.String() == "binary" {
			target = "csv"
		} else {
			target = "binary"
		}
	}
	if target != "csv" && target != "binary" {
		fatal(fmt.Errorf("unknown -to format %q (want csv or binary)", target))
	}
	n, err := writeTrace(src, *out, target)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("converted %d invocations: %s (%s) -> %s (%s)\n", n, *in, src, *out, target)
	}
}

// openTrace opens a CSV or binary trace file, sniffing its format. The
// caller runs the returned close once done with the source.
func openTrace(path string) (trace.Source, func() error) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	src, err := trace.DetectSource(f)
	if err != nil {
		fatal(err)
	}
	return src, f.Close
}

// cmdReplay simulates a trace, read from -in or generated by the
// -arrivals family calibrated to -hosts x -cores, on one host or, with
// -hosts > 1, on a cluster behind a -dispatch policy, and prints one
// report. With an empty -sched it only summarizes the trace.
func cmdReplay(args []string) {
	g := newGenFlags("replay")
	fs := g.fs
	in := fs.String("in", "", "trace to replay, CSV or binary (format sniffed); empty = generate one from -arrivals")
	schedName := fs.String("sched", "SFS", "scheduler: "+strings.Join(schedulers.Names(), ", ")+", or IDEAL (single host only); empty = summarize the trace only")
	hosts := fs.Int("hosts", 1, "simulated hosts; > 1 runs a cluster behind -dispatch")
	dispatch := fs.String("dispatch", "RR", "cluster dispatch policy: "+strings.Join(cluster.Names(), ", "))
	shards := fs.Int("shards", 0, "cluster: run the sharded parallel engine with this many shards (0 = serial)")
	dispatchLatency := fs.Duration("dispatch-latency", 0, "sharded cluster: dispatcher->host latency and lookahead window (default 1ms)")
	speedSpec := fs.String("speeds", "", "cluster: per-host speed factors, e.g. \"1.5x4,0.5x4\" or a single value for all hosts (empty = uniform 1.0)")
	netDelaySpec := fs.String("net-delay", "", "cluster: dispatcher->host network delay, e.g. \"500us\" or \"200us-2ms\" (uniform)")
	sfsCfg := core.DefaultConfig()
	fs.DurationVar(&sfsCfg.FixedSlice, "fixed-slice", sfsCfg.FixedSlice, "pin the SFS time slice (0 = adaptive)")
	fs.DurationVar(&sfsCfg.PollInterval, "poll", sfsCfg.PollInterval, "SFS kernel-status polling interval")
	noHybrid := fs.Bool("no-hybrid", false, "disable SFS overload fallback")
	noIO := fs.Bool("io-oblivious", false, "disable SFS I/O-aware polling")
	keepalive := fs.String("keepalive", "", "container keep-alive policy: "+strings.Join(lifecycle.PolicyNames(), ", ")+" (empty = pre-warmed, no cold starts)")
	memory := fs.Int("memory", 0, "container memory capacity in MB per host (0 = unlimited; needs -keepalive)")
	ttl := fs.Duration("keepalive-ttl", lifecycle.DefaultTTL, "fixed keep-alive window (TTL policy) and HIST fallback")
	chainName := fs.String("chain", "", "expand each request into a workflow: "+strings.Join(chain.FamilyNames(), ", ")+" (with -arrivals trigger: the family's own per-class workflows; generated loads count every stage)")
	chainDepth := fs.Int("chain-depth", 3, "workflow scale: LINEAR stages / DIAMOND branches")
	g.parse(args)

	// Resolve every flag before simulating anything.
	if *in != "" {
		g.fs.Visit(func(f *flag.Flag) {
			if g.names[f.Name] && f.Name != "seed" && f.Name != "cores" {
				fatal(fmt.Errorf("-%s has no effect with -in (it shapes generated traces)", f.Name))
			}
		})
	}
	if *hosts < 1 {
		fatal(fmt.Errorf("-hosts must be at least 1"))
	}
	if sfsCfg.FixedSlice < 0 {
		fatal(fmt.Errorf("-fixed-slice must not be negative (0 = adaptive), got %v", sfsCfg.FixedSlice))
	}
	if sfsCfg.PollInterval <= 0 {
		fatal(fmt.Errorf("-poll must be positive, got %v", sfsCfg.PollInterval))
	}
	if *ttl <= 0 {
		fatal(fmt.Errorf("-keepalive-ttl must be positive, got %v", *ttl))
	}
	if *chainDepth < 1 {
		fatal(fmt.Errorf("-chain-depth must be at least 1, got %d", *chainDepth))
	}
	totalCores := *hosts * *g.cores
	if (*speedSpec != "" || *netDelaySpec != "") && *hosts == 1 {
		fatal(fmt.Errorf("-speeds and -net-delay model the cluster fleet; they need -hosts > 1"))
	}
	speeds, err := cluster.ParseSpeeds(*speedSpec, *hosts)
	if err != nil {
		fatal(fmt.Errorf("-speeds: %w", err))
	}
	netDelay, err := cluster.ParseNetDelay(*netDelaySpec)
	if err != nil {
		fatal(fmt.Errorf("-net-delay: %w", err))
	}
	cfg := cluster.Config{
		Hosts:           *hosts,
		CoresPerHost:    *g.cores,
		Shards:          *shards,
		DispatchLatency: *dispatchLatency,
		Speeds:          speeds,
		NetDelay:        netDelay,
		NetDelaySeed:    *g.seed,
	}
	if *keepalive != "" {
		if _, err := lifecycle.NewByName(*keepalive, *memory, *ttl, *g.seed); err != nil {
			fatal(err)
		}
		cfg.NewLifecycle = func() *lifecycle.Manager {
			m, _ := lifecycle.NewByName(*keepalive, *memory, *ttl, *g.seed) // validated above
			return m
		}
	} else if *memory != 0 {
		fatal(fmt.Errorf("-memory needs -keepalive (pre-warmed runs model no containers)"))
	}
	var family *chain.Spec
	if *chainName != "" {
		spec, err := chain.NewFamily(*chainName, chain.FamilyConfig{Depth: *chainDepth})
		if err != nil {
			fatal(err)
		}
		family = &spec
	}
	if strings.EqualFold(*schedName, "IDEAL") {
		// IDEAL is the analytic zero-interference oracle; silently
		// dropping hosts, cold starts or chain expansion would make
		// baseline comparisons unfair, so refuse rather than ignore the
		// flags.
		if *hosts > 1 {
			fatal(fmt.Errorf("-sched IDEAL is single host only (the oracle models no cluster)"))
		}
		if *keepalive != "" || family != nil {
			fatal(fmt.Errorf("-keepalive and -chain are not supported with -sched IDEAL (the oracle models no containers or workflows)"))
		}
	} else if *schedName != "" {
		sfsCfg.Hybrid, sfsCfg.IOAware = !*noHybrid, !*noIO
		cfg.NewScheduler = newScheduler(*schedName, sfsCfg)
	}

	var src trace.Source
	name := *in
	if *in != "" {
		var closeIn func() error
		src, closeIn = openTrace(*in)
		defer closeIn()
	} else if family != nil && *g.arrivals == "trigger" {
		// The trigger family feeds each class its own workflow, with
		// the load already calibrated to the whole chains.
		g.check()
		trig, chainCfg, err := workload.TriggerStream(workload.TriggerSpec{
			N: *g.n, Cores: totalCores, Load: *g.load, Seed: *g.seed,
		})
		if err != nil {
			fatal(err)
		}
		src, cfg.Chain = trig, &chainCfg
	} else {
		// Stages inherit each request's sampled service, so a chain
		// multiplies per-request CPU demand by its stage count; divide
		// the load so the whole chain offers the requested -load.
		if family != nil {
			*g.load /= family.ServiceFactor(0)
		}
		src = g.source(totalCores)
	}
	if name == "" {
		name = src.String()
	}
	if family != nil && cfg.Chain == nil {
		cfg.Chain = &chain.Config{Default: family, Seed: *g.seed}
	}

	switch {
	case *schedName == "":
		summarize(src, totalCores)
	case *hosts > 1:
		d, err := cluster.NewDispatcher(*dispatch, cluster.FactoryConfig{Hosts: *hosts, Seed: *g.seed})
		if err != nil {
			fatal(err)
		}
		cfg.Dispatcher = d
		runCluster(src, cfg, *keepalive)
	default:
		runHost(name, src, cfg, *keepalive)
	}
}

// newScheduler validates a scheduler name and returns its constructor.
// SFS is built from sfsCfg, the SFS flags applied to
// core.DefaultConfig, so at the flags' defaults it is exactly the
// registry's SFS.
func newScheduler(name string, sfsCfg core.Config) func() cpusim.Scheduler {
	if strings.EqualFold(name, "SFS") {
		return func() cpusim.Scheduler { return core.New(sfsCfg) }
	}
	if _, err := schedulers.New(name); err != nil {
		fatal(err)
	}
	return func() cpusim.Scheduler {
		s, _ := schedulers.New(name) // validated above
		return s
	}
}

// runHost collects the trace and simulates it on one host of
// cfg.CoresPerHost cores: plainly, through the keep-alive layer, or
// expanded into workflows. A nil cfg.NewScheduler is the IDEAL oracle.
func runHost(name string, src trace.Source, cfg cluster.Config, keepalive string) {
	tasks := trace.Collect(src)
	checkErr(src)
	if len(tasks) == 0 {
		fatal(fmt.Errorf("empty trace"))
	}
	if cfg.NewScheduler == nil {
		sched.RunIdeal(tasks)
		fmt.Printf("replayed %d invocations from %s under IDEAL on %d cores\n", len(tasks), name, cfg.CoresPerHost)
		report(metrics.Run{Scheduler: "IDEAL", Tasks: tasks}, "", lifecycle.Stats{}, nil)
		return
	}
	s := cfg.NewScheduler()
	eng := cpusim.NewEngine(cpusim.Config{Cores: cfg.CoresPerHost, Deadline: 10000 * time.Hour}, s)
	var mgr *lifecycle.Manager
	if cfg.NewLifecycle != nil {
		mgr = cfg.NewLifecycle()
	}
	var inj *chain.Injector
	start := time.Now()
	var makespan time.Duration
	var err error
	switch {
	case cfg.Chain != nil:
		if inj, err = chain.NewInjector(*cfg.Chain); err != nil {
			fatal(err)
		}
		makespan, err = chain.Run(trace.FromTasks(name, tasks), inj, mgr, eng)
	case mgr != nil:
		makespan, err = lifecycle.Run(trace.FromTasks(name, tasks), mgr, eng)
	default:
		eng.Submit(tasks...)
		makespan = eng.Run()
	}
	if err != nil {
		fatal(err)
	}
	tasks = eng.Tasks()
	fmt.Printf("replayed %d invocations from %s under %s on %d cores\n", len(tasks), name, s.Name(), cfg.CoresPerHost)
	fmt.Printf("simulated %v of virtual time in %v wall time (%d ctx switches, %.0f%% utilization)\n",
		makespan.Round(time.Millisecond), time.Since(start).Round(time.Millisecond),
		eng.TotalCtxSwitches, eng.Utilization()*100)
	var st lifecycle.Stats
	if mgr != nil {
		st = mgr.Stats()
	}
	var wf *metrics.WorkflowRun
	if inj != nil {
		wf = &metrics.WorkflowRun{Scheduler: s.Name(), Workflows: inj.Workflows()}
	}
	report(metrics.Run{Scheduler: s.Name(), Tasks: tasks}, keepalive, st, wf)
	if sfs, ok := s.(*core.SFS); ok {
		fmt.Printf("SFS: S=%v, %d requests, %d FILTER completions, %d demotions, %d overload-routed\n",
			sfs.Slice(), sfs.Stat.Requests, sfs.Stat.FilterCompletions,
			sfs.Stat.Demotions, sfs.Stat.OverloadRouted)
	}
}

// runCluster streams the trace across cfg.Hosts hosts behind
// cfg.Dispatcher and reports merged plus per-host metrics.
func runCluster(src trace.Source, cfg cluster.Config, keepalive string) {
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
		cfg.Hosts, cfg.CoresPerHost, res.Dispatcher, res.Scheduler)
	if res.Shards > 0 {
		fmt.Printf("sharded engine: %d shards, %v lookahead\n", res.Shards, res.Lookahead)
	}
	fmt.Printf("simulated %v of virtual time in %v wall time\n",
		res.Makespan.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Print(res.RenderPerHost())
	var wf *metrics.WorkflowRun
	if cfg.Chain != nil {
		wf = &res.Workflows
	}
	report(res.Merged, keepalive, res.Lifecycle, wf)
}

// report prints the lines every simulation mode shares: the keep-alive
// summary (with -keepalive), the turnaround percentiles and RTE lines,
// and the workflow summary and end-to-end slowdown (with -chain).
func report(r metrics.Run, keepalive string, st lifecycle.Stats, wf *metrics.WorkflowRun) {
	if keepalive != "" {
		fmt.Println(st.Summary(keepalive))
	}
	ps := r.Percentiles([]float64{50, 90, 99, 99.9})
	fmt.Printf("turnaround: p50=%s p90=%s p99=%s p99.9=%s mean=%s\n",
		metrics.FormatDuration(ps[0]), metrics.FormatDuration(ps[1]),
		metrics.FormatDuration(ps[2]), metrics.FormatDuration(ps[3]),
		metrics.FormatDuration(r.MeanTurnaround()))
	for _, bound := range []float64{0.5, 0.95} {
		fmt.Printf("RTE >= %.2f: %.1f%% of requests\n", bound, 100*r.FractionRTEAtLeast(bound))
	}
	if wf != nil {
		fmt.Println(wf.Render())
		slow := wf.SlowdownPercentiles(50, 99)
		fmt.Printf("e2e slowdown: p50=%.2fx p99=%.2fx\n", slow[0], slow[1])
	}
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
		offered = queueing.OfferedLoad(meanCPU, meanIAT, cores)
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
	out := fs.String("o", "", "output path (default stdout); replayable by faasbench replay -in")
	format := fs.String("format", "binary", "output format: csv or binary (the length-prefixed SFTB codec)")
	fs.Parse(args)
	if *invPath == "" {
		fatal(fmt.Errorf("ingest needs -invocations file.csv"))
	}
	if *format != "csv" && *format != "binary" {
		fatal(fmt.Errorf("unknown -format %q (want csv or binary)", *format))
	}
	if !(*scale > 0 && *scale <= 1) {
		fatal(fmt.Errorf("-scale must be within (0, 1], got %v", *scale))
	}
	if *max < 0 {
		fatal(fmt.Errorf("-max must not be negative (0 = unlimited), got %d", *max))
	}
	if *defaultMS < 1 {
		fatal(fmt.Errorf("-default-ms must be at least 1, got %d", *defaultMS))
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
		if cfg.MinuteLo < 1 || cfg.MinuteHi > 1440 || cfg.MinuteLo > cfg.MinuteHi {
			fatal(fmt.Errorf("bad -minutes %q (want lo:hi with 1 <= lo <= hi <= 1440)", *minutes))
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
	n, err := writeTrace(tp.Source(), *out, *format)
	if err != nil {
		fatal(err)
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

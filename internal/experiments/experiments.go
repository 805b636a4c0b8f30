// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's own substrates. Each experiment is
// registered under the paper's identifier (fig1, fig2a, ..., table2) and
// produces a Report containing the same series or rows the paper plots,
// plus paper-vs-measured notes that EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// Config scales an experiment run.
type Config struct {
	// Quick shrinks request counts and core counts so the whole suite
	// runs in seconds (used by tests and benchmarks). Full mode matches
	// the paper's scale (10,000 replayed invocations, 12/16/72 cores).
	Quick bool
	// Seed drives all synthetic inputs. RunAll and RunOne derive a
	// per-experiment seed from it (see DeriveSeed) so results are
	// independent of worker count and execution order.
	Seed uint64

	// pool, when set by RunAll/RunOne, lets experiments fan their
	// independent inner sweep cells across the shared worker pool via
	// sweep. The zero Config sweeps serially.
	pool *Pool
}

// Series is one named line of a figure (e.g. "CFS 100%"): a CDF (F is a
// cumulative fraction over X) or, when Line is set, a plain (x, y)
// sequence such as a timeline.
type Series struct {
	Name   string
	Points []stats.CDFPoint
	Line   bool // Points are (x, y) samples rather than a CDF
}

// Report is an experiment's output.
type Report struct {
	ID     string
	Title  string
	Paper  string // what the paper reports for this experiment
	Series []Series
	Header []string
	Rows   [][]string
	Notes  []string // measured headline numbers, paper-vs-measured

	// WallClock is how long the experiment took, stamped by
	// Experiment.Run. It is deliberately absent from Render and CSV:
	// rendered bytes must be a pure function of (seed, scale) — the
	// DeterministicBytes contract perfbench asserts — and wall-clock
	// time never is. cmd/experiments prints it on its own line instead.
	WallClock time.Duration
}

// Render produces the textual form printed by cmd/experiments.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	if len(r.Header) > 0 {
		b.WriteString(metrics.Table(r.Header, r.Rows))
	}
	for _, s := range r.Series {
		b.WriteString(renderSeries(s))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// renderSeries summarizes a CDF at fixed fractions, or a line series by
// its y-range and mean.
func renderSeries(s Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "series %-22s", s.Name)
	if len(s.Points) == 0 {
		b.WriteString(" (empty)\n")
		return b.String()
	}
	if s.Line {
		min, max, sum := s.Points[0].F, s.Points[0].F, 0.0
		for _, p := range s.Points {
			if p.F < min {
				min = p.F
			}
			if p.F > max {
				max = p.F
			}
			sum += p.F
		}
		fmt.Fprintf(&b, "  n=%-6d ymin=%-10.3f ymean=%-10.3f ymax=%-10.3f\n",
			len(s.Points), min, sum/float64(len(s.Points)), max)
		return b.String()
	}
	for _, f := range []float64{0.5, 0.9, 0.99} {
		idx := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].F >= f })
		if idx >= len(s.Points) {
			idx = len(s.Points) - 1
		}
		fmt.Fprintf(&b, "  p%-4.0f=%-12.3f", f*100, s.Points[idx].X)
	}
	b.WriteByte('\n')
	return b.String()
}

// CSV renders the report's series (or rows) as CSV for plotting.
func (r *Report) CSV() string {
	var b strings.Builder
	if len(r.Header) > 0 {
		b.WriteString(strings.Join(r.Header, ","))
		b.WriteByte('\n')
		for _, row := range r.Rows {
			b.WriteString(strings.Join(row, ","))
			b.WriteByte('\n')
		}
		return b.String()
	}
	b.WriteString("series,x,f\n")
	for _, s := range r.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g\n", s.Name, p.X, p.F)
		}
	}
	return b.String()
}

// Experiment pairs an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	run   func(cfg Config) *Report
}

// Run runs the experiment under cfg and stamps the report with the
// experiment's ID and the wall-clock time the run took.
func (e Experiment) Run(cfg Config) *Report {
	start := time.Now()
	rep := e.run(cfg)
	rep.ID, rep.WallClock = e.ID, time.Since(start)
	return rep
}

// registry holds all experiments in registry order, the order RunAll
// returns their reports in. The experiments-quick golden
// (internal/goldens) and the ID list bench/metrics.go pins both fix
// this order, so moving a row changes both. Adding an experiment is one
// row here plus a run function built from replay, sweep or runFleet.
var registry = []Experiment{
	{"ablation-secondlevel", "SFS atop CFS vs atop EEVDF (Linux 6.6+)", runAblationSecondLevel},
	{"ablation-baselines", "SFS vs FIFO/RR/CoreGranular/Lottery baselines", runAblationBaselines},
	{"ablation-window", "Monitor window size N sensitivity", runAblationWindow},
	{"ablation-overload", "Overload factor O sensitivity", runAblationOverload},
	{"ablation-tail", "Table I fib tail vs production Azure heavy tail", runAblationTail},
	{"ablation-queueing", "Global queue vs per-core queues (§VI design argument)", runAblationQueueing},
	{"chain-slowdown", "End-to-end workflow slowdown x scheduler x chain depth x load", runChainSlowdown},
	{"cluster-dispatch", "Dispatch policy x host count x load over SFS hosts", runClusterDispatch},
	{"keepalive", "Keep-alive policy x memory budget x scenario family", runKeepalive},
	{"fig1", "CDF of average function execution duration, Azure Functions trace", runFig1},
	{"table1", "Duration-range probabilities and fib N mapping", runTable1},
	{"fig2a", "Motivation: duration CDF under FIFO/RR/CFS/SRTF/IDEAL (12 cores, 80%/100%)", runFig2a},
	{"fig2b", "Motivation: RTE CDF under FIFO/RR/CFS/SRTF/IDEAL (12 cores, 80%/100%)", runFig2b},
	{"fig13", "OpenLambda end-to-end duration CDF, OL+SFS vs OL+CFS (72 cores)", runFig13},
	{"fig14", "OpenLambda RTE CDF, OL+SFS vs OL+CFS", runFig14},
	{"fig15", "OpenLambda percentile breakdowns", runFig15},
	{"fig16", "Ratio of CFS context switches to SFS context switches per request", runFig16},
	{"table2", "SFS CPU overhead vs polling interval (72-core deployment)", runTable2},
	{"predicted-dispatch", "Prediction-driven scheduling and dispatch across error regimes", runPredictedDispatch},
	{"fig6", "Standalone SFS vs CFS duration CDF across loads (16 vCPUs)", runFig6},
	{"fig7", "Standalone SFS vs CFS RTE CDF across loads", runFig7},
	{"fig8", "Percentile breakdowns of duration, SFS vs CFS per load", runFig8},
	{"fig9", "Adaptive time slice vs fixed 50/100/200 ms", runFig9},
	{"fig10", "Timeline of adapted time slice vs observed IATs", runFig10},
	{"fig11", "I/O handling: polling 1/4/8 ms vs I/O-oblivious SFS", runFig11},
	{"fig12a", "Overload handling: queueing-delay timeline, SFS vs SFS w/o hybrid", runFig12a},
	{"fig12b", "Overload handling: duration CDF, SFS vs SFS w/o hybrid", runFig12b},
	{"synth-ramp", "Synthetic RPS ramp: SFS vs CFS as offered load crosses saturation", runSynthRamp},
}

// All returns every experiment in registry order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared helpers ----

// scaleN returns the request count: the paper's 10,000 replayed
// invocations, or a quick-mode reduction.
func scaleN(cfg Config, full int) int {
	if cfg.Quick {
		n := full / 8
		if n < 400 {
			n = 400
		}
		return n
	}
	return full
}

// scaleCores shrinks large deployments in quick mode.
func scaleCores(cfg Config, full int) int {
	if cfg.Quick && full > 16 {
		return 16
	}
	return full
}

// variant is one scheduler configuration a replay runs: name labels its
// run (the rows, series and notes read it) and mk builds a fresh
// scheduler for it.
type variant struct {
	name string
	mk   func() cpusim.Scheduler
}

// named is the variant of a registered scheduler (internal/schedulers,
// looked up case-insensitively) at its default configuration.
func named(name string) variant {
	return variant{name, func() cpusim.Scheduler {
		s, err := schedulers.New(name)
		if err != nil {
			panic(err)
		}
		return s
	}}
}

// sfsWith is the SFS variant whose default configuration edit adjusts
// (a nil edit keeps the default).
func sfsWith(name string, edit func(*core.Config)) variant {
	return variant{name, func() cpusim.Scheduler {
		c := core.DefaultConfig()
		if edit != nil {
			edit(&c)
		}
		return core.New(c)
	}}
}

// result is one variant's replay: its run, plus the SFS scheduler it
// ran under (nil for any other scheduler) and its engine, for the
// stats a report reads beyond the run.
type result struct {
	metrics.Run
	sfs *core.SFS
	eng *cpusim.Engine
}

// replay runs every variant on its own copy of w on one cores-core
// host, fanned across the pool, and returns the runs in variant order,
// each labelled with its variant's name and load.
func replay(cfg Config, w []*task.Task, cores int, load float64, vs ...variant) []result {
	return sweep(cfg, vs, func(v variant) result {
		s := v.mk()
		tasks := trace.CloneTasks(w)
		eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 10000 * time.Hour}, s)
		eng.Submit(tasks...)
		eng.Run()
		sfs, _ := s.(*core.SFS)
		return result{metrics.Run{Scheduler: v.name, Load: load, Tasks: tasks}, sfs, eng}
	})
}

// runFleet runs src through the cluster cc describes behind the named
// dispatch policy, built from fc.
func runFleet(cc cluster.Config, dispatch string, fc cluster.FactoryConfig, src trace.Source) *cluster.Result {
	d, err := cluster.NewDispatcher(dispatch, fc)
	if err != nil {
		panic(err)
	}
	cc.Dispatcher = d
	cl, err := cluster.New(cc)
	if err != nil {
		panic(err)
	}
	res, err := cl.Run(src)
	if err != nil {
		panic(err)
	}
	return res
}

// durationSeries converts a run to a duration-CDF series named like the
// paper's legends ("CFS 100%").
func durationSeries(name string, load float64, r metrics.Run) Series {
	return Series{Name: fmt.Sprintf("%s %.0f%%", name, load*100), Points: r.DurationCDF()}
}

// rteSeries converts a run to an RTE-CDF series.
func rteSeries(name string, load float64, r metrics.Run) Series {
	return Series{Name: fmt.Sprintf("%s %.0f%%", name, load*100), Points: r.RTECDF()}
}

// fmtMS renders a duration as milliseconds for rows.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// smtYield derates the paper's EC2 vCPU capacity to full-core
// equivalents when calibrating offered load. The evaluation hardware
// exposes SMT hyperthreads and runs platform background work (OpenLambda
// servers, monitoring, the OS itself), so a nominal "100% of 16 vCPUs"
// arrival rate slightly oversubscribes the machine — the regime in which
// the paper observes CFS collapsing (89.9% of requests with RTE < 0.2 at
// 100% load) while its 80% level remains only moderately congested
// (11.4% below 0.2). The simulator's cores are ideal full cores with no
// background work, so experiments scale nominal loads by 1/smtYield;
// 0.97 reproduces the paper's saturation boundary: nominal 100% sits
// just past unity on the simulator's ideal cores (catastrophic for CFS
// on the small 12/16-core hosts, absorbed far better by the 72-core
// deployment), while nominal 80% remains moderately congested.
// EXPERIMENTS.md discusses this substitution.
const smtYield = 0.94

// derate converts a paper-nominal load level (defined against vCPUs) to
// the offered load on the simulator's full cores: nominal L on c vCPUs
// is L/smtYield on c full-core equivalents.
func derate(load float64) float64 { return load / smtYield }

// poissonWorkload builds the §VIII-A standalone workload: Table I
// durations with Poisson IATs calibrated to the nominal load (derated
// for SMT; see smtYield).
func poissonWorkload(cfg Config, n, cores int, load float64) []*task.Task {
	return trace.Collect(workload.Stream(workload.Spec{
		N: n, Cores: cores, Load: derate(load), Seed: cfg.Seed,
	}))
}

// azureWorkload builds the canonical trace-driven workload (nominal
// load derated for SMT; see smtYield).
func azureWorkload(cfg Config, n, cores int, load float64, apps []workload.AppChoice, ioFrac float64) []*task.Task {
	return trace.Collect(workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: cores, Load: derate(load), Seed: cfg.Seed,
		Apps: apps, IOFraction: ioFrac,
	}))
}

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

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/metrics"
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
	// Config.fan. The zero Config fans serially.
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
	// RunAll/RunOne. It is deliberately absent from Render and CSV:
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
	Run   func(cfg Config) *Report
}

// registry holds all experiments in paper order.
var registry []Experiment

func register(id, title string, run func(cfg Config) *Report) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in paper order.
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

// runOn replays tasks under a scheduler and returns the run plus engine.
func runOn(s cpusim.Scheduler, cores int, tasks []*task.Task, load float64) (metrics.Run, *cpusim.Engine) {
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 10000 * time.Hour}, s)
	eng.Submit(tasks...)
	eng.Run()
	return metrics.Run{Scheduler: s.Name(), Load: load, Tasks: tasks}, eng
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

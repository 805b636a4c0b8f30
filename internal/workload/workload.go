// Package workload implements FaaSBench, the paper's workload generator
// (§VII): it synthesizes function invocation streams modeled after the
// Azure Functions traces, with configurable duration distributions
// (Table I), inter-arrival-time processes, an I/O knob, and the
// fib/md/sa application mix used in the OpenLambda evaluation.
//
// Generation is streaming: every scenario family (Poisson/Table I,
// Azure-sampled replays, synthetic RPS shapes, diurnal, flash-crowd,
// multi-tenant and trigger mixes) exists only as a trace.Source — a
// pull-based iterator that never materializes the invocation stream.
// Consumers that replay one stream under several schedulers collect it
// once with trace.Collect and clone it per run with trace.CloneTasks.
package workload

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// TableIRow is one row of the paper's Table I: a duration range, its
// probability in the downscaled Azure Day-1 distribution, and the fib N
// parameters that produce durations in that range.
type TableIRow struct {
	Probability float64
	Lo, Hi      time.Duration // duration range [Lo, Hi); Hi == 0 means open-ended
	FibNLo      int
	FibNHi      int
}

// TableI reproduces the paper's Table I verbatim. The missing ranges
// (50-100 excluded gaps) each carried < 1% probability in the Azure trace
// and are dropped, exactly as in the paper.
func TableI() []TableIRow {
	ms := time.Millisecond
	return []TableIRow{
		{Probability: 0.406, Lo: 0, Hi: 50 * ms, FibNLo: 20, FibNHi: 26},
		{Probability: 0.098, Lo: 50 * ms, Hi: 100 * ms, FibNLo: 27, FibNHi: 28},
		{Probability: 0.068, Lo: 100 * ms, Hi: 200 * ms, FibNLo: 29, FibNHi: 29},
		{Probability: 0.227, Lo: 200 * ms, Hi: 400 * ms, FibNLo: 30, FibNHi: 31},
		{Probability: 0.157, Lo: 1550 * ms, Hi: 0, FibNLo: 34, FibNHi: 35},
	}
}

// goldenRatio is the base of fib's exponential running time.
const goldenRatio = 1.6180339887498949

// fibCalibrationN and fibCalibrationDur anchor the fib cost model: the
// paper reports that fib with N in 20..26 finishes under ~45 ms, so we
// pin fib(26) = 45 ms and scale by the golden ratio per unit of N.
const (
	fibCalibrationN   = 26
	fibCalibrationDur = 45 * time.Millisecond
)

// FibDuration models the execution duration of the FaaSBench fib
// function for a given N: exponential in N with base phi.
func FibDuration(n int) time.Duration {
	return time.Duration(float64(fibCalibrationDur) * math.Pow(goldenRatio, float64(n-fibCalibrationN)))
}

// AzureTailCap bounds the open-ended Table I mode: the Azure analysis in
// the paper reports 99.9% of functions run under 224 s.
const AzureTailCap = 224 * time.Second

// tailDist is the open-ended >= 1550 ms mode of Table I: a bounded Pareto
// starting at the mode's floor, matching the Azure trace's heavy tail
// over roughly three further orders of magnitude.
type tailDist struct {
	xm    time.Duration
	alpha float64
	cap   time.Duration
}

func (td tailDist) Sample(r *rng.RNG) time.Duration {
	// Inverse-CDF sampling of a bounded Pareto on [xm, cap].
	l := math.Pow(float64(td.xm), td.alpha)
	h := math.Pow(float64(td.cap), td.alpha)
	u := r.Float64()
	x := math.Pow((h*l)/(h-u*(h-l)), 1/td.alpha)
	return time.Duration(x)
}

func (td tailDist) Mean() time.Duration {
	if td.alpha == 1 {
		return time.Duration(float64(td.xm) * math.Log(float64(td.cap)/float64(td.xm)))
	}
	l, h := float64(td.xm), float64(td.cap)
	la := math.Pow(l, td.alpha)
	m := la / (1 - math.Pow(l/h, td.alpha)) * td.alpha / (td.alpha - 1) *
		(1/math.Pow(l, td.alpha-1) - 1/math.Pow(h, td.alpha-1))
	return time.Duration(m)
}

func (td tailDist) String() string {
	return fmt.Sprintf("boundedPareto(xm=%v,alpha=%.2f,cap=%v)", td.xm, td.alpha, td.cap)
}

// TableIDistribution builds the paper's multimodal duration distribution
// from Table I, materialized the way FaaSBench materializes it: uniform
// within each bounded range, and the open-ended ">= 1550 ms" mode
// realized by fib N in 34-35 — durations between fib(34) and fib(35)
// (roughly 2.1-3.4 s), NOT an unbounded heavy tail. (The Azure trace's
// true tail extends to hundreds of seconds — see AzureTailDistribution —
// but the paper's benchmark generates its long mode from those two fib
// parameters only.)
func TableIDistribution() dist.Distribution {
	rows := TableI()
	modes := make([]dist.Mode, 0, len(rows))
	for _, row := range rows {
		var d dist.Distribution
		if row.Hi == 0 {
			lo := FibDuration(row.FibNLo)
			hi := FibDuration(row.FibNHi)
			if lo < row.Lo {
				lo = row.Lo
			}
			d = dist.Uniform{Lo: lo, Hi: hi}
		} else {
			d = dist.Uniform{Lo: row.Lo, Hi: row.Hi}
		}
		modes = append(modes, dist.Mode{Weight: row.Probability, Dist: d})
	}
	return dist.NewMixture(modes...)
}

// AzureTailDistribution is a Table I variant whose long mode follows the
// Azure trace's real heavy tail (bounded Pareto up to the 224 s 99.9th
// percentile anchor) instead of the fib 34-35 materialization. Used by
// ablation benchmarks to study scheduler behaviour under the production
// tail the paper's benchmark truncates.
func AzureTailDistribution() dist.Distribution {
	rows := TableI()
	modes := make([]dist.Mode, 0, len(rows))
	for _, row := range rows {
		var d dist.Distribution
		if row.Hi == 0 {
			d = tailDist{xm: row.Lo, alpha: 1.3, cap: AzureTailCap}
		} else {
			d = dist.Uniform{Lo: row.Lo, Hi: row.Hi}
		}
		modes = append(modes, dist.Mode{Weight: row.Probability, Dist: d})
	}
	return dist.NewMixture(modes...)
}

// AppProfile describes how a function application converts an ideal
// duration into CPU and I/O segments. The paper's OpenLambda workload
// mixes three applications (§IX-A).
type AppProfile struct {
	Name string
	// CPUFraction of the ideal duration is CPU burst; the rest is split
	// evenly across NumIO blocking operations.
	CPUFraction float64
	// NumIO is the number of blocking I/O operations (0 for pure CPU).
	NumIO int
	// IOAtStart places the first I/O op before any CPU work (like md and
	// the Fig 11 microbenchmark); otherwise ops are spread evenly.
	IOAtStart bool
}

// The paper's three applications: fib is CPU-heavy, md is I/O-intensive
// (reads a JSON file, converts to markdown), sa is both CPU- and
// I/O-intensive (loads a sentiment dictionary, then predicts).
var (
	AppFib = AppProfile{Name: "fib", CPUFraction: 1.0}
	AppMd  = AppProfile{Name: "md", CPUFraction: 0.35, NumIO: 2, IOAtStart: true}
	AppSa  = AppProfile{Name: "sa", CPUFraction: 0.7, NumIO: 1, IOAtStart: true}
)

// Build converts an ideal duration into a task's service time and I/O
// ops according to the profile.
func (p AppProfile) Build(t *task.Task, ideal time.Duration) {
	if p.CPUFraction <= 0 || p.CPUFraction > 1 {
		panic(fmt.Sprintf("workload: app %s has invalid CPU fraction %f", p.Name, p.CPUFraction))
	}
	service := time.Duration(float64(ideal) * p.CPUFraction)
	if service <= 0 {
		service = time.Millisecond
	}
	t.Service = service
	t.App = p.Name
	if p.NumIO <= 0 {
		return
	}
	ioTotal := ideal - service
	if ioTotal <= 0 {
		return
	}
	per := ioTotal / time.Duration(p.NumIO)
	for i := 0; i < p.NumIO; i++ {
		var at time.Duration
		if p.IOAtStart && i == 0 {
			at = 0
		} else {
			// Spread remaining ops evenly through the CPU demand.
			at = service * time.Duration(i) / time.Duration(p.NumIO)
		}
		t.WithIO(at, per)
	}
}

// Spec configures one FaaSBench workload generation run.
type Spec struct {
	// N is the number of invocation requests.
	N int
	// Duration samples ideal durations; defaults to TableIDistribution.
	Duration dist.Distribution
	// Arrival generates IATs. If nil, a Poisson process is created whose
	// rate offers Load to Cores (the paper's load-sweep methodology).
	Arrival dist.ArrivalProcess
	// Load is the target average CPU utilization fraction across Cores
	// (e.g. 0.8); used only when Arrival is nil.
	Load float64
	// Cores the workload will run on; used for load calibration.
	Cores int
	// Apps is the application mix with selection weights; defaults to
	// 100% fib.
	Apps []AppChoice
	// IOFraction, when positive, adds one leading I/O op (uniform
	// 10–100 ms) to this fraction of requests — the Fig 11 I/O knob.
	IOFraction float64
	// Seed drives all sampling.
	Seed uint64
}

// AppChoice pairs an application profile with a mix weight.
type AppChoice struct {
	Profile AppProfile
	Weight  float64
}

// OpenLambdaMix returns the OpenLambda evaluation's application mix
// (§IX-A): half fib, a quarter each md and sa.
func OpenLambdaMix() []AppChoice {
	return []AppChoice{
		{Profile: AppFib, Weight: 0.5},
		{Profile: AppMd, Weight: 0.25},
		{Profile: AppSa, Weight: 0.25},
	}
}

// withDefaults fills the spec's derivable fields.
func (spec Spec) withDefaults() Spec {
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	if spec.Duration == nil {
		spec.Duration = TableIDistribution()
	}
	if len(spec.Apps) == 0 {
		spec.Apps = []AppChoice{{Profile: AppFib, Weight: 1}}
	}
	return spec
}

// ioMin and ioMax bound the Fig 11 knob's leading I/O op, sampled
// uniformly.
const ioMin, ioMax = 10 * time.Millisecond, 100 * time.Millisecond

// builder converts sampled ideal durations into tasks: it picks an
// application profile from the mix and applies the Fig 11 I/O knob. One
// builder owns its RNG streams, so a seeded pipeline replays exactly.
type builder struct {
	apps       []AppChoice
	appCum     []float64
	appTotal   float64
	ioFraction float64
	appR, ioR  *rng.RNG
}

func newBuilder(apps []AppChoice, ioFraction float64, appR, ioR *rng.RNG) *builder {
	b := &builder{apps: apps, ioFraction: ioFraction, appR: appR, ioR: ioR}
	for _, a := range apps {
		b.appTotal += a.Weight
		b.appCum = append(b.appCum, b.appTotal)
	}
	return b
}

// build assembles one invocation from its id, arrival, and ideal
// duration.
func (b *builder) build(id int, at simtime.Time, ideal time.Duration) *task.Task {
	t := task.New(id, at, time.Millisecond)
	// Pick the application profile.
	u := b.appR.Float64() * b.appTotal
	idx := 0
	for idx < len(b.appCum)-1 && u >= b.appCum[idx] {
		idx++
	}
	b.apps[idx].Profile.Build(t, ideal)
	// The Fig 11 I/O knob: a single leading I/O operation.
	if b.ioFraction > 0 && b.ioR.Float64() < b.ioFraction {
		iod := dist.Uniform{Lo: ioMin, Hi: ioMax}.Sample(b.ioR)
		// Prepend: ops must stay sorted by At, and At=0 sorts first.
		t.IOOps = append([]task.IOOp{{At: 0, Dur: iod}}, t.IOOps...)
	}
	return t
}

// Stream returns the spec's invocation stream as a pull-based
// trace.Source. A spec with N == 0 streams forever; consumers bound it
// with trace.Limit or their own cutoff. Re-invoking Stream with the same
// spec replays the identical stream. Without an explicit Arrival, the
// Poisson arrival process is calibrated to the requested load from the
// duration distribution's analytic mean, mirroring the paper's
// proportional IAT adjustment (§VIII-A).
func Stream(spec Spec) trace.Source {
	spec = spec.withDefaults()
	r := rng.New(spec.Seed)
	durR := r.Split()
	appR := r.Split()
	ioR := r.Split()
	arrR := r.Split()

	// Arrival calibration: offered load is defined against CPU demand,
	// so the calibration discounts the analytic mean ideal duration by
	// the app mix's mean CPU fraction (I/O time occupies no core).
	// Using the distribution's analytic mean — rather than a realized
	// probe sample — is what lets the stream start emitting immediately
	// and never materialize, at the cost of a sampling-error-sized load
	// deviation that vanishes with N.
	arrival := spec.Arrival
	if arrival == nil {
		load := spec.Load
		if load <= 0 {
			load = 0.8
		}
		meanCPU := time.Duration(float64(spec.Duration.Mean()) * meanCPUFraction(spec.Apps))
		arrival = dist.PoissonProcess{Mean: queueing.IATForLoad(meanCPU, spec.Cores, load)}
	}

	b := newBuilder(spec.Apps, spec.IOFraction, appR, ioR)
	n := 0
	var at simtime.Time
	desc := fmt.Sprintf("faasbench(n=%d, dur=%s, arr=%s, cores=%d)", spec.N, spec.Duration, arrival, spec.Cores)
	return trace.New(desc, func() (*task.Task, bool) {
		if spec.N > 0 && n >= spec.N {
			return nil, false
		}
		if n > 0 {
			iat := arrival.NextIAT(arrR)
			if iat < 0 {
				iat = 0
			}
			at += iat
		}
		d := spec.Duration.Sample(durR)
		if d <= 0 {
			d = time.Millisecond
		}
		t := b.build(n, at, d)
		n++
		return t, true
	})
}

// meanCPUFraction returns the weight-averaged CPU fraction of an app
// mix (1.0 for the default pure-fib mix).
func meanCPUFraction(apps []AppChoice) float64 {
	if len(apps) == 0 {
		return 1
	}
	var num, den float64
	for _, a := range apps {
		num += a.Weight * a.Profile.CPUFraction
		den += a.Weight
	}
	if den == 0 {
		return 1
	}
	return num / den
}

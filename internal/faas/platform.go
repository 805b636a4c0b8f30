// Package faas models the OpenLambda deployment of §IX: a FaaS platform
// whose request path adds overhead at the gateway, the OpenLambda worker,
// and the HTTP sandbox server before a function reaches the host OS — and
// for the SFS port, a UDP notification hop between the sandbox server and
// the SFS scheduler (Fig 5).
//
// The platform is a stage on the host runtime (internal/host): each
// request reaches the OS a sampled dispatch overhead after its HTTP
// invocation, and its finish is extended by the response path, so
// turnaround and RTE include the platform costs — reproducing the
// paper's observation that OpenLambda overheads "diminish the
// performance benefits of SFS to some extent" while leaving the
// majority improvement intact.
//
// Containers are pre-warmed and auto-scaling is off, as in the paper,
// so no request pays a cold start.
package faas

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// Overheads samples the platform's per-request costs. Nil fields
// contribute zero.
type Overheads struct {
	// Gateway is the user-facing HTTP gateway's forwarding cost.
	Gateway dist.Distribution
	// Worker is the OpenLambda worker's dispatch cost (request parsing,
	// sandbox selection, statistics tracking).
	Worker dist.Distribution
	// Sandbox is the HTTP sandbox server's cost to hand the request to
	// the pre-warmed container process.
	Sandbox dist.Distribution
	// UDPNotify is the sandbox→SFS UDP message latency (SFS port only):
	// until it lands, the freshly-started process runs under plain CFS,
	// which the paper measures as "hundreds of microseconds".
	UDPNotify dist.Distribution
	// Response is the result path back through the platform.
	Response dist.Distribution
}

// DefaultOverheads returns overheads of the magnitude the paper
// describes for a warm OpenLambda deployment: sub-millisecond per hop.
func DefaultOverheads() Overheads {
	us := func(lo, hi int) dist.Distribution {
		return dist.Uniform{Lo: time.Duration(lo) * time.Microsecond, Hi: time.Duration(hi) * time.Microsecond}
	}
	return Overheads{
		Gateway:   us(100, 400),
		Worker:    us(200, 900),
		Sandbox:   us(100, 500),
		UDPNotify: us(100, 400),
		Response:  us(200, 800),
	}
}

// Config assembles a platform.
type Config struct {
	Cores     int
	Overheads Overheads
	// SFSPort marks that the scheduler under test is reached via the UDP
	// notification hop.
	SFSPort bool
	// CtxSwitchCost is the per-context-switch core-time cost passed to
	// the engine. Containerized function processes pay a substantial
	// direct+indirect (cache/TLB refill) cost per switch, which is how
	// heavy CFS switching erodes capacity at consolidation scale
	// (Fig 16 shows CFS switching 10x+ more than SFS).
	CtxSwitchCost time.Duration
	Seed          uint64
}

// Platform simulates an OpenLambda deployment around a host scheduler.
type Platform struct {
	cfg Config
}

// New builds a platform. It panics on a non-positive core count, so a
// Platform that constructs is a Platform that runs.
func New(cfg Config) *Platform {
	if cfg.Cores <= 0 {
		panic("faas: cores must be positive")
	}
	return &Platform{cfg: cfg}
}

// Result is a finished platform run.
type Result struct {
	Run      metrics.Run
	Makespan time.Duration
	Engine   *cpusim.Engine
	// MeanDispatchOverhead is the realized mean request-path overhead
	// (excluding the response path).
	MeanDispatchOverhead time.Duration
}

// sample draws from d, treating nil as zero.
func sample(d dist.Distribution, r *rng.RNG) time.Duration {
	if d == nil {
		return 0
	}
	v := d.Sample(r)
	if v < 0 {
		return 0
	}
	return v
}

// requestPath is the platform as a host stage: each request's
// BeforeSubmit draws its request-path overhead, which delays the
// instant the OS sees it, and its response-path delay, kept in source
// order for RunTrace to add to its finish.
type requestPath struct {
	host.Base
	cfg  *Config
	r    *rng.RNG
	sum  time.Duration   // request-path overheads drawn so far
	post []time.Duration // each request's response-path delay
}

// BeforeSubmit implements host.Stage.
func (rp *requestPath) BeforeSubmit(simtime.Time, *task.Task) time.Duration {
	oh := rp.cfg.Overheads
	d := sample(oh.Gateway, rp.r) + sample(oh.Worker, rp.r) + sample(oh.Sandbox, rp.r)
	if rp.cfg.SFSPort {
		d += sample(oh.UDPNotify, rp.r)
	}
	rp.post = append(rp.post, sample(oh.Response, rp.r))
	rp.sum += d
	return d
}

// RunTrace executes an invocation stream on the platform under the given
// scheduler. The stream's Arrival fields are HTTP invocation times and
// stay so; each request becomes runnable on the host its sampled
// dispatch overhead later, and its finish is extended by the response
// path, so Turnaround()/RTE() are end-to-end. It panics when src fails
// (trace.Err).
func (p *Platform) RunTrace(src trace.Source, s cpusim.Scheduler) Result {
	eng := cpusim.NewEngine(cpusim.Config{
		Cores:         p.cfg.Cores,
		CtxSwitchCost: p.cfg.CtxSwitchCost,
	}, s)
	rp := &requestPath{cfg: &p.cfg, r: rng.New(p.cfg.Seed ^ 0xfaa5)}
	makespan, err := host.New(eng, rp).Drive(src)
	if err != nil {
		panic(err)
	}
	tasks := eng.Tasks() // in source order, as Drive submits them
	for i, t := range tasks {
		if t.Finish >= 0 {
			t.Finish += rp.post[i]
		}
	}
	res := Result{
		Run:      metrics.Run{Scheduler: s.Name(), Tasks: tasks},
		Makespan: makespan,
		Engine:   eng,
	}
	if len(tasks) > 0 {
		res.MeanDispatchOverhead = rp.sum / time.Duration(len(tasks))
	}
	return res
}

// OpenLambdaWorkload streams the §IX workload: the Azure-sampled trace
// with the fib/md/sa application mix on the 72-core deployment.
func OpenLambdaWorkload(n, cores int, load float64, seed uint64) trace.Source {
	return workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: cores, Load: load, Seed: seed, Apps: workload.OpenLambdaMix(),
	})
}

// OverheadModel is the analytic Table II model of SFS's user-space CPU
// cost: periodic kernel-status polling plus per-decision scheduling work.
type OverheadModel struct {
	// PollCost is the CPU cost of one gopsutil status poll.
	PollCost time.Duration
	// OpCost is the CPU cost of one scheduling decision (queue ops,
	// schedtool invocation amortized).
	OpCost time.Duration
}

// DefaultOverheadModel calibrates the model so that the reproduction of
// Table II lands near the paper's measured 3.4-3.8% relative overhead on
// 72 cores, with polling contributing ~74% of the total.
func DefaultOverheadModel() OverheadModel {
	return OverheadModel{
		PollCost: 35 * time.Microsecond,
		OpCost:   25 * time.Microsecond,
	}
}

// Estimate returns (pollCPU, schedCPU, relative) for a run: polling cost
// accrues per busy-worker poll interval; scheduling cost per decision.
// relative is total overhead CPU divided by the deployment's core-time.
func (m OverheadModel) Estimate(filterBusy time.Duration, pollInterval time.Duration, ops int64, cores int, makespan time.Duration) (pollCPU, schedCPU time.Duration, relative float64) {
	if pollInterval <= 0 || makespan <= 0 || cores <= 0 {
		return 0, 0, 0
	}
	polls := int64(filterBusy / pollInterval)
	pollCPU = time.Duration(polls) * m.PollCost
	schedCPU = time.Duration(ops) * m.OpCost
	relative = float64(pollCPU+schedCPU) / (float64(makespan) * float64(cores))
	return pollCPU, schedCPU, relative
}

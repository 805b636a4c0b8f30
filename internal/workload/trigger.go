package workload

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// TriggerSpec configures the trigger-mix scenario family: the
// platform-facing event sources FaaS providers actually see — HTTP
// front-door requests (Poisson), queue consumers draining message
// batches (one Poisson event fans into queueBatch invocations spaced
// queueGap apart), and cron timers (periodic, jittered, log-spaced
// periods) — each feeding its own function-chain workflow. The request
// rate is calibrated so the aggregate chain CPU demand (every stage of
// every workflow) offers Load to Cores.
type TriggerSpec struct {
	// N caps the merged trigger-request count and sizes the horizon.
	N int
	// Cores the aggregate chain load is calibrated for.
	Cores int
	// Load is the horizon-average offered CPU load counting every chain
	// stage (default 0.8).
	Load float64
	// Seed drives all sampling.
	Seed uint64
}

// The trigger mix's shape: httpShare, queueShare and timerShare split
// the request rate across the classes; a queue event fans into
// queueBatch invocations spaced queueGap apart (the dequeue loop's
// pace); and the mix has timers periodic applications whose periods
// are log-spaced, so the fastest fires 2^(timers-1) times as often as
// the slowest.
const (
	httpShare, queueShare, timerShare = 0.5, 0.3, 0.2
	queueBatch                        = 8
	queueGap                          = time.Millisecond
	timers                            = 4
)

// timerApp names the i-th periodic timer application.
func timerApp(i int) string { return fmt.Sprintf("timer%02d", i) }

// TriggerStream builds the trigger-mix family: the merged trigger
// source plus the chain.Config expanding each trigger class into its
// workflow — HTTP requests run a two-stage linear chain (auth → work),
// queue messages a three-stage linear pipeline, and timers a diamond
// (fan-out scan, fan-in report). Both halves are deterministic in the
// spec. The error is always nil today (the signature mirrors
// ChainStream so callers treat families uniformly).
func TriggerStream(spec TriggerSpec) (trace.Source, chain.Config, error) {
	if spec.N <= 0 {
		panic("workload: trigger spec needs N")
	}
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	if spec.Load <= 0 {
		spec.Load = 0.8
	}
	dur := TableIDistribution()

	// Per-class workflows; stage 0 inherits the trigger's own sampled
	// duration, later stages sample the distribution in the injector.
	mkChain := func(family string, depth int) chain.Spec {
		wf, err := chain.NewFamily(family, chain.FamilyConfig{Depth: depth, Service: dur})
		if err != nil {
			panic("workload: " + err.Error()) // registry names are compiled in
		}
		wf.Stages[0].Service = nil
		return wf
	}
	httpWF := mkChain("LINEAR", 2)
	queueWF := mkChain("LINEAR", 3)
	timerWF := mkChain("DIAMOND", 3)

	// Calibrate the total trigger rate so the aggregate chain CPU
	// demand — requests x their class's whole-workflow service factor —
	// offers Load to Cores.
	mean := dur.Mean()
	meanSec := mean.Seconds()
	factor := httpShare*httpWF.ServiceFactor(mean) +
		queueShare*queueWF.ServiceFactor(mean) +
		timerShare*timerWF.ServiceFactor(mean)
	totalRPS := float64(spec.Cores) * spec.Load / (meanSec * factor)
	horizon := time.Duration(float64(spec.N) / totalRPS * float64(time.Second))

	r := rng.New(spec.Seed)
	httpSeed := r.Split().Uint64()
	queueSeed := r.Split().Uint64()
	timerR := r.Split()

	httpSrc := trace.NewRate(trace.RateSpec{
		Desc:     fmt.Sprintf("http(%.1f rps)", totalRPS*httpShare),
		Rate:     func(time.Duration) float64 { return totalRPS * httpShare },
		Peak:     totalRPS * httpShare,
		Horizon:  horizon,
		Duration: dur,
		App:      "http",
		Seed:     httpSeed,
	})

	queueSrc := queueBatchSource(totalRPS*queueShare, horizon, dur, queueSeed)

	// Timer periods are log-spaced: timer i fires at rate ∝ 2^-i, the
	// whole set summing to the class's share of the request rate.
	srcs := []trace.Source{httpSrc, queueSrc}
	weightSum := 0.0
	for i := 0; i < timers; i++ {
		weightSum += math.Pow(2, -float64(i))
	}
	for i := 0; i < timers; i++ {
		rate := totalRPS * timerShare * math.Pow(2, -float64(i)) / weightSum
		period := time.Duration(float64(time.Second) / rate)
		srcs = append(srcs, periodicSource(timerApp(i), period, horizon, dur, timerR.Split()))
	}

	merged := trace.Limit(trace.Merge(srcs...), spec.N)
	desc := fmt.Sprintf("trigger(n=%d, http/queue/timer=%.2f/%.2f/%.2f, batch=%d, timers=%d, load=%.2f on %d cores, seed=%d)",
		spec.N, httpShare, queueShare, timerShare, queueBatch, timers,
		spec.Load, spec.Cores, spec.Seed)

	specs := map[string]chain.Spec{"http": httpWF, "queue": queueWF}
	for i := 0; i < timers; i++ {
		specs[timerApp(i)] = timerWF
	}
	cfg := chain.Config{Specs: specs, Seed: spec.Seed}
	return trace.Derive(desc, merged.Next, merged), cfg, nil
}

// queueBatchSource drains Poisson queue events into invocation batches:
// events arrive at rps/queueBatch, and each fans into queueBatch
// members spaced queueGap apart, every member sampling its own payload.
func queueBatchSource(rps float64, horizon time.Duration, d dist.Distribution, seed uint64) trace.Source {
	r := rng.New(seed)
	durR := r.Split()
	events := trace.NewRate(trace.RateSpec{
		Desc:     fmt.Sprintf("queue-events(%.2f rps)", rps/queueBatch),
		Rate:     func(time.Duration) float64 { return rps / queueBatch },
		Peak:     rps / queueBatch,
		Horizon:  horizon,
		Duration: d,
		App:      "queue",
		Seed:     r.Split().Uint64(),
	})
	var pending []*task.Task
	id := 0
	desc := fmt.Sprintf("queue(%.1f rps, batch=%d@%v)", rps, queueBatch, queueGap)
	return trace.Derive(desc, func() (*task.Task, bool) {
		if len(pending) == 0 {
			ev, ok := events.Next()
			if !ok {
				return nil, false
			}
			pending = append(pending, ev)
			for i := 1; i < queueBatch; i++ {
				dur := d.Sample(durR)
				if dur <= 0 {
					dur = time.Millisecond
				}
				m := task.New(0, ev.Arrival+simtime.Time(i)*queueGap, dur)
				m.App = "queue"
				pending = append(pending, m)
			}
		}
		t := pending[0]
		pending = pending[1:]
		t.ID = id
		id++
		return t, true
	}, events)
}

// periodicSource fires a cron timer: arrivals at a seeded phase plus
// every period, each tick jittered by ±10% of the period (jitter this
// small keeps arrivals strictly increasing).
func periodicSource(app string, period, horizon time.Duration, d dist.Distribution, r *rng.RNG) trace.Source {
	durR := r.Split()
	jitR := r.Split()
	phase := time.Duration(r.Float64() * float64(period))
	tick := 0
	id := 0
	desc := fmt.Sprintf("%s(every %v)", app, period.Round(time.Millisecond))
	return trace.Derive(desc, func() (*task.Task, bool) {
		at := phase + time.Duration(tick)*period + time.Duration((jitR.Float64()*2-1)*0.1*float64(period))
		tick++
		if at < 0 {
			at = 0
		}
		if at >= horizon {
			return nil, false
		}
		dur := d.Sample(durR)
		if dur <= 0 {
			dur = time.Millisecond
		}
		t := task.New(id, simtime.Time(at), dur)
		t.App = app
		id++
		return t, true
	})
}

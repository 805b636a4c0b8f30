package main

import (
	"math"
	"sync"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Layers are timed only from outside, through the extension points the
// public configs already accept: a cpusim.Scheduler returned by
// cluster.Config.NewScheduler (or handed to cpusim.NewEngine), a
// cluster.Dispatcher, a lifecycle.Policy handed to lifecycle.New, and
// the trace.Source a run consumes. Each wrapper forwards every call
// unchanged, so a traced repetition must produce the same result digest
// as an untraced one.

// sampleEvery is the timing sample rate: every call is counted, one in
// sampleEvery is timed and the timed total is scaled to all calls.
// Timing every call nearly doubles host-replay's wall time, which makes
// ~29M scheduler calls.
const sampleEvery = 16

// sampled is one wrapped method's call counter and sampled timer.
type sampled struct {
	calls, timed int64
	ns           int64
}

// begin counts a call and returns its start time when this call is
// sampled (the zero Time otherwise).
func (s *sampled) begin() time.Time {
	s.calls++
	if s.calls%sampleEvery != 1 {
		return time.Time{}
	}
	return time.Now()
}

// end closes a call opened by begin.
func (s *sampled) end(t0 time.Time) {
	if !t0.IsZero() {
		s.ns += int64(time.Since(t0))
		s.timed++
	}
}

// seconds estimates the time spent in all calls, net of the clock reads
// each sample adds to the call it times.
func (s *sampled) seconds() float64 {
	if s.timed == 0 {
		return 0
	}
	ns := max(s.ns-s.timed*timerCost(), 0)
	return float64(ns) / 1e9 * float64(s.calls) / float64(s.timed)
}

// timerCost is what one sample adds to the call it times, estimated
// once per process as the fastest of many empty measurements.
var timerCost = sync.OnceValue(func() int64 {
	best := int64(math.MaxInt64)
	for i := 0; i < 10000; i++ {
		t0 := time.Now()
		best = min(best, int64(time.Since(t0)))
	}
	return best
})

// schedProbe wraps one host's OS-level scheduler.
type schedProbe struct {
	inner                            cpusim.Scheduler
	enqueue, pick, desched, preempts sampled
}

func (p *schedProbe) Name() string        { return p.inner.Name() }
func (p *schedProbe) Bind(api cpusim.API) { p.inner.Bind(api) }

func (p *schedProbe) Enqueue(now simtime.Time, t *task.Task) {
	t0 := p.enqueue.begin()
	p.inner.Enqueue(now, t)
	p.enqueue.end(t0)
}

func (p *schedProbe) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	t0 := p.pick.begin()
	t, slice := p.inner.PickNext(now, core)
	p.pick.end(t0)
	return t, slice
}

func (p *schedProbe) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	t0 := p.desched.begin()
	p.inner.Descheduled(now, core, t, ran, reason)
	p.desched.end(t0)
}

func (p *schedProbe) WantsPreempt(now simtime.Time, core int) bool {
	t0 := p.preempts.begin()
	want := p.inner.WantsPreempt(now, core)
	p.preempts.end(t0)
	return want
}

// dispatchProbe wraps the cluster dispatcher. It is not a
// CompletionObserver; observingDispatchProbe adds that method only when
// the wrapped dispatcher has it, so the cluster's type assertion sees
// exactly what it would see unwrapped.
type dispatchProbe struct {
	inner   cluster.Dispatcher
	pick    sampled
	observe sampled
	holds   int64
}

func (p *dispatchProbe) Name() string { return p.inner.Name() }

func (p *dispatchProbe) Pick(now simtime.Time, t *task.Task, hosts []cluster.Host) int {
	t0 := p.pick.begin()
	h := p.inner.Pick(now, t, hosts)
	p.pick.end(t0)
	if h == cluster.Hold {
		p.holds++
	}
	return h
}

type observingDispatchProbe struct {
	*dispatchProbe
	obs cluster.CompletionObserver
}

func (p *observingDispatchProbe) TaskFinished(now simtime.Time, host int, t *task.Task) {
	t0 := p.observe.begin()
	p.obs.TaskFinished(now, host, t)
	p.observe.end(t0)
}

// policyProbe wraps one host's keep-alive policy.
type policyProbe struct {
	inner            lifecycle.Policy
	arrival, release sampled
}

func (p *policyProbe) Name() string { return p.inner.Name() }

func (p *policyProbe) OnArrival(now simtime.Time, app string) {
	t0 := p.arrival.begin()
	p.inner.OnArrival(now, app)
	p.arrival.end(t0)
}

func (p *policyProbe) OnRelease(now simtime.Time, app string) lifecycle.Decision {
	t0 := p.release.begin()
	d := p.inner.OnRelease(now, app)
	p.release.end(t0)
	return d
}

// sourceProbe wraps the invocation stream a run consumes. Like the
// dispatcher, it answers trace.Err only through failingSourceProbe,
// which wraps sources that can fail mid-stream.
type sourceProbe struct {
	inner trace.Source
	next  sampled
}

func (p *sourceProbe) String() string { return p.inner.String() }

func (p *sourceProbe) Next() (*task.Task, bool) {
	t0 := p.next.begin()
	t, ok := p.inner.Next()
	p.next.end(t0)
	return t, ok
}

type failingSourceProbe struct {
	*sourceProbe
	f trace.Failer
}

func (p *failingSourceProbe) Err() error { return p.f.Err() }

// probes owns every wrapper of one traced repetition plus the counts
// the workload records itself. Counters live in the wrappers (one per
// host for schedulers and policies) and are summed only after the run
// returns, so sharded workers never share one. A nil *probes is the
// untraced repetition: every method returns its argument unchanged.
type probes struct {
	scheds   []*schedProbe
	policies []*policyProbe
	dispatch *dispatchProbe
	sources  []*sourceProbe
	vals     map[string]float64
}

func newProbes() *probes { return &probes{vals: map[string]float64{}} }

func (p *probes) scheduler(s cpusim.Scheduler) cpusim.Scheduler {
	if p == nil {
		return s
	}
	w := &schedProbe{inner: s}
	p.scheds = append(p.scheds, w)
	return w
}

func (p *probes) dispatcher(d cluster.Dispatcher) cluster.Dispatcher {
	if p == nil {
		return d
	}
	p.dispatch = &dispatchProbe{inner: d}
	if obs, ok := d.(cluster.CompletionObserver); ok {
		return &observingDispatchProbe{dispatchProbe: p.dispatch, obs: obs}
	}
	return p.dispatch
}

func (p *probes) policy(pol lifecycle.Policy) lifecycle.Policy {
	if p == nil {
		return pol
	}
	w := &policyProbe{inner: pol}
	p.policies = append(p.policies, w)
	return w
}

func (p *probes) source(src trace.Source) trace.Source {
	if p == nil {
		return src
	}
	w := &sourceProbe{inner: src}
	p.sources = append(p.sources, w)
	if f, ok := src.(trace.Failer); ok {
		return &failingSourceProbe{sourceProbe: w, f: f}
	}
	return w
}

// set records a per-layer value the workload measured itself.
func (p *probes) set(name string, v float64) {
	if p != nil {
		p.vals[name] = v
	}
}

// collect sums the wrappers into per-layer metrics, adds the values the
// workload recorded, and returns the time spent inside wrapped calls
// (the part of a run span that belongs to the layers below it).
func (p *probes) collect() (vals map[string]float64, inLayers float64) {
	var schedCalls int64
	var schedS, policyS float64
	for _, s := range p.scheds {
		for _, m := range []*sampled{&s.enqueue, &s.pick, &s.desched, &s.preempts} {
			schedCalls += m.calls
			schedS += m.seconds()
		}
	}
	for _, pol := range p.policies {
		policyS += pol.arrival.seconds() + pol.release.seconds()
	}
	var nextCalls int64
	var nextS float64
	for _, s := range p.sources {
		nextCalls += s.next.calls
		nextS += s.next.seconds()
	}
	vals = map[string]float64{
		"sched.calls":        float64(schedCalls),
		"sched.s":            schedS,
		"lifecycle.policy_s": policyS,
		"trace.next_calls":   float64(nextCalls),
		"trace.next_s":       nextS,
	}
	if schedCalls > 0 {
		vals["sched.ns_per_call"] = schedS * 1e9 / float64(schedCalls)
	}
	inLayers = schedS + policyS + nextS
	if d := p.dispatch; d != nil {
		vals["dispatch.picks"] = float64(d.pick.calls)
		vals["dispatch.holds"] = float64(d.holds)
		vals["dispatch.pick_s"] = d.pick.seconds()
		vals["dispatch.observe_s"] = d.observe.seconds()
		inLayers += d.pick.seconds() + d.observe.seconds()
	}
	for k, v := range p.vals {
		vals[k] = v
	}
	return vals, inLayers
}

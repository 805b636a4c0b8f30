package cluster

import (
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"github.com/serverless-sched/sfs/internal/predict"
	"github.com/serverless-sched/sfs/internal/registry"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// Host is the read-only view of one simulated host that dispatch
// policies decide from. All quantities are instantaneous at the
// dispatch decision's virtual time.
type Host interface {
	// Index is the host's position in the cluster (0..Hosts-1).
	Index() int
	// Cores is the host's core count.
	Cores() int
	// InFlight is the number of invocations dispatched to the host and
	// not yet finished (running, runnable, or blocked on I/O).
	InFlight() int
	// BusyCores is the number of cores currently executing a task.
	BusyCores() int
	// Queued is the number of in-flight invocations not currently on a
	// core (waiting in a runqueue or blocked on I/O).
	Queued() int
	// Dispatched is the cumulative number of invocations ever sent to
	// this host.
	Dispatched() int
	// Warm is the number of idle warm containers the host holds for
	// app — always 0 when container lifecycle modeling is disabled.
	// Affinity-aware policies (WARMFIRST) route on it.
	Warm(app string) int
	// Speed is the host's relative CPU speed factor (1.0 = baseline):
	// the host retires Speed seconds of CPU demand per second of wall
	// time. Speed-aware policies (PREDICTED) normalize predicted work
	// by it; a uniform fleet reports 1.0 everywhere. A host's speed is
	// fixed for the run, so a policy may read it once and cache it.
	Speed() float64
}

// Dispatcher is the cluster-level placement policy: it decides, for each
// arriving invocation, which host's OS-level scheduler will see it.
//
// Pick returns the index of the chosen host, or Hold to leave the
// invocation in the cluster's central queue. Held invocations are
// re-offered (oldest first) every time any host completes a task, which
// is how pull-based policies are expressed: return Hold until a host
// has claimable capacity. Implementations must be deterministic
// functions of their construction parameters and the observed host
// views — no wall clock, no global RNG.
type Dispatcher interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Pick selects a host for t at virtual time now, or returns Hold.
	Pick(now simtime.Time, t *task.Task, hosts []Host) int
}

// Hold is the Pick return value that parks an invocation in the central
// queue instead of assigning it to a host.
const Hold = -1

// CompletionObserver is implemented by dispatchers that learn from (or
// release accounting on) task completions, such as PREDICTED. The
// cluster delivers every finish to the dispatcher that placed it when
// the coordinator next settles: in serial mode right after the
// completing event, in sharded mode at the next barrier, merged across
// shards in deterministic (time, host) order. Either way the observer
// runs single-threaded on the coordinating goroutine and always before
// the freed capacity is re-offered to held work.
type CompletionObserver interface {
	// TaskFinished reports that t completed on host at virtual time now.
	TaskFinished(now simtime.Time, host int, t *task.Task)
}

// ---- policies ----

// roundRobin cycles through hosts in index order.
type roundRobin struct{ next int }

func (d *roundRobin) Name() string { return "RR" }

func (d *roundRobin) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	h := d.next % len(hosts)
	d.next++
	return h
}

// random picks a host uniformly from a seeded stream, so runs replay
// exactly.
type random struct{ r *rng.RNG }

func (d *random) Name() string { return "RANDOM" }

func (d *random) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	return d.r.Intn(len(hosts))
}

// leastLoaded sends each invocation to the host with the fewest
// in-flight invocations (running, runnable, or blocked), breaking ties
// by lowest index.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "LEASTLOADED" }

func (leastLoaded) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	best := 0
	for i, h := range hosts {
		if h.InFlight() < hosts[best].InFlight() {
			best = i
		}
	}
	return best
}

// joinShortestQueue sends each invocation to the host with the fewest
// invocations waiting off-core (runqueue depth plus blocked tasks),
// ignoring work that is actively running — the classic JSQ policy at
// host granularity. Ties break by lowest index.
type joinShortestQueue struct{}

func (joinShortestQueue) Name() string { return "JSQ" }

func (joinShortestQueue) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	best := 0
	for i, h := range hosts {
		if h.Queued() < hosts[best].Queued() {
			best = i
		}
	}
	return best
}

// pullBased models Hiku-style pull scheduling: hosts claim work only
// while they have claimable capacity (fewer in-flight invocations than
// cores), and everything else waits in the cluster's central queue
// until a completion frees a slot. Among hosts with capacity the one
// with the most free slots claims first (ties to the lowest index), so
// work spreads to the idlest host exactly as an idle-worker queue
// would.
type pullBased struct{}

func (pullBased) Name() string { return "PULL" }

func (pullBased) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	best, bestFree := Hold, 0
	for i, h := range hosts {
		if free := h.Cores() - h.InFlight(); free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// hashAffinity pins each function application to one host by hashing
// its name (FNV-1a), the locality-preserving policy: a function's warm
// state, caches, and working set stay on one machine. Invocations
// without an application name hash their ID instead, which degrades to
// random-ish spreading.
type hashAffinity struct{}

func (hashAffinity) Name() string { return "HASH" }

func (hashAffinity) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	key := t.App
	if key == "" {
		key = strconv.Itoa(t.ID)
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(hosts)))
}

// hostOblivious reports whether d places work without looking at the
// cluster: RR, RANDOM and HASH read nothing from the host views but
// their count, never return Hold and observe no completions. Their
// placements are the same whenever the coordinator asks, so a sharded
// run under one of them needs no per-window barrier (see sharded.go).
func hostOblivious(d Dispatcher) bool {
	switch d.(type) {
	case *roundRobin, *random, hashAffinity:
		return true
	}
	return false
}

// warmFirst prefers hosts already holding an idle warm container for
// the invocation's application — the dispatch-side counterpart of
// keep-alive, in the spirit of Przybylski et al.'s data-driven
// placement: where HASH pins an app to one host unconditionally,
// WARMFIRST follows the warm state itself, so it exploits affinity
// when a sandbox exists and load-balances when none does. Among warm
// hosts the least-loaded wins (ties to the lowest index); with no warm
// host anywhere it degrades to LEASTLOADED, whose spreading seeds warm
// pools on every machine. Requires cluster lifecycle modeling to see
// any warm state; without it Warm is always 0 and the policy is
// exactly LEASTLOADED.
type warmFirst struct{}

func (warmFirst) Name() string { return "WARMFIRST" }

func (warmFirst) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	best := -1
	for i, h := range hosts {
		if h.Warm(t.App) == 0 {
			continue
		}
		if best < 0 || h.InFlight() < hosts[best].InFlight() {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return leastLoaded{}.Pick(now, t, hosts)
}

// predicted dispatches each invocation to the host with the minimum
// predicted completion time: the host's outstanding predicted work
// (the sum of estimates for everything dispatched there and not yet
// finished) plus this invocation's own estimate, divided by the host's
// speed factor — so a 2x host with twice the backlog ties a 1x host,
// and heterogeneous fleets are balanced in time rather than task
// count. Estimates come from one shared online estimator
// (internal/predict) fed by every completion cluster-wide, the
// dispatch-level counterpart of PSRTF's per-host learning and the
// placement policy of Przybylski et al.'s data-driven scheduling.
//
// Its quality is exactly its predictor's: with converged estimates it
// approximates least-work-left, and under adversarial priors (cold
// apps predicted tiny) it piles elephants onto one host — the regime
// the predicted-dispatch experiment sweeps.
type predicted struct {
	est     *predict.Estimator
	backlog []time.Duration              // outstanding predicted work per host
	speed   []float64                    // each host's Speed, read once
	cost    map[*task.Task]time.Duration // what each in-flight task was charged
}

func newPredicted(est *predict.Estimator) *predicted {
	return &predicted{est: est, cost: map[*task.Task]time.Duration{}}
}

func (d *predicted) Name() string { return "PREDICTED" }

// Estimator exposes the shared predictor for tests and harnesses.
func (d *predicted) Estimator() *predict.Estimator { return d.est }

func (d *predicted) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	if n := len(d.backlog); n < len(hosts) {
		d.backlog = append(d.backlog, make([]time.Duration, len(hosts)-n)...)
		for _, h := range hosts[n:] {
			d.speed = append(d.speed, h.Speed())
		}
	}
	p := d.est.Predict(t.App)
	best, bestScore := 0, math.Inf(1)
	speed := d.speed[:len(hosts)]
	for i, b := range d.backlog[:len(hosts)] {
		if score := float64(b+p) / speed[i]; score < bestScore {
			best, bestScore = i, score
		}
	}
	d.backlog[best] += p
	d.cost[t] = p
	return best
}

// TaskFinished implements CompletionObserver: release the completed
// task's charged estimate from its host's backlog and feed the true
// demand to the estimator.
func (d *predicted) TaskFinished(now simtime.Time, host int, t *task.Task) {
	if c, ok := d.cost[t]; ok {
		d.backlog[host] -= c
		delete(d.cost, t)
	}
	d.est.Observe(t.App, t.Service)
}

// ---- registry ----

// FactoryConfig carries the construction parameters a dispatch policy
// may need.
type FactoryConfig struct {
	// Hosts is the cluster size the policy will dispatch over.
	Hosts int
	// Seed drives randomized policies (RANDOM); deterministic policies
	// ignore it.
	Seed uint64
	// Predict configures PREDICTED's online runtime estimator; other
	// policies ignore it. A zero Predict.Seed inherits Seed so noise
	// injection stays tied to the run's seed by default.
	Predict predict.Config
}

// reg maps canonical names to policy constructors in presentation
// order, on the shared internal/registry helper — the same table shape
// as internal/schedulers, so CLIs select dispatchers by flag without
// the recognized set (or the unknown-name behavior) drifting between
// tools.
var reg = registry.New[func(cfg FactoryConfig) Dispatcher]("dispatch policy").
	Add("RR", func(FactoryConfig) Dispatcher { return &roundRobin{} }).
	Add("RANDOM", func(cfg FactoryConfig) Dispatcher { return &random{r: rng.New(cfg.Seed)} }).
	Add("LEASTLOADED", func(FactoryConfig) Dispatcher { return leastLoaded{} }).
	Add("JSQ", func(FactoryConfig) Dispatcher { return joinShortestQueue{} }).
	Add("PULL", func(FactoryConfig) Dispatcher { return pullBased{} }).
	Add("HASH", func(FactoryConfig) Dispatcher { return hashAffinity{} }).
	Add("WARMFIRST", func(FactoryConfig) Dispatcher { return warmFirst{} }).
	Add("PREDICTED", func(cfg FactoryConfig) Dispatcher {
		pc := cfg.Predict
		if pc.Seed == 0 {
			pc.Seed = cfg.Seed
		}
		return newPredicted(predict.New(pc))
	})

// Names returns the canonical dispatch-policy names NewDispatcher
// recognizes.
func Names() []string { return reg.Names() }

// NewDispatcher constructs a dispatch policy by case-insensitive name.
func NewDispatcher(name string, cfg FactoryConfig) (Dispatcher, error) {
	mk, err := reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(cfg), nil
}

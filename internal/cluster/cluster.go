// Package cluster is the multi-host simulation layer: it fans one
// trace.Source out across N simulated hosts, each a host.Runtime
// running its own cpusim engine under its own scheduler instance (SFS,
// CFS, EEVDF, …), and merges per-host results into cluster-level
// summaries.
//
// The paper evaluates SFS on a single host; this layer grows the
// reproduction into a scheduling-evaluation system for the cluster
// questions raised by follow-on work — Kaffes et al.'s core-granular
// cluster scheduling and Hiku's pull-based dispatch — where cluster
// placement interacts with each host's OS-level scheduler. A pluggable
// Dispatcher decides which host sees each invocation; a central FIFO
// queue holds work that pull-based policies decline to place.
//
// Per-host behavior is composed from host-runtime stages
// (internal/host): with Config.NewLifecycle set every host carries a
// container lifecycle stage (internal/lifecycle) — an invocation
// acquires a warm or cold container on its dispatched host, cold-start
// latency delays the instant it becomes runnable there, and dispatch
// policies can route on warm state (WARMFIRST prefers hosts already
// holding an idle sandbox for the app) — and completion-observing
// dispatchers and the chain coordinator tap completions through
// further stages on the same pipeline.
//
// One coordinator drives every run (Cluster.Run). Hosts are partitioned
// into shards, each a host.Group, and the coordinator alternates two
// phases: settle, which hands completions to a completion-observing
// dispatcher, re-offers held work and admits released chain stages;
// and advance. Serial mode (Config.Shards == 0) is the one-shard,
// event-granular case: each advance fires the single globally-earliest
// host event (host ties break by index, host events before same-instant
// arrivals) or admits one arrival and delivers it at once, so the
// dispatcher sees the zero-latency cluster. With Config.Shards > 0 each
// advance admits a whole lookahead window of arrivals and runs the
// shards through it in parallel (sharded.go), modeling a non-zero
// dispatcher→host latency. When nothing crosses shards — RR, RANDOM or
// HASH dispatch with no chain and no lifecycle — an advance admits a
// fixed-size batch of arrivals instead and runs the shards to the next
// batch's first arrival.
//
// The simulation is deterministic: dispatchers are deterministic
// functions of seed and observed state, each host's container expiry
// and pre-warm events are processed in (time, sequence) order, and
// sources are deterministic in their spec — so the same
// spec/seed/host-count/policy yields identical metrics on every run,
// and sharded output is identical at any shard count and GOMAXPROCS.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Config parameterizes a cluster run.
type Config struct {
	// Hosts is the number of simulated hosts.
	Hosts int
	// CoresPerHost is each host's core count.
	CoresPerHost int
	// Speeds gives each host a relative CPU speed factor (1.0 =
	// baseline): host i retires Speeds[i] seconds of CPU demand per
	// second of wall time, modeling a heterogeneous fleet of machine
	// generations. Empty means a uniform fleet at 1.0; otherwise the
	// length must equal Hosts and every factor must be positive and
	// finite. Task demand accounting stays in unit-speed terms, so the
	// same trace is comparable across fleets.
	Speeds []float64
	// NetDelay, when non-nil, samples a dispatcher→host network delay
	// for every successful placement, added to the instant the
	// invocation becomes runnable on its host (on top of any cold
	// start). Draws come from one cluster-owned stream seeded by
	// NetDelaySeed, consumed in dispatch order — deterministic at any
	// shard count. Negative samples are clamped to zero; a negative
	// mean is rejected at New.
	NetDelay dist.Distribution
	// NetDelaySeed seeds the NetDelay sample stream.
	NetDelaySeed uint64
	// Deadline aborts the simulation at this virtual time if tasks are
	// still unfinished (0 = no deadline).
	Deadline simtime.Time
	// NewScheduler constructs one OS-level scheduler per host; every
	// host gets its own instance so scheduler state never leaks across
	// machines.
	NewScheduler func() cpusim.Scheduler
	// Dispatcher is the cluster-level placement policy.
	Dispatcher Dispatcher
	// NewLifecycle, when non-nil, constructs one container lifecycle
	// manager per host: invocations acquire a (possibly cold) container
	// on their dispatched host, and affinity-aware dispatchers can read
	// each host's warm pool through Host.Warm. Nil models the paper's
	// pre-warmed setup with no cold starts.
	NewLifecycle func() *lifecycle.Manager
	// Chain, when non-nil, expands requests into function-chain
	// workflows (internal/chain): root stages dispatch at the request's
	// arrival, and each completion releases its downstream stages back
	// through the dispatcher — so successive stages may land on
	// different hosts (and, with NewLifecycle set, hit per-host warm
	// pools). Per-workflow end-to-end results land in Result.Workflows.
	Chain *chain.Config
	// Shards, when > 0, partitions the hosts into that many contiguous
	// shards advanced in parallel between epoch barriers (see
	// sharded.go); runs where nothing crosses shards need a barrier
	// only per batch of arrivals. Shard counts above Hosts are clamped.
	// 0 selects serial mode: one shard, advanced one event at a time,
	// with zero dispatch latency.
	Shards int
	// DispatchLatency is the modeled dispatcher→host latency in sharded
	// mode; it is the conservative lookahead between barriers, so every
	// cross-shard interaction (central-queue claims, chain-stage
	// handoffs) costs at least one latency. Zero defaults to
	// DefaultDispatchLatency. Ignored when Shards == 0.
	DispatchLatency time.Duration
}

// node pairs one host runtime with its dispatch accounting and
// (optionally) its container lifecycle manager. It implements the Host
// view dispatchers decide from. The runtime (and its stage pipeline)
// is wired at Run start, because its completions report into the shard
// that owns the host.
type node struct {
	idx        int
	eng        *cpusim.Engine
	mgr        *lifecycle.Manager // nil when lifecycle modeling is off
	lcNow      *simtime.Time      // the coordinator's lifecycle clock
	rt         *host.Runtime      // set at Run start
	sh         *shard             // owning shard, set at Run start
	speed      float64
	dispatched int
}

func (n *node) Index() int      { return n.idx }
func (n *node) Speed() float64  { return n.speed }
func (n *node) Cores() int      { return n.eng.NumCores() }
func (n *node) InFlight() int   { return n.eng.Pending() + n.assigned() }
func (n *node) BusyCores() int  { return n.eng.BusyCores() }
func (n *node) Dispatched() int { return n.dispatched }

// Warm catches the host's manager up to the coordinator's lifecycle
// clock before it reads the warm pool (see Cluster.syncLifecycle).
func (n *node) Warm(app string) int {
	if n.mgr == nil {
		return 0
	}
	n.mgr.AdvanceTo(*n.lcNow)
	return n.mgr.WarmIdle(app)
}

func (n *node) Queued() int {
	if q := n.eng.Pending() + n.assigned() - n.eng.BusyCores(); q > 0 {
		return q
	}
	return 0
}

// assigned counts invocations assigned to this host but not yet
// submitted to its engine (sharded mode defers submission into the
// owning shard's window). Folding it into the dispatcher's view keeps
// same-window assignments visible to later placement decisions; it is
// always zero in serial mode and at barriers after a window has run.
func (n *node) assigned() int {
	if n.rt == nil {
		return 0
	}
	return n.rt.Queued()
}

// record remembers where and when an invocation was dispatched, for
// the per-host results and the central queue's delay statistics.
type record struct {
	t    *task.Task
	host int
	at   simtime.Time // dispatch instant (== t.Arrival unless held centrally)
}

// records holds every admitted invocation's record in admission order,
// in blocks that never move, so the central queue can point at a
// record and a growing run copies no records. Blocks double from 16
// records up to 1,024.
type records struct {
	blocks [][]record
	n      int
}

// add appends r and returns where it lives.
func (rs *records) add(r record) *record {
	last := len(rs.blocks) - 1
	if last < 0 || len(rs.blocks[last]) == cap(rs.blocks[last]) {
		size := 16
		if last >= 0 {
			size = min(2*cap(rs.blocks[last]), 1024)
		}
		rs.blocks = append(rs.blocks, make([]record, 0, size))
		last++
	}
	rs.blocks[last] = append(rs.blocks[last], r)
	rs.n++
	return &rs.blocks[last][len(rs.blocks[last])-1]
}

// HostResult is one host's share of a cluster run.
type HostResult struct {
	Run         metrics.Run
	Dispatches  int
	CtxSwitches int64
	Utilization float64
	// Speed is the host's CPU speed factor (1.0 on uniform fleets).
	Speed float64
	// Lifecycle holds the host's container warm-pool counters (zero
	// when lifecycle modeling was off).
	Lifecycle lifecycle.Stats
}

// Result is the outcome of a cluster run.
type Result struct {
	Scheduler  string // per-host scheduler name
	Dispatcher string
	// Merged views every invocation cluster-wide, in source order, with
	// turnarounds measured from the request's arrival — central-queue
	// delay under pull-based policies counts against the request.
	Merged  metrics.Run
	PerHost []HostResult
	// Makespan is the latest finish time across all hosts.
	Makespan simtime.Time
	// QueueDelayMax/QueueDelayMean summarize time spent in the central
	// queue before dispatch (zero under pure push policies).
	QueueDelayMax  time.Duration
	QueueDelayMean time.Duration
	// CentralQueueMax is the central queue's high-water mark.
	CentralQueueMax int
	// Lifecycle merges every host's container warm-pool counters (zero
	// when Config.NewLifecycle was nil).
	Lifecycle lifecycle.Stats
	// Workflows holds per-workflow end-to-end results when Config.Chain
	// was set (empty otherwise).
	Workflows metrics.WorkflowRun
	// Shards records how many shards the run used (0 = serial mode);
	// Lookahead is the epoch-barrier lookahead that applied (zero in
	// serial mode).
	Shards    int
	Lookahead time.Duration
	// Aborted reports that the run ended with unfinished work: a
	// deadline abort, or a host left stranded with pending tasks and no
	// future events (a scheduler that parked work without re-arming).
	// A dispatcher stall — work held centrally while every host sat
	// idle — is reported as an error from Run instead.
	Aborted bool
}

// RenderPerHost returns the human-readable per-host breakdown a cluster
// run of faasbench replay prints: an optional central-queue summary
// line followed by one table row per host.
func (res *Result) RenderPerHost() string {
	var b strings.Builder
	if res.QueueDelayMax > 0 {
		fmt.Fprintf(&b, "central queue: high-water %d held, dispatch delay mean %s max %s\n",
			res.CentralQueueMax, metrics.FormatDuration(res.QueueDelayMean), metrics.FormatDuration(res.QueueDelayMax))
	}
	header := []string{"host", "dispatched", "ctx switches", "util", "p50", "p99", "mean"}
	// The speed column appears only on heterogeneous fleets, so uniform
	// output (and every fixture that predates speeds) is unchanged.
	withSpeed := false
	for _, hr := range res.PerHost {
		if hr.Speed != 0 && hr.Speed != 1 {
			withSpeed = true
		}
	}
	if withSpeed {
		header = append([]string{header[0], "speed"}, header[1:]...)
	}
	withLifecycle := res.Lifecycle.Invocations > 0
	if withLifecycle {
		header = append(header, metrics.ColdStartHeader()...)
	}
	var rows [][]string
	for i, hr := range res.PerHost {
		sum := hr.Run.Summarize(50, 99)
		ps := sum.Percentiles()
		row := []string{
			fmt.Sprintf("%d", i),
		}
		if withSpeed {
			row = append(row, fmt.Sprintf("%.2gx", hr.Speed))
		}
		row = append(row,
			fmt.Sprintf("%d", hr.Dispatches),
			fmt.Sprintf("%d", hr.CtxSwitches),
			fmt.Sprintf("%.0f%%", hr.Utilization*100),
			metrics.FormatDuration(ps[0]),
			metrics.FormatDuration(ps[1]),
			metrics.FormatDuration(sum.Mean()),
		)
		if withLifecycle {
			row = append(row, hr.Lifecycle.Columns()...)
		}
		rows = append(rows, row)
	}
	b.WriteString(metrics.Table(header, rows))
	return b.String()
}

// Cluster simulates N hosts behind one dispatcher. It is single-use,
// so the coordinator's run state lives here too.
type Cluster struct {
	cfg    Config
	nodes  []*node
	views  []Host
	inj    *chain.Injector    // nil unless Config.Chain was set
	obs    CompletionObserver // the dispatcher, when it wants completions
	netRNG *rng.RNG           // nil unless Config.NetDelay was set

	shards  []*shard
	records records
	central []*record // held invocations, FIFO
	maxQ    int
	now     simtime.Time // coordinator clock
	lcNow   simtime.Time // lifecycle clock: the instant managers are read as of
	merged  []finishRec  // settle's merge buffer, reused across steps
	// handoffs counts sharded advances: one per lookahead window, or
	// one per arrival batch on the batched path.
	handoffs int
}

// netDelayOf draws the next dispatch's network delay (zero when the
// model is off), clamping negative samples.
func (c *Cluster) netDelayOf() time.Duration {
	if c.netRNG == nil {
		return 0
	}
	if d := c.cfg.NetDelay.Sample(c.netRNG); d > 0 {
		return d
	}
	return 0
}

// New validates the config and builds the cluster's hosts.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("cluster: need at least one host, got %d", cfg.Hosts)
	}
	if cfg.CoresPerHost <= 0 {
		return nil, fmt.Errorf("cluster: need at least one core per host, got %d", cfg.CoresPerHost)
	}
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("cluster: NewScheduler is required")
	}
	if cfg.Dispatcher == nil {
		return nil, fmt.Errorf("cluster: Dispatcher is required")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: negative shard count %d", cfg.Shards)
	}
	if cfg.DispatchLatency < 0 {
		return nil, fmt.Errorf("cluster: negative dispatch latency %v", cfg.DispatchLatency)
	}
	if len(cfg.Speeds) > 0 && len(cfg.Speeds) != cfg.Hosts {
		return nil, fmt.Errorf("cluster: %d speed factors for %d hosts", len(cfg.Speeds), cfg.Hosts)
	}
	for i, sp := range cfg.Speeds {
		if sp <= 0 || math.IsNaN(sp) || math.IsInf(sp, 0) {
			return nil, fmt.Errorf("cluster: host %d has invalid speed factor %v (must be positive and finite)", i, sp)
		}
	}
	if cfg.NetDelay != nil && cfg.NetDelay.Mean() < 0 {
		return nil, fmt.Errorf("cluster: network delay %s has negative mean %v", cfg.NetDelay, cfg.NetDelay.Mean())
	}
	c := &Cluster{cfg: cfg}
	c.obs, _ = cfg.Dispatcher.(CompletionObserver)
	if cfg.NetDelay != nil {
		c.netRNG = rng.New(cfg.NetDelaySeed)
	}
	if cfg.Chain != nil {
		inj, err := chain.NewInjector(*cfg.Chain)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.inj = inj
	}
	for i := 0; i < cfg.Hosts; i++ {
		sp := 1.0
		if len(cfg.Speeds) > 0 {
			sp = cfg.Speeds[i]
		}
		n := &node{idx: i, speed: sp, lcNow: &c.lcNow, eng: cpusim.NewEngine(cpusim.Config{
			Cores: cfg.CoresPerHost,
			Speed: sp,
		}, cfg.NewScheduler())}
		if cfg.NewLifecycle != nil {
			if n.mgr = cfg.NewLifecycle(); n.mgr == nil {
				return nil, fmt.Errorf("cluster: NewLifecycle returned nil for host %d", i)
			}
		}
		c.nodes = append(c.nodes, n)
		c.views = append(c.views, n)
	}
	return c, nil
}

// Run pulls the source to exhaustion through the dispatcher and drives
// every host engine to completion, alternating settle with a per-mode
// advance (see the package doc). A Cluster is single-use: build a fresh
// one per run.
func (c *Cluster) Run(src trace.Source) (*Result, error) {
	deadline := c.cfg.Deadline
	if deadline == 0 {
		deadline = simtime.Infinity
	}
	serial := c.cfg.Shards == 0
	nShards, lookahead := 1, time.Duration(0)
	if !serial {
		nShards = min(c.cfg.Shards, len(c.nodes))
		lookahead = cmp.Or(c.cfg.DispatchLatency, DefaultDispatchLatency)
	}
	// Nothing crosses shards when the dispatcher reads no host state and
	// no chain or lifecycle ties hosts together: sharded mode then
	// advances in arrival batches instead of lookahead windows.
	batched := !serial && hostOblivious(c.cfg.Dispatcher) && c.inj == nil && c.cfg.NewLifecycle == nil
	horizon := simtime.Infinity // first instant the run must not simulate
	if deadline != simtime.Infinity {
		horizon = deadline + 1
	}
	c.partition(nShards)
	runWindow, stop := c.windowRunner()
	defer stop()

	// pull reads the next source arrival. Sharded mode enqueues
	// submissions in arrival order, so there a source that breaks the
	// trace.Source contract by going backwards is an error. Serial mode
	// delivers each arrival at once at the coordinator clock, which
	// holds a late invocation until the clock's instant; it keeps doing
	// so because the TRIGGER family's queue batches can go backwards.
	var (
		next  *task.Task
		more  bool
		last  = simtime.Time(math.MinInt64)
		count int
	)
	pull := func() error {
		if next, more = src.Next(); more && !serial {
			count++
			if next.Arrival < last {
				return fmt.Errorf("cluster: source invocation %d: arrival %v precedes predecessor's %v", count, next.Arrival, last)
			}
			last = next.Arrival
		}
		return nil
	}
	if err := pull(); err != nil {
		return nil, err
	}
	aborted := false
	for {
		if err := c.settle(); err != nil {
			return nil, err
		}
		// Earliest future event anywhere: source arrival, undelivered
		// submission, or host engine event.
		earliest := simtime.Infinity
		if more {
			earliest = next.Arrival
		}
		for _, sh := range c.shards {
			_, ht := sh.grp.Min()
			earliest = min(earliest, ht, sh.grp.NextSubmissionTime())
		}
		if earliest == simtime.Infinity {
			if len(c.central) > 0 {
				// Work still held with every host idle: the dispatcher
				// declined placement with the whole cluster free. That
				// is a policy bug; report rather than spin.
				return nil, fmt.Errorf("cluster: dispatcher %s stalled with %d invocations held and all hosts idle",
					c.cfg.Dispatcher.Name(), len(c.central))
			}
			break
		}
		if earliest > deadline {
			// Renewals held up to the deadline are part of the state
			// the run stops in.
			for _, n := range c.nodes {
				n.eng.CatchUp(deadline)
			}
			aborted = true
			break
		}

		if serial {
			c.now = max(c.now, earliest)
			// Host events fire before same-instant arrivals so a
			// completion frees capacity the dispatcher can see.
			if hi, ht := c.shards[0].grp.Min(); ht == earliest {
				c.shards[0].step(hi)
				continue
			}
			if err := c.admitArrival(next, c.now); err != nil {
				return nil, err
			}
			if err := pull(); err != nil {
				return nil, err
			}
			continue
		}

		// Placement sees host state, lifecycle state included, as of the
		// window's start plus this window's own assignments. A batched
		// run's window has no lookahead limit: it admits up to
		// obliviousBatch arrivals and ends at the next batch's first one.
		bound, batch := horizon, obliviousBatch
		if !batched {
			c.now, bound = window(earliest, c.now, lookahead, horizon)
			batch = math.MaxInt
		}
		for n := 0; n < batch && more && next.Arrival < bound; n++ {
			if err := c.admitArrival(next, next.Arrival); err != nil {
				return nil, err
			}
			if err := pull(); err != nil {
				return nil, err
			}
		}
		if batched && more {
			bound = min(bound, next.Arrival)
		}
		c.handoffs++
		runWindow(bound)
		c.now = bound
		c.syncLifecycle()
	}
	if err := trace.Err(src); err != nil {
		return nil, err
	}
	// A host with pending tasks but no future events is wedged (its
	// scheduler parked work without re-arming); surface that as an
	// abort rather than letting the tasks silently vanish from stats.
	for _, n := range c.nodes {
		if n.eng.Pending() > 0 {
			aborted = true
		}
	}

	res := c.result(aborted)
	if !serial {
		res.Shards, res.Lookahead = nShards, lookahead
	}
	return res, nil
}

// settle handles what the last step or window reported, in the same
// order in both modes. Completions are merged across shards in (time,
// host) order; equal keys come from one shard, whose append order the
// stable sort keeps. A completion-observing dispatcher learns of them
// first, held work then gets its claim on the freed capacity (FIFO),
// and chain stages those completions released re-enter dispatch last.
func (c *Cluster) settle() error {
	completions := 0
	merged := c.merged[:0]
	for _, sh := range c.shards {
		completions += sh.completions
		sh.completions = 0
		merged = append(merged, sh.finished...)
		sh.finished = sh.finished[:0]
	}
	c.merged = merged
	if completions == 0 {
		return nil
	}
	slices.SortStableFunc(merged, func(a, b finishRec) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.host, b.host)
	})
	if c.obs != nil {
		for _, fr := range merged {
			c.obs.TaskFinished(fr.at, fr.host, fr.t)
		}
	}
	if err := c.drainCentral(); err != nil {
		return err
	}
	if c.inj != nil {
		for _, fr := range merged {
			for _, dt := range c.inj.OnFinish(fr.t) {
				if err := c.admit(dt, c.now); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// syncLifecycle moves the coordinator's lifecycle clock, lcNow, to the
// coordinator clock: before every placement decision, and after every
// sharded window. It touches no manager. A manager catches up to lcNow
// only when something reads it: Host.Warm before a dispatcher sees the
// warm pool, and result before Stats; Acquire and Release advance it
// to their own instant. A manager's expiry and pre-warm events depend
// only on its own (time, sequence) queue, so catching up late yields
// the same state as advancing every manager at every decision, at
// O(1) per decision instead of O(hosts).
func (c *Cluster) syncLifecycle() { c.lcNow = c.now }

// offer asks the dispatcher to place rec's invocation at instant at.
// It returns false, leaving the record for the caller to park, when the
// dispatcher holds it, and an error when the dispatcher picks a host
// that does not exist.
func (c *Cluster) offer(at simtime.Time, rec *record) (bool, error) {
	c.syncLifecycle()
	idx := c.cfg.Dispatcher.Pick(at, rec.t, c.views)
	if idx == Hold {
		return false, nil
	}
	if idx < 0 || idx >= len(c.nodes) {
		return false, fmt.Errorf("cluster: dispatcher %s picked host %d of %d", c.cfg.Dispatcher.Name(), idx, len(c.nodes))
	}
	rec.host = idx
	rec.at = at
	// The host places the invocation at the dispatch instant, which is
	// the claim instant for held work. Network delay between dispatcher
	// and host postpones the instant the invocation is runnable; the
	// dispatch instant itself (rec.at, queue-delay accounting) is
	// unaffected. Delays are drawn in global dispatch order, so the
	// stream is identical at any shard count. The host's lifecycle stage
	// acquires a container on delivery; a cold start further delays
	// runnability there.
	delay := c.netDelayOf()
	n := c.nodes[idx]
	n.dispatched++
	if c.cfg.Shards == 0 {
		n.sh.grp.Deliver(idx-n.sh.base, at, delay, rec.t)
	} else {
		n.sh.grp.Enqueue(idx-n.sh.base, at, delay, rec.t)
	}
	return true, nil
}

// drainCentral re-offers held work oldest-first at the coordinator
// clock, stopping at the first invocation the dispatcher still declines
// (FIFO order is part of the pull-based contract).
func (c *Cluster) drainCentral() error {
	for len(c.central) > 0 {
		placed, err := c.offer(c.now, c.central[0])
		if err != nil || !placed {
			return err
		}
		c.central = c.central[1:]
	}
	return nil
}

// admit registers an invocation arriving at `at` and offers it to the
// dispatcher, parking it behind any already-held work so nothing
// overtakes the central queue's FIFO order.
func (c *Cluster) admit(t *task.Task, at simtime.Time) error {
	rec := c.records.add(record{t: t, host: Hold, at: -1})
	if len(c.central) == 0 {
		if placed, err := c.offer(at, rec); placed || err != nil {
			return err
		}
	}
	c.central = append(c.central, rec)
	c.maxQ = max(c.maxQ, len(c.central))
	return nil
}

// admitArrival admits one source arrival. A chained request expands
// into its root stages, all arriving at the request instant; the
// request task itself is stage 0.
func (c *Cluster) admitArrival(t *task.Task, at simtime.Time) error {
	if c.inj == nil {
		return c.admit(t, at)
	}
	for _, st := range c.inj.Expand(t) {
		if err := c.admit(st, at); err != nil {
			return err
		}
	}
	return nil
}

// result assembles per-host and merged metrics.
func (c *Cluster) result(aborted bool) *Result {
	schedName := c.cfg.NewScheduler().Name()
	res := &Result{
		Scheduler:       schedName,
		Dispatcher:      c.cfg.Dispatcher.Name(),
		CentralQueueMax: c.maxQ,
		Aborted:         aborted,
	}

	perHost := make([][]*task.Task, len(c.nodes))
	all := make([]*task.Task, 0, c.records.n)
	var delaySum time.Duration
	for _, block := range c.records.blocks {
		for i := range block {
			rec := &block[i]
			all = append(all, rec.t)
			if rec.host >= 0 {
				perHost[rec.host] = append(perHost[rec.host], rec.t)
				if d := rec.at - rec.t.Arrival; d > 0 {
					delaySum += d
					if d > res.QueueDelayMax {
						res.QueueDelayMax = d
					}
				}
			}
			if f := rec.t.Finish; f > res.Makespan {
				res.Makespan = f
			}
		}
	}
	if c.records.n > 0 {
		res.QueueDelayMean = delaySum / time.Duration(c.records.n)
	}

	label := fmt.Sprintf("%s x%d/%s", schedName, len(c.nodes), res.Dispatcher)
	res.Merged = metrics.Run{Scheduler: label, Tasks: all}
	if c.inj != nil {
		res.Workflows = metrics.WorkflowRun{Scheduler: label, Workflows: c.inj.Workflows()}
	}
	for i, n := range c.nodes {
		// Utilization over the shared cluster horizon, not each host's
		// local clock: a host that went idle early was idle for the
		// rest of the run, and per-host columns must be comparable.
		util := 0.0
		if res.Makespan > 0 {
			util = float64(n.eng.BusyTime()) / (float64(res.Makespan) * float64(n.eng.NumCores()))
		}
		hr := HostResult{
			Run:         metrics.Run{Scheduler: fmt.Sprintf("%s host%d", schedName, i), Tasks: perHost[i]},
			Dispatches:  n.dispatched,
			CtxSwitches: n.eng.TotalCtxSwitches,
			Utilization: util,
			Speed:       n.speed,
		}
		if n.mgr != nil {
			n.mgr.AdvanceTo(c.lcNow)
			hr.Lifecycle = n.mgr.Stats()
			res.Lifecycle.Add(hr.Lifecycle)
		}
		res.PerHost = append(res.PerHost, hr)
	}
	return res
}

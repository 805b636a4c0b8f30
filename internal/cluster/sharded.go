package cluster

import (
	"runtime"
	"sync"
	"time"

	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// Shards and lookahead windows: how the coordinator advances hosts.
//
// Hosts are partitioned into contiguous shards, each a host.Group over
// its runtimes with a private next-event heap. Serial mode is the
// one-shard case stepped one event at a time. With Config.Shards > 0
// virtual time is cut into fixed windows [k·L, (k+1)·L) where L is the
// modeled dispatcher→host latency (Config.DispatchLatency): because
// every cluster-level interaction — placement of an arrival, a
// central-queue claim, a chain-stage handoff — takes at least L to
// reach a host, no event inside a window can influence another shard
// within the same window. That is the conservative lookahead: shards
// advance through a window in parallel with no locks and no cross-shard
// reads.
//
// Between windows the coordinator runs single-threaded: it settles the
// window's reports, admits every source arrival inside the next window,
// and hands each assignment to the owning shard's group as a
// timestamped submission. Inside a window no host can affect another,
// so Group.Advance runs each host with work in the window to the
// window's end in one go, interleaving that host's submissions with its
// own events in exact time order (host events first on ties, as in
// serial mode). A host's event sequence therefore depends only on the
// submissions it receives — never on how hosts are partitioned, in
// which order a shard visits them, or which worker goroutine runs the
// shard — and settle merges the shards' completions in (time, host)
// order. Everything the coordinator computes (dispatch decisions,
// window bounds, admission order) is a function of barrier-time state
// that is itself shard-count-independent, so the same seed yields
// byte-identical results at any shard count and GOMAXPROCS.
//
// Dispatch decisions observe host state as of the window's start (plus
// assignments already made this window, via the runtime's Queued
// count), where serial mode observes the exact decision instant. That
// includes the lifecycle clock: the coordinator moves it to the
// window's start, an instant on the fixed grid, before it admits the
// window's arrivals, so what a dispatcher reads never depends on which
// earlier windows it visited. The coordinator visits only windows that
// hold a real event, never one in which a host merely renews a slice
// (see cpusim.Renewer). With a dispatcher that ignores host state (RR,
// RANDOM, HASH) the two modes place every invocation identically and
// produce identical results; the one modeled difference is that
// sharded mode moves its lifecycle clock to each window's end once the
// window has run, so a run can count expirations serial mode never
// reaches (TestSerialShardedOracle). With state-reading dispatchers
// sharded mode models a cluster whose dispatcher works from slightly
// stale state — the price of the latency it models, not a bug;
// determinism is defined within sharded mode, with -shards 1 as the
// reference.
//
// When nothing crosses shards the lookahead is unbounded. That holds
// under a host-oblivious dispatcher (RR, RANDOM, HASH: it reads no host
// state, never holds work and observes no completions) with no chain
// and no container lifecycle: no barrier then carries information from
// one shard to another, so the coordinator skips the window grid. It
// admits a batch of obliviousBatch source arrivals and advances every
// shard straight to the next batch's first arrival, one worker handoff
// per batch. A batch is a fixed count of arrivals, not a span of time,
// because its only job is to bound the submissions queued in the
// shards; since a host's events depend only on its submissions, any
// batch size yields the same bytes. Serial mode stays event-granular
// and is the reference the batched path is tested against.
//
// Workers own contiguous runs of shards rather than every W-th shard.
// On fleet-sharded's batched path on two vCPUs that measured about 10%
// faster, likely because workers then seldom advance neighbouring
// shards — whose hosts and round-robin-placed tasks sit next to each
// other in memory — at the same time.

// DefaultDispatchLatency is the sharded engine's lookahead when
// Config.DispatchLatency is zero: the modeled minimum latency between
// the cluster dispatcher and any host.
const DefaultDispatchLatency = time.Millisecond

// obliviousBatch is how many source arrivals a batched run admits per
// handoff. It bounds the submissions queued in the shards (admitting a
// whole trace at once holds every task in the queues); any value gives
// the same results.
const obliviousBatch = 4096

// finishRec is one completion observed during a step or window,
// reported to the coordinator's next settle.
type finishRec struct {
	t    *task.Task
	at   simtime.Time
	host int // global host index
}

// shard owns a contiguous run of hosts — a host.Group plus its report.
// While a window runs a shard is touched only by its worker; otherwise
// only by the coordinator.
type shard struct {
	grp  *host.Group
	base int // global index of the group's runtime 0
	// finished and completions are the shard's report: completions in
	// observation order (kept only when a chain or a completion observer
	// needs them), and the count of tasks that left the engines (feeds
	// central-queue re-offers).
	finished    []finishRec
	completions int
}

// step fires runtime i's earliest pending event (serial mode).
func (sh *shard) step(i int) { sh.completions += sh.grp.Step(i) }

// advance runs the shard's hosts up to (but excluding) bound, each
// host's pending submissions interleaved with its events in time order.
func (sh *shard) advance(bound simtime.Time) { sh.completions += sh.grp.Advance(bound) }

// partition splits the hosts into n contiguous shards, sizes differing
// by at most one, and wires each host's stage pipeline: the lifecycle
// stage releases containers as tasks finish, and completions queue in
// the owning shard's report for the coordinator.
func (c *Cluster) partition(n int) {
	c.shards = make([]*shard, n)
	per, rem := len(c.nodes)/n, len(c.nodes)%n
	base := 0
	for s := range c.shards {
		size := per
		if s < rem {
			size++
		}
		sh := &shard{base: base}
		rts := make([]*host.Runtime, size)
		for i, nd := range c.nodes[base : base+size] {
			var stages []host.Stage
			if nd.mgr != nil {
				stages = append(stages, lifecycle.NewHostStage(nd.mgr))
			}
			if c.inj != nil || c.obs != nil {
				stages = append(stages, host.FinishFunc(func(at simtime.Time, t *task.Task) {
					sh.finished = append(sh.finished, finishRec{t: t, at: at, host: nd.idx})
				}))
			}
			nd.rt = host.New(nd.eng, stages...)
			nd.sh = sh
			rts[i] = nd.rt
		}
		sh.grp = host.NewGroup(rts)
		c.shards[s] = sh
		base += size
	}
}

// window returns the next lookahead window [start, end): the window on
// the fixed L-grid containing the earliest event, never starting before
// now. The fixed grid (rather than [earliest, earliest+L)) keeps
// window boundaries independent of per-window content. A window never
// reaches past horizon, the instant after the deadline; the next
// barrier then aborts.
func window(earliest, now simtime.Time, lookahead time.Duration, horizon simtime.Time) (start, end simtime.Time) {
	start = max(earliest-earliest%lookahead, now)
	end = start + lookahead
	if end < start {
		end = simtime.Infinity // overflow far beyond any trace
	}
	return start, min(end, horizon)
}

// windowRunner returns run, which advances every shard to a bound, and
// stop, which ends its worker goroutines and waits for them to exit.
// Each of up to GOMAXPROCS workers owns a contiguous run of
// ⌈shards/workers⌉ shards; channel sends carry the happens-before edges
// that make coordinator access between windows race-free. The
// assignment of shards to workers affects neither results — shards are
// independent within a window — nor the coordinator, so any GOMAXPROCS
// is byte-equivalent. One shard (serial mode) needs no workers.
func (c *Cluster) windowRunner() (run func(bound simtime.Time), stop func()) {
	nWorkers := min(runtime.GOMAXPROCS(0), len(c.shards))
	per := (len(c.shards) + nWorkers - 1) / nWorkers
	nWorkers = (len(c.shards) + per - 1) / per // every worker owns a shard
	if nWorkers <= 1 {
		return func(bound simtime.Time) {
			for _, sh := range c.shards {
				sh.advance(bound)
			}
		}, func() {}
	}
	work := make([]chan simtime.Time, nWorkers)
	done := make(chan struct{}, nWorkers)
	var wg sync.WaitGroup
	for w := range work {
		work[w] = make(chan simtime.Time)
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := c.shards[w*per : min((w+1)*per, len(c.shards))]
			for bound := range work[w] {
				for _, sh := range own {
					sh.advance(bound)
				}
				done <- struct{}{}
			}
		}()
	}
	run = func(bound simtime.Time) {
		for _, ch := range work {
			ch <- bound
		}
		for range work {
			<-done
		}
	}
	stop = func() {
		for _, ch := range work {
			close(ch)
		}
		wg.Wait()
	}
	return run, stop
}

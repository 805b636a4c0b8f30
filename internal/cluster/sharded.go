package cluster

import (
	"cmp"
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
// timestamped submission. Group.Advance interleaves submissions with
// host events in exact time order (host events first on ties, as in
// serial mode), so a host's event sequence depends only on the
// submissions it receives — never on how hosts are partitioned or
// which worker goroutine runs the shard. Everything the coordinator
// computes (dispatch decisions, window bounds, admission order) is a
// function of barrier-time state that is itself
// shard-count-independent, so the same seed yields byte-identical
// results at any -shards / -workers setting.
//
// Dispatch decisions observe host state as of the window's start (plus
// assignments already made this window, via the runtime's Queued
// count), where serial mode observes the exact decision instant. With
// a dispatcher that ignores host state (RR, RANDOM, HASH) the two modes
// place every invocation identically and produce identical results;
// the one modeled difference is that sharded mode advances lifecycle
// clocks to each window's end, so a run can count expirations serial
// mode never reaches (TestSerialShardedOracle). With state-reading
// dispatchers sharded mode models a cluster whose dispatcher works from
// slightly stale state — the price of the latency it models, not a
// bug; determinism is defined within sharded mode, with -shards 1 as
// the reference.

// DefaultDispatchLatency is the sharded engine's lookahead when
// Config.DispatchLatency is zero: the modeled minimum latency between
// the cluster dispatcher and any host.
const DefaultDispatchLatency = time.Millisecond

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

// advance runs the shard's hosts up to (but excluding) bound,
// interleaving pending submissions with host events in time order.
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

// windowBound returns the end of the next window: the window on the
// fixed L-grid containing the earliest event, never starting before
// now. The fixed grid (rather than [earliest, earliest+L)) keeps
// window boundaries independent of per-window content.
func windowBound(earliest, now simtime.Time, lookahead time.Duration, deadline simtime.Time) simtime.Time {
	t0 := max(earliest-earliest%lookahead, now)
	bound := t0 + lookahead
	if bound < t0 {
		bound = simtime.Infinity // overflow far beyond any trace
	}
	if deadline != simtime.Infinity && bound > deadline+1 {
		// Never simulate past the deadline; the next barrier aborts.
		bound = deadline + 1
	}
	return bound
}

// windowRunner returns run, which advances every shard to a bound, and
// stop, which ends its worker goroutines and waits for them to exit.
// Each of up to Config.Workers workers (GOMAXPROCS when zero) owns a
// strided group of shards; channel sends carry the happens-before
// edges that make coordinator access between windows race-free. The
// assignment of shards to workers affects neither results — shards are
// independent within a window — nor the coordinator, so any -workers
// value is byte-equivalent. One shard (serial mode) needs no workers.
func (c *Cluster) windowRunner() (run func(bound simtime.Time), stop func()) {
	nWorkers := min(cmp.Or(c.cfg.Workers, runtime.GOMAXPROCS(0)), len(c.shards))
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
			for bound := range work[w] {
				for s := w; s < len(c.shards); s += nWorkers {
					c.shards[s].advance(bound)
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

package experiments

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// This file is the deterministic parallel runner. Two rules make
// parallel runs byte-identical to serial ones:
//
//  1. Seeding is positional, not temporal. Every experiment runs with a
//     seed derived from (base seed, experiment ID) — DeriveSeed — so the
//     randomness an experiment sees never depends on which worker picked
//     it up or in what order. cmd/experiments applies the same
//     derivation when running a single -id, so a lone rerun of fig6
//     reproduces the fig6 of a full -all sweep.
//
//  2. Collection is ordered, not racy. sweep is the one fan-out: it runs
//     fn on every cell and returns the results in cell order, so callers
//     write no per-index slots, and rows, notes and reports are
//     assembled in registry/cell order after the fan-out completes.
//     Nothing is appended from a worker.
//
// Inner sweeps reuse the same pool: an experiment that fans its
// (family, memory, policy) cells, or a replay that fans its scheduler
// variants, calls sweep, which borrows idle workers when available and
// otherwise runs the cell inline on the caller. The caller always makes
// progress itself, so nested fan-outs can never deadlock the pool, and
// total concurrency stays bounded by the worker count.

// Pool is a bounded worker pool shared by the experiment runner and the
// inner sweeps of individual experiments. A Pool with W workers holds
// W-1 tokens: the calling goroutine is itself the W-th worker.
type Pool struct {
	tokens chan struct{}
}

// NewPool returns a pool that runs at most workers cells concurrently
// (including the caller). workers < 1 is treated as 1, i.e. fully
// serial execution.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tokens: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Fan runs fn(0), ..., fn(n-1), each exactly once. Indices are claimed
// from a shared atomic counter by the caller and by helper goroutines
// recruited from idle workers, so a long iteration running on the
// caller never blocks the rest of the fan-out: freed workers keep
// pulling the remaining indices (no head-of-line blocking). Before
// claiming each index the caller also recruits helpers for any tokens
// that freed up mid-fan. Fan returns once all n have completed. fn must
// write results to per-index storage — Fan guarantees completion, not
// ordering. A nil pool fans serially.
func (p *Pool) Fan(n int, fn func(i int)) {
	if p == nil || cap(p.tokens) == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	claim := func() int { return int(atomic.AddInt64(&next, 1)) }
	var wg sync.WaitGroup
	for {
		// Recruit a helper per idle worker while unclaimed work remains.
		// Helpers drain the counter and return their token on exit;
		// none of this blocks, so nested fans stay deadlock-free.
		for int(atomic.LoadInt64(&next))+1 < n {
			select {
			case <-p.tokens:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { p.tokens <- struct{}{} }()
					for {
						i := claim()
						if i >= n {
							return
						}
						fn(i)
					}
				}()
				continue
			default:
			}
			break
		}
		i := claim()
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}

// DeriveSeed maps (base seed, experiment ID) to the seed that
// experiment runs with, via FNV-1a over the ID and a splitmix64
// finalizer. The derivation is a pure function of its inputs — worker
// count and completion order cannot influence it — and decorrelates
// sibling experiments that would otherwise replay identical synthetic
// arrivals from the shared base seed.
func DeriveSeed(base uint64, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	x := base ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ForExperiment returns the config an individual experiment must run
// with: the same scale knobs, the derived per-experiment seed.
func (cfg Config) ForExperiment(id string) Config {
	cfg.Seed = DeriveSeed(cfg.Seed, id)
	return cfg
}

// sweep runs fn on every cell across the runner's pool (inline, in
// cell order, when the experiment runs without one) and returns the
// results in cell order.
func sweep[C, R any](cfg Config, cells []C, fn func(C) R) []R {
	out := make([]R, len(cells))
	cfg.pool.Fan(len(cells), func(i int) { out[i] = fn(cells[i]) })
	return out
}

// RunAll runs every registered experiment across workers and returns
// their reports in registry order. The same cfg.Seed produces
// byte-identical reports at any worker count.
func RunAll(cfg Config, workers int) []*Report {
	cfg.pool = NewPool(workers)
	return sweep(cfg, All(), func(e Experiment) *Report { return e.Run(cfg.ForExperiment(e.ID)) })
}

// RunOne runs a single experiment with the same derived seed and inner
// sweep parallelism it would get inside RunAll, so a lone -id rerun
// reproduces that slice of the full sweep byte for byte.
func RunOne(cfg Config, e Experiment, workers int) *Report {
	cfg.pool = NewPool(workers)
	return e.Run(cfg.ForExperiment(e.ID))
}

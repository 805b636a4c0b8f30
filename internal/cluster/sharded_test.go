package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// shardedCase is one cell of the determinism matrix.
type shardedCase struct {
	dispatch  string
	chain     bool
	lifecycle bool
}

// shardedConfig assembles a cluster config for one matrix cell; the
// returned source factory yields a fresh identical stream per run.
func shardedConfig(t *testing.T, tc shardedCase, hosts, cores, shards, workers int) (Config, func() trace.Source) {
	t.Helper()
	const n, seed = 240, 11
	d, err := NewDispatcher(tc.dispatch, FactoryConfig{Hosts: hosts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Hosts:        hosts,
		CoresPerHost: cores,
		NewScheduler: func() cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) },
		Dispatcher:   d,
		Shards:       shards,
		Workers:      workers,
	}
	if tc.lifecycle {
		cfg.NewLifecycle = func() *lifecycle.Manager {
			m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(time.Minute), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	var mkSource func() trace.Source
	if tc.chain {
		src, ccfg, err := workload.ChainStream(workload.ChainSpec{
			N: n / 2, Cores: hosts * cores, Load: 0.8, Family: "LINEAR", Depth: 3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chain = &ccfg
		first := true
		mkSource = func() trace.Source {
			if first {
				first = false
				return src
			}
			again, _, err := workload.ChainStream(workload.ChainSpec{
				N: n / 2, Cores: hosts * cores, Load: 0.8, Family: "LINEAR", Depth: 3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			return again
		}
	} else {
		mkSource = func() trace.Source {
			return workload.AzureSampledStream(workload.AzureSampledSpec{
				N: n, Cores: hosts * cores, Load: 0.9, Seed: seed,
			})
		}
	}
	return cfg, mkSource
}

// fingerprint renders every observable of a result that the CSV/report
// surfaces derive from — per-task accounting in source order, per-host
// counters, queue stats, lifecycle stats, workflow count — so equal
// fingerprints mean byte-identical rendered output.
func shardedFP(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|makespan=%d|qmax=%d|qdmax=%d|qdmean=%d|aborted=%v|central=%d\n",
		res.Scheduler, res.Dispatcher, res.Makespan, res.CentralQueueMax,
		res.QueueDelayMax, res.QueueDelayMean, res.Aborted, res.CentralQueueMax)
	fmt.Fprintf(&b, "lifecycle=%+v\n", res.Lifecycle)
	fmt.Fprintf(&b, "workflows=%d\n", len(res.Workflows.Workflows))
	for _, tk := range res.Merged.Tasks {
		fmt.Fprintf(&b, "t%d app=%s arr=%d svc=%d start=%d fin=%d wait=%d io=%d cpu=%d ctx=%d disp=%d mig=%d\n",
			tk.ID, tk.App, tk.Arrival, tk.Service, tk.Start, tk.Finish,
			tk.WaitTime, tk.IOTime, tk.CPUUsed, tk.CtxSwitches, tk.Dispatches, tk.Migrations)
	}
	for i, hr := range res.PerHost {
		fmt.Fprintf(&b, "h%d disp=%d ctx=%d tasks=%d\n", i, hr.Dispatches, hr.CtxSwitches, len(hr.Run.Tasks))
	}
	return b.String()
}

func runSharded(t *testing.T, cfg Config, src trace.Source) *Result {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedDeterminismMatrix: -shards 8 must reproduce -shards 1
// byte-identically for every dispatch policy, with and without chain
// expansion and container lifecycles. Workers is left at GOMAXPROCS so
// the race detector sees the parallel window path.
func TestShardedDeterminismMatrix(t *testing.T) {
	const hosts, cores = 16, 2
	for _, dispatch := range Names() {
		for _, withChain := range []bool{false, true} {
			for _, withLifecycle := range []bool{false, true} {
				tc := shardedCase{dispatch: dispatch, chain: withChain, lifecycle: withLifecycle}
				name := fmt.Sprintf("%s/chain=%v/lifecycle=%v", dispatch, withChain, withLifecycle)
				t.Run(name, func(t *testing.T) {
					cfg1, mkSource := shardedConfig(t, tc, hosts, cores, 1, 0)
					ref := shardedFP(runSharded(t, cfg1, mkSource()))
					cfg8, _ := shardedConfig(t, tc, hosts, cores, 8, 0)
					got := shardedFP(runSharded(t, cfg8, mkSource()))
					if got != ref {
						t.Errorf("shards=8 diverges from shards=1:\n%s", firstDiff(ref, got))
					}
				})
			}
		}
	}
}

// TestShardedFamilyParity: for every registered scenario family —
// including the shaped ones (diurnal, flashcrowd, multitenant,
// trigger) whose bursts concentrate arrivals in ways the uniform
// matrix above never does — the sharded engine at 8 shards must
// reproduce its -shards 1 run byte-identically. (Serial mode is
// compared in TestSerialShardedOracle.) Runs under -race via the usual
// test invocation; workers stays at GOMAXPROCS so the parallel window
// path is exercised.
func TestShardedFamilyParity(t *testing.T) {
	const hosts, cores, seed = 16, 2, 11
	mk := func(family string) trace.Source {
		src, err := workload.NewFamily(family, workload.FamilyConfig{
			N: 400, Cores: hosts * cores, Load: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, family := range workload.FamilyNames() {
		t.Run(family, func(t *testing.T) {
			run := func(shards int) string {
				d, err := NewDispatcher("JSQ", FactoryConfig{Hosts: hosts, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Hosts:        hosts,
					CoresPerHost: cores,
					NewScheduler: func() cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) },
					Dispatcher:   d,
					Shards:       shards,
				}
				return shardedFP(runSharded(t, cfg, mk(family)))
			}
			ref := run(1)
			if got := run(8); got != ref {
				t.Errorf("%s: shards=8 diverges from shards=1:\n%s", family, firstDiff(ref, got))
			}
		})
	}
}

// TestShardedWorkerCountInvariance: the worker pool size must not
// influence results, only wall-clock.
func TestShardedWorkerCountInvariance(t *testing.T) {
	const hosts, cores = 16, 2
	tc := shardedCase{dispatch: "JSQ", chain: true, lifecycle: true}
	var ref string
	for _, workers := range []int{1, 3, 8} {
		cfg, mkSource := shardedConfig(t, tc, hosts, cores, 8, workers)
		fp := shardedFP(runSharded(t, cfg, mkSource()))
		if ref == "" {
			ref = fp
		} else if fp != ref {
			t.Errorf("workers=%d diverges:\n%s", workers, firstDiff(ref, fp))
		}
	}
}

// TestShardedCompletesAllTasks: sharded runs finish every invocation,
// and per-host dispatch counts reconcile, for every policy.
func TestShardedCompletesAllTasks(t *testing.T) {
	const hosts, cores, n = 16, 2, 240
	for _, dispatch := range Names() {
		t.Run(dispatch, func(t *testing.T) {
			cfg, mkSource := shardedConfig(t, shardedCase{dispatch: dispatch}, hosts, cores, 8, 0)
			res := runSharded(t, cfg, mkSource())
			if res.Aborted {
				t.Fatal("run aborted")
			}
			if res.Shards != 8 || res.Lookahead != DefaultDispatchLatency {
				t.Fatalf("Shards/Lookahead = %d/%v", res.Shards, res.Lookahead)
			}
			finished, total := 0, 0
			for _, tk := range res.Merged.Tasks {
				if tk.Turnaround() >= 0 {
					finished++
				}
			}
			for _, hr := range res.PerHost {
				total += hr.Dispatches
			}
			if finished != n || total != n {
				t.Errorf("finished %d, dispatched %d, want %d", finished, total, n)
			}
		})
	}
}

// TestShardedDeadlineParity: a deadline abort must fire identically at
// any shard count.
func TestShardedDeadlineParity(t *testing.T) {
	const hosts, cores = 16, 2
	var fps []string
	for _, shards := range []int{1, 8} {
		cfg, mkSource := shardedConfig(t, shardedCase{dispatch: "RR"}, hosts, cores, shards, 0)
		cfg.Deadline = 200 * simtime.Time(time.Millisecond)
		res := runSharded(t, cfg, mkSource())
		if !res.Aborted {
			t.Fatalf("shards=%d: run not aborted by deadline", shards)
		}
		fps = append(fps, shardedFP(res))
	}
	if fps[0] != fps[1] {
		t.Errorf("deadline abort diverges across shard counts:\n%s", firstDiff(fps[0], fps[1]))
	}
}

// holdDispatcher always declines placement.
type holdDispatcher struct{}

func (holdDispatcher) Name() string                              { return "HOLDALL" }
func (holdDispatcher) Pick(simtime.Time, *task.Task, []Host) int { return Hold }

// TestShardedStallError: a dispatcher that never places work must
// surface the same stall error the serial path reports.
func TestShardedStallError(t *testing.T) {
	for _, shards := range []int{1, 8} {
		cl, err := New(Config{
			Hosts:        16,
			CoresPerHost: 2,
			NewScheduler: func() cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) },
			Dispatcher:   holdDispatcher{},
			Shards:       shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := workload.AzureSampledStream(workload.AzureSampledSpec{N: 10, Cores: 32, Load: 0.5, Seed: 3})
		_, err = cl.Run(src)
		if err == nil || !strings.Contains(err.Error(), "stalled") {
			t.Errorf("shards=%d: err = %v, want stall error", shards, err)
		}
	}
}

// TestShardedClampsShardCount: more shards than hosts clamps to one
// host per shard and still matches the single-shard reference.
func TestShardedClampsShardCount(t *testing.T) {
	const hosts, cores = 4, 2
	cfg1, mkSource := shardedConfig(t, shardedCase{dispatch: "LEASTLOADED"}, hosts, cores, 1, 0)
	ref := shardedFP(runSharded(t, cfg1, mkSource()))
	cfg64, _ := shardedConfig(t, shardedCase{dispatch: "LEASTLOADED"}, hosts, cores, 64, 0)
	res := runSharded(t, cfg64, mkSource())
	if res.Shards != hosts {
		t.Fatalf("Shards = %d, want clamp to %d", res.Shards, hosts)
	}
	if got := shardedFP(res); got != ref {
		t.Errorf("clamped run diverges:\n%s", firstDiff(ref, got))
	}
}

// firstDiff locates the first differing line of two fingerprints.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

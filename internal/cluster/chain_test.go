package cluster

import (
	"reflect"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// chainClusterRun executes the synthetic chain family across hosts and
// returns the result (fatal on any error).
func chainClusterRun(t *testing.T, hosts int, dispatch string, withLifecycle bool) *Result {
	t.Helper()
	src, ccfg, err := workload.ChainStream(workload.ChainSpec{
		N: 120, Cores: hosts * 2, Load: 0.8, Family: "LINEAR", Depth: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDispatcher(dispatch, FactoryConfig{Hosts: hosts, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Hosts:        hosts,
		CoresPerHost: 2,
		NewScheduler: func() cpusim.Scheduler { return sched.NewCFS() },
		Dispatcher:   d,
		Chain:        &ccfg,
	}
	if withLifecycle {
		cfg.NewLifecycle = func() *lifecycle.Manager {
			m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(time.Minute), Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
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

// TestChainClusterCompletes: every workflow finishes, every stage is a
// dispatched invocation, and downstream stages spread across hosts.
func TestChainClusterCompletes(t *testing.T) {
	res := chainClusterRun(t, 3, "RR", false)
	if res.Aborted {
		t.Fatal("run aborted")
	}
	if got := len(res.Merged.Tasks); got != 120*3 {
		t.Fatalf("merged %d invocations, want 360 (120 workflows x 3 stages)", got)
	}
	for _, tk := range res.Merged.Tasks {
		if tk.Finish < 0 {
			t.Fatalf("unfinished stage %v", tk)
		}
	}
	if got := res.Workflows.Completed(); got != 120 {
		t.Fatalf("%d workflows complete, want 120", got)
	}
	if s := res.Workflows.MeanSlowdown(); s < 1 {
		t.Fatalf("mean end-to-end slowdown %v below 1", s)
	}
	spread := 0
	for _, hr := range res.PerHost {
		if hr.Dispatches > 0 {
			spread++
		}
	}
	if spread != 3 {
		t.Fatalf("stages dispatched to %d of 3 hosts", spread)
	}
}

// TestChainClusterDeterministic: same seed + same chain spec + same
// host count must replay byte-identically in cluster mode — the
// acceptance criterion's -hosts N half.
func TestChainClusterDeterministic(t *testing.T) {
	for _, withLifecycle := range []bool{false, true} {
		a := chainClusterRun(t, 3, "LEASTLOADED", withLifecycle)
		b := chainClusterRun(t, 3, "LEASTLOADED", withLifecycle)
		if !reflect.DeepEqual(a.Workflows.Workflows, b.Workflows.Workflows) {
			t.Fatalf("lifecycle=%v: workflow results diverged", withLifecycle)
		}
		stamps := func(r *Result) []time.Duration {
			var out []time.Duration
			for _, tk := range r.Merged.Tasks {
				out = append(out, time.Duration(tk.Arrival), time.Duration(tk.Finish), tk.WaitTime)
			}
			return out
		}
		if !reflect.DeepEqual(stamps(a), stamps(b)) {
			t.Fatalf("lifecycle=%v: merged task timelines diverged", withLifecycle)
		}
		for i := range a.PerHost {
			if a.PerHost[i].Dispatches != b.PerHost[i].Dispatches {
				t.Fatalf("lifecycle=%v: host %d dispatch counts diverged", withLifecycle, i)
			}
		}
		if a.Lifecycle != b.Lifecycle {
			t.Fatalf("lifecycle=%v: lifecycle stats diverged", withLifecycle)
		}
	}
}

// TestChainClusterWarmPools: with per-host lifecycle managers,
// successive stages acquire containers on their dispatched hosts — the
// acquire count is one per stage, and repeats hit per-host warm pools.
func TestChainClusterWarmPools(t *testing.T) {
	res := chainClusterRun(t, 2, "HASH", true)
	if got := res.Lifecycle.Invocations; got != 120*3 {
		t.Fatalf("%d container acquires, want one per stage (360)", got)
	}
	// HASH pins each stage name to one host, so after the compulsory
	// colds nearly everything is a warm hit.
	if ratio := res.Lifecycle.WarmHitRatio(); ratio < 0.5 {
		t.Fatalf("warm-hit ratio %.2f too low for per-app affinity", ratio)
	}
}

// TestChainClusterFanIn: a fan-in stage waits for every branch even
// when the branches finish on different hosts.
func TestChainClusterFanIn(t *testing.T) {
	spec := chain.Diamond(chain.FamilyConfig{Depth: 2})
	req := task.New(0, 0, 10*time.Millisecond)
	req.App = "wf"
	d, err := NewDispatcher("RR", FactoryConfig{Hosts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{
		Hosts:        2,
		CoresPerHost: 1,
		NewScheduler: func() cpusim.Scheduler { return sched.NewFIFO() },
		Dispatcher:   d,
		Chain:        &chain.Config{Specs: map[string]chain.Spec{"wf": spec}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(trace.FromTasks("fanin", []*task.Task{req}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Workflows.Completed(); got != 1 {
		t.Fatalf("%d workflows complete, want 1", got)
	}
	w := res.Workflows.Workflows[0]
	// Entry 10ms, two 10ms branches in parallel on two hosts, join 10ms:
	// end-to-end is the 30ms critical path.
	if w.Turnaround() != 30*time.Millisecond {
		t.Fatalf("fan-in turnaround %v, want 30ms", w.Turnaround())
	}
	if w.Ideal != 30*time.Millisecond || w.Slowdown() != 1.0 {
		t.Fatalf("ideal %v slowdown %v, want 30ms / 1.0", w.Ideal, w.Slowdown())
	}
}

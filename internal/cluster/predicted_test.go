package cluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/workload"
)

// validCfg is a minimal passing config for validation tests to perturb.
func validCfg(hosts int) Config {
	return Config{
		Hosts:        hosts,
		CoresPerHost: 2,
		NewScheduler: func() cpusim.Scheduler { return sched.NewFIFO() },
		Dispatcher:   leastLoaded{},
	}
}

// TestSpeedsValidation: New must reject speed vectors of the wrong
// length and any non-positive or non-finite factor, and accept a valid
// heterogeneous vector.
func TestSpeedsValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		speeds []float64
	}{
		{"wrong length", []float64{1, 1}},
		{"negative", []float64{1, -0.5, 1, 1}},
		{"zero", []float64{1, 1, 0, 1}},
		{"NaN", []float64{1, 1, 1, math.NaN()}},
		{"Inf", []float64{math.Inf(1), 1, 1, 1}},
	} {
		cfg := validCfg(4)
		cfg.Speeds = tc.speeds
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: speeds %v accepted", tc.name, tc.speeds)
		}
	}
	cfg := validCfg(4)
	cfg.Speeds = []float64{2, 1, 0.5, 1}
	cl, err := New(cfg)
	if err != nil {
		t.Fatalf("valid speeds rejected: %v", err)
	}
	for i, want := range cfg.Speeds {
		if got := cl.views[i].Speed(); got != want {
			t.Errorf("host %d Speed() = %v, want %v", i, got, want)
		}
	}
}

// TestNetDelayValidation: a negative-mean delay distribution is a
// config bug and must be rejected; a legitimate one is accepted.
func TestNetDelayValidation(t *testing.T) {
	cfg := validCfg(2)
	cfg.NetDelay = dist.Constant{Value: -time.Millisecond}
	if _, err := New(cfg); err == nil {
		t.Fatal("negative-mean net delay accepted")
	}
	cfg.NetDelay = dist.Uniform{Lo: 200 * time.Microsecond, Hi: 2 * time.Millisecond}
	if _, err := New(cfg); err != nil {
		t.Fatalf("valid net delay rejected: %v", err)
	}
}

// TestPredictedPicksBySpeedAndBacklog drives the policy directly
// through hand-set host views: scores are predicted work over speed,
// ties break to the lowest index, and completions release the charged
// estimate.
func TestPredictedPicksBySpeedAndBacklog(t *testing.T) {
	d, err := NewDispatcher("predicted", FactoryConfig{Hosts: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := d.(*predicted)
	p.Estimator().Observe("app", 10*time.Millisecond)
	hosts := []Host{
		fakeHost{idx: 0, cores: 2, speed: 1},
		fakeHost{idx: 1, cores: 2, speed: 2},
	}
	mk := func(id int) *task.Task {
		tk := task.New(id, 0, 10*time.Millisecond)
		tk.App = "app"
		return tk
	}
	now := simtime.Time(0)
	t0, t1, t2 := mk(0), mk(1), mk(2)
	// Empty backlogs: 10ms/2x = 5ms beats 10ms/1x.
	if got := p.Pick(now, t0, hosts); got != 1 {
		t.Fatalf("pick 1 = %d, want fast host 1", got)
	}
	// Fast host now holds 10ms: (10+10)/2 = 10 ties 10/1 = 10 → index 0.
	if got := p.Pick(now, t1, hosts); got != 0 {
		t.Fatalf("pick 2 = %d, want tie to host 0", got)
	}
	// Both hold 10ms: (10+10)/1 = 20 vs (10+10)/2 = 10 → host 1.
	if got := p.Pick(now, t2, hosts); got != 1 {
		t.Fatalf("pick 3 = %d, want host 1", got)
	}
	// t0 finishing releases its charge: host 1 back to 10ms predicted.
	t0.Service = 10 * time.Millisecond
	p.TaskFinished(now, 1, t0)
	if got := p.backlog[1]; got != 10*time.Millisecond {
		t.Fatalf("backlog[1] after release = %v, want 10ms", got)
	}
	if got := p.backlog[0]; got != 10*time.Millisecond {
		t.Fatalf("backlog[0] = %v, want 10ms", got)
	}
}

// TestPredictedColdUsesPrior: before any completions every app predicts
// the prior, so placement degrades to backlog spreading — never NaN,
// never a panic, and all hosts get work.
func TestPredictedColdUsesPrior(t *testing.T) {
	d, err := NewDispatcher("PREDICTED", FactoryConfig{Hosts: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hosts := []Host{
		fakeHost{idx: 0, cores: 2},
		fakeHost{idx: 1, cores: 2},
		fakeHost{idx: 2, cores: 2},
	}
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		tk := task.New(i, 0, time.Millisecond)
		tk.App = "never-seen"
		got := d.Pick(0, tk, hosts)
		if got < 0 || got >= len(hosts) {
			t.Fatalf("cold pick %d out of range: %d", i, got)
		}
		seen[got] = true
	}
	if len(seen) != len(hosts) {
		t.Fatalf("cold picks covered %d of %d hosts", len(seen), len(hosts))
	}
}

// TestFasterFleetFinishesSooner: an end-to-end sanity check that speed
// factors reach the host engines — a uniformly 2x fleet must beat the
// baseline fleet's makespan on the same trace.
func TestFasterFleetFinishesSooner(t *testing.T) {
	run := func(speeds []float64) simtime.Time {
		cfg := validCfg(4)
		cfg.Speeds = speeds
		cfg.NewScheduler = func() cpusim.Scheduler { return sched.NewCFS() }
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := workload.AzureSampledStream(workload.AzureSampledSpec{N: 200, Cores: 8, Load: 0.9, Seed: 5})
		res, err := cl.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted {
			t.Fatal("run aborted")
		}
		return res.Makespan
	}
	base := run(nil)
	fast := run([]float64{2, 2, 2, 2})
	if fast >= base {
		t.Fatalf("2x fleet makespan %v not better than baseline %v", fast, base)
	}
}

// TestNetDelayDelaysRunnability: a constant dispatch network delay must
// push every invocation's start at least that far past its arrival,
// without being charged as central-queue delay.
func TestNetDelayDelaysRunnability(t *testing.T) {
	const delay = 5 * time.Millisecond
	cfg := validCfg(2)
	cfg.NetDelay = dist.Constant{Value: delay}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.AzureSampledStream(workload.AzureSampledSpec{N: 50, Cores: 4, Load: 0.5, Seed: 9})
	res, err := cl.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range res.Merged.Tasks {
		if lag := time.Duration(tk.Start - tk.Arrival); lag < delay {
			t.Fatalf("task %d started %v after arrival, want >= %v", tk.ID, lag, delay)
		}
	}
	if res.QueueDelayMax != 0 {
		t.Fatalf("net delay leaked into queue-delay accounting: max %v", res.QueueDelayMax)
	}
}

// TestShardedPredictedParity: the full new-feature stack — PREDICTED
// dispatch learning from barrier-merged completions, PSRTF hosts
// learning locally, heterogeneous speed factors, and a stochastic
// network-delay stream — must stay byte-identical between shards=1 and
// shards=8. Runs under -race via the usual test invocation; workers
// stays at GOMAXPROCS so the parallel window path is exercised.
func TestShardedPredictedParity(t *testing.T) {
	const hosts, cores, seed = 16, 2, 11
	speeds := make([]float64, hosts)
	for i := range speeds {
		if i%2 == 0 {
			speeds[i] = 1.5
		} else {
			speeds[i] = 0.5
		}
	}
	run := func(shards int) string {
		d, err := NewDispatcher("PREDICTED", FactoryConfig{Hosts: hosts, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Hosts:        hosts,
			CoresPerHost: cores,
			NewScheduler: func() cpusim.Scheduler { return sched.NewPSRTF(nil) },
			Dispatcher:   d,
			Speeds:       speeds,
			NetDelay:     dist.Uniform{Lo: 200 * time.Microsecond, Hi: 2 * time.Millisecond},
			NetDelaySeed: seed,
			Shards:       shards,
		}
		src := workload.AzureSampledStream(workload.AzureSampledSpec{
			N: 400, Cores: hosts * cores, Load: 0.9, Seed: seed,
			Apps: []workload.AppChoice{
				{Profile: workload.AppFib, Weight: 2},
				{Profile: workload.AppMd, Weight: 1},
				{Profile: workload.AppSa, Weight: 1},
			},
		})
		return shardedFP(runSharded(t, cfg, src))
	}
	ref := run(1)
	if got := run(8); got != ref {
		t.Errorf("shards=8 diverges from shards=1:\n%s", firstDiff(ref, got))
	}
	if !strings.Contains(ref, "PREDICTED") {
		t.Fatalf("fingerprint does not record the dispatcher: %q", ref[:80])
	}
}

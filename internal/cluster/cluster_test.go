package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// testSource returns a modest Azure-sampled stream calibrated for the
// given total core count.
func testSource(n, totalCores int, seed uint64) trace.Source {
	return workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: totalCores, Load: 0.9, Seed: seed,
	})
}

func mkCluster(t *testing.T, hosts, cores int, sched, dispatch string, seed uint64) *Cluster {
	t.Helper()
	d, err := NewDispatcher(dispatch, FactoryConfig{Hosts: hosts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Hosts:        hosts,
		CoresPerHost: cores,
		NewScheduler: func() cpusim.Scheduler { s, _ := schedulers.New(sched); return s },
		Dispatcher:   d,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAllPoliciesCompleteAllTasks: every registered policy must finish
// every invocation under every registered scheduler's default config.
func TestAllPoliciesCompleteAllTasks(t *testing.T) {
	const n, hosts, cores = 400, 3, 4
	for _, dispatch := range Names() {
		t.Run(dispatch, func(t *testing.T) {
			c := mkCluster(t, hosts, cores, "SFS", dispatch, 7)
			res, err := c.Run(testSource(n, hosts*cores, 7))
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted {
				t.Fatal("run aborted")
			}
			if got := len(res.Merged.Tasks); got != n {
				t.Fatalf("merged run has %d tasks, want %d", got, n)
			}
			finished := 0
			total := 0
			for _, t2 := range res.Merged.Tasks {
				if t2.Turnaround() >= 0 {
					finished++
				}
			}
			for _, hr := range res.PerHost {
				total += hr.Dispatches
				if hr.Dispatches != len(hr.Run.Tasks) {
					t.Errorf("host dispatches %d != host task count %d", hr.Dispatches, len(hr.Run.Tasks))
				}
			}
			if finished != n {
				t.Errorf("%d of %d tasks finished", finished, n)
			}
			if total != n {
				t.Errorf("host dispatches sum to %d, want %d", total, n)
			}
			if res.Makespan <= 0 {
				t.Error("non-positive makespan")
			}
		})
	}
}

// fingerprint reduces a result to a comparison string covering the
// acceptance criterion's "identical metrics" bar.
func fingerprint(res *Result) string {
	ps := res.Merged.Percentiles([]float64{50, 99, 99.9})
	s := fmt.Sprintf("%s|%v|%v %v %v|%v|q=%v/%v/%d|",
		res.Merged.Scheduler, res.Makespan, ps[0], ps[1], ps[2],
		res.Merged.MeanTurnaround(), res.QueueDelayMean, res.QueueDelayMax, res.CentralQueueMax)
	for _, hr := range res.PerHost {
		s += fmt.Sprintf("h(%d,%d,%.6f)", hr.Dispatches, hr.CtxSwitches, hr.Utilization)
	}
	return s
}

// TestDeterminism: same seed + spec + host count must yield identical
// metrics across runs, for every policy and several host counts.
func TestDeterminism(t *testing.T) {
	const n, cores = 300, 4
	for _, hosts := range []int{1, 2, 5} {
		for _, dispatch := range Names() {
			t.Run(fmt.Sprintf("%s/hosts=%d", dispatch, hosts), func(t *testing.T) {
				run := func() string {
					c := mkCluster(t, hosts, cores, "SFS", dispatch, 99)
					res, err := c.Run(testSource(n, hosts*cores, 99))
					if err != nil {
						t.Fatal(err)
					}
					return fingerprint(res)
				}
				a, b := run(), run()
				if a != b {
					t.Fatalf("non-deterministic cluster run:\n  %s\n  %s", a, b)
				}
			})
		}
	}
}

// TestSingleHostMatchesEngine: a 1-host cluster under a push policy
// must reproduce a plain cpusim run of the same trace exactly.
func TestSingleHostMatchesEngine(t *testing.T) {
	const n, cores = 300, 4
	c := mkCluster(t, 1, cores, "CFS", "RR", 3)
	res, err := c.Run(testSource(n, cores, 3))
	if err != nil {
		t.Fatal(err)
	}

	s, err := schedulers.New("CFS")
	if err != nil {
		t.Fatal(err)
	}
	tasks := trace.Collect(testSource(n, cores, 3))
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 10000 * time.Hour}, s)
	eng.Submit(tasks...)
	eng.Run()
	direct := metrics.Run{Tasks: tasks}

	want := direct.Percentiles([]float64{50, 99})
	got := res.Merged.Percentiles([]float64{50, 99})
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("1-host cluster diverges from direct engine: p[%d] %v != %v", i, got[i], want[i])
		}
	}
	if direct.MeanTurnaround() != res.Merged.MeanTurnaround() {
		t.Fatalf("mean turnaround %v != %v", res.Merged.MeanTurnaround(), direct.MeanTurnaround())
	}
}

// TestRoundRobinSpreadsEvenly: RR must balance dispatch counts to
// within one invocation.
func TestRoundRobinSpreadsEvenly(t *testing.T) {
	const n, hosts, cores = 400, 4, 2
	c := mkCluster(t, hosts, cores, "FIFO", "RR", 1)
	res, err := c.Run(testSource(n, hosts*cores, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, hr := range res.PerHost {
		if hr.Dispatches != n/hosts {
			t.Errorf("uneven RR split: %d", hr.Dispatches)
		}
	}
}

// TestHashAffinityIsSticky: with a multi-app mix, every invocation of
// one application must land on the same host.
func TestHashAffinityIsSticky(t *testing.T) {
	const n, hosts, cores = 400, 4, 2
	src := workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: hosts * cores, Load: 0.8, Seed: 5,
		Apps: workload.OpenLambdaMix(),
	})
	c := mkCluster(t, hosts, cores, "CFS", "HASH", 5)
	res, err := c.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	appHost := map[string]int{}
	for hi, hr := range res.PerHost {
		for _, tk := range hr.Run.Tasks {
			if prev, ok := appHost[tk.App]; ok && prev != hi {
				t.Fatalf("app %s split across hosts %d and %d", tk.App, prev, hi)
			}
			appHost[tk.App] = hi
		}
	}
}

// TestPullBasedBoundsInFlight: under PULL no host may ever hold more
// in-flight invocations than cores, and overflow shows up as central
// queueing.
func TestPullBasedBoundsInFlight(t *testing.T) {
	const hosts, cores = 2, 2
	// A deliberate burst: 40 long tasks arriving at once on 4 total
	// cores forces central queueing.
	var tasks []*task.Task
	for i := 0; i < 40; i++ {
		tasks = append(tasks, task.New(i, 0, 50*time.Millisecond))
	}
	src := trace.FromTasks("burst", tasks)
	c := mkCluster(t, hosts, cores, "FIFO", "PULL", 1)
	res, err := c.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.CentralQueueMax == 0 {
		t.Error("burst should have queued centrally")
	}
	if res.QueueDelayMax == 0 {
		t.Error("central queueing should delay dispatch")
	}
	for _, hr := range res.PerHost {
		if hr.Dispatches != 20 {
			t.Errorf("pull should spread the burst evenly, got %d", hr.Dispatches)
		}
	}
	// Every task still finishes, and turnaround includes queue delay.
	for _, tk := range res.Merged.Tasks {
		if tk.Turnaround() < 0 {
			t.Fatalf("task %d unfinished", tk.ID)
		}
	}
}

// TestLeastLoadedPrefersIdle: with one host pre-loaded, LEASTLOADED
// must send the next arrival elsewhere.
func TestLeastLoadedPrefersIdle(t *testing.T) {
	tasks := []*task.Task{
		task.New(0, 0, 100*time.Millisecond),
		task.New(1, simtime.Time(time.Millisecond), 10*time.Millisecond),
	}
	c := mkCluster(t, 2, 1, "FIFO", "LEASTLOADED", 1)
	res, err := c.Run(trace.FromTasks("pair", tasks))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerHost[0].Dispatches != 1 || res.PerHost[1].Dispatches != 1 {
		t.Fatalf("least-loaded should split the pair, got %d/%d",
			res.PerHost[0].Dispatches, res.PerHost[1].Dispatches)
	}
}

// TestConfigValidation covers New's error paths.
func TestConfigValidation(t *testing.T) {
	d, _ := NewDispatcher("RR", FactoryConfig{})
	mk := func() cpusim.Scheduler { s, _ := schedulers.New("FIFO"); return s }
	cases := []Config{
		{Hosts: 0, CoresPerHost: 1, NewScheduler: mk, Dispatcher: d},
		{Hosts: 1, CoresPerHost: 0, NewScheduler: mk, Dispatcher: d},
		{Hosts: 1, CoresPerHost: 1, Dispatcher: d},
		{Hosts: 1, CoresPerHost: 1, NewScheduler: mk},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}

// arrivalWatch wraps a dispatcher and checks, at every completion the
// cluster reports, that the finished task still carries the arrival
// its source emitted.
type arrivalWatch struct {
	Dispatcher
	t        *testing.T
	arrivals map[int]simtime.Time // by task ID
	checked  int
}

func (w *arrivalWatch) TaskFinished(now simtime.Time, host int, tk *task.Task) {
	w.checked++
	if want := w.arrivals[tk.ID]; tk.Arrival != want {
		w.t.Errorf("task %d finished on host %d at %v carrying arrival %v, want its source's %v", tk.ID, host, now, tk.Arrival, want)
	}
}

// TestArrivalUnchangedAtCompletion: in serial and sharded runs alike,
// with a network delay, cold starts and PULL holding work in the
// central queue, every task carries its source's arrival when it
// finishes, not only once the run is over, so its Turnaround is end
// to end the moment it finishes.
func TestArrivalUnchangedAtCompletion(t *testing.T) {
	const hosts, cores, n, seed = 4, 2, 400, 9
	tasks := trace.Collect(workload.Stream(workload.Spec{N: n, Cores: hosts * cores, Load: 1.4, Seed: seed}))
	arrivals := map[int]simtime.Time{}
	for _, tk := range tasks {
		arrivals[tk.ID] = tk.Arrival
	}
	for _, shards := range []int{0, 2} {
		d, err := NewDispatcher("PULL", FactoryConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		w := &arrivalWatch{Dispatcher: d, t: t, arrivals: arrivals}
		res := runSharded(t, Config{
			Hosts:        hosts,
			CoresPerHost: cores,
			NewScheduler: func() cpusim.Scheduler { return sched.NewCFS() },
			Dispatcher:   w,
			NetDelay:     dist.Uniform{Lo: 100 * time.Microsecond, Hi: 3 * time.Millisecond},
			NetDelaySeed: seed,
			NewLifecycle: func() *lifecycle.Manager {
				m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(time.Second), Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			Shards: shards,
		}, trace.FromTasks("watched", tasks))
		if w.checked != n {
			t.Fatalf("shards=%d: %d completions checked, want %d", shards, w.checked, n)
		}
		if res.CentralQueueMax == 0 || res.Lifecycle.ColdStarts == 0 {
			t.Fatalf("shards=%d: central queue high-water %d, %d cold starts; want work held and cold-started",
				shards, res.CentralQueueMax, res.Lifecycle.ColdStarts)
		}
	}
}

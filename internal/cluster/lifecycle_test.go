package cluster

import (
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// lifecycleCluster builds a cluster whose hosts model container
// lifecycles under the given keep-alive policy name.
func lifecycleCluster(t *testing.T, hosts int, dispatch, policy string, memoryMB int) *Cluster {
	t.Helper()
	d, err := NewDispatcher(dispatch, FactoryConfig{Hosts: hosts, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{
		Hosts:        hosts,
		CoresPerHost: 4,
		NewScheduler: func() cpusim.Scheduler { return sched.NewCFS() },
		Dispatcher:   d,
		NewLifecycle: func() *lifecycle.Manager {
			p, err := lifecycle.NewPolicy(policy, lifecycle.PolicyConfig{TTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			m, err := lifecycle.New(lifecycle.Config{
				Policy:      p,
				MemoryMB:    memoryMB,
				ImagePull:   dist.Constant{Value: 100 * time.Millisecond},
				SandboxBoot: dist.Constant{Value: 50 * time.Millisecond},
				Seed:        5,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// mixSource streams n fib/md/sa invocations; the same arguments
// regenerate the stream byte for byte.
func mixSource(n, cores int, seed uint64) trace.Source {
	return workload.AzureSampledStream(workload.AzureSampledSpec{
		N: n, Cores: cores, Load: 0.8, Seed: seed,
		Apps: workload.OpenLambdaMix(),
	})
}

// TestClusterLifecycleDeterminism: same seed/spec/policy must replay to
// byte-identical metrics and lifecycle counters — the cluster half of
// the determinism criterion.
func TestClusterLifecycleDeterminism(t *testing.T) {
	run := func() *Result {
		cl := lifecycleCluster(t, 2, "WARMFIRST", "HIST", 2048)
		res, err := cl.Run(mixSource(800, 8, 21))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Lifecycle != r2.Lifecycle {
		t.Fatalf("merged lifecycle stats diverged:\n%+v\n%+v", r1.Lifecycle, r2.Lifecycle)
	}
	if len(r1.Merged.Tasks) != len(r2.Merged.Tasks) {
		t.Fatal("task counts diverged")
	}
	for i := range r1.Merged.Tasks {
		a, b := r1.Merged.Tasks[i], r2.Merged.Tasks[i]
		if a.Finish != b.Finish || a.Arrival != b.Arrival {
			t.Fatalf("task %d diverged: finish %v vs %v", i, a.Finish, b.Finish)
		}
	}
	for i := range r1.PerHost {
		if r1.PerHost[i].Lifecycle != r2.PerHost[i].Lifecycle {
			t.Fatalf("host %d lifecycle stats diverged", i)
		}
	}
}

// TestClusterLifecycleAccounting: merged counters must cover every
// invocation exactly once, and cold starts must appear in RenderPerHost.
func TestClusterLifecycleAccounting(t *testing.T) {
	const n = 600
	cl := lifecycleCluster(t, 2, "RR", "TTL", 0)
	res, err := cl.Run(mixSource(n, 8, 22))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Lifecycle
	if st.Invocations != n {
		t.Fatalf("lifecycle saw %d invocations, want %d", st.Invocations, n)
	}
	if st.WarmHits()+st.ColdStarts != st.Invocations {
		t.Fatalf("warm %d + cold %d != invocations %d", st.WarmHits(), st.ColdStarts, st.Invocations)
	}
	if st.WarmHits() == 0 {
		t.Fatal("a minute-long TTL should produce warm hits on a bursty trace")
	}
	out := res.RenderPerHost()
	for _, col := range []string{"warm-hit", "cold"} {
		if !strings.Contains(out, col) {
			t.Fatalf("RenderPerHost lacks %q column:\n%s", col, out)
		}
	}
}

// TestWarmFirstBeatsSpreadOnWarmHits: routing on warm state must yield
// at least the warm-hit ratio of affinity-blind spreading under the
// same trace, memory, and policy.
func TestWarmFirstBeatsSpreadOnWarmHits(t *testing.T) {
	ratio := func(dispatch string) float64 {
		cl := lifecycleCluster(t, 4, dispatch, "TTL", 512)
		res, err := cl.Run(mixSource(1000, 16, 23))
		if err != nil {
			t.Fatal(err)
		}
		return res.Lifecycle.WarmHitRatio()
	}
	warm, rr := ratio("WARMFIRST"), ratio("RR")
	t.Logf("warm-hit ratio: WARMFIRST %.3f vs RR %.3f", warm, rr)
	if warm < rr {
		t.Fatalf("WARMFIRST warm-hit ratio %.3f below RR %.3f", warm, rr)
	}
}

// TestColdStartDelaysClusterTasks: a task dispatched cold must not
// start before its cold-start latency has elapsed.
func TestColdStartDelaysClusterTasks(t *testing.T) {
	cl := lifecycleCluster(t, 2, "RR", "NONE", 0)
	res, err := cl.Run(mixSource(200, 8, 24))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifecycle.WarmHits() != 0 {
		t.Fatalf("NONE produced %d warm hits", res.Lifecycle.WarmHits())
	}
	const cold = 150 * time.Millisecond
	for _, tk := range res.Merged.Tasks {
		if tk.Start >= 0 && tk.Start-tk.Arrival < cold {
			t.Fatalf("task %d started %v after arrival, inside its %v cold start",
				tk.ID, tk.Start-tk.Arrival, cold)
		}
	}
}

// eagerLifecycle wraps a dispatcher. With eager set, every decision
// first advances every host's lifecycle manager to the decision
// instant: the per-decision sweep over all hosts that the coordinator
// itself no longer makes. Either way it forwards completions, so the
// lazy and eager runs differ in nothing else.
type eagerLifecycle struct {
	Dispatcher
	mgrs  *[]*lifecycle.Manager
	eager bool
}

func (d eagerLifecycle) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	if d.eager {
		for _, m := range *d.mgrs {
			m.AdvanceTo(now)
		}
	}
	return d.Dispatcher.Pick(now, t, hosts)
}

func (d eagerLifecycle) TaskFinished(now simtime.Time, host int, t *task.Task) {
	if obs, ok := d.Dispatcher.(CompletionObserver); ok {
		obs.TaskFinished(now, host, t)
	}
}

// TestLazyLifecycleMatchesEager: a host's lifecycle manager catches up
// to the coordinator's lifecycle clock only when a dispatcher reads its
// warm pool or the run reads its stats. That must give the same bytes
// as advancing every manager before every decision: the same merged
// and per-host lifecycle counters, and every task on the same host at
// the same arrival, start and finish. A short TTL and a tight memory
// budget make containers expire and get evicted between decisions.
func TestLazyLifecycleMatchesEager(t *testing.T) {
	const hosts, cores, n, seed = 8, 2, 1200, 31
	run := func(dispatch, policy string, eager bool) *Result {
		t.Helper()
		d, err := NewDispatcher(dispatch, FactoryConfig{Hosts: hosts, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var mgrs []*lifecycle.Manager
		cl, err := New(Config{
			Hosts:        hosts,
			CoresPerHost: cores,
			NewScheduler: func() cpusim.Scheduler { return sched.NewCFS() },
			Dispatcher:   eagerLifecycle{Dispatcher: d, mgrs: &mgrs, eager: eager},
			NewLifecycle: func() *lifecycle.Manager {
				p, err := lifecycle.NewPolicy(policy, lifecycle.PolicyConfig{TTL: 50 * time.Millisecond, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				m, err := lifecycle.New(lifecycle.Config{Policy: p, MemoryMB: 256, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				mgrs = append(mgrs, m)
				return m
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Load calibrated to a quarter of the fleet leaves hosts idle
		// for whole TTLs, so some expire containers after their last
		// acquire or release.
		res, err := cl.Run(mixSource(n, hosts*cores/4, seed))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, dispatch := range []string{"WARMFIRST", "JSQ", "PREDICTED"} {
		for _, policy := range []string{"TTL", "HIST"} {
			lazy, eager := run(dispatch, policy, false), run(dispatch, policy, true)
			name := dispatch + "/" + policy
			if st := eager.Lifecycle; st.Expirations == 0 || st.Evictions == 0 {
				t.Fatalf("%s: %d expirations, %d evictions; the run must exercise both", name, st.Expirations, st.Evictions)
			}
			if lazy.Lifecycle != eager.Lifecycle {
				t.Errorf("%s: merged lifecycle stats diverged:\nlazy  %+v\neager %+v", name, lazy.Lifecycle, eager.Lifecycle)
			}
			for i := range eager.PerHost {
				l, e := lazy.PerHost[i], eager.PerHost[i]
				if l.Lifecycle != e.Lifecycle {
					t.Errorf("%s: host %d lifecycle stats diverged:\nlazy  %+v\neager %+v", name, i, l.Lifecycle, e.Lifecycle)
				}
				if tasksFP(l.Run.Tasks) != tasksFP(e.Run.Tasks) {
					t.Errorf("%s: host %d ran different tasks or timings", name, i)
				}
			}
			if len(lazy.Merged.Tasks) != len(eager.Merged.Tasks) {
				t.Errorf("%s: %d tasks lazily, %d eagerly", name, len(lazy.Merged.Tasks), len(eager.Merged.Tasks))
			}
		}
	}
}

package cluster

import (
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/sched"
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

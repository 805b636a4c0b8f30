package faas

import (
	"reflect"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/workload"
)

// chainPlatformRun executes a chained workload on the platform model.
func chainPlatformRun(t *testing.T) Result {
	t.Helper()
	w := workload.Stream(workload.Spec{
		N: 200, Cores: 8, Load: 0.7, Seed: 9,
		Apps: []workload.AppChoice{{Profile: workload.AppProfile{Name: "wf", CPUFraction: 1}, Weight: 1}},
	})
	p := New(Config{
		Cores:     8,
		Overheads: DefaultOverheads(),
		Seed:      9,
		Chain: &chain.Config{
			Specs: map[string]chain.Spec{"wf": chain.Linear(chain.FamilyConfig{Depth: 3})},
		},
	})
	return p.RunTrace(w, core.New(core.DefaultConfig()))
}

// TestPlatformChainEndToEnd: the platform expands chained requests,
// charges the request path to the workflow's arrival, the hop overheads
// between stages, and the response path once — to the final stage.
func TestPlatformChainEndToEnd(t *testing.T) {
	res := chainPlatformRun(t)
	if got := len(res.Run.Tasks); got != 200*3 {
		t.Fatalf("platform ran %d invocations, want 600 (200 workflows x 3 stages)", got)
	}
	wfr := res.Workflows
	if wfr.Completed() != 200 {
		t.Fatalf("%d workflows complete, want 200", wfr.Completed())
	}
	for i, w := range wfr.Workflows {
		ta := w.Turnaround()
		if ta < 0 {
			t.Fatalf("workflow %d unfinished", i)
		}
		// End-to-end must exceed the critical path plus something for
		// the platform's request/hop/response overheads (all positive
		// under DefaultOverheads).
		if ta <= w.Ideal {
			t.Fatalf("workflow %d turnaround %v not above its ideal %v despite platform overheads", i, ta, w.Ideal)
		}
	}
	if res.MeanDispatchOverhead <= 0 {
		t.Fatal("no dispatch overhead recorded")
	}
}

// TestPlatformChainDeterministic: the platform's chain path must replay
// byte-identically for the same seed.
func TestPlatformChainDeterministic(t *testing.T) {
	a := chainPlatformRun(t)
	b := chainPlatformRun(t)
	if !reflect.DeepEqual(a.Workflows.Workflows, b.Workflows.Workflows) {
		t.Fatal("workflow results diverged across identical runs")
	}
	if a.Run.MeanTurnaround() != b.Run.MeanTurnaround() {
		t.Fatal("per-stage metrics diverged across identical runs")
	}
}

// TestPlatformChainZeroOverheads: with every overhead nil the platform
// chain path degrades to the bare simulator — a single constant-service
// chain on an idle host completes at exactly its critical path.
func TestPlatformChainZeroOverheads(t *testing.T) {
	w := workload.Stream(workload.Spec{
		N: 1, Cores: 4, Duration: dist.Constant{Value: 10 * time.Millisecond}, Seed: 1,
		Apps: []workload.AppChoice{{Profile: workload.AppProfile{Name: "wf", CPUFraction: 1}, Weight: 1}},
	})
	p := New(Config{
		Cores: 4,
		Seed:  1,
		Chain: &chain.Config{Specs: map[string]chain.Spec{"wf": chain.Linear(chain.FamilyConfig{Depth: 4})}},
	})
	res := p.RunTrace(w, core.New(core.DefaultConfig()))
	if res.Workflows.Completed() != 1 {
		t.Fatalf("%d workflows complete, want 1", res.Workflows.Completed())
	}
	got := res.Workflows.Workflows[0]
	if got.Turnaround() != 40*time.Millisecond || got.Slowdown() != 1.0 {
		t.Fatalf("turnaround %v slowdown %v, want 40ms / 1.0", got.Turnaround(), got.Slowdown())
	}
}

// TestPlatformChainPassThroughKeepsResponsePath: requests whose app has
// no workflow spec pass through unexpanded — and must still be charged
// the per-request response path. A run whose Chain config matches no
// app at all is therefore end-to-end identical to the same run with
// Chain unset (same seed, same overhead streams; the response used to
// be dropped for every pass-through invocation).
func TestPlatformChainPassThroughKeepsResponsePath(t *testing.T) {
	run := func(withChain bool) Result {
		w := workload.Stream(workload.Spec{
			N: 100, Cores: 8, Load: 0.7, Seed: 5,
			Apps: []workload.AppChoice{{Profile: workload.AppProfile{Name: "plain", CPUFraction: 1}, Weight: 1}},
		})
		cfg := Config{Cores: 8, Overheads: DefaultOverheads(), Seed: 5}
		if withChain {
			cfg.Chain = &chain.Config{
				Specs: map[string]chain.Spec{"wf": chain.Linear(chain.FamilyConfig{Depth: 2})},
			}
		}
		return New(cfg).RunTrace(w, core.New(core.DefaultConfig()))
	}
	res := run(true)
	base := run(false)
	if len(res.Workflows.Workflows) != 0 {
		t.Fatalf("%d workflows tracked for a trace with no matching app", len(res.Workflows.Workflows))
	}
	baseFinish := map[int]time.Duration{}
	for _, tk := range base.Run.Tasks {
		baseFinish[tk.ID] = time.Duration(tk.Finish)
	}
	if len(res.Run.Tasks) != len(base.Run.Tasks) {
		t.Fatalf("%d tasks with chain vs %d without", len(res.Run.Tasks), len(base.Run.Tasks))
	}
	for _, tk := range res.Run.Tasks {
		if got := time.Duration(tk.Finish); got != baseFinish[tk.ID] {
			t.Fatalf("pass-through task %d finishes at %v with Chain set vs %v without (response path dropped?)",
				tk.ID, got, baseFinish[tk.ID])
		}
	}
}

// TestPlatformChainHopOwnership: a caller-supplied Hop must be rejected
// at construction (the platform wires its own overheads there).
func TestPlatformChainHopOwnership(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a Chain config with a caller-supplied Hop")
		}
	}()
	New(Config{
		Cores: 1,
		Chain: &chain.Config{
			Specs: map[string]chain.Spec{"wf": chain.Linear(chain.FamilyConfig{})},
			Hop:   func() time.Duration { return 0 },
		},
	})
}

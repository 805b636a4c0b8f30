package workload

import (
	"bytes"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/trace"
)

// TestStreamUnbounded: N == 0 streams past any fixed count and stays
// monotone.
func TestStreamUnbounded(t *testing.T) {
	src := trace.Limit(Stream(Spec{Cores: 2, Load: 0.8, Seed: 3}), 1000)
	n, err := trace.Validate(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("limited unbounded stream yielded %d", n)
	}
}

func TestSyntheticWorkload(t *testing.T) {
	spec := SyntheticSpec{
		Shape: trace.ShapeRamp, StartRPS: 100, TargetRPS: 400,
		Horizon: 30 * time.Second, Seed: 21, IOFraction: 0.5,
		Apps: []AppChoice{{Profile: AppFib, Weight: 1}, {Profile: AppSa, Weight: 1}},
	}
	tasks := trace.Collect(SyntheticStream(spec))
	if len(tasks) == 0 {
		t.Fatal("empty synthetic workload")
	}
	apps := map[string]int{}
	withIO := 0
	for i, tk := range tasks {
		if err := tk.Validate(); err != nil {
			t.Fatal(err)
		}
		if i > 0 && tk.Arrival < tasks[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
		apps[tk.App]++
		if len(tk.IOOps) > 0 {
			withIO++
		}
	}
	if apps["fib"] == 0 || apps["sa"] == 0 {
		t.Fatalf("app mix not applied: %v", apps)
	}
	if frac := float64(withIO) / float64(len(tasks)); frac < 0.4 {
		t.Fatalf("I/O knob fraction %.2f (sa profile + knob should exceed 0.4)", frac)
	}
	// Determinism across the full pipeline, via CSV bytes.
	var a, b bytes.Buffer
	if _, err := trace.WriteCSV(&a, SyntheticStream(spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCSV(&b, SyntheticStream(spec)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed synthetic workloads are not byte-identical")
	}
}

// TestThreeFamiliesOneInterface is the acceptance check: all three
// scenario families flow through trace.Source with deterministic seeded
// output.
func TestThreeFamiliesOneInterface(t *testing.T) {
	sources := map[string]func() trace.Source{
		"table1-poisson": func() trace.Source { return Stream(Spec{N: 200, Cores: 4, Load: 0.8, Seed: 1}) },
		"azure-sampled":  func() trace.Source { return AzureSampledStream(AzureSampledSpec{N: 200, Cores: 4, Load: 1, Seed: 1}) },
		"synth-ramp": func() trace.Source {
			return SyntheticStream(SyntheticSpec{
				Shape: trace.ShapeRamp, StartRPS: 50, TargetRPS: 200, Horizon: 10 * time.Second, Seed: 1})
		},
	}
	for name, mk := range sources {
		t.Run(name, func(t *testing.T) {
			var a, b bytes.Buffer
			na, err := trace.WriteCSV(&a, mk())
			if err != nil {
				t.Fatal(err)
			}
			if na == 0 {
				t.Fatal("empty family")
			}
			if _, err := trace.WriteCSV(&b, mk()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("family not deterministic")
			}
			src, err := trace.NewCSVSource(bytes.NewReader(a.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if n, err := trace.Validate(src); err != nil || n != na {
				t.Fatalf("round trip: n=%d err=%v", n, err)
			}
		})
	}
}

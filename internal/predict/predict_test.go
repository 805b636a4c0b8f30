package predict

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/rng"
)

// TestColdAppPrior: the zero-observation path returns the documented
// prior — positive, never NaN — for both the mean and tail estimates,
// and switches to learned values only after MinObs completions.
func TestColdAppPrior(t *testing.T) {
	e := New(Config{})
	if got := e.Predict("unseen"); got != DefaultPrior {
		t.Fatalf("cold Predict = %v, want default prior %v", got, DefaultPrior)
	}
	if got := e.Percentile("unseen"); got != DefaultPrior {
		t.Fatalf("cold Percentile = %v, want default prior %v", got, DefaultPrior)
	}

	e = New(Config{Prior: time.Microsecond, MinObs: 3})
	e.Observe("app", 50*time.Millisecond)
	e.Observe("app", 50*time.Millisecond)
	if got := e.Predict("app"); got != time.Microsecond {
		t.Fatalf("below MinObs Predict = %v, want configured prior %v", got, time.Microsecond)
	}
	e.Observe("app", 50*time.Millisecond)
	if got := e.Predict("app"); got != 50*time.Millisecond {
		t.Fatalf("at MinObs Predict = %v, want learned 50ms", got)
	}

	// Degenerate observations must never produce a zero or negative
	// prediction (callers divide by predictions).
	e = New(Config{})
	e.Observe("tiny", 0)
	e.Observe("tiny", -time.Second)
	if got := e.Predict("tiny"); got < 1 {
		t.Fatalf("Predict after degenerate observations = %v, want >= 1ns", got)
	}
	if math.IsNaN(float64(e.Predict("tiny"))) {
		t.Fatal("Predict returned NaN")
	}
}

// TestConvergenceConstant: on a constant workload the mean estimate is
// exact and the tail percentile equals the constant.
func TestConvergenceConstant(t *testing.T) {
	e := New(Config{})
	const v = 7 * time.Millisecond
	for i := 0; i < 1000; i++ {
		e.Observe("const", v)
	}
	if got := e.Predict("const"); got != v {
		t.Fatalf("constant-workload Predict = %v, want %v", got, v)
	}
	if got := e.Percentile("const"); got != v {
		t.Fatalf("constant-workload Percentile = %v, want %v", got, v)
	}
	if got := e.apps["const"].n; got != 1000 {
		t.Fatalf("observations = %d, want 1000", got)
	}
}

// TestConvergenceLognormal: on a lognormal workload the streaming mean
// converges to the analytic mean and the P² tail estimate stays within
// tolerance of the exact sample percentile.
func TestConvergenceLognormal(t *testing.T) {
	d := dist.Lognormal{Mu: math.Log(float64(20 * time.Millisecond)), Sigma: 0.5}
	r := rng.New(42)
	e := New(Config{})
	const n = 20000
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s := d.Sample(r)
		samples = append(samples, float64(s))
		e.Observe("ln", s)
	}

	var sum float64
	for _, s := range samples {
		sum += s
	}
	exactMean := sum / n
	if got := float64(e.Predict("ln")); math.Abs(got-exactMean)/exactMean > 1e-6 {
		t.Fatalf("streaming mean %v deviates from exact sample mean %v", got, exactMean)
	}
	// The streaming mean should also approach the analytic mean.
	if analytic := float64(d.Mean()); math.Abs(exactMean-analytic)/analytic > 0.05 {
		t.Fatalf("sample mean %v off analytic mean %v by more than 5%%", exactMean, analytic)
	}

	sort.Float64s(samples)
	exactP95 := samples[int(0.95*n)]
	got := float64(e.Percentile("ln"))
	if math.Abs(got-exactP95)/exactP95 > 0.05 {
		t.Fatalf("P² p95 %v off exact sample p95 %v by more than 5%%", got, exactP95)
	}
}

// TestDeterministicReplay: the same observation sequence yields
// byte-identical rendered estimates, and the injected noise coin is a
// function of (seed, app) only — independent of observation order.
func TestDeterministicReplay(t *testing.T) {
	replay := func() string {
		d := dist.Lognormal{Mu: math.Log(float64(5 * time.Millisecond)), Sigma: 1.0}
		r := rng.New(7)
		e := New(Config{NoiseFactor: 2, Seed: 11})
		apps := []string{"a", "b", "c"}
		for i := 0; i < 5000; i++ {
			e.Observe(apps[i%len(apps)], d.Sample(r))
		}
		out := ""
		for _, a := range apps {
			out += fmt.Sprintf("%s:%d:%d:%d;", a, e.apps[a].n, e.Predict(a), e.Percentile(a))
		}
		return out
	}
	first := replay()
	for i := 0; i < 3; i++ {
		if got := replay(); got != first {
			t.Fatalf("replay %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestNoiseFactor: injected error scales learned estimates by the
// factor or its reciprocal per app, deterministically in the seed, and
// leaves the cold-app prior untouched.
func TestNoiseFactor(t *testing.T) {
	const v = 10 * time.Millisecond
	exact := New(Config{Seed: 3})
	noisy := New(Config{NoiseFactor: 2, Seed: 3})
	apps := []string{"w", "x", "y", "z"}
	for _, a := range apps {
		for i := 0; i < 10; i++ {
			exact.Observe(a, v)
			noisy.Observe(a, v)
		}
	}
	up, down := 0, 0
	for _, a := range apps {
		e, n := exact.Predict(a), noisy.Predict(a)
		switch n {
		case 2 * e:
			up++
		case e / 2:
			down++
		default:
			t.Fatalf("app %s: noisy %v is neither 2x nor 0.5x of exact %v", a, n, e)
		}
	}
	if up+down != len(apps) {
		t.Fatalf("noise accounting: up=%d down=%d apps=%d", up, down, len(apps))
	}
	// Cold apps return the prior verbatim; noise applies to learned
	// estimates only.
	if got := noisy.Predict("never-seen"); got != DefaultPrior {
		t.Fatalf("cold Predict under noise = %v, want %v", got, DefaultPrior)
	}
}

// TestP2AgainstExactQuantiles sweeps tracked ranks against the exact
// sorted-sample percentile on a heavy-tailed input.
func TestP2AgainstExactQuantiles(t *testing.T) {
	for _, rank := range []float64{50, 90, 99} {
		rank := rank
		t.Run(fmt.Sprintf("p%.0f", rank), func(t *testing.T) {
			d := dist.Lognormal{Mu: math.Log(float64(time.Millisecond)), Sigma: 1.2}
			r := rng.New(99)
			e := New(Config{Rank: rank})
			const n = 30000
			samples := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				s := d.Sample(r)
				samples = append(samples, float64(s))
				e.Observe("hv", s)
			}
			sort.Float64s(samples)
			exact := samples[int(rank/100*n)]
			got := float64(e.Percentile("hv"))
			if math.Abs(got-exact)/exact > 0.10 {
				t.Fatalf("P² p%.0f = %v, exact %v (>10%% off)", rank, got, exact)
			}
		})
	}
}

// TestAppsCount: distinct apps tracked, O(1) state per app implied by
// the map size.
func TestAppsCount(t *testing.T) {
	e := New(Config{})
	for i := 0; i < 64; i++ {
		e.Observe(fmt.Sprintf("app-%d", i%16), time.Millisecond)
	}
	if got := e.Apps(); got != 16 {
		t.Fatalf("Apps = %d, want 16", got)
	}
}

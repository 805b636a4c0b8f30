package trace

import (
	"math"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
)

// realizedRPS buckets a source's arrivals into windows and returns the
// per-window request rates.
func realizedRPS(src Source, horizon time.Duration, windows int) []float64 {
	counts := make([]float64, windows)
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		w := int(float64(t.Arrival) / float64(horizon) * float64(windows))
		if w >= windows {
			w = windows - 1
		}
		counts[w]++
	}
	per := horizon.Seconds() / float64(windows)
	for i := range counts {
		counts[i] /= per
	}
	return counts
}

func TestSyntheticRampRates(t *testing.T) {
	const horizon = 100 * time.Second
	src := NewSynthetic(SynthSpec{
		Shape: ShapeRamp, StartRPS: 100, TargetRPS: 1100,
		Horizon: horizon, Duration: dist.Constant{Value: ms(1)}, Seed: 1,
	})
	rates := realizedRPS(src, horizon, 10)
	// Window i spans fractions [i/10,(i+1)/10): expected mean rate is the
	// midpoint of the linear ramp.
	for i, got := range rates {
		want := 100 + 1000*(float64(i)+0.5)/10
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("window %d: %.0f rps, want ~%.0f", i, got, want)
		}
	}
	if rates[9] < 2*rates[0] {
		t.Errorf("ramp did not rise: first %.0f last %.0f", rates[0], rates[9])
	}
}

func TestSyntheticStepSlots(t *testing.T) {
	const slot = 10 * time.Second
	src := NewSynthetic(SynthSpec{
		Shape: ShapeStep, StartRPS: 100, TargetRPS: 500,
		Slots: 5, SlotDur: slot,
		Duration: dist.Constant{Value: ms(1)}, Seed: 2,
	})
	rates := realizedRPS(src, 5*slot, 5)
	for i, got := range rates {
		want := 100 + 400*float64(i)/4
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("slot %d: %.0f rps, want ~%.0f", i, got, want)
		}
	}
}

func TestSyntheticConstantAndSine(t *testing.T) {
	const horizon = 50 * time.Second
	rates := realizedRPS(NewSynthetic(SynthSpec{
		Shape: ShapeConstant, StartRPS: 200,
		Horizon: horizon, Duration: dist.Constant{Value: ms(1)}, Seed: 3,
	}), horizon, 5)
	for i, got := range rates {
		if math.Abs(got-200)/200 > 0.1 {
			t.Errorf("constant window %d: %.0f rps", i, got)
		}
	}
	// Sine: one full cycle around the midpoint; quarter-cycle windows
	// average above/below the mid on the way up/down.
	sine := realizedRPS(NewSynthetic(SynthSpec{
		Shape: ShapeSine, StartRPS: 100, TargetRPS: 300,
		Horizon: horizon, Duration: dist.Constant{Value: ms(1)}, Seed: 4,
	}), horizon, 4)
	if !(sine[0] > 210 && sine[1] < 310 && sine[2] < 190) {
		t.Errorf("sine wave shape off: %v", sine)
	}
}

func TestSyntheticNCap(t *testing.T) {
	src := NewSynthetic(SynthSpec{
		Shape: ShapeConstant, StartRPS: 1000, Horizon: time.Hour,
		N: 250, Duration: dist.Constant{Value: ms(1)}, Seed: 5,
	})
	got := Collect(src)
	if len(got) != 250 {
		t.Fatalf("N cap yielded %d", len(got))
	}
	for i, tk := range got {
		if tk.ID != i {
			t.Fatalf("ID %d = %d", i, tk.ID)
		}
		if i > 0 && tk.Arrival < got[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
		if tk.App != "synth" {
			t.Fatalf("app %q", tk.App)
		}
	}
}

func TestSyntheticDurationsFollowDist(t *testing.T) {
	src := NewSynthetic(SynthSpec{
		Shape: ShapeConstant, StartRPS: 500, Horizon: 20 * time.Second,
		Duration: dist.Uniform{Lo: ms(10), Hi: ms(20)}, Seed: 6,
	})
	n := 0
	var sum time.Duration
	for {
		tk, ok := src.Next()
		if !ok {
			break
		}
		if tk.Service < ms(10) || tk.Service >= ms(20) {
			t.Fatalf("service %v outside [10,20)ms", tk.Service)
		}
		sum += tk.Service
		n++
	}
	if n == 0 {
		t.Fatal("no invocations")
	}
	mean := sum / time.Duration(n)
	if mean < ms(14) || mean > ms(16) {
		t.Fatalf("mean service %v, want ~15ms", mean)
	}
}

func TestParseShape(t *testing.T) {
	for _, s := range []string{"constant", "ramp", "step", "sine"} {
		if _, err := ParseShape(s); err != nil {
			t.Errorf("%s rejected: %v", s, err)
		}
	}
	if _, err := ParseShape("sawtooth"); err == nil {
		t.Error("bad shape accepted")
	}
}

// TestSyntheticSpecPanics: NewSynthetic panics on an unusable spec, and
// for the rate and span checks Validate returns the panic's message.
func TestSyntheticSpecPanics(t *testing.T) {
	d := dist.Constant{Value: ms(1)}
	for name, tc := range map[string]struct {
		spec  SynthSpec
		valid bool // passes Validate (it checks no duration distribution)
	}{
		"no rate":       {SynthSpec{Shape: ShapeConstant, Horizon: time.Second, Duration: d}, false},
		"negative rate": {SynthSpec{Shape: ShapeSine, StartRPS: 10, TargetRPS: -10, Horizon: time.Second, Duration: d}, false},
		"no horizon":    {SynthSpec{Shape: ShapeRamp, StartRPS: 1, Duration: d}, false},
		"NaN rate":      {SynthSpec{Shape: ShapeRamp, StartRPS: math.NaN(), TargetRPS: 5, Horizon: time.Second, Duration: d}, false},
		"infinite rate": {SynthSpec{Shape: ShapeConstant, StartRPS: math.Inf(1), Horizon: time.Second, Duration: d}, false},
		"no dist":       {SynthSpec{Shape: ShapeRamp, StartRPS: 1, Horizon: time.Second}, true},
	} {
		err := tc.spec.Validate()
		if (err == nil) != tc.valid {
			t.Errorf("%s: Validate() = %v", name, err)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic", name)
				} else if err != nil && r != err.Error() {
					t.Errorf("%s: panicked with %q, Validate returned %q", name, r, err)
				}
			}()
			NewSynthetic(tc.spec)
		}()
	}
}

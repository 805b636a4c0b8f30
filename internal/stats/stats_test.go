package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
)

func TestOnlineBasics(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("n = %d", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", o.Mean())
	}
	// Sample (unbiased) variance of this classic dataset is 32/7.
	if math.Abs(o.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v, want %v", o.Var(), 32.0/7.0)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("min/max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.N() != 0 {
		t.Fatal("zero-value Online should report zeros")
	}
}

func TestOnlineSingle(t *testing.T) {
	var o Online
	o.Add(3)
	if o.Var() != 0 {
		t.Fatalf("variance of single sample = %v", o.Var())
	}
}

// TestOnlineMatchesNaive cross-checks Welford against the two-pass
// formula on random data.
func TestOnlineMatchesNaive(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = r.NormFloat64()*10 + 5
		o.Add(xs[i])
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	naiveVar := ss / float64(len(xs)-1)
	if math.Abs(o.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %v vs naive %v", o.Mean(), mean)
	}
	if math.Abs(o.Var()-naiveVar) > 1e-6 {
		t.Fatalf("var %v vs naive %v", o.Var(), naiveVar)
	}
}

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Mean() != 0 {
		t.Fatal("empty window mean should be 0")
	}
	w.Push(10)
	w.Push(20)
	if w.Len() != 2 {
		t.Fatalf("len=%d, want 2 of 3", w.Len())
	}
	if w.Mean() != 15 {
		t.Fatalf("mean = %v", w.Mean())
	}
	w.Push(30)
	w.Push(40) // evicts 10
	if w.Len() != 3 {
		t.Fatalf("len=%d, want the full 3", w.Len())
	}
	if w.Mean() != 30 {
		t.Fatalf("mean after eviction = %v, want 30", w.Mean())
	}
	vals := w.Values()
	want := []time.Duration{20, 30, 40}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v", vals)
		}
	}
}

// TestWindowSlidingSum is a property test: the window sum always equals
// the sum of the last cap values pushed.
func TestWindowSlidingSum(t *testing.T) {
	f := func(capRaw uint8, pushes []uint16) bool {
		capacity := int(capRaw%31) + 1
		w := NewWindow(capacity)
		var hist []time.Duration
		for _, p := range pushes {
			d := time.Duration(p)
			w.Push(d)
			hist = append(hist, d)
			lo := len(hist) - capacity
			if lo < 0 {
				lo = 0
			}
			var want time.Duration
			for _, v := range hist[lo:] {
				want += v
			}
			if w.sum != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowPanicsOnZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("percentile of empty slice should be 0")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20}
	if got := Percentile(xs, 50); got != 15 {
		t.Fatalf("p50 of {10,20} = %v, want 15", got)
	}
	if got := Percentile(xs, 75); got != 17.5 {
		t.Fatalf("p75 of {10,20} = %v, want 17.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestDurationPercentiles(t *testing.T) {
	ds := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	ps := DurationPercentiles(ds, []float64{0, 50, 100})
	if ps[0] != time.Millisecond || ps[1] != 2*time.Millisecond || ps[2] != 3*time.Millisecond {
		t.Fatalf("got %v", ps)
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{1, 1, 2, 3})
	if len(cdf) != 3 {
		t.Fatalf("dedup failed: %v", cdf)
	}
	if cdf[0].X != 1 || math.Abs(cdf[0].F-0.5) > 1e-12 {
		t.Fatalf("first point %v", cdf[0])
	}
	if cdf[2].X != 3 || cdf[2].F != 1 {
		t.Fatalf("last point %v", cdf[2])
	}
	if CDF(nil) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

// TestCDFMonotone is a property test: F is non-decreasing in X, ends at
// 1, and X values strictly increase.
func TestCDFMonotone(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		cdf := CDF(xs)
		prevF := 0.0
		prevX := math.Inf(-1)
		for _, p := range cdf {
			if p.X <= prevX || p.F < prevF {
				return false
			}
			prevX, prevF = p.X, p.F
		}
		return math.Abs(cdf[len(cdf)-1].F-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 2); got != 0.5 {
		t.Fatalf("FractionBelow = %v", got)
	}
	if FractionBelow(nil, 1) != 0 {
		t.Fatal("empty FractionBelow should be 0")
	}
}

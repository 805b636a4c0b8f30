package workload

import (
	"math"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestTableIProbabilitiesSumToOne(t *testing.T) {
	var sum float64
	for _, row := range TableI() {
		sum += row.Probability
	}
	// The paper's rows sum to 95.6%; the remaining mass sits in dropped
	// <1% gaps. Our generator renormalizes, so just sanity-check.
	if sum < 0.95 || sum > 1.0 {
		t.Fatalf("Table I probability mass %v", sum)
	}
}

func TestFibDurationMonotone(t *testing.T) {
	prev := time.Duration(0)
	for n := 10; n <= 40; n++ {
		d := FibDuration(n)
		if d <= prev {
			t.Fatalf("FibDuration not monotone at N=%d: %v <= %v", n, d, prev)
		}
		prev = d
	}
}

func TestFibCalibrationMatchesTableI(t *testing.T) {
	// Table I says fib N in 20..26 finishes in under ~50ms and N 34-35
	// lands in the >=1550ms range.
	if d := FibDuration(26); d > 50*time.Millisecond {
		t.Fatalf("fib(26) = %v, want <= 50ms", d)
	}
	if d := FibDuration(34); d < 1550*time.Millisecond/2 {
		t.Fatalf("fib(34) = %v, too fast for the long mode", d)
	}
}

func TestTableIDistributionShape(t *testing.T) {
	d := TableIDistribution()
	r := rng.New(1)
	const n = 200000
	buckets := map[string]int{}
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		switch {
		case v < ms(50):
			buckets["0-50"]++
		case v < ms(100):
			buckets["50-100"]++
		case v < ms(200):
			buckets["100-200"]++
		case v < ms(400):
			buckets["200-400"]++
		case v >= ms(1550):
			buckets[">=1550"]++
		default:
			buckets["gap"]++
		}
	}
	checks := map[string]float64{
		"0-50": 0.406 / 0.956, "50-100": 0.098 / 0.956, "100-200": 0.068 / 0.956,
		"200-400": 0.227 / 0.956, ">=1550": 0.157 / 0.956,
	}
	for k, want := range checks {
		got := float64(buckets[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("bucket %s: %.3f, want %.3f", k, got, want)
		}
	}
	if buckets["gap"] != 0 {
		t.Errorf("%d samples landed in excluded gaps", buckets["gap"])
	}
	// Tail bounded by the Azure 99.9th percentile anchor.
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v > AzureTailCap {
			t.Fatalf("sample %v exceeds tail cap", v)
		}
	}
}

func TestAppProfiles(t *testing.T) {
	tk := newTask()
	AppFib.Build(tk, ms(100))
	if tk.Service != ms(100) || len(tk.IOOps) != 0 {
		t.Fatalf("fib: svc=%v io=%d", tk.Service, len(tk.IOOps))
	}

	tk = newTask()
	AppMd.Build(tk, ms(100))
	if tk.Service != ms(35) {
		t.Fatalf("md service %v", tk.Service)
	}
	if len(tk.IOOps) != 2 {
		t.Fatalf("md io ops %d", len(tk.IOOps))
	}
	if tk.IOOps[0].At != 0 {
		t.Fatal("md first IO should lead")
	}
	if tk.IdealDuration() != ms(100) {
		t.Fatalf("md ideal %v", tk.IdealDuration())
	}

	tk = newTask()
	AppSa.Build(tk, ms(100))
	if tk.Service != ms(70) || len(tk.IOOps) != 1 {
		t.Fatalf("sa: svc=%v io=%d", tk.Service, len(tk.IOOps))
	}
	if err := tk.Validate(); err != nil {
		t.Fatal(err)
	}
}

// offeredLoad is a collected stream's average offered CPU load on c
// cores: mean CPU demand over the mean inter-arrival time.
func offeredLoad(tasks []*task.Task, c int) float64 {
	var cpu time.Duration
	for _, tk := range tasks {
		cpu += tk.Service
	}
	span := time.Duration(tasks[len(tasks)-1].Arrival - tasks[0].Arrival)
	return queueing.OfferedLoad(cpu/time.Duration(len(tasks)), span/time.Duration(len(tasks)-1), c)
}

func TestStreamLoadCalibration(t *testing.T) {
	for _, load := range []float64{0.5, 0.8, 1.0} {
		tasks := trace.Collect(Stream(Spec{N: 20000, Cores: 8, Load: load, Seed: 3}))
		got := offeredLoad(tasks, 8)
		if math.Abs(got-load)/load > 0.08 {
			t.Errorf("load %.2f: offered %.3f", load, got)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := trace.Collect(Stream(Spec{N: 500, Cores: 4, Load: 0.8, Seed: 9}))
	b := trace.Collect(Stream(Spec{N: 500, Cores: 4, Load: 0.8, Seed: 9}))
	for i := range a {
		if a[i].Service != b[i].Service || a[i].Arrival != b[i].Arrival {
			t.Fatalf("same-seed workloads diverge at %d", i)
		}
	}
	c := trace.Collect(Stream(Spec{N: 500, Cores: 4, Load: 0.8, Seed: 10}))
	diff := false
	for i := range a {
		if a[i].Service != c[i].Service {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestStreamArrivalsMonotone(t *testing.T) {
	tasks := trace.Collect(Stream(Spec{N: 1000, Cores: 4, Load: 1.0, Seed: 4}))
	for i := 1; i < len(tasks); i++ {
		if tasks[i].Arrival < tasks[i-1].Arrival {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
}

func TestStreamIOKnob(t *testing.T) {
	tasks := trace.Collect(Stream(Spec{
		N: 2000, Cores: 4, Load: 0.8, Seed: 5,
		IOFraction: 0.75,
	}))
	withIO := 0
	for _, tk := range tasks {
		if len(tk.IOOps) > 0 {
			withIO++
			op := tk.IOOps[0]
			if op.At != 0 {
				t.Fatal("knob IO must lead the execution")
			}
			if op.Dur < ms(10) || op.Dur >= ms(100) {
				t.Fatalf("IO duration %v outside [10,100)ms", op.Dur)
			}
		}
		if err := tk.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	frac := float64(withIO) / float64(len(tasks))
	if math.Abs(frac-0.75) > 0.05 {
		t.Fatalf("IO fraction %.3f, want ~0.75", frac)
	}
}

func TestStreamAppMix(t *testing.T) {
	tasks := trace.Collect(Stream(Spec{
		N: 3000, Cores: 4, Load: 0.8, Seed: 6,
		Apps: []AppChoice{
			{Profile: AppFib, Weight: 2},
			{Profile: AppMd, Weight: 1},
			{Profile: AppSa, Weight: 1},
		},
	}))
	counts := map[string]int{}
	for _, tk := range tasks {
		counts[tk.App]++
	}
	fibFrac := float64(counts["fib"]) / float64(len(tasks))
	if math.Abs(fibFrac-0.5) > 0.05 {
		t.Fatalf("fib fraction %.3f, want ~0.5 (counts %v)", fibFrac, counts)
	}
	if counts["md"] == 0 || counts["sa"] == 0 {
		t.Fatalf("missing apps: %v", counts)
	}
}

// TestOpenLambdaMix pins the §IX-A mix: the order and weights decide
// which app each draw picks, so any change moves every mixed stream.
// Each call returns its own slice, so one caller's edit stays local.
func TestOpenLambdaMix(t *testing.T) {
	want := []AppChoice{
		{Profile: AppFib, Weight: 0.5},
		{Profile: AppMd, Weight: 0.25},
		{Profile: AppSa, Weight: 0.25},
	}
	mix := OpenLambdaMix()
	if len(mix) != len(want) {
		t.Fatalf("mix has %d apps, want %d", len(mix), len(want))
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Fatalf("mix[%d] = %+v, want %+v", i, mix[i], want[i])
		}
	}
	mix[0].Weight = 0
	if OpenLambdaMix()[0].Weight != 0.5 {
		t.Fatal("OpenLambdaMix shares its slice between calls")
	}
}

func TestCloneIsolation(t *testing.T) {
	tasks := trace.Collect(Stream(Spec{N: 50, Cores: 2, Load: 0.8, Seed: 7}))
	c1 := trace.CloneTasks(tasks)
	c1[0].CPUUsed = ms(5)
	c1[0].CtxSwitches = 3
	c2 := trace.CloneTasks(tasks)
	if c2[0].CPUUsed != 0 || c2[0].CtxSwitches != 0 {
		t.Fatal("clones share accounting state")
	}
	if tasks[0].CPUUsed != 0 {
		t.Fatal("clone mutated the original")
	}
}

func TestCustomArrivalProcess(t *testing.T) {
	tasks := trace.Collect(Stream(Spec{
		N: 4, Cores: 1, Seed: 8,
		Arrival: dist.NewTraceProcess([]time.Duration{ms(10), ms(20), ms(30)}),
	}))
	want := []time.Duration{0, ms(10), ms(30), ms(60)}
	for i, tk := range tasks {
		if tk.Arrival != want[i] {
			t.Fatalf("arrival %d = %v, want %v", i, tk.Arrival, want[i])
		}
	}
}

func newTask() *task.Task { return task.New(0, 0, time.Millisecond) }

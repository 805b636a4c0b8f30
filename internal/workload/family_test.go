package workload

import (
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// famCfg is the small config the family sweeps use.
var famCfg = FamilyConfig{N: 2000, Cores: 4, Load: 0.8, Seed: 42}

// famDesc is each family's description at famCfg. The CLIs print it,
// so it pins every shape constant's rendering.
var famDesc = map[string]string{
	"POISSON":     "faasbench(n=2000, dur=mixture(0.425:uniform[0s,50ms), 0.103:uniform[50ms,100ms), 0.071:uniform[100ms,200ms), 0.237:uniform[200ms,400ms), 0.164:uniform[2.114042119s,3.420592002s)), arr=poisson(mean=173.335766ms), cores=4)",
	"AZURE":       "azure-sampled(n=2000, load=80%, cores=4, seed=42, spikes=0)",
	"SYNTH":       "synth(shape=ramp, rps=2.163431172416789..8.653724689667156, horizon=6m9.782968s, dur=mixture(0.425:uniform[0s,50ms), 0.103:uniform[50ms,100ms), 0.071:uniform[100ms,200ms), 0.237:uniform[200ms,400ms), 0.164:uniform[2.114042119s,3.420592002s)), seed=42) × 1 apps",
	"DIURNAL":     "diurnal(n=2000, days=7, day=49.525s, amp=0.60, dip=0.50, trend=0.10, load=0.80 on 4 cores, seed=42)",
	"FLASHCROWD":  "flashcrowd(n=2000, spikes=3x50, tau=7.222s, skew=0.80, load=0.80 on 4 cores, seed=42)",
	"MULTITENANT": "multitenant(n=2000, tenants=9, heavy=0.50 x4, load=0.80 on 4 cores, seed=42)",
	"TRIGGER":     "trigger(n=2000, http/queue/timer=0.50/0.30/0.20, batch=8, timers=4, load=0.80 on 4 cores, seed=42)",
}

// TestFamilyRegistry: every registered family constructs, is
// case-insensitive, describes itself as famDesc says, caps at N,
// yields a valid arrival-ordered trace, and replays byte-identically;
// unknown names error and list the catalog.
func TestFamilyRegistry(t *testing.T) {
	for _, name := range FamilyNames() {
		t.Run(name, func(t *testing.T) {
			src, err := NewFamily(strings.ToLower(name), famCfg)
			if err != nil {
				t.Fatalf("NewFamily(%s): %v", name, err)
			}
			if got := src.String(); got != famDesc[name] {
				t.Errorf("description\n got %s\nwant %s", got, famDesc[name])
			}
			a := trace.Collect(src)
			if len(a) == 0 || len(a) > famCfg.N {
				t.Fatalf("%s: %d invocations, want 1..%d", name, len(a), famCfg.N)
			}
			// Families size their horizon so ~N arrivals fit; allow wide
			// sampling slack but catch gross miscalibration.
			if len(a) < famCfg.N/2 {
				t.Errorf("%s: only %d invocations for N=%d", name, len(a), famCfg.N)
			}
			for i, tk := range a {
				if tk.ID != i {
					t.Fatalf("%s: task %d has ID %d, want sequential", name, i, tk.ID)
				}
				if i > 0 && tk.Arrival < a[i-1].Arrival {
					t.Fatalf("%s: arrival order violated at %d", name, i)
				}
				if tk.Service <= 0 {
					t.Fatalf("%s: task %d has non-positive service", name, i)
				}
				if tk.App == "" {
					t.Fatalf("%s: task %d has no app", name, i)
				}
			}
			src2, _ := NewFamily(name, famCfg)
			b := trace.Collect(src2)
			if len(a) != len(b) {
				t.Fatalf("%s: replay length %d vs %d", name, len(a), len(b))
			}
			for i := range a {
				if a[i].Arrival != b[i].Arrival || a[i].Service != b[i].Service || a[i].App != b[i].App {
					t.Fatalf("%s: replay diverges at invocation %d", name, i)
				}
			}
		})
	}

	if _, err := NewFamily("nope", famCfg); err == nil {
		t.Fatal("unknown family accepted")
	} else if !strings.Contains(err.Error(), "DIURNAL") {
		t.Errorf("error %q does not list the catalog", err)
	}
}

// TestDiurnalShape: midday-centred halves of each day must out-arrive
// the midnight-centred halves, and weekend days must dip below weekday
// volume.
func TestDiurnalShape(t *testing.T) {
	tasks := trace.Collect(diurnalFamily(FamilyConfig{N: 20000, Cores: 8, Load: 0.8, Seed: 9}))
	if len(tasks) < 10000 {
		t.Fatalf("only %d arrivals", len(tasks))
	}
	horizon := time.Duration(tasks[len(tasks)-1].Arrival)
	day := horizon / 7
	dayCount := make([]int, 7)
	mid, night := 0, 0
	for _, tk := range tasks {
		at := time.Duration(tk.Arrival)
		d := int(at / day)
		if d > 6 {
			d = 6
		}
		dayCount[d]++
		frac := float64(at%day) / float64(day)
		if frac >= 0.25 && frac < 0.75 {
			mid++
		} else {
			night++
		}
	}
	if mid < night {
		t.Errorf("midday arrivals %d < night arrivals %d; sine shape missing", mid, night)
	}
	weekday := (dayCount[0] + dayCount[1] + dayCount[2] + dayCount[3] + dayCount[4]) / 5
	weekend := (dayCount[5] + dayCount[6]) / 2
	if float64(weekend) > 0.8*float64(weekday) {
		t.Errorf("weekend mean %d vs weekday mean %d; dip missing", weekend, weekday)
	}
}

// TestFlashCrowdShape: spike windows must be far denser than baseline,
// and most spike-window arrivals must hit that spike's crowd app.
func TestFlashCrowdShape(t *testing.T) {
	tasks := trace.Collect(flashCrowdFamily(FamilyConfig{N: 20000, Cores: 8, Load: 0.6, Seed: 11}))
	if len(tasks) < 5000 {
		t.Fatalf("only %d arrivals", len(tasks))
	}
	horizon := time.Duration(tasks[len(tasks)-1].Arrival)
	crowd := map[string]int{}
	for _, tk := range tasks {
		if strings.HasPrefix(tk.App, "crowd") {
			crowd[tk.App]++
		}
	}
	if len(crowd) != 3 {
		t.Fatalf("crowd apps = %v, want 3 distinct", crowd)
	}
	for app, n := range crowd {
		if n < 100 {
			t.Errorf("crowd app %s only has %d arrivals", app, n)
		}
	}
	// Density check: the busiest 2% window of the trace should hold many
	// times the uniform share of arrivals.
	buckets := make([]int, 50)
	for _, tk := range tasks {
		b := int(time.Duration(tk.Arrival) * 50 / (horizon + 1))
		buckets[b]++
	}
	max, sum := 0, 0
	for _, n := range buckets {
		sum += n
		if n > max {
			max = n
		}
	}
	if float64(max) < 3*float64(sum)/50 {
		t.Errorf("densest 2%% bucket holds %d of %d arrivals; no flash spike visible", max, sum)
	}
}

// TestMultiTenantShape: the heavy tenant must carry roughly its share,
// every light tenant must appear, and the heavy tenant's arrivals must
// be burstier than a light tenant's.
func TestMultiTenantShape(t *testing.T) {
	tasks := trace.Collect(multiTenantFamily(FamilyConfig{N: 20000, Cores: 8, Load: 0.8, Seed: 13}))
	if len(tasks) < 10000 {
		t.Fatalf("only %d arrivals", len(tasks))
	}
	perApp := map[string]int{}
	for _, tk := range tasks {
		perApp[tk.App]++
	}
	if len(perApp) != 9 {
		t.Fatalf("%d tenants, want 9: %v", len(perApp), perApp)
	}
	heavy := perApp["tenant-heavy"]
	share := float64(heavy) / float64(len(tasks))
	if share < 0.35 || share > 0.65 {
		t.Errorf("heavy tenant share = %.2f, want ~0.5", share)
	}
	for app, n := range perApp {
		if n == 0 {
			t.Errorf("tenant %s has no arrivals", app)
		}
	}
	// Burstiness: the heavy tenant's densest 2% window should be much
	// fuller than a steady tenant's.
	horizon := time.Duration(tasks[len(tasks)-1].Arrival)
	peakShare := func(app string) float64 {
		buckets := make([]int, 50)
		total := 0
		for _, tk := range tasks {
			if tk.App != app {
				continue
			}
			buckets[int(time.Duration(tk.Arrival)*50/(horizon+1))]++
			total++
		}
		max := 0
		for _, n := range buckets {
			if n > max {
				max = n
			}
		}
		return float64(max) / float64(total)
	}
	if hp, lp := peakShare("tenant-heavy"), peakShare("tenant01"); hp < 1.5*lp {
		t.Errorf("heavy tenant peak share %.3f vs light %.3f; bursts missing", hp, lp)
	}
}

// TestTriggerShape: all three trigger classes appear with roughly their
// configured shares, queue batches arrive in gap-spaced runs, and the
// chain config maps every trigger app to a workflow.
func TestTriggerShape(t *testing.T) {
	spec := TriggerSpec{N: 10000, Cores: 8, Seed: 17}
	src, cfg, err := TriggerStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	tasks := trace.Collect(src)
	if len(tasks) < 5000 {
		t.Fatalf("only %d arrivals", len(tasks))
	}
	classes := map[string]int{}
	for _, tk := range tasks {
		switch {
		case tk.App == "http":
			classes["http"]++
		case tk.App == "queue":
			classes["queue"]++
		case strings.HasPrefix(tk.App, "timer"):
			classes["timer"]++
		default:
			t.Fatalf("unexpected app %q", tk.App)
		}
	}
	n := float64(len(tasks))
	if s := float64(classes["http"]) / n; s < 0.35 || s > 0.65 {
		t.Errorf("http share %.2f, want ~0.5", s)
	}
	if s := float64(classes["queue"]) / n; s < 0.18 || s > 0.45 {
		t.Errorf("queue share %.2f, want ~0.3", s)
	}
	if s := float64(classes["timer"]) / n; s < 0.08 || s > 0.35 {
		t.Errorf("timer share %.2f, want ~0.2", s)
	}
	// Every trigger app resolves to a workflow in the chain config.
	for _, app := range []string{"http", "queue", "timer00", "timer03"} {
		if _, ok := cfg.Specs[app]; !ok {
			t.Errorf("chain config missing app %q", app)
		}
	}
	if len(cfg.Specs["http"].Stages) != 2 {
		t.Errorf("http chain has %d stages, want 2", len(cfg.Specs["http"].Stages))
	}
	if len(cfg.Specs["queue"].Stages) != 3 {
		t.Errorf("queue chain has %d stages, want 3", len(cfg.Specs["queue"].Stages))
	}
	if len(cfg.Specs["timer00"].Stages) != 5 {
		t.Errorf("timer chain has %d stages, want 5 (diamond width 3)", len(cfg.Specs["timer00"].Stages))
	}
}

// TestPeriodicSourceOrder: jittered cron ticks must stay strictly
// within the horizon and non-decreasing in the merged default mix.
func TestPeriodicSourceOrder(t *testing.T) {
	src := triggerFamily(FamilyConfig{N: 5000, Cores: 2, Seed: 29})
	seen := 0
	var prev *task.Task
	for {
		tk, ok := src.Next()
		if !ok {
			break
		}
		if prev != nil && tk.Arrival < prev.Arrival {
			t.Fatalf("merged order violated at id %d", tk.ID)
		}
		prev = tk
		if strings.HasPrefix(tk.App, "timer") {
			seen++
		}
	}
	if seen < 100 {
		t.Fatalf("only %d timer ticks", seen)
	}
}

package experiments

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// keepaliveTTL is the fixed window swept by the TTL policy (and HIST's
// insufficient-history fallback): deliberately shorter than the
// provider-style default so the experiment exposes the policies'
// differences — a 10 s window covers dense bursts but misses the
// periodic family's longer inter-arrival gaps, which only the
// histogram policy's per-app predictions bridge.
const keepaliveTTL = 10 * time.Second

// keepaliveFamilies are the scenario families the experiment sweeps:
// azure's bursty sampling, the Shahrad-style periodic population, and
// two registry families whose keep-alive behaviour differs by
// construction — diurnal (night troughs outlast fixed TTL windows)
// and multitenant (a heavy bursty tenant competes with nine light
// ones for the shared warm pool).
var keepaliveFamilies = []string{"azure", "periodic", "diurnal", "multitenant"}

// periodicApps builds the periodic scenario family: apps invocations
// streams merged into one trace, app i firing every 5 s + i·(55/apps) s
// with constant 80 ms of CPU, phases staggered so arrivals interleave.
// This is the shape Shahrad et al. report dominating production FaaS
// populations — many rarely-but-regularly invoked functions — and the
// regime where keep-alive policy choice decides the cold-start rate.
func periodicApps(n, apps int, seed uint64) trace.Source {
	srcs := make([]trace.Source, apps)
	per := n / apps
	for i := 0; i < apps; i++ {
		period := 5*time.Second + time.Duration(i)*55*time.Second/time.Duration(apps-1)
		profile := workload.AppProfile{Name: fmt.Sprintf("app%02d", i), CPUFraction: 1}
		src := workload.Stream(workload.Spec{
			N:        per,
			Duration: dist.Constant{Value: 80 * time.Millisecond},
			Arrival:  dist.NewTraceProcess([]time.Duration{period}),
			Apps:     []workload.AppChoice{{Profile: profile, Weight: 1}},
			Seed:     seed + uint64(i),
		})
		offset := period * time.Duration(i) / time.Duration(apps)
		srcs[i] = trace.Map(src, func(t *task.Task) *task.Task {
			t.Arrival += offset
			return t
		})
	}
	return trace.Merge(srcs...)
}

// runKeepalive sweeps every registered keep-alive policy across memory
// budgets and four scenario families on a single SFS host, then probes
// the dispatch-side interaction on a small cluster. The expected
// ordering at equal memory — HIST >= TTL >= NONE on warm-hit ratio —
// falls out of construction: NONE never reuses, a fixed window misses
// every app whose inter-arrival gap exceeds it, and the histogram
// learns each app's gap and keeps (or pre-warms) exactly as long as
// needed.
func runKeepalive(cfg Config) *Report {
	const cores = 16
	nAzure := scaleN(cfg, 6000)
	nPeriodic := scaleN(cfg, 1920)
	const apps = 24
	memories := []int{0, 2048, 1024}
	if cfg.Quick {
		memories = []int{0, 1024}
	}

	rep := &Report{
		Title: "keep-alive policy x memory budget x scenario family, SFS host",
		Paper: "beyond the paper: stateful cold starts over the pre-warmed §IX setup (Shahrad et al. keep-alive, Przybylski et al. placement)",
	}
	rep.Header = []string{"family", "memory", "policy", "warm-hit", "cold", "cold-mean", "p50", "p99", "mean"}

	type key struct {
		family string
		memory int
	}
	ratios := map[key]map[string]float64{}

	mix := workload.OpenLambdaMix()
	mkSource := func(family string) trace.Source {
		if family == "periodic" {
			return periodicApps(nPeriodic, apps, cfg.Seed)
		}
		// Everything else comes from the scenario-family registry:
		// azure's bursty sampling, diurnal's day/night cycle (long
		// night gaps stress fixed TTL windows), and multitenant's
		// per-tenant pools (one heavy tenant crowding out nine light
		// ones under a shared memory budget).
		src, err := workload.NewFamily(family, workload.FamilyConfig{
			N: nAzure, Cores: cores, Load: derate(0.8), Seed: cfg.Seed, Apps: mix,
		})
		if err != nil {
			panic(err)
		}
		return src
	}

	memLabel := func(mb int) string {
		if mb == 0 {
			return "inf"
		}
		return fmt.Sprintf("%dMB", mb)
	}

	// Every (family, memory, policy) cell is an independent simulation:
	// enumerate them up front, fan them across the runner's worker pool,
	// and assemble rows in cell order afterwards so the report is
	// byte-identical at any worker count.
	type cell struct {
		family string
		mem    int
		policy string
	}
	var cells []cell
	for _, family := range keepaliveFamilies {
		for _, mem := range memories {
			for _, policy := range lifecycle.PolicyNames() {
				cells = append(cells, cell{family, mem, policy})
			}
		}
	}
	type cellResult struct {
		row   []string
		ratio float64
	}
	results := sweep(cfg, cells, func(c cell) cellResult {
		p, err := lifecycle.NewPolicy(c.policy, lifecycle.PolicyConfig{TTL: keepaliveTTL, Seed: cfg.Seed})
		if err != nil {
			panic(err)
		}
		mgr, err := lifecycle.New(lifecycle.Config{Policy: p, MemoryMB: c.mem, Seed: cfg.Seed})
		if err != nil {
			panic(err)
		}
		eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, core.New(core.DefaultConfig()))
		if _, err := lifecycle.Run(mkSource(c.family), mgr, eng); err != nil {
			panic(err)
		}
		run := metrics.Run{Scheduler: c.policy, Tasks: eng.Tasks()}
		sum := run.Summarize(50, 99)
		ps := sum.Percentiles()
		st := mgr.Stats()
		return cellResult{
			row: []string{
				c.family, memLabel(c.mem), c.policy,
				fmt.Sprintf("%.1f%%", 100*st.WarmHitRatio()),
				fmt.Sprintf("%d", st.ColdStarts),
				metrics.FormatDuration(st.MeanColdLatency()),
				metrics.FormatDuration(ps[0]),
				metrics.FormatDuration(ps[1]),
				metrics.FormatDuration(sum.Mean()),
			},
			ratio: st.WarmHitRatio(),
		}
	})
	for i, c := range cells {
		rep.Rows = append(rep.Rows, results[i].row)
		k := key{c.family, c.mem}
		if ratios[k] == nil {
			ratios[k] = map[string]float64{}
		}
		ratios[k][c.policy] = results[i].ratio
	}

	// The headline ordering, checked at every equal-memory point.
	for _, family := range keepaliveFamilies {
		for _, mem := range memories {
			r := ratios[key{family, mem}]
			ok := r["HIST"] >= r["TTL"] && r["TTL"] >= r["NONE"]
			status := "holds"
			if !ok {
				status = "VIOLATED"
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s @ %s: HIST %.1f%% >= TTL %.1f%% >= NONE %.1f%% — %s",
				family, memLabel(mem), 100*r["HIST"], 100*r["TTL"], 100*r["NONE"], status))
		}
	}

	// Dispatch-side interaction: with per-host warm pools, routing on
	// warm state (WARMFIRST) against affinity-blind spreading (RR) and
	// static affinity (HASH). Independent runs, fanned like the cells
	// above; notes are appended in dispatcher order afterwards.
	const hosts, hostCores = 4, 8
	dispatchNotes := sweep(cfg, []string{"RR", "HASH", "WARMFIRST"}, func(dispatch string) string {
		res := runFleet(cluster.Config{
			Hosts:        hosts,
			CoresPerHost: hostCores,
			NewScheduler: named("SFS").mk,
			NewLifecycle: func() *lifecycle.Manager {
				mgr, err := lifecycle.New(lifecycle.Config{
					Policy:   lifecycle.NewFixedTTL(keepaliveTTL),
					MemoryMB: 1024,
					Seed:     cfg.Seed,
				})
				if err != nil {
					panic(err)
				}
				return mgr
			},
		}, dispatch, cluster.FactoryConfig{Seed: cfg.Seed}, workload.AzureSampledStream(workload.AzureSampledSpec{
			N: nAzure, Cores: hosts * hostCores, Load: derate(0.8), Seed: cfg.Seed,
			Apps: workload.OpenLambdaMix(),
		}))
		return fmt.Sprintf(
			"cluster %dx%d, TTL@1024MB, %s dispatch: %.1f%% warm hits, mean %s",
			hosts, hostCores, dispatch, 100*res.Lifecycle.WarmHitRatio(),
			metrics.FormatDuration(res.Merged.MeanTurnaround()))
	})
	rep.Notes = append(rep.Notes, dispatchNotes...)
	return rep
}

package goldens

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// Digest dimensions: small enough that the whole matrix runs in
// seconds, large enough that a shifted constant moves a percentile.
const (
	digestN     = 600
	digestCores = 8
	digestSeed  = 1
)

// digestScheds is the scheduler half of the policy matrix.
var digestScheds = []string{"SFS", "CFS"}

// digestPolicies is the keep-alive half of the policy matrix.
var digestPolicies = []string{"TTL", "HIST"}

// fd keeps digest rendering in one place (metrics.FormatDuration is
// already byte-stable).
func fd(d time.Duration) string { return metrics.FormatDuration(d) }

// FamilyDigest renders one scenario family's golden digest: the trace's
// shape statistics, each scheduler's turnaround percentiles, and each
// keep-alive policy's cold-start profile. Everything below is
// deterministic in (family, digestSeed); any engine, policy, or
// generator change shows up as a byte diff.
func FamilyDigest(family string) (string, error) {
	src, err := workload.NewFamily(family, workload.FamilyConfig{
		N: digestN, Cores: digestCores, Seed: digestSeed,
	})
	if err != nil {
		return "", err
	}
	tasks := trace.Collect(src)
	if err := trace.Err(src); err != nil {
		return "", err
	}
	if len(tasks) == 0 {
		return "", fmt.Errorf("family %s emitted no invocations", family)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "digest v1: family=%s n=%d cores=%d seed=%d\n",
		strings.ToUpper(family), digestN, digestCores, digestSeed)
	b.WriteString(traceDigest(tasks))

	for _, name := range digestScheds {
		s, err := schedulers.New(name)
		if err != nil {
			return "", err
		}
		eng := cpusim.NewEngine(cpusim.Config{Cores: digestCores, Deadline: 10000 * time.Hour}, s)
		eng.Submit(trace.CloneTasks(tasks)...)
		eng.Run()
		r := metrics.Run{Scheduler: name, Tasks: eng.Tasks()}
		ps := r.Percentiles([]float64{50, 99})
		fmt.Fprintf(&b, "sched=%s: p50=%s p99=%s mean=%s rte50=%.3f rte95=%.3f\n",
			name, fd(ps[0]), fd(ps[1]), fd(r.MeanTurnaround()),
			r.FractionRTEAtLeast(0.5), r.FractionRTEAtLeast(0.95))
	}

	for _, policy := range digestPolicies {
		mgr, err := lifecycle.NewByName(policy, 0, lifecycle.DefaultTTL, digestSeed)
		if err != nil {
			return "", err
		}
		s, err := schedulers.New("SFS")
		if err != nil {
			return "", err
		}
		eng := cpusim.NewEngine(cpusim.Config{Cores: digestCores, Deadline: 10000 * time.Hour}, s)
		if _, err := lifecycle.Run(trace.FromTasks(family, tasks), mgr, eng); err != nil {
			return "", err
		}
		st := mgr.Stats()
		fmt.Fprintf(&b, "keepalive=%s: cold=%d warm-hit=%.1f%% cold-mean=%s\n",
			policy, st.ColdStarts, 100*st.WarmHitRatio(), fd(st.MeanColdLatency()))
	}
	return b.String(), nil
}

// traceDigest renders the workload-shape lines shared by every family
// digest: span, per-app spread, and service-time percentiles of the
// generated trace itself (independent of any scheduler).
func traceDigest(tasks []*task.Task) string {
	apps := map[string]int{}
	var svc []time.Duration
	io := 0
	for _, t := range tasks {
		apps[t.App]++
		svc = append(svc, t.Service)
		if len(t.IOOps) > 0 {
			io++
		}
	}
	sort.Slice(svc, func(i, j int) bool { return svc[i] < svc[j] })
	span := time.Duration(tasks[len(tasks)-1].Arrival - tasks[0].Arrival)
	top := topApps(apps, 3)
	var b strings.Builder
	fmt.Fprintf(&b, "trace: n=%d span=%s apps=%d io=%d\n", len(tasks), fd(span), len(apps), io)
	fmt.Fprintf(&b, "service: p50=%s p99=%s max=%s\n",
		fd(svc[len(svc)/2]), fd(svc[len(svc)*99/100]), fd(svc[len(svc)-1]))
	fmt.Fprintf(&b, "top-apps: %s\n", top)
	return b.String()
}

// topApps renders the k highest-volume apps as "name:count" in
// deterministic order (count desc, name asc).
func topApps(apps map[string]int, k int) string {
	type ac struct {
		app string
		n   int
	}
	all := make([]ac, 0, len(apps))
	for a, n := range apps {
		all = append(all, ac{a, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].app < all[j].app
	})
	if len(all) > k {
		all = all[:k]
	}
	parts := make([]string, len(all))
	for i, a := range all {
		parts[i] = fmt.Sprintf("%s:%d", a.app, a.n)
	}
	return strings.Join(parts, " ")
}

// predictedDigestFamilies are the scenario families the prediction
// digest pins; the fixture-sync test keeps the on-disk set in
// lockstep.
var predictedDigestFamilies = []string{"poisson", "diurnal"}

// PredictedDigest renders the prediction layer's golden digest for one
// scenario family: PSRTF on a single host (the online estimator driving
// preemption decisions) and the PREDICTED dispatcher over a
// heterogeneous-speed fleet with a stochastic dispatch network delay —
// every code path PR 8 added, pinned byte-for-byte.
func PredictedDigest(family string) (string, error) {
	src, err := workload.NewFamily(family, workload.FamilyConfig{
		N: digestN, Cores: digestCores, Seed: digestSeed,
	})
	if err != nil {
		return "", err
	}
	tasks := trace.Collect(src)
	if err := trace.Err(src); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "digest v1: predicted family=%s n=%d cores=%d seed=%d\n",
		strings.ToUpper(family), digestN, digestCores, digestSeed)

	// Single-host PSRTF: learning trajectory included, since estimates
	// feed back into the schedule.
	s, err := schedulers.New("PSRTF")
	if err != nil {
		return "", err
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: digestCores, Deadline: 10000 * time.Hour}, s)
	eng.Submit(trace.CloneTasks(tasks)...)
	eng.Run()
	r := metrics.Run{Scheduler: "PSRTF", Tasks: eng.Tasks()}
	ps := r.Percentiles([]float64{50, 99})
	fmt.Fprintf(&b, "sched=PSRTF: p50=%s p99=%s mean=%s rte50=%.3f rte95=%.3f\n",
		fd(ps[0]), fd(ps[1]), fd(r.MeanTurnaround()),
		r.FractionRTEAtLeast(0.5), r.FractionRTEAtLeast(0.95))

	// PREDICTED dispatch over a heterogeneous fleet (same aggregate
	// capacity as digestCores) with dispatcher→host network delay.
	const hosts = 4
	d, err := cluster.NewDispatcher("PREDICTED", cluster.FactoryConfig{Hosts: hosts, Seed: digestSeed})
	if err != nil {
		return "", err
	}
	cl, err := cluster.New(cluster.Config{
		Hosts:        hosts,
		CoresPerHost: digestCores / hosts,
		NewScheduler: func() cpusim.Scheduler { return sched.NewPSRTF(nil) },
		Dispatcher:   d,
		Speeds:       []float64{1.5, 0.5, 1.5, 0.5},
		NetDelay:     dist.Uniform{Lo: 200 * time.Microsecond, Hi: 2 * time.Millisecond},
		NetDelaySeed: digestSeed,
	})
	if err != nil {
		return "", err
	}
	res, err := cl.Run(trace.FromTasks(family, trace.CloneTasks(tasks)))
	if err != nil {
		return "", err
	}
	sum := res.Merged.Summarize(50, 99)
	cps := sum.Percentiles()
	fmt.Fprintf(&b, "cluster=PSRTFxPREDICTED hosts=%d speeds=1.5/0.5 netdelay=uniform[200µs,2ms): p50=%s p99=%s mean=%s makespan=%s\n",
		hosts, fd(cps[0]), fd(cps[1]), fd(sum.Mean()), fd(time.Duration(res.Makespan)))
	var disp []string
	for i, hr := range res.PerHost {
		disp = append(disp, fmt.Sprintf("h%d:%d@%.2gx", i, hr.Dispatches, hr.Speed))
	}
	fmt.Fprintf(&b, "dispatches: %s\n", strings.Join(disp, " "))
	return b.String(), nil
}

// TriggerChainDigest renders the trigger family's workflow-expanded
// digest: the trigger mix feeds its per-class chains through the
// injector, measuring end-to-end workflow turnaround and slowdown —
// the chain layer's regression surface.
func TriggerChainDigest() (string, error) {
	src, cfg, err := workload.TriggerStream(workload.TriggerSpec{
		N: digestN, Cores: digestCores, Seed: digestSeed,
	})
	if err != nil {
		return "", err
	}
	inj, err := chain.NewInjector(cfg)
	if err != nil {
		return "", err
	}
	s, err := schedulers.New("SFS")
	if err != nil {
		return "", err
	}
	eng := cpusim.NewEngine(cpusim.Config{Cores: digestCores, Deadline: 10000 * time.Hour}, s)
	makespan, err := chain.Run(src, inj, nil, eng)
	if err != nil {
		return "", err
	}
	r := metrics.Run{Scheduler: "SFS", Tasks: eng.Tasks()}
	ps := r.Percentiles([]float64{50, 99})
	wfr := metrics.WorkflowRun{Scheduler: "SFS", Workflows: inj.Workflows()}
	slow := wfr.SlowdownPercentiles(50, 99)

	var b strings.Builder
	fmt.Fprintf(&b, "digest v1: trigger-chain n=%d cores=%d seed=%d sched=SFS\n",
		digestN, digestCores, digestSeed)
	fmt.Fprintf(&b, "stages: n=%d makespan=%s p50=%s p99=%s\n",
		len(eng.Tasks()), fd(makespan), fd(ps[0]), fd(ps[1]))
	fmt.Fprintf(&b, "workflows: completed=%d mean-slowdown=%.2fx p50=%.2fx p99=%.2fx\n",
		wfr.Completed(), wfr.MeanSlowdown(), slow[0], slow[1])
	return b.String(), nil
}

// Cluster-matrix dimensions: RR plus every dispatcher that reads host
// state, and keep-alive policies whose expirations show when each mode
// advances the lifecycle clocks.
var (
	clusterDispatchers = []string{"RR", "JSQ", "LEASTLOADED", "PULL", "PREDICTED", "WARMFIRST"}
	clusterKeepalives  = []string{"", "TTL", "HIST"}
)

const (
	clusterHosts = 4
	// clusterTTL is short against the trace's ~50 s span, so containers
	// expire mid-run and the instants at which the coordinator advances
	// lifecycle clocks show in the expiration and cold-start counts.
	clusterTTL = 2 * time.Second
	// clusterDeadline cuts the aborted cells' run mid-trace.
	clusterDeadline = simtime.Time(10 * time.Second)
)

// clusterCell is one cell of the cluster matrix.
type clusterCell struct {
	sched, dispatch, keepalive string // keepalive "" = lifecycle off
	chain                      bool
	shards                     int // 0 = serial
	deadline                   simtime.Time
}

// ClusterMatrixDigest pins the cluster coordinator's absolute output:
// one line per cell of {SFS, CFS} × clusterDispatchers × keep-alive
// {off, TTL, HIST} × chain {off, on} × {serial, -shards 1}, plus one
// deadline-aborted cell per mode. Each line holds the cell's headline
// numbers and an fnv64 of its full per-task, per-host, lifecycle and
// queue fingerprint, so any change to placement, completion handling
// or lifecycle timing in either mode moves a line.
func ClusterMatrixDigest() (string, error) {
	var cells []clusterCell
	for _, shards := range []int{0, 1} {
		for _, sc := range digestScheds {
			for _, dp := range clusterDispatchers {
				for _, ka := range clusterKeepalives {
					for _, withChain := range []bool{false, true} {
						cells = append(cells, clusterCell{sched: sc, dispatch: dp, keepalive: ka, chain: withChain, shards: shards})
					}
				}
			}
		}
		cells = append(cells, clusterCell{sched: "SFS", dispatch: "JSQ", keepalive: "TTL", chain: true, shards: shards, deadline: clusterDeadline})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "digest v1: cluster-matrix n=%d hosts=%d cores=%d ttl=%s seed=%d\n",
		digestN, clusterHosts, digestCores/clusterHosts, fd(clusterTTL), digestSeed)
	for _, cell := range cells {
		res, err := runClusterCell(cell)
		if err != nil {
			return "", err
		}
		ka, chained, mode := "off", "off", "serial"
		if cell.keepalive != "" {
			ka = cell.keepalive
		}
		if cell.chain {
			chained = "on"
		}
		if cell.shards > 0 {
			mode = fmt.Sprintf("shards=%d", cell.shards)
		}
		if cell.deadline > 0 {
			mode += " deadline=" + fd(time.Duration(cell.deadline))
		}
		sum := res.Merged.Summarize(50, 99)
		ps := sum.Percentiles()
		fmt.Fprintf(&b, "%s %s ka=%s chain=%s %s: p50=%s p99=%s mean=%s makespan=%s qmax=%d cold=%d exp=%d wf=%d aborted=%v fp=%016x\n",
			cell.sched, cell.dispatch, ka, chained, mode,
			fd(ps[0]), fd(ps[1]), fd(sum.Mean()), fd(time.Duration(res.Makespan)),
			res.CentralQueueMax, res.Lifecycle.ColdStarts, res.Lifecycle.Expirations,
			res.Workflows.Completed(), res.Aborted, clusterFP(res))
	}
	return b.String(), nil
}

// runClusterCell builds and runs one matrix cell from scratch.
func runClusterCell(cell clusterCell) (*cluster.Result, error) {
	d, err := cluster.NewDispatcher(cell.dispatch, cluster.FactoryConfig{Hosts: clusterHosts, Seed: digestSeed})
	if err != nil {
		return nil, err
	}
	if _, err := schedulers.New(cell.sched); err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Hosts:        clusterHosts,
		CoresPerHost: digestCores / clusterHosts,
		NewScheduler: func() cpusim.Scheduler {
			s, _ := schedulers.New(cell.sched) // validated above
			return s
		},
		Dispatcher: d,
		Deadline:   cell.deadline,
		Shards:     cell.shards,
	}
	if cell.keepalive != "" {
		if _, err := lifecycle.NewByName(cell.keepalive, 0, clusterTTL, digestSeed); err != nil {
			return nil, err
		}
		cfg.NewLifecycle = func() *lifecycle.Manager {
			m, _ := lifecycle.NewByName(cell.keepalive, 0, clusterTTL, digestSeed) // validated above
			return m
		}
	}
	var src trace.Source
	if cell.chain {
		chainSrc, ccfg, err := workload.ChainStream(workload.ChainSpec{
			N: digestN / 2, Cores: digestCores, Family: "LINEAR", Depth: 3, Seed: digestSeed,
		})
		if err != nil {
			return nil, err
		}
		cfg.Chain = &ccfg
		src = chainSrc
	} else {
		src, err = workload.NewFamily("MULTITENANT", workload.FamilyConfig{
			N: digestN, Cores: digestCores, Seed: digestSeed,
		})
		if err != nil {
			return nil, err
		}
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return cl.Run(src)
}

// clusterFP hashes every observable of a cluster result that rendered
// output derives from: per-task accounting in source order, per-host
// counters, queue and lifecycle stats, workflow count.
func clusterFP(res *cluster.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|makespan=%d|qmax=%d|qdmax=%d|qdmean=%d|aborted=%v\n",
		res.Scheduler, res.Dispatcher, res.Makespan, res.CentralQueueMax,
		res.QueueDelayMax, res.QueueDelayMean, res.Aborted)
	fmt.Fprintf(h, "lifecycle=%+v\n", res.Lifecycle)
	fmt.Fprintf(h, "workflows=%d\n", len(res.Workflows.Workflows))
	for _, tk := range res.Merged.Tasks {
		fmt.Fprintf(h, "t%d app=%s arr=%d svc=%d start=%d fin=%d wait=%d io=%d cpu=%d ctx=%d disp=%d mig=%d\n",
			tk.ID, tk.App, tk.Arrival, tk.Service, tk.Start, tk.Finish,
			tk.WaitTime, tk.IOTime, tk.CPUUsed, tk.CtxSwitches, tk.Dispatches, tk.Migrations)
	}
	for i, hr := range res.PerHost {
		fmt.Fprintf(h, "h%d disp=%d ctx=%d tasks=%d\n", i, hr.Dispatches, hr.CtxSwitches, len(hr.Run.Tasks))
	}
	return h.Sum64()
}

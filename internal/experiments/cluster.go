package experiments

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// runClusterDispatch goes beyond the paper's single-host evaluation: it
// sweeps every registered dispatch policy across cluster sizes and load
// levels, with each host running SFS, on the Azure-sampled,
// synthetic-RPS, and flash-crowd scenario families. The comparison shows where
// cluster-level placement starts to dominate OS-level scheduling:
// affinity policies concentrate bursts that per-host SFS then has to
// absorb, while pull-based dispatch trades central queue delay for
// never oversubscribing a host (the Hiku trade-off).
//
// Every (family, load, hosts, policy) cell is an independent cluster
// simulation, so the sweep fans across the runner's worker pool; rows
// and best-policy notes are assembled in cell order afterwards, keeping
// the report byte-identical at any worker count.
//
// Fleets of shardedFloor hosts or more run on the sharded parallel
// engine (shardedShards shards): serial event-at-a-time simulation stops
// scaling there, and the sharded engine's results are themselves
// deterministic at any shard or worker count (internal/cluster), so the
// report stays byte-stable.
func runClusterDispatch(cfg Config) *Report {
	const coresPerHost = 8
	const shardedFloor, shardedShards = 64, 8
	n := scaleN(cfg, 10000)
	hostCounts := []int{2, 4, 8, 64}
	loads := []float64{0.8, 1.0}
	if cfg.Quick {
		hostCounts = []int{2, 4, 64}
		loads = []float64{1.0}
	}

	rep := &Report{
		Title: fmt.Sprintf("dispatch policy x host count x load, SFS hosts with %d cores each", coresPerHost),
		Paper: "beyond the paper: cluster-level placement over per-host SFS (Kaffes et al., Hiku)",
	}
	rep.Header = []string{"family", "load", "hosts", "dispatch", "p50", "p99", "mean", "RTE>=0.95", "qdelay max"}

	type cell struct {
		family string
		load   float64
		hosts  int
		policy string
	}
	var cells []cell
	for _, hosts := range hostCounts {
		for _, load := range loads {
			for _, policy := range cluster.Names() {
				cells = append(cells, cell{"azure", load, hosts, policy})
			}
		}
		// Synthetic RPS ramp crossing cluster saturation, as in the
		// synth-ramp experiment but calibrated to the whole cluster.
		for _, policy := range cluster.Names() {
			cells = append(cells, cell{"synth-ramp", 0, hosts, policy})
		}
		// Flash crowds (registry family, its own 0.6 base load): 50x
		// decay spikes of one correlated app are the adversarial case
		// for affinity dispatch — HASH pins the whole crowd to one
		// host while load-aware policies spread it.
		for _, policy := range cluster.Names() {
			cells = append(cells, cell{"flashcrowd", 0, hosts, policy})
		}
	}

	type cellResult struct {
		row  []string
		mean time.Duration
	}
	results := sweep(cfg, cells, func(c cell) cellResult {
		total := c.hosts * coresPerHost
		var src trace.Source
		if c.family == "azure" {
			src = workload.AzureSampledStream(workload.AzureSampledSpec{
				N: n, Cores: total, Load: derate(c.load), Seed: cfg.Seed,
			})
		} else if c.family == "flashcrowd" {
			var err error
			src, err = workload.NewFamily("flashcrowd", workload.FamilyConfig{
				N: n, Cores: total, Seed: cfg.Seed,
			})
			if err != nil {
				panic(err)
			}
		} else {
			spec, _ := rampSpec(cfg, n, total, 1.2, 0.75)
			src = workload.SyntheticStream(spec)
		}
		shards := 0
		if c.hosts >= shardedFloor {
			shards = shardedShards
		}
		res := runFleet(cluster.Config{
			Hosts:        c.hosts,
			CoresPerHost: coresPerHost,
			NewScheduler: named("SFS").mk,
			Shards:       shards,
		}, c.policy, cluster.FactoryConfig{Seed: cfg.Seed}, src)
		sum := res.Merged.Summarize(50, 99)
		ps := sum.Percentiles()
		mean := sum.Mean()
		return cellResult{
			row: []string{
				c.family,
				fmt.Sprintf("%.0f%%", c.load*100),
				fmt.Sprintf("%d", c.hosts),
				c.policy,
				metrics.FormatDuration(ps[0]),
				metrics.FormatDuration(ps[1]),
				metrics.FormatDuration(mean),
				fmt.Sprintf("%.1f%%", 100*res.Merged.FractionRTEAtLeast(0.95)),
				metrics.FormatDuration(res.QueueDelayMax),
			},
			mean: mean,
		}
	})

	type key struct {
		family string
		load   float64
		hosts  int
	}
	best := map[key]struct {
		policy string
		mean   time.Duration
	}{}
	for i, c := range cells {
		rep.Rows = append(rep.Rows, results[i].row)
		k := key{c.family, c.load, c.hosts}
		if b, ok := best[k]; !ok || results[i].mean < b.mean {
			best[k] = struct {
				policy string
				mean   time.Duration
			}{c.policy, results[i].mean}
		}
	}

	for _, hosts := range hostCounts {
		for _, load := range loads {
			if b, ok := best[key{"azure", load, hosts}]; ok {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"azure %d hosts @ %.0f%%: best mean turnaround under %s (%s)",
					hosts, load*100, b.policy, metrics.FormatDuration(b.mean)))
			}
		}
		if b, ok := best[key{"synth-ramp", 0, hosts}]; ok {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"synth-ramp %d hosts: best mean turnaround under %s (%s)",
				hosts, b.policy, metrics.FormatDuration(b.mean)))
		}
		if b, ok := best[key{"flashcrowd", 0, hosts}]; ok {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"flashcrowd %d hosts: best mean turnaround under %s (%s)",
				hosts, b.policy, metrics.FormatDuration(b.mean)))
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"fleets of %d+ hosts run on the sharded engine (%d shards, %v dispatch latency); results are deterministic at any shard count",
		shardedFloor, shardedShards, cluster.DefaultDispatchLatency))
	return rep
}

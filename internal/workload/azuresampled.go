package workload

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/azure"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/trace"
)

// AzureSampledSpec configures the paper's canonical evaluation workload
// (§VII): Table I durations with inter-arrival times replayed from 100
// hot applications of the (synthetic) Azure trace, scaled proportionally
// to hit a target load.
type AzureSampledSpec struct {
	N     int     // invocation count (the paper replays 10,000)
	Cores int     // cores of the host the load is calibrated for
	Load  float64 // target average CPU utilization (e.g. 1.0)
	Seed  uint64
	// Apps optionally overrides the application mix (default pure fib,
	// as in the standalone evaluation; the OpenLambda evaluation uses
	// fib/md/sa).
	Apps []AppChoice
	// IOFraction etc. pass through to the generator.
	IOFraction float64
	// Spikes injects this many transient arrival bursts into the trace
	// (the paper's Fig 12 workload exhibits five such queueing-delay
	// spikes). Each spike compresses SpikeWidth consecutive IATs to
	// near zero.
	Spikes     int
	SpikeWidth int
}

// azureSpec derives the plain generation spec behind an Azure-sampled
// workload: it calibrates the mean IAT for the requested load from the
// Table I distribution's analytic mean, synthesizes per-app bursty
// arrival processes around that rate, and wires them in as a replayed
// arrival trace.
func azureSpec(spec AzureSampledSpec) Spec {
	if spec.N <= 0 {
		panic("workload: N must be positive")
	}
	if spec.Cores <= 0 {
		panic("workload: cores must be positive")
	}
	if spec.Load <= 0 {
		spec.Load = 1.0
	}
	// Calibrate against the analytic mean ideal duration, scaled by the
	// app mix's CPU fraction so load reflects CPU demand (I/O time
	// occupies no core).
	meanCPU := time.Duration(float64(TableIDistribution().Mean()) * meanCPUFraction(spec.Apps))
	meanIAT := queueing.IATForLoad(meanCPU, spec.Cores, spec.Load)

	tr := azure.Synthesize(5000, spec.Seed^0xa5a5)
	hot := tr.SampleHotApps(100, 200, spec.Seed^0x5a5a)
	iats := tr.IATTrace(hot, spec.N, meanIAT, spec.Seed^0x1234)
	// The merged MMPP construction realizes a mean IAT that can drift
	// from the request (episode truncation, per-app rounding); rescale
	// so the offered load is exactly the requested level while the
	// burst structure is preserved.
	if len(iats) > 0 {
		var sum time.Duration
		for _, d := range iats {
			sum += d
		}
		realized := sum / time.Duration(len(iats))
		if realized > 0 {
			f := float64(meanIAT) / float64(realized)
			for i := range iats {
				iats[i] = time.Duration(float64(iats[i]) * f)
			}
		}
	}
	if spec.Spikes > 0 {
		width := spec.SpikeWidth
		if width <= 0 {
			width = len(iats) / (spec.Spikes * 5)
		}
		iats = AddSpikes(iats, spec.Spikes, width)
	}
	return Spec{
		N:          spec.N,
		Cores:      spec.Cores,
		Seed:       spec.Seed,
		Arrival:    dist.NewTraceProcess(iats),
		Apps:       spec.Apps,
		IOFraction: spec.IOFraction,
	}
}

func azureDescription(spec AzureSampledSpec) string {
	load := spec.Load
	if load <= 0 {
		load = 1.0
	}
	return fmt.Sprintf("azure-sampled(n=%d, load=%.0f%%, cores=%d, seed=%d, spikes=%d)",
		spec.N, load*100, spec.Cores, spec.Seed, spec.Spikes)
}

// AzureSampledStream returns the canonical trace-driven workload as a
// pull-based trace.Source. The per-app arrival synthesis is materialized
// once (the merged MMPP needs a global sort), but invocations are built
// lazily as the stream is pulled.
func AzureSampledStream(spec AzureSampledSpec) trace.Source {
	src := Stream(azureSpec(spec))
	return trace.Derive(azureDescription(spec), src.Next, src)
}

// AddSpikes returns a copy of iats with k transient-overload spikes: at
// each spike position, width consecutive IATs are compressed to 100 µs
// so that a burst of invocations lands almost simultaneously, as in the
// concurrent-invocation spikes reported for production FaaS workloads
// (§V-E). The removed inter-arrival time is not redistributed, so each
// spike transiently raises the offered load far above the steady level.
func AddSpikes(iats []time.Duration, k, width int) []time.Duration {
	if k <= 0 || width <= 0 || len(iats) == 0 {
		return append([]time.Duration(nil), iats...)
	}
	out := append([]time.Duration(nil), iats...)
	const compressed = 100 * time.Microsecond
	for s := 0; s < k; s++ {
		// Spikes at 1/(k+1), 2/(k+1), ... of the trace.
		center := (s + 1) * len(out) / (k + 1)
		lo := center - width/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + width
		if hi > len(out) {
			hi = len(out)
		}
		for i := lo; i < hi; i++ {
			if out[i] > compressed {
				out[i] = compressed
			}
		}
	}
	return out
}

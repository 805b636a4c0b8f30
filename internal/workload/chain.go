package workload

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/trace"
)

// ChainSpec configures the synthetic multi-stage scenario family: each
// request for the "chain" application is a function-chain workflow (a
// linear chain or a fan-out/fan-in diamond) whose stage payloads are
// sampled from Table I, so each stage looks like one paper-distribution
// invocation, with Poisson request arrivals calibrated so the *whole
// chain* — every stage's CPU demand, not just the request's — offers
// Load to Cores. This is the workload where per-stage queueing
// compounds into end-to-end response time, the regime the chain layer
// exists to measure.
type ChainSpec struct {
	// N is the number of workflow requests.
	N int
	// Cores the load is calibrated for.
	Cores int
	// Load is the target average CPU utilization fraction across Cores,
	// counting every stage of every chain (default 0.8).
	Load float64
	// Family is the workflow shape: one of chain.FamilyNames()
	// (default LINEAR).
	Family string
	// Depth scales the family: LINEAR stages or DIAMOND branches
	// (default 3).
	Depth int
	// Seed drives all sampling.
	Seed uint64
}

// ChainStream builds the family: a request source (the workflow
// triggers; each request's own sampled duration is stage 0's payload)
// plus the chain.Config that expands those requests into workflows.
// Both are deterministic in the spec, so the same spec replays
// byte-identically. The error reports an unknown family name.
func ChainStream(spec ChainSpec) (trace.Source, chain.Config, error) {
	const app = "chain"
	dur := TableIDistribution()
	if spec.Family == "" {
		spec.Family = "LINEAR"
	}
	if spec.Load <= 0 {
		spec.Load = 0.8
	}
	// Stage 0 inherits the request's sampled duration; later stages
	// sample the same distribution inside the injector.
	wf, err := chain.NewFamily(spec.Family, chain.FamilyConfig{Depth: spec.Depth, Service: dur})
	if err != nil {
		return nil, chain.Config{}, err
	}
	wf.Stages[0].Service = nil

	// Calibrate request IATs to the chain's total CPU demand: factor x
	// the per-request mean, so the aggregate offered load is spec.Load.
	mean := dur.Mean()
	factor := wf.ServiceFactor(mean)
	meanChain := time.Duration(float64(mean) * factor)
	src := Stream(Spec{
		N:       spec.N,
		Cores:   spec.Cores,
		Arrival: dist.PoissonProcess{Mean: queueing.IATForLoad(meanChain, spec.Cores, spec.Load)},
		Apps: []AppChoice{{
			Profile: AppProfile{Name: app, CPUFraction: 1},
			Weight:  1,
		}},
		Duration: dur,
		Seed:     spec.Seed,
	})
	desc := fmt.Sprintf("%s x %s depth=%d (chain load %.2f on %d cores)",
		src, spec.Family, wfDepth(spec), spec.Load, spec.Cores)
	src = trace.Derive(desc, src.Next, src)
	cfg := chain.Config{
		Specs: map[string]chain.Spec{app: wf},
		Seed:  spec.Seed,
	}
	return src, cfg, nil
}

// wfDepth resolves the spec's effective depth (the family default when
// unset).
func wfDepth(spec ChainSpec) int {
	if spec.Depth <= 0 {
		return 3
	}
	return spec.Depth
}

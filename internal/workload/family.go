package workload

import (
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/registry"
	"github.com/serverless-sched/sfs/internal/trace"
)

// FamilyConfig carries the construction parameters shared by every
// scenario family, mirroring the scheduler/dispatcher/keep-alive/chain
// registries' factory configs. Knobs a family doesn't use are ignored;
// each family's shape (spike factors, tenant counts, trend slopes) is
// a set of named constants in its file.
type FamilyConfig struct {
	// N is the invocation count (each family also sizes its horizon
	// from it).
	N int
	// Cores the offered load is calibrated for.
	Cores int
	// Load is the target average CPU utilization fraction (families
	// default it when non-positive).
	Load float64
	// Apps is the application mix (default pure fib).
	Apps []AppChoice
	// Seed drives all sampling.
	Seed uint64
}

// reg maps canonical names to scenario-family constructors in
// presentation order — the fifth registry on the shared
// internal/registry helper alongside internal/schedulers,
// internal/cluster, internal/lifecycle, and internal/chain, so the
// CLIs and experiments select workloads by flag without the recognized
// set drifting between tools.
var reg = registry.New[func(cfg FamilyConfig) trace.Source]("scenario family").
	Add("POISSON", poissonFamily).
	Add("AZURE", azureFamily).
	Add("SYNTH", synthFamily).
	Add("DIURNAL", diurnalFamily).
	Add("FLASHCROWD", flashCrowdFamily).
	Add("MULTITENANT", multiTenantFamily).
	Add("TRIGGER", triggerFamily)

// FamilyNames returns the canonical scenario family names NewFamily
// recognizes.
func FamilyNames() []string { return reg.Names() }

// NewFamily constructs a scenario family's invocation stream by
// case-insensitive name. Same config → byte-identical stream.
func NewFamily(name string, cfg FamilyConfig) (trace.Source, error) {
	mk, err := reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(cfg), nil
}

// sortedFamilyNames is used by tests to compare registries without
// caring about presentation order.
func sortedFamilyNames() []string { return reg.SortedNames() }

// poissonFamily is the paper's baseline: Table I durations, Poisson
// arrivals calibrated to the offered load.
func poissonFamily(cfg FamilyConfig) trace.Source {
	return Stream(Spec{N: cfg.N, Cores: cfg.Cores, Load: cfg.Load, Apps: cfg.Apps, Seed: cfg.Seed})
}

// azureFamily replays IATs sampled from the synthetic Azure trace's hot
// applications (§VII).
func azureFamily(cfg FamilyConfig) trace.Source {
	return AzureSampledStream(AzureSampledSpec{N: cfg.N, Cores: cfg.Cores, Load: cfg.Load, Apps: cfg.Apps, Seed: cfg.Seed})
}

// synthFamily ramps the request rate through saturation — 0.3x to 1.2x
// the mix's saturating RPS — the invitro-style load-transition profile.
func synthFamily(cfg FamilyConfig) trace.Source {
	spec := SyntheticSpec{N: cfg.N, Apps: cfg.Apps, Seed: cfg.Seed}
	cores := cfg.Cores
	if cores <= 0 {
		cores = 1
	}
	meanCPU := time.Duration(float64(TableIDistribution().Mean()) * meanCPUFraction(cfg.Apps))
	sat := float64(time.Second) / float64(queueing.IATForLoad(meanCPU, cores, 1.0))
	spec.Shape = trace.ShapeRamp
	spec.StartRPS = 0.3 * sat
	spec.TargetRPS = 1.2 * sat
	// Mean rate 0.75x saturation sizes the horizon to hold ~N arrivals.
	spec.Horizon = time.Duration(float64(cfg.N) / (0.75 * sat) * float64(time.Second))
	return SyntheticStream(spec)
}

// triggerFamily is the plain-invocation view of the trigger mix; use
// TriggerStream directly to also get the workflow config it feeds.
func triggerFamily(cfg FamilyConfig) trace.Source {
	src, _, _ := TriggerStream(TriggerSpec{N: cfg.N, Cores: cfg.Cores, Load: cfg.Load, Seed: cfg.Seed})
	return src
}

// calibrate fills cfg's defaults — one core, defLoad for a non-positive
// Load, the pure-fib mix — and returns the Table I distribution with
// the mean arrival rate, in requests per second, that offers cfg.Load
// to cfg.Cores.
func calibrate(cfg *FamilyConfig, defLoad float64) (dist.Distribution, float64) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Load <= 0 {
		cfg.Load = defLoad
	}
	if len(cfg.Apps) == 0 {
		cfg.Apps = []AppChoice{{Profile: AppFib, Weight: 1}}
	}
	d := TableIDistribution()
	meanCPU := time.Duration(float64(d.Mean()) * meanCPUFraction(cfg.Apps))
	return d, float64(time.Second) / float64(queueing.IATForLoad(meanCPU, cfg.Cores, cfg.Load))
}

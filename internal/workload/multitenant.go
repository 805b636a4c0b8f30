package workload

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/queueing"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// MultiTenantSpec configures the multi-tenant scenario family: one
// heavy tenant holding HeavyShare of the offered load and bursting in a
// square wave — BurstFactor x its own mean for a tenth of each burst
// period — merged with a fleet of light tenants running steady Poisson
// streams. Each tenant is its own application, so per-app keep-alive
// and dispatch policies see the noisy-neighbor problem directly: does
// the heavy tenant's burst evict everyone else's warm containers?
type MultiTenantSpec struct {
	// N caps the merged invocation count and sizes the horizon.
	N int
	// Cores the aggregate load is calibrated for.
	Cores int
	// Load is the horizon-average offered CPU load across all tenants
	// (default 0.8).
	Load float64
	// Tenants is the total tenant count, heavy one included
	// (default 9: one heavy plus eight light).
	Tenants int
	// HeavyShare is the heavy tenant's fraction of the total mean rate
	// (default 0.5).
	HeavyShare float64
	// BurstFactor multiplies the heavy tenant's rate during its burst
	// windows (default 4; its quiet level drops so its mean holds).
	BurstFactor float64
	// Bursts is the number of burst windows across the horizon
	// (default 6).
	Bursts int
	// Duration samples ideal durations (default TableIDistribution).
	Duration dist.Distribution
	// Apps is the CPU/I-O structure mix applied under each tenant's
	// identity (default pure fib).
	Apps []AppChoice
	// IOFraction adds the Fig 11 leading-I/O knob.
	IOFraction   float64
	IOMin, IOMax time.Duration
	// Seed drives all sampling.
	Seed uint64
}

// withDefaults fills the spec's derivable fields.
func (spec MultiTenantSpec) withDefaults() MultiTenantSpec {
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	if spec.Load <= 0 {
		spec.Load = 0.8
	}
	if spec.Tenants < 2 {
		spec.Tenants = 9
	}
	if spec.HeavyShare <= 0 || spec.HeavyShare >= 1 {
		spec.HeavyShare = 0.5
	}
	if spec.BurstFactor <= 1 {
		spec.BurstFactor = 4
	}
	if spec.Bursts <= 0 {
		spec.Bursts = 6
	}
	if spec.Duration == nil {
		spec.Duration = TableIDistribution()
	}
	if len(spec.Apps) == 0 {
		spec.Apps = []AppChoice{{Profile: AppFib, Weight: 1}}
	}
	return spec
}

// heavyDuty is the fraction of each burst period the heavy tenant
// spends at BurstFactor x its mean rate.
const heavyDuty = 0.1

// MultiTenantStream returns the multi-tenant family as a pull-based
// trace.Source. Same spec → byte-identical stream.
func MultiTenantStream(spec MultiTenantSpec) trace.Source {
	spec = spec.withDefaults()
	if spec.N <= 0 {
		panic("workload: multi-tenant spec needs N")
	}

	meanCPU := time.Duration(float64(spec.Duration.Mean()) * meanCPUFraction(spec.Apps))
	meanRPS := float64(time.Second) / float64(queueing.IATForLoad(meanCPU, spec.Cores, spec.Load))
	horizon := time.Duration(float64(spec.N) / meanRPS * float64(time.Second))

	r := rng.New(spec.Seed)
	appR := r.Split()
	ioR := r.Split()
	heavyR := r.Split()

	// Heavy tenant: square wave with duty-cycle bursts. The quiet level
	// is lowered so the tenant's mean rate stays at its share.
	heavyMean := meanRPS * spec.HeavyShare
	period := horizon / time.Duration(spec.Bursts)
	burstLen := time.Duration(float64(period) * heavyDuty)
	quiet := heavyMean * (1 - heavyDuty*spec.BurstFactor) / (1 - heavyDuty)
	if quiet < 0 {
		quiet = 0 // duty*BurstFactor > 1: all of the tenant's mass is in bursts
	}
	phase := time.Duration(heavyR.Float64() * float64(period))
	heavyRate := func(t time.Duration) float64 {
		if (t+phase)%period < burstLen {
			return heavyMean * spec.BurstFactor
		}
		return quiet
	}
	srcs := []trace.Source{trace.NewRate(trace.RateSpec{
		Desc:     fmt.Sprintf("tenant-heavy(%.1f rps x%.0f bursts)", heavyMean, spec.BurstFactor),
		Rate:     heavyRate,
		Peak:     heavyMean * spec.BurstFactor,
		Horizon:  horizon,
		Duration: spec.Duration,
		App:      "tenant-heavy",
		Seed:     spec.Seed ^ 0x7e4a,
	})}

	// Light tenants: steady Poisson streams splitting the remainder.
	lightRate := meanRPS * (1 - spec.HeavyShare) / float64(spec.Tenants-1)
	for i := 1; i < spec.Tenants; i++ {
		name := fmt.Sprintf("tenant%02d", i)
		srcs = append(srcs, trace.NewRate(trace.RateSpec{
			Desc:     fmt.Sprintf("%s(%.2f rps)", name, lightRate),
			Rate:     func(time.Duration) float64 { return lightRate },
			Peak:     lightRate,
			Horizon:  horizon,
			Duration: spec.Duration,
			App:      name,
			Seed:     spec.Seed ^ (0x11c5 * uint64(i+1)),
		}))
	}

	merged := trace.Limit(trace.Merge(srcs...), spec.N)
	desc := fmt.Sprintf("multitenant(n=%d, tenants=%d, heavy=%.2f x%.0f, load=%.2f on %d cores, seed=%d)",
		spec.N, spec.Tenants, spec.HeavyShare, spec.BurstFactor, spec.Load, spec.Cores, spec.Seed)

	// Build CPU/I-O structure from the mix but keep the tenant identity
	// as the application name — keep-alive pools are per tenant here.
	b := newBuilder(spec.Apps, spec.IOFraction, spec.IOMin, spec.IOMax, appR, ioR)
	src := trace.Map(merged, func(t *task.Task) *task.Task {
		tenant := t.App
		built := b.build(t.ID, t.Arrival, t.Service)
		built.App = tenant
		return built
	})
	return trace.Derive(desc, src.Next, src)
}

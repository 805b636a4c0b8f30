package workload

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// The multi-tenant family's shape: one heavy tenant holding heavyShare
// of the offered load and bursting in a square wave — tenantBurst x its
// own mean for heavyDuty of each of tenantBursts burst periods — merged
// with tenants-1 light tenants running steady Poisson streams. Each
// tenant is its own application, so per-app keep-alive and dispatch
// policies see the noisy-neighbor problem directly: does the heavy
// tenant's burst evict everyone else's warm containers?
const (
	tenants      = 9 // one heavy plus eight light
	heavyShare   = 0.5
	tenantBurst  = 4.0
	tenantBursts = 6
	heavyDuty    = 0.1
)

// multiTenantFamily streams the multi-tenant family, its aggregate
// horizon average calibrated to offer cfg.Load (default 0.8) to
// cfg.Cores. Same config → byte-identical stream.
func multiTenantFamily(cfg FamilyConfig) trace.Source {
	if cfg.N <= 0 {
		panic("workload: multi-tenant family needs N")
	}
	dur, meanRPS := calibrate(&cfg, 0.8)
	horizon := time.Duration(float64(cfg.N) / meanRPS * float64(time.Second))

	r := rng.New(cfg.Seed)
	appR := r.Split()
	ioR := r.Split()
	heavyR := r.Split()

	// Heavy tenant: square wave with duty-cycle bursts. The quiet level
	// is lowered so the tenant's mean rate stays at its share.
	heavyMean := meanRPS * heavyShare
	period := horizon / tenantBursts
	burstLen := time.Duration(float64(period) * heavyDuty)
	quiet := heavyMean * (1 - heavyDuty*tenantBurst) / (1 - heavyDuty)
	phase := time.Duration(heavyR.Float64() * float64(period))
	heavyRate := func(t time.Duration) float64 {
		if (t+phase)%period < burstLen {
			return heavyMean * tenantBurst
		}
		return quiet
	}
	srcs := []trace.Source{trace.NewRate(trace.RateSpec{
		Desc:     fmt.Sprintf("tenant-heavy(%.1f rps x%.0f bursts)", heavyMean, tenantBurst),
		Rate:     heavyRate,
		Peak:     heavyMean * tenantBurst,
		Horizon:  horizon,
		Duration: dur,
		App:      "tenant-heavy",
		Seed:     cfg.Seed ^ 0x7e4a,
	})}

	// Light tenants: steady Poisson streams splitting the remainder.
	lightRate := meanRPS * (1 - heavyShare) / (tenants - 1)
	for i := 1; i < tenants; i++ {
		name := fmt.Sprintf("tenant%02d", i)
		srcs = append(srcs, trace.NewRate(trace.RateSpec{
			Desc:     fmt.Sprintf("%s(%.2f rps)", name, lightRate),
			Rate:     func(time.Duration) float64 { return lightRate },
			Peak:     lightRate,
			Horizon:  horizon,
			Duration: dur,
			App:      name,
			Seed:     cfg.Seed ^ (0x11c5 * uint64(i+1)),
		}))
	}

	merged := trace.Limit(trace.Merge(srcs...), cfg.N)
	desc := fmt.Sprintf("multitenant(n=%d, tenants=%d, heavy=%.2f x%.0f, load=%.2f on %d cores, seed=%d)",
		cfg.N, tenants, heavyShare, tenantBurst, cfg.Load, cfg.Cores, cfg.Seed)

	// Build CPU/I-O structure from the mix but keep the tenant identity
	// as the application name — keep-alive pools are per tenant here.
	b := newBuilder(cfg.Apps, 0, appR, ioR)
	src := trace.Map(merged, func(t *task.Task) *task.Task {
		tenant := t.App
		built := b.build(t.ID, t.Arrival, t.Service)
		built.App = tenant
		return built
	})
	return trace.Derive(desc, src.Next, src)
}

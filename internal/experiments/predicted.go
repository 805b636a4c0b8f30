package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/predict"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// predictedAppMedians are the regular applications' lognormal medians:
// a strong app-identity → duration signal (low per-app variance, two
// decades of spread across apps) is exactly the workload where learned
// per-app estimates carry information, per Przybylski et al.'s
// characterization of serverless invocation predictability.
var predictedAppMedians = []time.Duration{
	2 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond,
	8 * time.Millisecond, 12 * time.Millisecond, 20 * time.Millisecond,
	35 * time.Millisecond, 60 * time.Millisecond,
}

const (
	predictedSigma     = 0.3  // per-app lognormal sigma
	predictedColdFrac  = 0.15 // fraction of traffic from one-shot cold apps
	predictedColdGroup = 4    // invocations per cold app name (< adversarial MinObs)
	predictedColdMed   = 300 * time.Millisecond
	predictedColdSigma = 0.2
)

// predictedTrace hand-rolls the sweep's workload: Poisson arrivals over
// a mix of well-known mice-to-medium apps and a steady stream of cold
// elephant apps whose names never accumulate enough observations to
// graduate past an estimator's MinObs threshold — the traffic that
// makes the adversarial-prior regime bite.
func predictedTrace(n, cores int, load float64, seed uint64) trace.Source {
	// Analytic mean service time of the mixture (lognormal mean is
	// median·exp(σ²/2)) calibrates the Poisson arrival rate to the
	// offered load, like every other workload generator in the repo.
	regMean := 0.0
	for _, m := range predictedAppMedians {
		regMean += float64(m) * math.Exp(predictedSigma*predictedSigma/2)
	}
	regMean /= float64(len(predictedAppMedians))
	coldMean := float64(predictedColdMed) * math.Exp(predictedColdSigma*predictedColdSigma/2)
	meanSvc := (1-predictedColdFrac)*regMean + predictedColdFrac*coldMean
	meanIAT := meanSvc / (float64(cores) * load)

	r := rng.New(seed)
	tasks := make([]*task.Task, 0, n)
	var at time.Duration
	cold := 0
	for i := 0; i < n; i++ {
		at += time.Duration(r.ExpFloat64() * meanIAT)
		var name string
		var d dist.Lognormal
		if r.Float64() < predictedColdFrac {
			name = fmt.Sprintf("cold-%d", cold/predictedColdGroup)
			cold++
			d = dist.Lognormal{Mu: math.Log(float64(predictedColdMed)), Sigma: predictedColdSigma}
		} else {
			m := predictedAppMedians[r.Intn(len(predictedAppMedians))]
			name = fmt.Sprintf("app-%v", m)
			d = dist.Lognormal{Mu: math.Log(float64(m)), Sigma: predictedSigma}
		}
		tk := task.New(i, at, d.Sample(r))
		tk.App = name
		tasks = append(tasks, tk)
	}
	return trace.FromTasks(fmt.Sprintf("predicted-mix(n=%d)", n), tasks)
}

// predictedRegimes are the prediction-error regimes the sweep crosses:
// accurate online learning, a deterministic 2x misestimate on half the
// apps, and a tiny-prior/high-threshold configuration under which every
// cold app looks free — adversarial for any policy that trusts its
// predictor.
func predictedRegimes() []struct {
	name string
	pc   predict.Config
} {
	return []struct {
		name string
		pc   predict.Config
	}{
		{"none", predict.Config{}},
		{"2x", predict.Config{NoiseFactor: 2}},
		{"adversarial", predict.Config{Prior: time.Microsecond, MinObs: predictedColdGroup * 2}},
	}
}

// predictedFleets pairs a uniform baseline fleet against a
// heterogeneous one alternating 1.5x and 0.5x hosts (same aggregate
// capacity), where speed-aware placement has something to exploit.
func predictedFleets(hosts int) []struct {
	name   string
	speeds []float64
} {
	hetero := make([]float64, hosts)
	for i := range hetero {
		if i%2 == 0 {
			hetero[i] = 1.5
		} else {
			hetero[i] = 0.5
		}
	}
	return []struct {
		name   string
		speeds []float64
	}{
		{"uniform", nil},
		{"hetero", hetero},
	}
}

// predictedCell is one cell of the sweep, with its numeric outcome kept
// for the winner notes and the regime-winner assertions in tests.
type predictedCell struct {
	regime, fleet, sched, dispatch string
	row                            []string
	mean                           time.Duration
}

// predictedDispatchCells runs the sweep and returns every cell in
// deterministic order. Cells where the regime cannot matter (neither
// the host scheduler nor the dispatcher consults a predictor) are run
// once under "none" rather than duplicated per regime.
func predictedDispatchCells(cfg Config) []predictedCell {
	const hosts, coresPerHost = 8, 4
	n := scaleN(cfg, 6000)
	scheds := []string{"SFS", "CFS", "PSRTF"}
	dispatchers := []string{"LEASTLOADED", "JSQ", "PREDICTED"}

	var cells []predictedCell
	for _, reg := range predictedRegimes() {
		for _, fleet := range predictedFleets(hosts) {
			for _, sc := range scheds {
				for _, dp := range dispatchers {
					if reg.name != "none" && sc != "PSRTF" && dp != "PREDICTED" {
						continue // regime is a no-op for this cell
					}
					cells = append(cells, predictedCell{regime: reg.name, fleet: fleet.name, sched: sc, dispatch: dp})
				}
			}
		}
	}

	regimeCfg := map[string]predict.Config{}
	for _, reg := range predictedRegimes() {
		regimeCfg[reg.name] = reg.pc
	}
	fleetSpeeds := map[string][]float64{}
	for _, fleet := range predictedFleets(hosts) {
		fleetSpeeds[fleet.name] = fleet.speeds
	}

	return sweep(cfg, cells, func(c predictedCell) predictedCell {
		pc := regimeCfg[c.regime]
		if pc.Seed == 0 {
			pc.Seed = cfg.Seed
		}
		newSched := named(c.sched).mk
		if c.sched == "PSRTF" {
			newSched = func() cpusim.Scheduler { return sched.NewPSRTF(predict.New(pc)) }
		}
		res := runFleet(cluster.Config{
			Hosts:        hosts,
			CoresPerHost: coresPerHost,
			NewScheduler: newSched,
			Speeds:       fleetSpeeds[c.fleet],
			NetDelay:     dist.Uniform{Lo: 200 * time.Microsecond, Hi: 2 * time.Millisecond},
			NetDelaySeed: cfg.Seed,
		}, c.dispatch, cluster.FactoryConfig{Seed: cfg.Seed, Predict: pc},
			predictedTrace(n, hosts*coresPerHost, derate(0.9), cfg.Seed))
		sum := res.Merged.Summarize(50, 99)
		ps := sum.Percentiles()
		c.mean = sum.Mean()
		c.row = []string{
			c.regime, c.fleet, c.sched, c.dispatch,
			metrics.FormatDuration(ps[0]),
			metrics.FormatDuration(ps[1]),
			metrics.FormatDuration(c.mean),
			fmt.Sprintf("%.1f%%", 100*res.Merged.FractionRTEAtLeast(0.95)),
		}
		return c
	})
}

// runPredictedDispatch sweeps prediction-driven policies at both
// levels — PSRTF inside each host, PREDICTED at the dispatcher —
// against their prediction-free baselines (SFS/CFS hosts, LEASTLOADED/
// JSQ dispatch) across prediction-error regimes and fleet shapes. The
// question it answers is when acting on runtime estimates helps and
// when it hurts: with accurate learned estimates, predicted policies
// approach their clairvoyant counterparts and beat SFS; under the
// adversarial cold-app regime (tiny prior, cold elephants constantly
// arriving), trusting the predictor convoys elephants ahead of known
// mice and SFS's prediction-free preemption wins — both directions are
// asserted by tests.
func runPredictedDispatch(cfg Config) *Report {
	rep := &Report{
		Title: "host scheduler x dispatch policy x prediction-error regime x fleet shape",
		Paper: "beyond the paper: data-driven scheduling and placement (Przybylski et al.) vs SFS's prediction-free design",
	}
	rep.Header = []string{"regime", "fleet", "sched", "dispatch", "p50", "p99", "mean", "RTE>=0.95"}

	cells := predictedDispatchCells(cfg)
	type key struct{ regime, fleet string }
	// SFS is prediction-free, so its LEASTLOADED baseline (run once,
	// under "none") stands in for every regime; PSRTF's mean varies per
	// regime.
	sfsBase := map[string]time.Duration{}
	psrtfMean := map[key]time.Duration{}
	for i := range cells {
		c := &cells[i]
		rep.Rows = append(rep.Rows, c.row)
		if c.dispatch != "LEASTLOADED" {
			continue
		}
		switch c.sched {
		case "SFS":
			sfsBase[c.fleet] = c.mean
		case "PSRTF":
			psrtfMean[key{c.regime, c.fleet}] = c.mean
		}
	}
	for _, reg := range predictedRegimes() {
		for _, fleet := range predictedFleets(8) {
			sfs, ok1 := sfsBase[fleet.name]
			psrtf, ok2 := psrtfMean[key{reg.name, fleet.name}]
			if !ok1 || !ok2 {
				continue
			}
			winner := "SFS"
			if psrtf < sfs {
				winner = "PSRTF"
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"regime %s, %s fleet (LEASTLOADED dispatch): SFS mean %s vs PSRTF mean %s — %s wins",
				reg.name, fleet.name, metrics.FormatDuration(sfs), metrics.FormatDuration(psrtf), winner))
		}
	}
	return rep
}

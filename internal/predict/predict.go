// Package predict is the online per-app runtime estimator behind the
// data-driven policies (PSRTF host scheduling, PREDICTED cluster
// dispatch). SFS's premise is scheduling *without* service-time
// knowledge; the related work — Przybylski et al.'s data-driven
// dispatch and Kaffes et al.'s practical serverless scheduling — shows
// what becomes possible when the platform estimates runtimes from its
// own completion log. This package supplies that estimate: a streaming
// per-application mean (Welford) plus a P² tail percentile, updated on
// every observed completion, in O(1) memory per application.
//
// Determinism is a hard contract: an Estimator is a pure function of
// its configuration and the sequence of Observe calls, with no wall
// clock and no global RNG, so simulations built on it replay
// byte-identically. Even the injected prediction error (Config.
// NoiseFactor, used by experiments to study estimator-quality regimes)
// is a deterministic per-app coin — a hash of (Seed, app) — rather
// than a sampled stream, so it is independent of observation order.
package predict

import (
	"hash/fnv"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/stats"
)

// DefaultPrior is the cold-application estimate used before an app has
// MinObs completions: 100ms, roughly the Azure Functions median
// duration, so an unknown function is treated as "typical" rather than
// free or enormous.
const DefaultPrior = 100 * time.Millisecond

// DefaultRank is the percentile each app's P² marker tracks.
const DefaultRank = 95.0

// Config parameterizes an Estimator. The zero value is valid: it
// predicts DefaultPrior for cold apps, trusts the mean after a single
// observation, tracks P95, and injects no error.
type Config struct {
	// Prior is the estimate returned for an application with fewer than
	// MinObs observed completions. Zero or negative selects
	// DefaultPrior. The cold path never yields zero or NaN: callers can
	// divide by a prediction unconditionally.
	Prior time.Duration
	// MinObs is the number of completions required before the learned
	// estimate replaces Prior. Values below 1 mean 1.
	MinObs int
	// Rank is the percentile tracked per app by Percentile, in the open
	// interval (0, 100). Zero selects DefaultRank.
	Rank float64
	// NoiseFactor injects multiplicative prediction error into learned
	// estimates: each app's predictions are scaled by NoiseFactor or
	// 1/NoiseFactor, chosen by a deterministic coin hashed from (Seed,
	// app). 0 or 1 disables injection; experiments use 2 for the "2x
	// error" regime. Values below zero are treated as disabled.
	NoiseFactor float64
	// Seed drives only the per-app noise coin; an Estimator without
	// noise is seed-independent.
	Seed uint64
}

// appStats is one application's O(1) learning state.
type appStats struct {
	n    int64
	mean float64 // Welford streaming mean, in ns
	m2   float64 // Welford sum of squared deviations
	tail *stats.P2
}

// Estimator learns per-application runtimes from completions.
// It is not safe for concurrent use; each host scheduler or dispatcher
// owns its own instance (mirroring how a per-host agent would learn
// from its local completion log).
type Estimator struct {
	cfg  Config
	apps map[string]*appStats
}

// New builds an estimator, normalizing the zero-value defaults
// documented on Config.
func New(cfg Config) *Estimator {
	if cfg.Prior <= 0 {
		cfg.Prior = DefaultPrior
	}
	if cfg.MinObs < 1 {
		cfg.MinObs = 1
	}
	if cfg.Rank <= 0 || cfg.Rank >= 100 {
		cfg.Rank = DefaultRank
	}
	if cfg.NoiseFactor < 0 {
		cfg.NoiseFactor = 0
	}
	return &Estimator{cfg: cfg, apps: map[string]*appStats{}}
}

// Observe records one completed invocation of app with the given
// measured runtime. Non-positive durations are recorded as 1ns so
// means and markers stay positive.
func (e *Estimator) Observe(app string, d time.Duration) {
	if d <= 0 {
		d = 1
	}
	st := e.apps[app]
	if st == nil {
		st = &appStats{tail: stats.NewP2(e.cfg.Rank)}
		e.apps[app] = st
	}
	st.n++
	x := float64(d)
	delta := x - st.mean
	st.mean += delta / float64(st.n)
	st.m2 += delta * (x - st.mean)
	st.tail.Add(x)
}

// Predict returns the estimated runtime of the next invocation of app:
// the app's learned streaming mean once MinObs completions have been
// observed, the configured Prior before that. The result is always
// positive — never zero and never NaN — even for an app the estimator
// has never seen.
func (e *Estimator) Predict(app string) time.Duration {
	st := e.apps[app]
	if st == nil || st.n < int64(e.cfg.MinObs) {
		return e.cfg.Prior
	}
	p := time.Duration(math.Round(st.mean * e.noise(app)))
	if p < 1 {
		p = 1
	}
	return p
}

// Percentile returns the app's tracked tail percentile (Config.Rank),
// with the same cold-app fallback and positivity guarantee as Predict.
func (e *Estimator) Percentile(app string) time.Duration {
	st := e.apps[app]
	if st == nil || st.n < int64(e.cfg.MinObs) {
		return e.cfg.Prior
	}
	p := time.Duration(math.Round(st.tail.Quantile() * e.noise(app)))
	if p < 1 {
		p = 1
	}
	return p
}

// Apps returns how many distinct applications have been observed.
func (e *Estimator) Apps() int { return len(e.apps) }

// noise returns the multiplicative error applied to app's learned
// estimates: NoiseFactor or its reciprocal, chosen by a deterministic
// coin over (Seed, app). With injection disabled it is exactly 1.
func (e *Estimator) noise(app string) float64 {
	f := e.cfg.NoiseFactor
	if f == 0 || f == 1 {
		return 1
	}
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(e.cfg.Seed >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(app))
	if h.Sum64()&1 == 0 {
		return f
	}
	return 1 / f
}

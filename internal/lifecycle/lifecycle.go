// Package lifecycle models container lifecycles on a serverless host:
// per-application warm pools, a configurable memory capacity, and
// pluggable keep-alive/eviction policies — the state the paper's
// evaluation deliberately removes (§IX disables auto-scaling and
// pre-warms every container) and that real serverless schedulers live
// and die by.
//
// The central type is Manager, one per simulated host. An invocation
// Acquires a container at its arrival instant: a warm, idle container
// for the application serves it immediately (a warm hit), while a miss
// creates a fresh container and pays a sampled cold-start latency
// (image pull + sandbox boot, both dist.Distribution) that the caller
// injects into the simulation timeline before the task becomes
// runnable. When the invocation finishes, Release returns the
// container to the warm pool under the Policy's keep-alive decision:
// discard immediately (NONE), stay warm for a window (TTL, HIST), or
// stay until memory pressure evicts it (LRU). History-driven policies
// (HIST) may additionally schedule a pre-warmed container just before
// the application's predicted next arrival.
//
// Determinism: a Manager is a deterministic function of its Config and
// the sequence of Acquire/Release/AdvanceTo calls, which drivers must
// issue in non-decreasing virtual-time order (the discrete-event loops
// in Run, internal/faas, and internal/cluster do). Each manager runs
// its own simtime.Queue of idle expiries and pre-warms, processed
// lazily as time advances; same-instant events fire in scheduling
// order, so same-seed replays are byte-identical.
// Cold-start latencies come from one seeded RNG stream; no wall clock,
// no global randomness.
package lifecycle

import (
	"fmt"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
)

// DefaultContainerMB is the per-container memory footprint assumed when
// Config.ContainerMB is zero: the 128 MB minimum allocation of the
// major FaaS providers.
const DefaultContainerMB = 128

// Config parameterizes a Manager.
type Config struct {
	// Policy is the keep-alive/eviction policy; nil defaults to a
	// FIXED-TTL policy with DefaultTTL.
	Policy Policy
	// MemoryMB is the host's container memory capacity; 0 means
	// unlimited. When a cold start would exceed it, idle containers are
	// evicted least-recently-used first. Running containers are never
	// evicted: if the capacity cannot be met from idle containers alone
	// the host overcommits and the excess is recorded in Stats.
	MemoryMB int
	// ContainerMB is the per-container footprint (default
	// DefaultContainerMB).
	ContainerMB int
	// ImagePull samples the image-pull share of a cold start; nil
	// defaults to DefaultImagePull. Pulls are the dominant, highly
	// variable cost (container registries, layer caches).
	ImagePull dist.Distribution
	// SandboxBoot samples the sandbox create+boot share of a cold
	// start; nil defaults to DefaultSandboxBoot.
	SandboxBoot dist.Distribution
	// Seed drives the cold-start latency stream.
	Seed uint64
}

// DefaultImagePull returns the default image-pull latency distribution:
// a lognormal centred near 300 ms with a heavy right tail, the shape
// registry pulls exhibit when layers miss the node cache.
func DefaultImagePull() dist.Distribution {
	return dist.Lognormal{Mu: 19.52, Sigma: 0.5} // median ~300ms
}

// DefaultSandboxBoot returns the default sandbox boot latency
// distribution: 50–150 ms uniform, the order of a container runtime
// create+start on a warm node.
func DefaultSandboxBoot() dist.Distribution {
	return dist.Uniform{Lo: 50 * time.Millisecond, Hi: 150 * time.Millisecond}
}

// Container is one sandbox instance for an application. The zero value
// is never used; containers are created by Manager.Acquire (cold
// starts) and by pre-warm events. A container the manager destroys
// (expired, evicted or discarded) is recycled, fully reset, for a
// later cold start or pre-warm, so a caller must not keep one past its
// Release.
type Container struct {
	// App is the application the container serves.
	App string
	// Prewarmed marks containers created by a policy pre-warm rather
	// than an on-demand cold start.
	Prewarmed bool

	mb        int
	busy      bool
	idleSince simtime.Time     // when the container last went idle
	expires   simtime.EventRef // pending expiry while idle
	dead      bool
}

// Stats are a Manager's cumulative counters. The embedded
// metrics.ColdStartStats carries the reporting trio — Invocations
// (Acquire calls), ColdStarts (on-demand container creations), and
// ColdLatency (summed sampled latency) — from which warm hits, the
// warm-hit ratio, and table columns derive.
type Stats struct {
	metrics.ColdStartStats
	// PrewarmHits is the subset of warm hits served by a policy
	// pre-warmed container's first use.
	PrewarmHits int
	// Expirations counts idle containers aged out by their keep-alive
	// window; Evictions counts idle containers removed early under
	// memory pressure; Discards counts containers a policy declined to
	// keep at all (KeepWarm == 0).
	Expirations int
	Evictions   int
	Discards    int
	// Prewarms counts pre-warmed containers materialized; PrewarmSkips
	// counts pre-warms dropped because they did not fit in memory.
	Prewarms     int
	PrewarmSkips int
	// MemPeakMB is the high-water mark of container memory, including
	// any overcommit by running containers.
	MemPeakMB int
	// OvercommitMB is the high-water mark of memory above capacity
	// (always zero when MemoryMB is 0 or eviction kept up).
	OvercommitMB int
}

// Summary renders the one-line cold-start report the CLIs print,
// labeled with the policy's name.
func (s Stats) Summary(policy string) string {
	return fmt.Sprintf("keep-alive %s: %d cold starts (%.1f%% warm hits), mean cold latency %s, %d evictions, %d expirations, %d pre-warms, peak memory %d MB",
		strings.ToUpper(policy), s.ColdStarts, 100*s.WarmHitRatio(),
		metrics.FormatDuration(s.MeanColdLatency()), s.Evictions, s.Expirations, s.Prewarms, s.MemPeakMB)
}

// Add accumulates other into s (merging per-host stats cluster-wide).
func (s *Stats) Add(other Stats) {
	s.Invocations += other.Invocations
	s.PrewarmHits += other.PrewarmHits
	s.ColdStarts += other.ColdStarts
	s.ColdLatency += other.ColdLatency
	s.Expirations += other.Expirations
	s.Evictions += other.Evictions
	s.Discards += other.Discards
	s.Prewarms += other.Prewarms
	s.PrewarmSkips += other.PrewarmSkips
	s.MemPeakMB += other.MemPeakMB
	s.OvercommitMB += other.OvercommitMB
}

// prewarm is an application's reusable pre-warm record, the payload of
// its pre-warm event. It is armed while that event is queued, so at
// most one pre-warm is pending per app, and arming it allocates
// nothing.
type prewarm struct {
	app   string
	armed bool
	keep  time.Duration // idle window once materialized
}

// Manager is the container lifecycle state of one host. It is not safe
// for concurrent use; simulations are single-threaded by design.
type Manager struct {
	cfg    Config
	policy Policy
	r      *rng.RNG

	idle     map[string][]*Container // per-app idle pool, most recent last
	prewarms map[string]*prewarm     // per-app pre-warm record, once one was asked for
	events   simtime.Queue           // idle expiries and pre-warms
	usedMB   int
	stats    Stats
	spare    []*Container // destroyed containers, for newContainer to reuse

	// The event handlers, built once in New: an expiry carries its
	// *Container, a pre-warm its *prewarm.
	onExpire, onPrewarm simtime.Handler
}

// New builds a Manager. Negative capacities are rejected; zero values
// take the documented defaults.
func New(cfg Config) (*Manager, error) {
	if cfg.MemoryMB < 0 {
		return nil, fmt.Errorf("lifecycle: negative memory capacity %d MB", cfg.MemoryMB)
	}
	if cfg.ContainerMB < 0 {
		return nil, fmt.Errorf("lifecycle: negative container footprint %d MB", cfg.ContainerMB)
	}
	if cfg.ContainerMB == 0 {
		cfg.ContainerMB = DefaultContainerMB
	}
	if cfg.MemoryMB > 0 && cfg.MemoryMB < cfg.ContainerMB {
		return nil, fmt.Errorf("lifecycle: capacity %d MB below one container (%d MB)", cfg.MemoryMB, cfg.ContainerMB)
	}
	if cfg.Policy == nil {
		cfg.Policy = NewFixedTTL(DefaultTTL)
	}
	if cfg.ImagePull == nil {
		cfg.ImagePull = DefaultImagePull()
	}
	if cfg.SandboxBoot == nil {
		cfg.SandboxBoot = DefaultSandboxBoot()
	}
	m := &Manager{
		cfg:      cfg,
		policy:   cfg.Policy,
		r:        rng.New(cfg.Seed ^ 0xc01d),
		idle:     map[string][]*Container{},
		prewarms: map[string]*prewarm{},
	}
	m.onExpire = func(_ simtime.Time, arg any) { m.expire(arg.(*Container)) }
	m.onPrewarm = func(now simtime.Time, arg any) { m.materializePrewarm(now, arg.(*prewarm)) }
	return m, nil
}

// NewByName builds a manager running the named keep-alive policy with
// the given memory budget and fixed-TTL/fallback window — the
// construction path the CLIs share behind their
// -keepalive/-memory/-keepalive-ttl flags.
func NewByName(policy string, memoryMB int, ttl time.Duration, seed uint64) (*Manager, error) {
	p, err := NewPolicy(policy, PolicyConfig{TTL: ttl, Seed: seed})
	if err != nil {
		return nil, err
	}
	return New(Config{Policy: p, MemoryMB: memoryMB, Seed: seed})
}

// Policy returns the manager's keep-alive policy.
func (m *Manager) Policy() Policy { return m.policy }

// Stats returns a snapshot of the cumulative counters.
func (m *Manager) Stats() Stats { return m.stats }

// AdvanceTo processes all expiry and pre-warm events up to now in
// timeline order. Acquire and Release advance the manager to their own
// instant; any other reader advances it first, to the instant it reads
// as of: the cluster catches a host's manager up to its lifecycle
// clock before a dispatcher reads WarmIdle and before it reads Stats.
// The events depend only on the manager's own (time, sequence) queue,
// so advancing late, or in several steps, yields the same state as
// advancing at every instant.
func (m *Manager) AdvanceTo(now simtime.Time) { m.events.Run(now) }

// Acquire requests a container for app at virtual time now. On a warm
// hit it returns (0, container); on a miss it creates the container and
// returns the sampled cold-start latency the caller must inject before
// the invocation becomes runnable. The container stays busy until
// Release.
func (m *Manager) Acquire(now simtime.Time, app string) (time.Duration, *Container) {
	m.AdvanceTo(now)
	m.stats.Invocations++
	m.policy.OnArrival(now, app)

	if pool := m.idle[app]; len(pool) > 0 {
		// Reuse the most recently released container (LIFO keeps the
		// hottest sandbox hot and lets the colder end age out).
		c := pool[len(pool)-1]
		m.idle[app] = pool[:len(pool)-1]
		m.cancelExpiry(c)
		c.busy = true
		if c.Prewarmed {
			m.stats.PrewarmHits++
			c.Prewarmed = false
		}
		return 0, c
	}

	lat := m.sampleColdStart()
	c := m.newContainer(app)
	c.busy = true
	m.reserve(c.mb)
	m.stats.ColdStarts++
	m.stats.ColdLatency += lat
	return lat, c
}

// Release returns a container at its invocation's finish time. The
// policy decides whether it stays warm and whether a pre-warm should be
// scheduled for the application's predicted next arrival.
func (m *Manager) Release(now simtime.Time, c *Container) {
	if c == nil {
		return
	}
	if !c.busy || c.dead {
		panic("lifecycle: Release of a container that is not busy")
	}
	m.AdvanceTo(now)
	c.busy = false
	c.idleSince = now

	d := m.policy.OnRelease(now, c.App)
	if d.KeepWarm == 0 {
		m.destroy(c)
		m.stats.Discards++
	} else {
		m.idle[c.App] = append(m.idle[c.App], c)
		m.scheduleExpiry(now, c, d.KeepWarm)
	}
	if d.PrewarmIn > 0 {
		m.schedulePrewarm(now, c.App, d)
	}
}

// WarmIdle returns the number of idle warm containers held for app as
// of the instant the manager was last advanced to. It advances
// nothing: a caller reading as of a later instant calls AdvanceTo
// first, as the cluster does before affinity-aware dispatchers
// (WARMFIRST) read it.
func (m *Manager) WarmIdle(app string) int { return len(m.idle[app]) }

// ---- internals ----

// sampleColdStart draws one cold-start latency: image pull plus sandbox
// boot, each clamped non-negative.
func (m *Manager) sampleColdStart() time.Duration {
	lat := m.cfg.ImagePull.Sample(m.r) + m.cfg.SandboxBoot.Sample(m.r)
	if lat < 0 {
		lat = 0
	}
	return lat
}

// reserve charges mb of container memory for an on-demand cold start,
// evicting idle containers least-recently-used first when over
// capacity. Running containers cannot be evicted, so a host whose
// capacity is consumed by running functions overcommits and records
// the excess.
func (m *Manager) reserve(mb int) {
	cap := m.cfg.MemoryMB
	if cap > 0 {
		for m.usedMB+mb > cap && m.evictLRU() {
		}
		if over := m.usedMB + mb - cap; over > m.stats.OvercommitMB {
			m.stats.OvercommitMB = over
		}
	}
	m.usedMB += mb
	if m.usedMB > m.stats.MemPeakMB {
		m.stats.MemPeakMB = m.usedMB
	}
}

// evictLRU removes the idle container with the oldest idleSince
// (ties by app name, then pool position, for determinism). It returns
// false when no idle container remains.
func (m *Manager) evictLRU() bool {
	var victim *Container
	victimApp := ""
	for app, pool := range m.idle {
		for _, c := range pool {
			if victim == nil || c.idleSince < victim.idleSince ||
				(c.idleSince == victim.idleSince && app < victimApp) {
				victim, victimApp = c, app
			}
		}
	}
	if victim == nil {
		return false
	}
	m.removeIdle(victim)
	m.cancelExpiry(victim)
	m.destroy(victim)
	m.stats.Evictions++
	return true
}

// removeIdle deletes c from its app pool, preserving order.
func (m *Manager) removeIdle(c *Container) {
	pool := m.idle[c.App]
	for i, o := range pool {
		if o == c {
			m.idle[c.App] = append(pool[:i], pool[i+1:]...)
			return
		}
	}
	panic("lifecycle: idle container missing from its pool")
}

// destroy frees a container's memory, marks it unusable and keeps it
// for newContainer to reuse.
func (m *Manager) destroy(c *Container) {
	m.usedMB -= c.mb
	c.dead = true
	m.spare = append(m.spare, c)
}

// newContainer returns an idle, live container for app with no other
// state, recycling a destroyed one when there is one.
func (m *Manager) newContainer(app string) *Container {
	n := len(m.spare)
	if n == 0 {
		return &Container{App: app, mb: m.cfg.ContainerMB}
	}
	c := m.spare[n-1]
	m.spare = m.spare[:n-1]
	*c = Container{App: app, mb: m.cfg.ContainerMB}
	return c
}

// scheduleExpiry arms c's keep-alive window. KeepForever installs no
// event: the container stays until evicted.
func (m *Manager) scheduleExpiry(now simtime.Time, c *Container, keep time.Duration) {
	if keep != KeepForever {
		c.expires = m.events.At(now+keep, m.onExpire, c)
	}
}

// expire ages out an idle container at the end of its keep-alive
// window. A queued expiry's container is idle: reuse and eviction
// cancel the expiry first.
func (m *Manager) expire(c *Container) {
	c.expires = simtime.EventRef{}
	m.removeIdle(c)
	m.destroy(c)
	m.stats.Expirations++
}

// cancelExpiry removes a pending expiry when a container is reused or
// evicted early.
func (m *Manager) cancelExpiry(c *Container) {
	m.events.Cancel(c.expires)
	c.expires = simtime.EventRef{}
}

// schedulePrewarm arms at most one pending pre-warm per application.
func (m *Manager) schedulePrewarm(now simtime.Time, app string, d Decision) {
	p := m.prewarms[app]
	if p == nil {
		p = &prewarm{app: app}
		m.prewarms[app] = p
	}
	if p.armed {
		return
	}
	p.armed, p.keep = true, d.PrewarmFor
	m.events.At(now+d.PrewarmIn, m.onPrewarm, p)
}

// materializePrewarm disarms the pre-warm record p and creates the
// pre-warmed idle container for its app if it fits without evicting
// anyone (pre-warms are best-effort).
func (m *Manager) materializePrewarm(at simtime.Time, p *prewarm) {
	p.armed = false
	mb := m.cfg.ContainerMB
	if cap := m.cfg.MemoryMB; cap > 0 && m.usedMB+mb > cap {
		m.stats.PrewarmSkips++
		return
	}
	m.usedMB += mb
	if m.usedMB > m.stats.MemPeakMB {
		m.stats.MemPeakMB = m.usedMB
	}
	c := m.newContainer(p.app)
	c.Prewarmed, c.idleSince = true, at
	m.idle[p.app] = append(m.idle[p.app], c)
	m.stats.Prewarms++
	keep := p.keep
	if keep == 0 {
		keep = DefaultTTL
	}
	m.scheduleExpiry(at, c, keep)
}

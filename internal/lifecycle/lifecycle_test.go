package lifecycle

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/simtime"
)

// ms is a test shorthand.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// constMgr builds a manager with constant cold-start latency so tests
// can assert exact delays.
func constMgr(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.ImagePull == nil {
		cfg.ImagePull = dist.Constant{Value: ms(200)}
	}
	if cfg.SandboxBoot == nil {
		cfg.SandboxBoot = dist.Constant{Value: ms(50)}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWarmReuse: a released container serves the next same-app arrival
// with zero latency; a different app still pays a cold start.
func TestWarmReuse(t *testing.T) {
	m := constMgr(t, Config{Policy: NewFixedTTL(time.Minute)})
	d, c := m.Acquire(0, "fib")
	if d != ms(250) {
		t.Fatalf("first acquire delay %v, want 250ms", d)
	}
	m.Release(ms(10), c)
	if got := m.WarmIdle("fib"); got != 1 {
		t.Fatalf("warm idle %d, want 1", got)
	}
	d, c2 := m.Acquire(ms(20), "fib")
	if d != 0 {
		t.Fatalf("warm acquire delay %v, want 0", d)
	}
	if c2 != c {
		t.Fatal("warm hit did not reuse the released container")
	}
	if d, _ := m.Acquire(ms(30), "md"); d != ms(250) {
		t.Fatalf("other-app acquire delay %v, want cold 250ms", d)
	}
	st := m.Stats()
	if st.Invocations != 3 || st.WarmHits() != 1 || st.ColdStarts != 2 {
		t.Fatalf("stats = %+v, want 3 invocations, 1 warm, 2 cold", st)
	}
}

// TestBusyContainerNotShared: while a container is busy, a concurrent
// same-app arrival must cold-start its own.
func TestBusyContainerNotShared(t *testing.T) {
	m := constMgr(t, Config{Policy: NewFixedTTL(time.Minute)})
	_, c1 := m.Acquire(0, "fib")
	d, c2 := m.Acquire(ms(1), "fib")
	if d == 0 || c1 == c2 {
		t.Fatal("busy container was shared")
	}
}

// TestTTLExpiry: an idle container ages out after its keep-alive
// window, and a later arrival is cold again.
func TestTTLExpiry(t *testing.T) {
	m := constMgr(t, Config{Policy: NewFixedTTL(ms(100))})
	_, c := m.Acquire(0, "fib")
	m.Release(ms(10), c)
	// Still warm just inside the window.
	if d, c2 := m.Acquire(ms(109), "fib"); d != 0 {
		t.Fatalf("inside TTL: delay %v, want warm", d)
	} else {
		m.Release(ms(120), c2)
	}
	// Expired after the window.
	if d, _ := m.Acquire(ms(221), "fib"); d == 0 {
		t.Fatal("expired container served a warm hit")
	}
	if st := m.Stats(); st.Expirations != 1 {
		t.Fatalf("expirations %d, want 1", st.Expirations)
	}
}

// TestNoneAlwaysCold: the NONE policy discards at release; every
// invocation cold-starts.
func TestNoneAlwaysCold(t *testing.T) {
	m := constMgr(t, Config{Policy: NewNone()})
	at := simtime.Time(0)
	for i := 0; i < 5; i++ {
		d, c := m.Acquire(at, "fib")
		if d == 0 {
			t.Fatalf("invocation %d warm under NONE", i)
		}
		m.Release(at+ms(5), c)
		at += ms(100)
	}
	st := m.Stats()
	if st.WarmHits() != 0 || st.ColdStarts != 5 || st.Discards != 5 {
		t.Fatalf("stats = %+v, want 0 warm, 5 cold, 5 discards", st)
	}
}

// TestLRUEvictionUnderPressure: with capacity for two containers, a
// third app's cold start evicts the least-recently-used idle one.
func TestLRUEvictionUnderPressure(t *testing.T) {
	m := constMgr(t, Config{Policy: NewLRU(), MemoryMB: 256, ContainerMB: 128})
	_, a := m.Acquire(0, "a")
	m.Release(ms(10), a) // idle since 10ms
	_, b := m.Acquire(ms(20), "b")
	m.Release(ms(30), b) // idle since 30ms
	if m.usedMB != 256 {
		t.Fatalf("used %d MB, want 256", m.usedMB)
	}
	// Third app: must evict "a" (older idle), keep "b".
	if d, _ := m.Acquire(ms(40), "c"); d == 0 {
		t.Fatal("app c should cold start")
	}
	if m.WarmIdle("a") != 0 || m.WarmIdle("b") != 1 {
		t.Fatalf("warm pools a=%d b=%d, want LRU eviction of a", m.WarmIdle("a"), m.WarmIdle("b"))
	}
	if st := m.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
	if m.usedMB != 256 {
		t.Fatalf("used %d MB after eviction, want 256", m.usedMB)
	}
}

// TestOvercommitWhenAllBusy: running containers are never evicted; a
// cold start beyond capacity overcommits and records the excess.
func TestOvercommitWhenAllBusy(t *testing.T) {
	m := constMgr(t, Config{Policy: NewLRU(), MemoryMB: 128, ContainerMB: 128})
	m.Acquire(0, "a")
	m.Acquire(ms(1), "b") // no idle container to evict
	st := m.Stats()
	if m.usedMB != 256 || st.OvercommitMB != 128 {
		t.Fatalf("used %d MB, overcommit %d MB; want 256/128", m.usedMB, st.OvercommitMB)
	}
}

// TestHistogramKeepsPeriodicAppWarm: after histMinSamples arrivals with
// a stable period, HIST must hold the container across gaps a short
// fixed TTL would miss.
func TestHistogramKeepsPeriodicAppWarm(t *testing.T) {
	period := 30 * time.Second
	runPolicy := func(p Policy) Stats {
		m := constMgr(t, Config{Policy: p})
		at := simtime.Time(0)
		for i := 0; i < 20; i++ {
			_, c := m.Acquire(at, "periodic")
			m.Release(at+ms(50), c)
			at += period
		}
		return m.Stats()
	}
	hist := runPolicy(NewHistogram(time.Second))
	ttl := runPolicy(NewFixedTTL(time.Second))
	if ttl.WarmHits() != 0 {
		t.Fatalf("1s TTL should miss 30s-period arrivals, got %d warm hits", ttl.WarmHits())
	}
	// HIST needs histMinSamples IATs to learn; afterwards every arrival
	// must land warm (kept or pre-warmed).
	if hist.WarmHits() < 20-histMinSamples-2 {
		t.Fatalf("HIST warm hits %d, want >= %d (stats %+v)", hist.WarmHits(), 20-histMinSamples-2, hist)
	}
	if hist.Prewarms == 0 {
		t.Fatal("HIST should pre-warm for a 30s-period app")
	}
}

// TestHistogramLongGapPrewarm: for an app whose period exceeds the
// keep-alive cap (3 h vs the 1 h histKeepCap), the pre-warm instant
// must still land before the arrival with a usable resident window —
// the regression where PrewarmFor went negative and pre-warmed
// containers expired the moment they materialized.
func TestHistogramLongGapPrewarm(t *testing.T) {
	m := constMgr(t, Config{Policy: NewHistogram(time.Second)})
	period := 3 * time.Hour
	at := simtime.Time(0)
	for i := 0; i < 10; i++ {
		_, c := m.Acquire(at, "cron3h")
		m.Release(at+ms(50), c)
		at += period
	}
	st := m.Stats()
	if st.Prewarms == 0 {
		t.Fatalf("no pre-warms materialized for a 3h-period app: %+v", st)
	}
	if st.PrewarmHits == 0 {
		t.Fatalf("pre-warmed containers never served an arrival: %+v", st)
	}
	if st.WarmHits() < 10-histMinSamples-2 {
		t.Fatalf("warm hits %d, want >= %d (stats %+v)", st.WarmHits(), 10-histMinSamples-2, st)
	}
}

// TestPrewarmDedupe: only one pre-warm may be pending per app, however
// many containers are released.
func TestPrewarmDedupe(t *testing.T) {
	p := NewHistogram(time.Second)
	m := constMgr(t, Config{Policy: p})
	// Teach the histogram a 30s period.
	at := simtime.Time(0)
	for i := 0; i < histMinSamples+1; i++ {
		_, c := m.Acquire(at, "x")
		m.Release(at+ms(10), c)
		at += 30 * time.Second
	}
	// Two concurrent containers released back to back must not schedule
	// two pre-warms.
	_, c1 := m.Acquire(at, "x")
	_, c2 := m.Acquire(at+ms(1), "x")
	m.Release(at+ms(20), c1)
	m.Release(at+ms(21), c2)
	if n := pendingPrewarms(m); n > 1 {
		t.Fatalf("%d pending pre-warms for one app, want <= 1", n)
	}
}

// pendingPrewarms counts the manager's armed pre-warms.
func pendingPrewarms(m *Manager) int {
	n := 0
	for _, p := range m.prewarms {
		if p.armed {
			n++
		}
	}
	return n
}

// TestDeterministicReplay: two managers with the same seed and the same
// call sequence must report identical stats and sample identical
// cold-start latencies.
func TestDeterministicReplay(t *testing.T) {
	mk := func() *Manager {
		m, err := New(Config{Policy: NewHistogram(0), MemoryMB: 512, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(m *Manager) ([]time.Duration, Stats) {
		var lats []time.Duration
		apps := []string{"a", "b", "a", "c", "a", "b", "a", "a", "c", "b"}
		var held []*Container
		at := simtime.Time(0)
		for i, app := range apps {
			d, c := m.Acquire(at, app)
			lats = append(lats, d)
			held = append(held, c)
			if i%2 == 1 {
				m.Release(at+ms(30), held[i-1])
				m.Release(at+ms(40), held[i])
			}
			at += ms(750)
		}
		return lats, m.Stats()
	}
	l1, s1 := run(mk())
	l2, s2 := run(mk())
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("latency %d diverged: %v vs %v", i, l1[i], l2[i])
		}
	}
}

// TestNewValidation: nonsense configs must be rejected with a clear
// error; defaults must fill zero values.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{MemoryMB: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := New(Config{ContainerMB: -1}); err == nil {
		t.Fatal("negative footprint accepted")
	}
	if _, err := New(Config{MemoryMB: 64}); err == nil {
		t.Fatal("capacity below one container accepted")
	}
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy().Name() != "TTL" {
		t.Fatalf("default policy %s, want TTL", m.Policy().Name())
	}
}

// TestReuseRemovesExpiry: reusing a warm container takes its pending
// expiry out of the queue at once, and removed events are recycled, so
// a container reused over and over keeps one event queued and a reuse
// cycle allocates nothing.
func TestReuseRemovesExpiry(t *testing.T) {
	m := constMgr(t, Config{Policy: NewFixedTTL(ms(100))})
	now := simtime.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		_, c := m.Acquire(now, "a")
		m.Release(now, c)
		if n := m.events.Len(); n != 1 {
			t.Fatalf("reuse at %v: %d events queued, want the container's one expiry", now, n)
		}
		now += ms(1)
	})
	if allocs != 0 {
		t.Fatalf("a reuse cycle allocates %v objects, want none", allocs)
	}
	m.AdvanceTo(now + ms(1000))
	if st := m.Stats(); st.ColdStarts != 1 || st.Expirations != 1 || m.events.Len() != 0 {
		t.Fatalf("stats %+v with %d events queued, want one cold start, one expiry and an empty queue", st, m.events.Len())
	}
}

// TestAcquireBehindClockFiresNothing: a stream that steps back in time
// (TRIGGER's merged arrivals do) acquires behind the manager's clock.
// Nothing fires and the clock stays where it is, and a container
// released behind the clock keeps its window from its own release
// instant when that window reaches past the clock.
func TestAcquireBehindClockFiresNothing(t *testing.T) {
	m := constMgr(t, Config{Policy: NewFixedTTL(ms(50))})
	_, a := m.Acquire(0, "a")
	m.Release(ms(100), a) // expires at 150 ms
	m.AdvanceTo(ms(120))
	d, b := m.Acquire(ms(90), "b")
	if d != ms(250) || m.WarmIdle("a") != 1 || m.events.Now() != ms(120) {
		t.Fatalf("acquire behind the clock: delay %v, %d warm a, clock %v; want cold, 1, 120ms",
			d, m.WarmIdle("a"), m.events.Now())
	}
	m.Release(ms(95), b) // expires at 145 ms
	if b.idleSince != ms(95) || m.events.Len() != 2 {
		t.Fatalf("released behind the clock: idle since %v with %d events queued, want 95ms and 2",
			b.idleSince, m.events.Len())
	}
	for _, step := range []struct {
		at       simtime.Time
		warmA    int
		warmB    int
		expiries int
	}{{ms(144), 1, 1, 0}, {ms(145), 1, 0, 1}, {ms(149), 1, 0, 1}, {ms(150), 0, 0, 2}} {
		m.AdvanceTo(step.at)
		if m.WarmIdle("a") != step.warmA || m.WarmIdle("b") != step.warmB || m.Stats().Expirations != step.expiries {
			t.Fatalf("at %v: %d warm a, %d warm b, %d expirations; want %d, %d, %d", step.at,
				m.WarmIdle("a"), m.WarmIdle("b"), m.Stats().Expirations, step.warmA, step.warmB, step.expiries)
		}
	}
}

// TestPrewarmRearmAllocatesNothing: an app's pre-warm record is built
// once and re-armed in place, and destroyed containers are recycled, so
// a cycle of cold start, release, pre-warm and expiries allocates
// nothing once warmed up.
func TestPrewarmRearmAllocatesNothing(t *testing.T) {
	m := constMgr(t, Config{Policy: scriptPolicy{
		"a": {KeepWarm: ms(3), PrewarmIn: ms(1), PrewarmFor: ms(1)},
	}})
	now := simtime.Time(0)
	runs := 0
	allocs := testing.AllocsPerRun(100, func() {
		// The last cycle's container expired at its 3 ms mark, so this
		// is a cold start into a recycled container.
		d, c := m.Acquire(now, "a")
		if d == 0 {
			t.Fatalf("acquire at %v was warm, want a cold start", now)
		}
		m.Release(now, c)
		if n := pendingPrewarms(m); n != 1 {
			t.Fatalf("release at %v left %d pre-warms pending, want 1", now, n)
		}
		// The pre-warm lands at 1 ms and expires unused at 2 ms.
		m.AdvanceTo(now + ms(2))
		if n := pendingPrewarms(m); n != 0 || m.WarmIdle("a") != 1 || m.events.Len() != 1 {
			t.Fatalf("at %v: %d pre-warms pending, %d warm, %d events queued; want 0, 1, 1",
				now+ms(2), n, m.WarmIdle("a"), m.events.Len())
		}
		now += ms(10)
		runs++
	})
	if allocs != 0 {
		t.Fatalf("a pre-warm cycle allocates %v objects, want none", allocs)
	}
	if st := m.Stats(); st.ColdStarts != runs || st.Prewarms != runs || st.Expirations != 2*runs-1 || st.PrewarmHits != 0 {
		t.Fatalf("stats %+v after %d cycles, want %d cold starts and pre-warms, %d expirations, no pre-warm hit",
			st, runs, runs, 2*runs-1)
	}
}

// scriptPolicy answers every release of an app with a fixed decision.
type scriptPolicy map[string]Decision

func (scriptPolicy) Name() string                                    { return "script" }
func (scriptPolicy) OnArrival(simtime.Time, string)                  {}
func (p scriptPolicy) OnRelease(_ simtime.Time, app string) Decision { return p[app] }

// TestRecycledContainerStartsClean: a destroyed container is reused by
// the next cold start or pre-warm and carries nothing over from its
// previous life: not its app, idle time, expiry, pre-warm mark or
// death.
func TestRecycledContainerStartsClean(t *testing.T) {
	m := constMgr(t, Config{Policy: scriptPolicy{
		"a": {KeepWarm: ms(100), PrewarmIn: ms(50), PrewarmFor: ms(30)},
		"b": {KeepWarm: 0, PrewarmIn: ms(20), PrewarmFor: ms(40)},
	}})
	_, c1 := m.Acquire(0, "a")
	m.Release(ms(10), c1)
	// A pre-warmed "a" container appears at 60 ms and expires at 90 ms;
	// c1 expires at 110 ms.
	m.AdvanceTo(ms(200))
	if st := m.Stats(); st.Prewarms != 1 || st.Expirations != 2 {
		t.Fatalf("stats %+v, want one pre-warm and two expirations", st)
	}

	_, c2 := m.Acquire(ms(200), "b")
	if c2 != c1 {
		t.Fatal("a cold start did not reuse the last destroyed container")
	}
	if want := (containerState{App: "b", mb: DefaultContainerMB, busy: true}); stateOf(c2) != want {
		t.Fatalf("reused container %+v, want %+v", stateOf(c2), want)
	}

	// "b" is discarded at release and pre-warmed at 230 ms, into the
	// container it was just discarded from.
	m.Release(ms(210), c2)
	m.AdvanceTo(ms(230))
	if m.WarmIdle("b") != 1 || m.idle["b"][0] != c2 {
		t.Fatal("the pre-warm did not reuse the discarded container")
	}
	// Its expiry is the only event queued.
	if c2.App != "b" || !c2.Prewarmed || c2.busy || c2.dead || c2.idleSince != ms(230) ||
		c2.expires == (simtime.EventRef{}) || c2.expires.Cancelled() ||
		m.events.Len() != 1 || m.events.PeekTime() != ms(270) {
		t.Fatalf("pre-warmed container %+v, want idle since 230ms, expiring at 270ms", stateOf(c2))
	}

	// The pre-warmed "a" container that expired unused is the next one
	// out, and is no longer marked pre-warmed.
	_, c3 := m.Acquire(ms(240), "z")
	if c3 == c1 || c3 == c2 {
		t.Fatal("a live container was handed out again")
	}
	if want := (containerState{App: "z", mb: DefaultContainerMB, busy: true}); stateOf(c3) != want {
		t.Fatalf("reused container %+v, want %+v", stateOf(c3), want)
	}
	if st := m.Stats(); st.ColdStarts != 3 || st.PrewarmHits != 0 || st.Discards != 1 {
		t.Fatalf("stats %+v, want three cold starts, one discard and no pre-warm hit", st)
	}
}

// containerState is a Container's state apart from its expiry
// callback, which a container keeps across lives.
type containerState struct {
	App                   string
	Prewarmed, busy, dead bool
	mb                    int
	idleSince             simtime.Time
	expires               simtime.EventRef
}

func stateOf(c *Container) containerState {
	return containerState{App: c.App, Prewarmed: c.Prewarmed, busy: c.busy, dead: c.dead,
		mb: c.mb, idleSince: c.idleSince, expires: c.expires}
}

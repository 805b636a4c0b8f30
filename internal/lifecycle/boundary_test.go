package lifecycle

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/simtime"
)

// TestExpiryInstantBoundary: the keep-alive window is half-open
// [release, release+keep): an arrival strictly inside is warm, an
// arrival exactly at the expiry instant is cold (the expiry event fires
// before same-instant acquires, matching the manager's at <= now event
// discipline).
func TestExpiryInstantBoundary(t *testing.T) {
	cases := []struct {
		name    string
		acquire simtime.Time
		warm    bool
	}{
		{"just-inside", ms(10) + ms(100) - 1, true},
		{"exactly-at-expiry", ms(10) + ms(100), false},
		{"just-past", ms(10) + ms(100) + 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := constMgr(t, Config{Policy: NewFixedTTL(ms(100))})
			_, ct := m.Acquire(0, "fib")
			m.Release(ms(10), ct)
			d, _ := m.Acquire(c.acquire, "fib")
			if got := d == 0; got != c.warm {
				t.Fatalf("acquire at %v: warm=%v, want %v", c.acquire, got, c.warm)
			}
		})
	}
}

// TestTTLBoundaryConfigs: non-positive TTL values take the documented
// DefaultTTL rather than expiring instantly (or panicking), through
// both the constructor and the registry path.
func TestTTLBoundaryConfigs(t *testing.T) {
	for _, ttl := range []time.Duration{0, -time.Second} {
		m := constMgr(t, Config{Policy: NewFixedTTL(ttl)})
		_, c := m.Acquire(0, "fib")
		m.Release(ms(10), c)
		// DefaultTTL is 10 minutes: an arrival a minute later is warm.
		if d, _ := m.Acquire(simtime.Time(time.Minute), "fib"); d != 0 {
			t.Fatalf("ttl=%v: arrival inside DefaultTTL was cold", ttl)
		}
	}
	p, err := NewPolicy("TTL", PolicyConfig{TTL: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.OnRelease(0, "fib"); d.KeepWarm != DefaultTTL {
		t.Fatalf("registry TTL=0 keep-warm %v, want DefaultTTL", d.KeepWarm)
	}
}

// TestMemoryCapacityBoundaries: MemoryMB == 0 means unlimited (never an
// eviction), capacity exactly one container is legal (the busy
// container overcommits a concurrent second app), and capacity below
// one container is rejected at construction.
func TestMemoryCapacityBoundaries(t *testing.T) {
	// Unlimited: hundreds of idle containers, zero evictions.
	m := constMgr(t, Config{Policy: NewLRU(), MemoryMB: 0})
	at := simtime.Time(0)
	for i := 0; i < 100; i++ {
		_, c := m.Acquire(at, string(rune('a'+i%26))+"x")
		m.Release(at+ms(1), c)
		at += ms(2)
	}
	if st := m.Stats(); st.Evictions != 0 || st.Expirations != 0 {
		t.Fatalf("unlimited capacity evicted/expired: %+v", st)
	}

	// Exactly one container of capacity.
	m = constMgr(t, Config{Policy: NewLRU(), MemoryMB: DefaultContainerMB})
	_, c1 := m.Acquire(0, "a")
	_, c2 := m.Acquire(ms(1), "b") // c1 busy: cannot evict, must overcommit
	if st := m.Stats(); st.OvercommitMB != DefaultContainerMB {
		t.Fatalf("overcommit %d MB, want %d", st.OvercommitMB, DefaultContainerMB)
	}
	m.Release(ms(2), c1)
	m.Release(ms(3), c2)
	// A third app's cold start now evicts idle LRU containers back under
	// capacity.
	m.Acquire(ms(4), "c")
	if m.usedMB != DefaultContainerMB {
		t.Fatalf("used %d MB after eviction, want %d", m.usedMB, DefaultContainerMB)
	}

	// One MB short of a container is rejected.
	if _, err := New(Config{MemoryMB: DefaultContainerMB - 1}); err == nil {
		t.Fatal("capacity below one container accepted")
	}
}

// TestPrewarmAtExpiryInstant: a pre-warm event and an expiry event at
// the same instant fire in scheduling order (expiry first — it was
// armed at the same Release that scheduled the pre-warm), and an
// arrival at exactly the pre-warm instant finds the container warm —
// pre-warms never fire late.
func TestPrewarmAtExpiryInstant(t *testing.T) {
	m := constMgr(t, Config{Policy: NewHistogram(time.Second)})
	// Teach a 30s period so the histogram schedules pre-warms.
	period := 30 * time.Second
	at := simtime.Time(0)
	var rel simtime.Time
	for i := 0; i < histMinSamples+1; i++ {
		_, c := m.Acquire(at, "cron")
		rel = at + ms(20)
		m.Release(rel, c)
		at += period
	}
	if n := pendingPrewarms(m); n != 1 {
		t.Fatalf("%d pending pre-warms, want 1", n)
	}
	prewarmAt := rel + m.Policy().OnRelease(rel, "cron").PrewarmIn
	if prewarmAt <= rel {
		t.Fatalf("pre-warm at %v not after release %v", prewarmAt, rel)
	}
	m.AdvanceTo(prewarmAt - 1)
	if n := pendingPrewarms(m); n != 1 {
		t.Fatalf("%d pending pre-warms just before %v, want 1", n, prewarmAt)
	}
	// Acquire exactly at the pre-warm instant: the event fires first
	// (at <= now), so this is a warm, pre-warmed hit.
	d, _ := m.Acquire(prewarmAt, "cron")
	if d != 0 {
		t.Fatalf("arrival exactly at the pre-warm instant was cold (delay %v)", d)
	}
	if st := m.Stats(); st.PrewarmHits == 0 {
		t.Fatalf("pre-warm hit not recorded: %+v", st)
	}
}

// TestHistogramFloorRule: the fallback window is a floor HIST only ever
// extends. In particular, an app whose predicted gap lies beyond the
// pre-warm threshold but *inside* the fallback window must keep the
// full fallback window (the old grace-period cut discarded after 1s,
// making HIST colder than the TTL policy it hybridizes).
func TestHistogramFloorRule(t *testing.T) {
	fallback := 2 * time.Minute
	p := NewHistogram(fallback)
	at := simtime.Time(0)
	period := 30 * time.Second // > histPrewarmMin, < fallback
	for i := 0; i < histMinSamples+2; i++ {
		p.OnArrival(at, "app")
		at += period
	}
	d := p.OnRelease(at, "app")
	if d.KeepWarm < fallback {
		t.Fatalf("keep-warm %v below the %v floor", d.KeepWarm, fallback)
	}
	if d.PrewarmIn != 0 {
		t.Fatalf("pre-warm scheduled inside the floor window (in %v)", d.PrewarmIn)
	}

	// Beyond the floor, prediction engages — but the container still
	// idles at least the floor before going cold.
	pLong := NewHistogram(time.Second)
	at = 0
	for i := 0; i < histMinSamples+2; i++ {
		pLong.OnArrival(at, "cron")
		at += 30 * time.Second
	}
	d = pLong.OnRelease(at, "cron")
	if d.PrewarmIn == 0 {
		t.Fatal("no pre-warm for a 30s-period app with a 1s floor")
	}
	if d.KeepWarm < time.Second {
		t.Fatalf("pre-warm branch keep-warm %v below the 1s floor", d.KeepWarm)
	}

	// A fallback beyond histKeepCap is a user decision the cap must not
	// cut: the floor rule outranks the prediction cap on every path.
	pHuge := NewHistogram(2 * time.Hour)
	at = 0
	for i := 0; i < histMinSamples+2; i++ {
		pHuge.OnArrival(at, "rare")
		at += 30 * time.Second
	}
	if d := pHuge.OnRelease(at, "rare"); d.KeepWarm < 2*time.Hour {
		t.Fatalf("keep-warm %v below the configured 2h floor (histKeepCap must not cut it)", d.KeepWarm)
	}
}

package lifecycle

import (
	"testing"

	"github.com/serverless-sched/sfs/internal/simtime"
)

// scriptDecision decodes one app's keep-alive decision from 16 bits:
// the low two pick a discard, a 1–32 ms window or KeepForever, bit 7 a
// pre-warm 1–16 ms after release, and the top four the pre-warmed
// container's window (0 takes DefaultTTL).
func scriptDecision(d uint16) Decision {
	var dec Decision
	switch d & 3 {
	case 1, 2:
		dec.KeepWarm = ms(1 + int(d>>2&31))
	case 3:
		dec.KeepWarm = KeepForever
	}
	if d&0x80 != 0 {
		dec.PrewarmIn = ms(1 + int(d>>8&15))
	}
	dec.PrewarmFor = ms(2 * int(d>>12))
	return dec
}

// timeline is what a script knows without reading the manager's
// queue: the containers it holds busy, what its acquires returned, and
// when each app's pre-warm is due (0 when none was armed).
type timeline struct {
	policy     scriptPolicy
	memoryMB   int
	held       []*Container
	acquires   int
	cold, warm int
	prewarmAt  map[string]simtime.Time
}

// check asserts the manager's bookkeeping right after a call at now.
func (tl *timeline) check(t *testing.T, m *Manager, now simtime.Time) {
	t.Helper()
	live := func(r simtime.EventRef) bool { return r != (simtime.EventRef{}) && !r.Cancelled() }
	containers, expiries := len(tl.held), 0
	for _, c := range tl.held {
		if !c.busy || live(c.expires) {
			t.Fatalf("at %v: held container %+v is not busy or still expires", now, stateOf(c))
		}
	}
	for app, pool := range m.idle {
		containers += len(pool)
		for _, c := range pool {
			keep := tl.policy[app].KeepWarm
			if c.Prewarmed {
				if keep = tl.policy[app].PrewarmFor; keep == 0 {
					keep = DefaultTTL
				}
			}
			switch {
			case keep == 0:
				t.Fatalf("at %v: idle %s container under a discarding policy", now, app)
			case keep == KeepForever:
				if live(c.expires) {
					t.Fatalf("at %v: kept-forever %s container has an expiry", now, app)
				}
			case now >= c.idleSince+keep:
				t.Fatalf("at %v: %s container idle since %v outlived its %v window", now, app, c.idleSince, keep)
			case !live(c.expires):
				t.Fatalf("at %v: idle %s container has no pending expiry", now, app)
			default:
				expiries++
			}
		}
	}
	if m.usedMB != containers*DefaultContainerMB {
		t.Fatalf("at %v: %d MB used, want %d containers' worth", now, m.usedMB, containers)
	}
	if tl.memoryMB > 0 && m.usedMB-tl.memoryMB > m.stats.OvercommitMB {
		t.Fatalf("at %v: %d MB used over a %d MB budget, recorded overcommit %d MB", now, m.usedMB, tl.memoryMB, m.stats.OvercommitMB)
	}
	prewarms := 0
	for app, at := range tl.prewarmAt {
		p := m.prewarms[app]
		armed := p != nil && p.armed
		if want := at > now; armed != want {
			t.Fatalf("at %v: %s pre-warm armed %v, want %v (due %v)", now, app, armed, want, at)
		}
		if armed {
			prewarms++
		}
	}
	if n := pendingPrewarms(m); n != prewarms {
		t.Fatalf("at %v: %d pre-warms armed, want %d", now, n, prewarms)
	}
	if n := m.events.Len(); n != expiries+prewarms {
		t.Fatalf("at %v: %d events queued, want %d expiries and %d pre-warms", now, n, expiries, prewarms)
	}
	st := m.Stats()
	if st.Invocations != tl.acquires || st.ColdStarts != tl.cold || st.Invocations != st.ColdStarts+tl.warm {
		t.Fatalf("at %v: stats %+v, want %d invocations: %d cold, %d warm", now, st, tl.acquires, tl.cold, tl.warm)
	}
}

// FuzzManagerTimeline runs arbitrary scripts of Acquire, Release and
// AdvanceTo at non-decreasing instants and checks the manager's
// bookkeeping after every call. shape picks one to four apps and a
// memory budget (unlimited, or room for one to four containers);
// decisions holds each app's scripted keep-alive decision in 16 bits
// (see scriptDecision); each pair of script bytes is a call, its time
// step of 0–15 ms in the first byte's high nibble.
func FuzzManagerTimeline(f *testing.F) {
	f.Add(uint8(0), uint64(0x0ffd), []byte{0, 0, 0, 0, 0x12, 0, 0x10, 0, 0x12, 0, 0x12, 0, 0xf3, 0, 0xf3, 0, 0x23, 0})
	f.Add(uint8(0x0b), uint64(0x3f86_6083_4f02_1f81), []byte{0, 0, 0, 1, 0, 2, 0x11, 0, 0x12, 1, 0x20, 3, 0x51, 0, 0x93, 0, 0x30, 0, 0xf3, 0, 0x10, 1})
	f.Add(uint8(0x07), uint64(0x5083_0003_a081_2f82), []byte{0, 0, 0x10, 1, 0x20, 2, 0x01, 0, 0x31, 0, 0x12, 0, 0x40, 3, 0x70, 2, 0x83, 0, 0xe0, 1, 0x12, 0})
	f.Fuzz(func(t *testing.T, shape uint8, decisions uint64, script []byte) {
		apps := []string{"a", "b", "c", "d"}[:1+shape%4]
		tl := &timeline{
			policy:    scriptPolicy{},
			memoryMB:  int(shape>>2%5) * DefaultContainerMB,
			prewarmAt: map[string]simtime.Time{},
		}
		for i, app := range apps {
			tl.policy[app] = scriptDecision(uint16(decisions >> (16 * i)))
		}
		m := constMgr(t, Config{Policy: tl.policy, MemoryMB: tl.memoryMB})
		now := simtime.Time(0)
		for n := 0; len(script) >= 2 && n < 500; n++ {
			b, arg := script[0], int(script[1])
			script = script[2:]
			now += ms(int(b >> 4))
			op := b & 3
			if op == 1 && len(tl.held) == 0 {
				op = 0
			}
			if op == 2 && len(tl.held) == 0 {
				op = 3
			}
			switch op {
			case 0:
				d, c := m.Acquire(now, apps[arg%len(apps)])
				tl.acquires++
				if d > 0 {
					tl.cold++
				} else {
					tl.warm++
				}
				tl.held = append(tl.held, c)
			case 1, 2:
				i := arg % len(tl.held)
				c := tl.held[i]
				tl.held = append(tl.held[:i], tl.held[i+1:]...)
				if d := tl.policy[c.App]; d.PrewarmIn > 0 && tl.prewarmAt[c.App] <= now {
					tl.prewarmAt[c.App] = now + d.PrewarmIn
				}
				m.Release(now, c)
			case 3:
				m.AdvanceTo(now)
			}
			tl.check(t, m, now)
		}
	})
}

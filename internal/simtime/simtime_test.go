package simtime

import (
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
)

// runAll steps q until it drains and returns how many events fired.
func runAll(q *Queue) int {
	n := 0
	for q.Step() {
		n++
	}
	return n
}

func TestFiringOrder(t *testing.T) {
	q := &Queue{}
	var got []int
	q.At(30*time.Millisecond, func(Time) { got = append(got, 3) })
	q.At(10*time.Millisecond, func(Time) { got = append(got, 1) })
	q.At(20*time.Millisecond, func(Time) { got = append(got, 2) })
	if n := runAll(q); n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order %v", got)
		}
	}
	if q.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", q.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	q := &Queue{}
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(time.Millisecond, func(Time) { got = append(got, i) })
	}
	runAll(q)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	q := &Queue{}
	var at Time
	q.After(5*time.Millisecond, func(now Time) {
		q.After(7*time.Millisecond, func(now2 Time) { at = now2 })
	})
	runAll(q)
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	q := &Queue{}
	var fired Time = -1
	q.After(10*time.Millisecond, func(now Time) {
		q.At(now-5*time.Millisecond, func(at Time) { fired = at })
	})
	runAll(q)
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	q := &Queue{}
	fired := false
	q.After(-time.Second, func(Time) { fired = true })
	runAll(q)
	if !fired || q.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, q.Now())
	}
}

func TestCancel(t *testing.T) {
	q := &Queue{}
	fired := 0
	e1 := q.After(time.Millisecond, func(Time) { fired++ })
	q.After(2*time.Millisecond, func(Time) { fired++ })
	q.Cancel(e1)
	if !e1.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	if q.Len() != 1 {
		t.Fatalf("%d events pending after the cancel, want 1", q.Len())
	}
	runAll(q)
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
}

func TestCancelNilAndDouble(t *testing.T) {
	q := &Queue{}
	q.Cancel(EventRef{}) // must not panic
	e := q.After(time.Millisecond, func(Time) {})
	q.Cancel(e)
	q.Cancel(e) // double cancel must not panic
	runAll(q)
}

func TestCancelFromWithinEvent(t *testing.T) {
	q := &Queue{}
	fired := false
	var victim EventRef
	q.After(time.Millisecond, func(Time) { q.Cancel(victim) })
	victim = q.After(2*time.Millisecond, func(Time) { fired = true })
	runAll(q)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunDeadline(t *testing.T) {
	q := &Queue{}
	fired := 0
	for i := 1; i <= 10; i++ {
		q.After(time.Duration(i)*time.Millisecond, func(Time) { fired++ })
	}
	n := q.Run(5 * time.Millisecond)
	if n != 5 || fired != 5 {
		t.Fatalf("Run(5ms) fired %d (%d), want 5", n, fired)
	}
	if q.Len() != 5 {
		t.Fatalf("pending %d, want 5", q.Len())
	}
	if q.Now() != 5*time.Millisecond {
		t.Fatalf("clock %v, want 5ms", q.Now())
	}
}

func TestPeekTime(t *testing.T) {
	q := &Queue{}
	if q.PeekTime() != Infinity {
		t.Fatal("empty queue PeekTime should be Infinity")
	}
	q.After(3*time.Millisecond, func(Time) {})
	if q.PeekTime() != 3*time.Millisecond {
		t.Fatalf("PeekTime %v, want 3ms", q.PeekTime())
	}
}

// TestHeapStress randomly schedules, cancels and steps events against
// a reference model: the pending events sorted by (time, scheduling
// order). Each Step must fire the model's head, no cancelled event may
// ever fire, every other event must fire exactly once, and PeekTime
// must equal the model's head time after every op.
func TestHeapStress(t *testing.T) {
	type event struct {
		at  Time
		id  int // scheduling order
		ref EventRef
	}
	q := &Queue{}
	r := rng.New(7)
	var (
		all       []event // every event ever scheduled, by id
		pending   []event // the model: sorted by (at, id)
		fired     []int   // ids in firing order
		cancelled = map[int]bool{}
	)
	schedule := func(d Time) {
		id := len(all)
		e := event{at: q.Now() + d, id: id}
		e.ref = q.After(d, func(Time) { fired = append(fired, id) })
		all = append(all, e)
		i := sort.Search(len(pending), func(i int) bool {
			p := pending[i]
			return p.at > e.at || p.at == e.at && p.id > e.id
		})
		pending = slices.Insert(pending, i, e)
	}
	checkPeek := func(op int) {
		want := Infinity
		if len(pending) > 0 {
			want = pending[0].at
		}
		if got := q.PeekTime(); got != want {
			t.Fatalf("op %d: PeekTime %v, model head %v", op, got, want)
		}
		if q.Len() != len(pending) {
			t.Fatalf("op %d: %d pending, model %d", op, q.Len(), len(pending))
		}
	}
	for i := 0; i < 200; i++ {
		schedule(time.Duration(r.Intn(1000)) * time.Millisecond)
		checkPeek(i)
	}
	for op := 200; q.Len() > 0; op++ {
		switch r.Intn(4) {
		case 0:
			// Cancel any event ever scheduled: pending, fired or
			// already cancelled.
			e := all[r.Intn(len(all))]
			q.Cancel(e.ref)
			if i := slices.IndexFunc(pending, func(p event) bool { return p.id == e.id }); i >= 0 {
				pending = slices.Delete(pending, i, i+1)
				cancelled[e.id] = true
			}
		case 1:
			if len(all) < 1000 {
				// Small delays collide often, exercising the FIFO
				// tie-break among same-instant events.
				schedule(time.Duration(r.Intn(50)) * time.Millisecond)
			}
		default:
			n := len(fired)
			q.Step()
			if len(pending) == 0 {
				if len(fired) != n {
					t.Fatalf("op %d: an event fired from an empty model", op)
				}
				break
			}
			head := pending[0]
			pending = pending[1:]
			if len(fired) != n+1 || fired[n] != head.id {
				t.Fatalf("op %d: fired %v, model head is event %d at %v", op, fired[n:], head.id, head.at)
			}
			if q.Now() != head.at {
				t.Fatalf("op %d: clock %v after firing event %d at %v", op, q.Now(), head.id, head.at)
			}
		}
		checkPeek(op)
	}
	count := make([]int, len(all))
	for _, id := range fired {
		count[id]++
	}
	for id, c := range count {
		switch {
		case cancelled[id] && c != 0:
			t.Fatalf("cancelled event %d fired", id)
		case !cancelled[id] && c != 1:
			t.Fatalf("event %d fired %d times, want 1", id, c)
		}
	}
	if len(cancelled) == 0 || len(fired) < len(all)/2 {
		t.Fatalf("%d of %d events fired, %d cancelled: the script must exercise both",
			len(fired), len(all), len(cancelled))
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	q := &Queue{}
	r := rng.New(9)
	for i := 0; i < 1024; i++ {
		q.After(time.Duration(r.Intn(1_000_000)), func(Time) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(time.Duration(r.Intn(1_000_000)), func(Time) {})
		q.Step()
	}
}

// TestEventRecycling: fired and cancelled event structs are reused by
// later schedules, and stale refs to their previous lives are inert.
func TestEventRecycling(t *testing.T) {
	q := &Queue{}
	first := q.After(time.Millisecond, func(Time) {})
	runAll(q)
	if !first.Cancelled() {
		t.Fatal("fired event's ref should report no longer pending")
	}

	// The struct backing `first` is now on the free list; the next
	// schedule reuses it. Cancelling the stale ref must not touch the
	// new event.
	fired := false
	second := q.After(time.Millisecond, func(Time) { fired = true })
	q.Cancel(first) // stale: different generation
	runAll(q)
	if !fired {
		t.Fatal("stale Cancel killed an unrelated recycled event")
	}
	_ = second

	// Same for a cancelled (never fired) event.
	third := q.After(time.Millisecond, func(Time) {})
	q.Cancel(third)
	fired = false
	fourth := q.After(time.Millisecond, func(Time) { fired = true })
	q.Cancel(third) // stale double-cancel on a recycled struct
	runAll(q)
	if !fired {
		t.Fatal("stale double-cancel killed a recycled event")
	}
	_ = fourth
}

// TestZeroEventRef: the zero ref is inert everywhere.
func TestZeroEventRef(t *testing.T) {
	q := &Queue{}
	var zero EventRef
	q.Cancel(zero) // must not panic
	if zero.Cancelled() {
		t.Fatal("zero ref must not report cancelled")
	}
}

// BenchmarkScheduleFireAllocs verifies the steady-state schedule/fire
// cycle runs allocation-free thanks to event recycling.
func BenchmarkScheduleFireAllocs(b *testing.B) {
	q := &Queue{}
	fn := func(Time) {}
	for i := 0; i < 64; i++ {
		q.After(time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(time.Duration(i%1000), fn)
		q.Step()
	}
}

// TestReservedSequenceKeepsItsPlace: an event scheduled later under a
// reserved sequence number fires where an At at the reservation would
// have put it, before same-instant events scheduled after it; Precedes
// compares a held (time, sequence) against the head, and Pass never
// moves the clock backwards.
func TestReservedSequenceKeepsItsPlace(t *testing.T) {
	q := &Queue{}
	var got []string
	held := q.Reserve()
	q.At(time.Millisecond, func(Time) { got = append(got, "after") })
	if q.Precedes(time.Millisecond, held+1) {
		t.Fatal("a later sequence at the head's instant must not precede it")
	}
	if !q.Precedes(time.Millisecond, held) {
		t.Fatal("the reserved sequence must precede a same-instant event scheduled after it")
	}
	q.AtSeq(time.Millisecond, held, func(Time) { got = append(got, "reserved") })
	runAll(q)
	if !slices.Equal(got, []string{"reserved", "after"}) {
		t.Fatalf("fired %v, want the reserved event first", got)
	}
	if !q.Precedes(0, 0) {
		t.Fatal("anything precedes an empty queue's head")
	}
	q.Pass(5 * time.Millisecond)
	q.Pass(2 * time.Millisecond)
	if q.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v after passing 5ms then 2ms, want 5ms", q.Now())
	}
}

// TestCancelInsideOwnCallback: while an event's callback runs, its ref
// already reports Cancelled (the struct is recycled before the call),
// and cancelling it there is a no-op that leaves the other pending
// events in place.
func TestCancelInsideOwnCallback(t *testing.T) {
	q := &Queue{}
	var self EventRef
	var got []int
	self = q.After(time.Millisecond, func(Time) {
		if !self.Cancelled() {
			t.Error("a firing event's ref must report Cancelled")
		}
		q.Cancel(self)
		got = append(got, 1)
	})
	q.After(2*time.Millisecond, func(Time) { got = append(got, 2) })
	q.After(3*time.Millisecond, func(Time) { got = append(got, 3) })
	if n := runAll(q); n != 3 || !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("fired %d events in order %v, want 1 2 3", n, got)
	}
}

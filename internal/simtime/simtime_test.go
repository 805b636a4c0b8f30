package simtime

import (
	"slices"
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

// appendInt is a handler recording its int payload in *got.
func appendInt(got *[]int) Handler {
	return func(_ Time, arg any) { *got = append(*got, arg.(int)) }
}

// nop is a handler that does nothing.
func nop(Time, any) {}

func TestFiringOrder(t *testing.T) {
	q := &Queue{}
	var got []int
	h := appendInt(&got)
	q.At(30*time.Millisecond, h, 3)
	q.At(10*time.Millisecond, h, 1)
	q.At(20*time.Millisecond, h, 2)
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
	h := appendInt(&got)
	for i := 0; i < 10; i++ {
		q.At(time.Millisecond, h, i)
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
	inner := func(now Time, _ any) { at = now }
	q.After(5*time.Millisecond, func(Time, any) { q.After(7*time.Millisecond, inner, nil) }, nil)
	runAll(q)
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	q := &Queue{}
	var fired Time = -1
	past := func(at Time, _ any) { fired = at }
	q.After(10*time.Millisecond, func(now Time, _ any) {
		q.At(now-5*time.Millisecond, past, nil)
	}, nil)
	runAll(q)
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	q := &Queue{}
	fired := false
	q.After(-time.Second, func(Time, any) { fired = true }, nil)
	runAll(q)
	if !fired || q.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, q.Now())
	}
}

func TestCancel(t *testing.T) {
	q := &Queue{}
	fired := 0
	count := func(Time, any) { fired++ }
	e1 := q.After(time.Millisecond, count, nil)
	q.After(2*time.Millisecond, count, nil)
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
	e := q.After(time.Millisecond, nop, nil)
	q.Cancel(e)
	q.Cancel(e) // double cancel must not panic
	runAll(q)
}

func TestCancelFromWithinEvent(t *testing.T) {
	q := &Queue{}
	fired := false
	var victim EventRef
	q.After(time.Millisecond, func(Time, any) { q.Cancel(victim) }, nil)
	victim = q.After(2*time.Millisecond, func(Time, any) { fired = true }, nil)
	runAll(q)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunDeadline(t *testing.T) {
	q := &Queue{}
	fired := 0
	count := func(Time, any) { fired++ }
	for i := 1; i <= 10; i++ {
		q.After(time.Duration(i)*time.Millisecond, count, nil)
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
	q.After(3*time.Millisecond, nop, nil)
	if q.PeekTime() != 3*time.Millisecond {
		t.Fatalf("PeekTime %v, want 3ms", q.PeekTime())
	}
}

// TestHeapStress runs a seeded random script of every queue operation
// against the (time, sequence) model of runQueueScript: 200 events, then
// a mix of cancels (of pending, fired and recycled refs), schedules,
// reservations, steps and runs, then a drain. Each Step must fire the
// model's head with its own payload, no cancelled event may ever fire,
// every other event must fire exactly once, and PeekTime and Len must
// match the model after every op.
func TestHeapStress(t *testing.T) {
	fired, cancelled, scheduled := runQueueScript(t, heapStressScript())
	t.Logf("%d of %d events fired, %d cancelled", fired, scheduled, cancelled)
	if cancelled == 0 || fired < scheduled/2 {
		t.Fatalf("%d of %d events fired, %d cancelled: the script must exercise both",
			fired, scheduled, cancelled)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	q := &Queue{}
	r := rng.New(9)
	for i := 0; i < 1024; i++ {
		q.After(time.Duration(r.Intn(1_000_000)), nop, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(time.Duration(r.Intn(1_000_000)), nop, nil)
		q.Step()
	}
}

// TestEventRecycling: fired and cancelled event structs are reused by
// later schedules, and stale refs to their previous lives are inert.
func TestEventRecycling(t *testing.T) {
	q := &Queue{}
	first := q.After(time.Millisecond, nop, nil)
	runAll(q)
	if !first.Cancelled() {
		t.Fatal("fired event's ref should report no longer pending")
	}

	// The struct backing `first` is now on the free list; the next
	// schedule reuses it. Cancelling the stale ref must not touch the
	// new event.
	fired := false
	mark := func(Time, any) { fired = true }
	second := q.After(time.Millisecond, mark, nil)
	q.Cancel(first) // stale: different generation
	runAll(q)
	if !fired {
		t.Fatal("stale Cancel killed an unrelated recycled event")
	}
	_ = second

	// Same for a cancelled (never fired) event.
	third := q.After(time.Millisecond, nop, nil)
	q.Cancel(third)
	fired = false
	fourth := q.After(time.Millisecond, mark, nil)
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
	for i := 0; i < 64; i++ {
		q.After(time.Duration(i), nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(time.Duration(i%1000), nop, nil)
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
	appendStr := func(_ Time, arg any) { got = append(got, arg.(string)) }
	held := q.Reserve()
	q.At(time.Millisecond, appendStr, "after")
	if q.Precedes(time.Millisecond, held+1) {
		t.Fatal("a later sequence at the head's instant must not precede it")
	}
	if !q.Precedes(time.Millisecond, held) {
		t.Fatal("the reserved sequence must precede a same-instant event scheduled after it")
	}
	q.AtSeq(time.Millisecond, held, appendStr, "reserved")
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
	h := appendInt(&got)
	self = q.After(time.Millisecond, func(now Time, arg any) {
		if !self.Cancelled() {
			t.Error("a firing event's ref must report Cancelled")
		}
		q.Cancel(self)
		h(now, arg)
	}, 1)
	q.After(2*time.Millisecond, h, 2)
	q.After(3*time.Millisecond, h, 3)
	if n := runAll(q); n != 3 || !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("fired %d events in order %v, want 1 2 3", n, got)
	}
}

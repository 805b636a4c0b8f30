package simtime

import (
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
)

// Queue script opcodes. A script is a byte string of ops, each an opcode
// byte (taken modulo numOps) followed by its argument bytes; a script
// that ends inside an op reads zeros. Delays and instants count
// milliseconds.
const (
	opAt       = iota // u16 instant: At, clamped when in the past
	opAfter           // i16 delay: After, a negative delay clamped to 0
	opReserve         // u16 delay: Reserve a sequence for an event at now+delay
	opAtSeq           // u8 index: AtSeq one of the held reservations
	opCancel          // u16 index: Cancel any event ever scheduled
	opStep            // Step
	opRun             // u16 delay: Run to now+delay
	opPass            // u8 index: Pass a held reservation if it precedes the head
	opPrecedes        // u8 mode: Precedes on a key near the head or a held one
	numOps
)

// scriptEvent is one event of a queue script: the model's copy of its
// key, its ref, and its fate. The event's payload is the scriptEvent
// itself, so a firing names the event it belongs to.
type scriptEvent struct {
	id    int
	at    Time
	seq   uint64
	ref   EventRef
	state int // evPending, evFired or evCancelled
}

const (
	evPending = iota
	evFired
	evCancelled
)

// held is a reservation the script keeps outside the queue.
type held struct {
	at  Time
	seq uint64
}

// firing is one handler call: the payload it got and the instant.
type firing struct {
	arg any
	now Time
}

// runQueueScript runs script against a Queue and a model of it — the
// pending events sorted by (time, sequence), the clock and the
// sequence counter — and fails t when they disagree. After every op it
// checks the events fired (which, in order, at what instant, with which
// payload), Now, PeekTime and Len, that every pending event's struct
// holds its payload and every fired or cancelled ref reports Cancelled,
// and that a fired or cancelled struct holds no handler and no payload
// unless the queue recycled it for an event still pending. The queue is
// drained at the end. It returns how many events fired, how many were
// cancelled and how many were scheduled.
func runQueueScript(t testing.TB, script []byte) (fired, cancelled, scheduled int) {
	t.Helper()
	q := &Queue{}
	var (
		all     []*scriptEvent
		pending []*scriptEvent // the model: sorted by (at, seq)
		holds   []held
		died    []*scriptEvent // fired or cancelled since the last check
		log     []firing
		now     Time
		seq     uint64
	)
	h := func(at Time, arg any) { log = append(log, firing{arg, at}) }
	pos := 0
	u8 := func() int {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int(script[pos-1])
	}
	u16 := func() int { lo := u8(); return lo | u8()<<8 }
	ms := func(v int) Time { return Time(v) * time.Millisecond }
	head := func() *scriptEvent {
		if len(pending) == 0 {
			return nil
		}
		return pending[0]
	}
	precedes := func(at Time, s uint64) bool {
		hd := head()
		return hd == nil || at < hd.at || at == hd.at && s < hd.seq
	}
	add := func(at Time, s uint64, ref func(ev *scriptEvent) EventRef) {
		ev := &scriptEvent{id: len(all), at: max(at, now), seq: s}
		ev.ref = ref(ev)
		all = append(all, ev)
		i := sort.Search(len(pending), func(i int) bool {
			p := pending[i]
			return p.at > ev.at || p.at == ev.at && p.seq > ev.seq
		})
		pending = slices.Insert(pending, i, ev)
	}
	// expectFired checks that the ops since the last check fired the
	// model's first k pending events, in order, each at its instant.
	expectFired := func(op, k int) {
		if len(log) != k {
			t.Fatalf("op %d: %d events fired, model fires %d", op, len(log), k)
		}
		for i, f := range log {
			ev := pending[i]
			if got, _ := f.arg.(*scriptEvent); got != ev || f.now != ev.at {
				t.Fatalf("op %d: firing %d got payload %v at %v, model fires event %d at %v",
					op, i, f.arg, f.now, ev.id, ev.at)
			}
			ev.state = evFired
			died = append(died, ev)
			now = ev.at
			fired++
		}
		pending = pending[k:]
		log = log[:0]
	}
	check := func(op int) {
		if len(log) > 0 {
			t.Fatalf("op %d: %d events fired outside Step and Run", op, len(log))
		}
		if q.Now() != now {
			t.Fatalf("op %d: clock %v, model %v", op, q.Now(), now)
		}
		if q.Len() != len(pending) {
			t.Fatalf("op %d: %d pending, model %d", op, q.Len(), len(pending))
		}
		want := Infinity
		if hd := head(); hd != nil {
			want = hd.at
		}
		if got := q.PeekTime(); got != want {
			t.Fatalf("op %d: PeekTime %v, model head %v", op, got, want)
		}
		for _, ev := range pending {
			if e := ev.ref.e; ev.ref.Cancelled() || e.arg != any(ev) || e.h == nil {
				t.Fatalf("op %d: pending event %d lost its struct (payload %v)", op, ev.id, e.arg)
			}
		}
		// A gone event's struct changes after this only when the queue
		// recycles it for a new event, which the pending check covers.
		for _, ev := range died {
			e := ev.ref.e
			if !ev.ref.Cancelled() {
				t.Fatalf("op %d: event %d is gone but its ref is live", op, ev.id)
			}
			if owner, ok := e.arg.(*scriptEvent); ok && owner.state == evPending && owner.ref.e == e {
				continue // recycled for a pending event
			}
			if e.arg != nil || e.h != nil {
				t.Fatalf("op %d: gone event %d's struct still holds payload %v", op, ev.id, e.arg)
			}
		}
		died = died[:0]
	}

	for op := 0; pos < len(script); op++ {
		switch int(script[pos]) % numOps {
		case opAt:
			pos++
			at := ms(u16())
			add(at, seq, func(ev *scriptEvent) EventRef { return q.At(at, h, ev) })
			seq++
		case opAfter:
			pos++
			d := ms(int(int16(u16())))
			add(now+max(d, 0), seq, func(ev *scriptEvent) EventRef { return q.After(d, h, ev) })
			seq++
		case opReserve:
			pos++
			at := now + ms(u16())
			if s := q.Reserve(); s != seq {
				t.Fatalf("op %d: Reserve took %d, model %d", op, s, seq)
			}
			holds = append(holds, held{at, seq})
			seq++
		case opAtSeq:
			pos++
			k := u8()
			if len(holds) == 0 {
				break
			}
			k %= len(holds)
			hd := holds[k]
			holds = slices.Delete(holds, k, k+1)
			add(hd.at, hd.seq, func(ev *scriptEvent) EventRef { return q.AtSeq(hd.at, hd.seq, h, ev) })
		case opCancel:
			pos++
			k := u16()
			if len(all) == 0 {
				break
			}
			ev := all[k%len(all)]
			q.Cancel(ev.ref)
			if ev.state == evPending {
				i := slices.Index(pending, ev)
				pending = slices.Delete(pending, i, i+1)
				ev.state = evCancelled
				died = append(died, ev)
				cancelled++
			}
		case opStep:
			pos++
			if q.Step() != (len(pending) > 0) {
				t.Fatalf("op %d: Step's result disagrees with %d pending", op, len(pending))
			}
			expectFired(op, min(len(pending), 1))
		case opRun:
			pos++
			deadline := now + ms(u16())
			k := 0
			for k < len(pending) && pending[k].at <= deadline {
				k++
			}
			if n := q.Run(deadline); n != k {
				t.Fatalf("op %d: Run(%v) fired %d, model %d", op, deadline, n, k)
			}
			expectFired(op, k)
			now = max(now, deadline)
		case opPass:
			pos++
			k := u8()
			if len(holds) == 0 {
				break
			}
			k %= len(holds)
			hd := holds[k]
			pre := precedes(hd.at, hd.seq)
			if q.Precedes(hd.at, hd.seq) != pre {
				t.Fatalf("op %d: Precedes(%v, %d) = %v, model %v", op, hd.at, hd.seq, !pre, pre)
			}
			if pre {
				q.Pass(hd.at)
				now = max(now, hd.at)
				holds = slices.Delete(holds, k, k+1)
			}
		case opPrecedes:
			pos++
			mode := u8()
			at, s := now, seq
			if hd := head(); hd != nil {
				// The head's own key, and keys a sequence or an
				// instant to either side of it.
				at, s = hd.at, hd.seq
				switch mode % 5 {
				case 1:
					s++
				case 2:
					if s > 0 {
						s--
					}
				case 3:
					at--
				case 4:
					at++
				}
			}
			if len(holds) > 0 && mode >= 128 {
				hd := holds[mode%len(holds)]
				at, s = hd.at, hd.seq
			}
			if got, want := q.Precedes(at, s), precedes(at, s); got != want {
				t.Fatalf("op %d: Precedes(%v, %d) = %v, model %v", op, at, s, got, want)
			}
		}
		check(op)
	}
	for op := -1; q.Len() > 0; op-- {
		q.Step()
		expectFired(op, 1)
		check(op)
	}
	return fired, cancelled, len(all)
}

// heapStressScript is TestHeapStress's script: 200 events up to a
// second out, then 3,000 ops drawn from rng seed 7 — a quarter cancels
// of any event ever scheduled, schedules with small delays that collide
// often (exercising the FIFO tie-break) while fewer than 1,000 events
// exist, reservations and their AtSeq, Pass and Precedes, runs, and
// steps for the rest.
func heapStressScript() []byte {
	r := rng.New(7)
	var s []byte
	u16 := func(v int) []byte { return []byte{byte(v), byte(v >> 8)} }
	for i := 0; i < 200; i++ {
		s = append(append(s, opAfter), u16(r.Intn(1000))...)
	}
	events := 200
	for i := 0; i < 3000; i++ {
		switch k := r.Intn(16); {
		case k < 4:
			s = append(append(s, opCancel), u16(r.Intn(events))...)
		case k < 7 && events < 1000:
			s = append(append(s, opAfter), u16(r.Intn(50))...)
			events++
		case k == 7 && events < 1000:
			s = append(append(s, opAt), u16(r.Intn(2000))...)
			events++
		case k == 8:
			s = append(append(s, opReserve), u16(r.Intn(50))...)
		case k == 9 && events < 1000:
			s = append(s, opAtSeq, byte(r.Intn(256)))
			events++
		case k == 10:
			s = append(s, opPass, byte(r.Intn(256)))
		case k == 11:
			s = append(s, opPrecedes, byte(r.Intn(256)))
		case k == 12:
			s = append(append(s, opRun), u16(r.Intn(20))...)
		default:
			s = append(s, opStep)
		}
	}
	return s
}

// FuzzQueueOrder runs byte scripts of every queue operation — At,
// After, Reserve and AtSeq, Cancel of live, fired and recycled refs,
// Step, Run, Pass and Precedes — against runQueueScript's (time,
// sequence) model.
func FuzzQueueOrder(f *testing.F) {
	f.Add(heapStressScript())
	f.Add([]byte{opAfter, 5, 0, opAfter, 5, 0, opCancel, 0, 0, opAfter, 5, 0, opStep, opStep, opCancel, 1, 0})
	f.Add([]byte{opReserve, 3, 0, opAt, 3, 0, opPrecedes, 0, opPass, 0, opAtSeq, 0, opRun, 9, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<13 {
			script = script[:1<<13]
		}
		runQueueScript(t, script)
	})
}

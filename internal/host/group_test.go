package host

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// steppedGroup is the oracle for Group.Advance: the same runtimes and
// submissions driven in global (time, index) order, one host event or
// one delivery at a time — engine events before same-instant
// submissions, ties between hosts to the lowest index — the order
// serial mode drives hosts in.
type steppedGroup struct {
	rts  []*Runtime
	hh   *Heap
	subs []submission
}

func (o *steppedGroup) enqueue(i int, at simtime.Time, delay time.Duration, t *task.Task) {
	o.subs = append(o.subs, submission{t: t, at: at, delay: delay, idx: int32(i)})
	o.rts[i].queued++
}

func (o *steppedGroup) advance(bound simtime.Time) (completions int) {
	for {
		hi, ht := o.hh.Min()
		st := simtime.Infinity
		if len(o.subs) > 0 {
			st = o.subs[0].at
		}
		if ht >= bound && st >= bound {
			return completions
		}
		if ht <= st {
			eng := o.rts[hi].eng
			before := eng.Pending()
			eng.StepEvent()
			o.hh.Update(hi, o.rts[hi].NextEventTime())
			completions += before - eng.Pending()
			continue
		}
		sub := o.subs[0]
		o.subs = o.subs[1:]
		rt := o.rts[sub.idx]
		rt.queued--
		rt.Place(sub.at, sub.delay, sub.t)
		o.hh.Update(int(sub.idx), rt.NextEventTime())
	}
}

// advanceCase is one input for both drivers: a fleet, and submissions
// in delivery order, each with its target host, the task it carries and
// the delay, say a network hop, before that task is runnable.
type advanceCase struct {
	hosts, cores int
	sfs          bool // SFS engines, else CFS
	lookahead    time.Duration
	speeds       []float64 // per host
	subs         []submission
}

func (c advanceCase) String() string {
	return fmt.Sprintf("%d hosts x %d cores, sfs=%v lookahead=%v, %d submissions",
		c.hosts, c.cores, c.sfs, c.lookahead, len(c.subs))
}

// coldStage delays some arrivals the way a container cold start does.
type coldStage struct{ Base }

func (coldStage) BeforeSubmit(_ simtime.Time, t *task.Task) time.Duration {
	return time.Duration(t.ID%3) * 700 * time.Microsecond
}

// finishLog records one host's completions in the order they happen.
type finishLog struct {
	at []simtime.Time
	id []int
}

// fleet builds the case's runtimes, each with a cold-start stage and a
// completion log.
func (c advanceCase) fleet() ([]*Runtime, []*finishLog) {
	rts := make([]*Runtime, c.hosts)
	logs := make([]*finishLog, c.hosts)
	for i := range rts {
		var s cpusim.Scheduler = sched.NewCFS()
		if c.sfs {
			s = core.New(core.DefaultConfig())
		}
		eng := cpusim.NewEngine(cpusim.Config{Cores: c.cores, Speed: c.speeds[i]}, s)
		log := &finishLog{}
		logs[i] = log
		rts[i] = New(eng, coldStage{}, FinishFunc(func(at simtime.Time, t *task.Task) {
			log.at = append(log.at, at)
			log.id = append(log.id, t.ID)
		}))
	}
	return rts, logs
}

// checkAdvance drives the case through Group.Advance and through the
// stepped oracle on the same lookahead windows, admitting before each
// window every submission due before its end and also those due
// exactly at it (which stay queued, as at a batch edge), and requires
// the two to agree after every window: completions, heap minimum,
// queued submissions, each engine's clock and counters, and each
// host's completion log; at the end, every task record. It returns the
// renewals the group's engines held.
func checkAdvance(t *testing.T, c advanceCase) (held int64) {
	t.Helper()
	gRts, gLogs := c.fleet()
	oRts, oLogs := c.fleet()
	g := NewGroup(gRts)
	o := &steppedGroup{rts: oRts, hh: NewHeap(c.hosts)}
	var gTasks, oTasks []*task.Task
	next, bound := 0, simtime.Time(0)
	for window := 0; ; window++ {
		_, earliest := g.Min()
		earliest = min(earliest, g.NextSubmissionTime())
		if next < len(c.subs) {
			earliest = min(earliest, c.subs[next].at)
		}
		if earliest == simtime.Infinity {
			break
		}
		bound = max(earliest-earliest%c.lookahead, bound) + c.lookahead
		for ; next < len(c.subs) && c.subs[next].at <= bound; next++ {
			sub := c.subs[next]
			clones := trace.CloneTasks([]*task.Task{sub.t, sub.t})
			gt, ot := clones[0], clones[1]
			gTasks, oTasks = append(gTasks, gt), append(oTasks, ot)
			g.Enqueue(int(sub.idx), sub.at, sub.delay, gt)
			o.enqueue(int(sub.idx), sub.at, sub.delay, ot)
		}
		gc, oc := g.Advance(bound), o.advance(bound)
		where := fmt.Sprintf("%v, window %d ending %v", c, window, bound)
		if gc != oc {
			t.Fatalf("%s: %d completions, oracle %d", where, gc, oc)
		}
		gi, gat := g.Min()
		oi, oat := o.hh.Min()
		if gi != oi || gat != oat {
			t.Fatalf("%s: heap minimum (host %d, %v), oracle (host %d, %v)", where, gi, gat, oi, oat)
		}
		if len(g.subs) != len(o.subs) || (len(o.subs) > 0 && g.NextSubmissionTime() != o.subs[0].at) {
			t.Fatalf("%s: %d submissions queued, oracle %d", where, len(g.subs), len(o.subs))
		}
		for i := range gRts {
			ge, oe := gRts[i].eng, oRts[i].eng
			if ge.Now() != oe.Now() || ge.Pending() != oe.Pending() || ge.HeldRenewals != oe.HeldRenewals ||
				ge.TotalDispatches != oe.TotalDispatches || ge.TotalCtxSwitches != oe.TotalCtxSwitches ||
				ge.BusyTime() != oe.BusyTime() || gRts[i].Queued() != oRts[i].Queued() {
				t.Fatalf("%s: host %d at %v (pending %d, held %d, dispatches %d, switches %d, busy %v, queued %d), "+
					"oracle at %v (%d, %d, %d, %d, %v, %d)", where, i,
					ge.Now(), ge.Pending(), ge.HeldRenewals, ge.TotalDispatches, ge.TotalCtxSwitches, ge.BusyTime(), gRts[i].Queued(),
					oe.Now(), oe.Pending(), oe.HeldRenewals, oe.TotalDispatches, oe.TotalCtxSwitches, oe.BusyTime(), oRts[i].Queued())
			}
			if !reflect.DeepEqual(gLogs[i], oLogs[i]) {
				t.Fatalf("%s: host %d completions %v at %v, oracle %v at %v", where, i, gLogs[i].id, gLogs[i].at, oLogs[i].id, oLogs[i].at)
			}
		}
	}
	if next != len(c.subs) {
		t.Fatalf("%v: %d of %d submissions admitted", c, next, len(c.subs))
	}
	for k, gt := range gTasks {
		if !reflect.DeepEqual(*gt, *oTasks[k]) {
			t.Fatalf("%v: task %d\n  advanced: %+v\n  stepped:  %+v", c, gt.ID, *gt, *oTasks[k])
		}
		if gt.Finish < 0 {
			t.Fatalf("%v: task %d never finished", c, gt.ID)
		}
	}
	for _, rt := range gRts {
		held += rt.eng.HeldRenewals
	}
	return held
}

// randomCase draws a fleet and a submission stream from r: short and
// long requests (long ones renew their slices, held when alone on a
// core under CFS or demoted by SFS), some with I/O, some runnable a
// little after their delivery instant, in bursts of same-instant
// submissions to one or several hosts, mostly on whole milliseconds so
// many land exactly on window edges and on engine events.
func randomCase(r *rng.RNG, sfs bool) advanceCase {
	c := advanceCase{
		hosts:     1 + r.Intn(7),
		cores:     1 + r.Intn(4),
		sfs:       sfs,
		lookahead: []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}[r.Intn(3)],
	}
	for i := 0; i < c.hosts; i++ {
		c.speeds = append(c.speeds, []float64{1, 1, 0.5, 1.5}[r.Intn(4)])
	}
	at := simtime.Time(0)
	n := 30 + r.Intn(90)
	for id := 0; id < n; id++ {
		switch r.Intn(4) {
		case 0: // same instant as the previous submission
		case 1:
			at += time.Duration(r.Intn(2000)) * time.Microsecond
		default:
			at += time.Duration(r.Intn(6)) * time.Millisecond
		}
		if r.Intn(8) == 0 {
			at += time.Millisecond - at%time.Millisecond - 1 // just before a window edge
		}
		svc := time.Duration(100+r.Intn(5000)) * time.Microsecond
		if r.Intn(3) == 0 {
			svc = time.Duration(40+r.Intn(300)) * time.Millisecond
		}
		tk := task.New(id, at, svc)
		if r.Intn(4) == 0 {
			tk.WithIO(svc/3, time.Duration(r.Intn(20))*time.Millisecond)
		}
		var delay time.Duration
		if r.Intn(5) == 0 {
			delay = time.Duration(r.Intn(2000)) * time.Microsecond
		}
		c.subs = append(c.subs, submission{t: tk, at: at, delay: delay, idx: int32(r.Intn(c.hosts))})
	}
	return c
}

// TestGroupAdvanceMatchesStepping: advancing a group window by window,
// each host to the window's end in one go, equals driving the same
// runtimes in global (time, index) order, task record for task record,
// on CFS and SFS engines whose renewals are held.
func TestGroupAdvanceMatchesStepping(t *testing.T) {
	r := rng.New(5)
	for _, sfs := range []bool{false, true} {
		held := int64(0)
		for round := 0; round < 25; round++ {
			held += checkAdvance(t, randomCase(r, sfs))
		}
		if held == 0 {
			t.Errorf("sfs=%v: no renewal was held", sfs)
		}
	}
}

// FuzzGroupAdvance checks arbitrary fleets and submission scripts
// against the stepped oracle. mode's low bit picks SFS engines, its
// second bit is unused, and its next two bits pick the lookahead; each
// three script bytes are a submission: the host and whether it has I/O
// or a network delay, the gap since the previous one in quarter
// milliseconds (0 is a same-instant tie), and its service.
func FuzzGroupAdvance(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(0), []byte{0, 0, 200, 1, 0, 200, 2, 4, 10, 0, 0, 3, 1, 8, 255, 2, 0, 90})
	f.Add(uint8(2), uint8(1), uint8(3), []byte{0, 0, 250, 1, 0, 250, 0, 4, 5, 1, 4, 5, 0, 40, 1, 0, 0, 1})
	f.Add(uint8(5), uint8(3), uint8(6), []byte{16, 0, 240, 33, 0, 230, 2, 3, 7, 19, 1, 100, 4, 12, 180})
	f.Add(uint8(1), uint8(0), uint8(1), []byte{0, 0, 255, 16, 0, 2, 32, 4, 200, 0, 4, 0})
	f.Fuzz(func(t *testing.T, hosts, cores, mode uint8, script []byte) {
		c := advanceCase{
			hosts:     1 + int(hosts%8),
			cores:     1 + int(cores%4),
			sfs:       mode&1 != 0,
			lookahead: []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond}[mode>>2&3],
		}
		for i := 0; i < c.hosts; i++ {
			c.speeds = append(c.speeds, []float64{1, 0.5, 1.5}[i%3])
		}
		at := simtime.Time(0)
		for id := 0; len(script) >= 3 && id < 200; id++ {
			b0, gap, size := script[0], script[1], script[2]
			script = script[3:]
			at += time.Duration(gap) * 250 * time.Microsecond
			// Services from 50 µs to about 510 ms, quadratic in size, so
			// short requests and slice-renewing long ones both occur.
			svc := 50*time.Microsecond + time.Duration(size)*time.Duration(size)*7800*time.Nanosecond
			tk := task.New(id, at, svc)
			if b0&0x10 != 0 {
				tk.WithIO(svc/2, time.Duration(b0>>6)*5*time.Millisecond)
			}
			var delay time.Duration
			if b0&0x20 != 0 {
				delay = 300 * time.Microsecond
			}
			c.subs = append(c.subs, submission{t: tk, at: at, delay: delay, idx: int32(int(b0&0xf) % c.hosts)})
		}
		checkAdvance(t, c)
	})
}

// TestLateDeliveryPanics: a group refuses to deliver at an instant its
// runtime's engine has already passed, in serial Deliver and in a
// windowed Advance alike, instead of letting the engine take the
// arrival at its clock. Delivering at the clock itself is on time.
func TestLateDeliveryPanics(t *testing.T) {
	const ms = time.Millisecond
	fresh := func() (*Group, *cpusim.Engine) {
		eng := cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO())
		return NewGroup([]*Runtime{New(eng)}), eng
	}
	late := func(path string, deliver func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s: a delivery at 20ms behind an engine at 30ms did not panic", path)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "runtime 0") || !strings.Contains(msg, "20ms") || !strings.Contains(msg, "30ms") {
				t.Fatalf("%s: panic %q does not name the runtime and both instants", path, msg)
			}
		}()
		deliver()
	}

	g, eng := fresh()
	g.Deliver(0, 10*ms, 0, task.New(0, 10*ms, 20*ms))
	for eng.Pending() > 0 {
		g.Step(0)
	}
	if eng.Now() != 30*ms {
		t.Fatalf("engine clock at %v after the task finished, want 30ms", eng.Now())
	}
	late("Deliver", func() { g.Deliver(0, 20*ms, 0, task.New(1, 20*ms, ms)) })
	g.Deliver(0, 30*ms, 0, task.New(2, 30*ms, ms))

	g, eng = fresh()
	g.Enqueue(0, 10*ms, 0, task.New(0, 10*ms, 20*ms))
	g.Advance(100 * ms)
	if eng.Now() != 30*ms {
		t.Fatalf("engine clock at %v after the first window, want 30ms", eng.Now())
	}
	g.Enqueue(0, 20*ms, 0, task.New(1, 20*ms, ms))
	late("Advance", func() { g.Advance(200 * ms) })
}

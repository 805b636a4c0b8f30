package cpusim

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// alwaysRenews is a Renewer that promises every renewal and keeps no
// state, so a test can hold, pass and unhold renewals by hand.
type alwaysRenews struct{}

func (alwaysRenews) Name() string                                                               { return "always-renews" }
func (alwaysRenews) Bind(API)                                                                   {}
func (alwaysRenews) Enqueue(simtime.Time, *task.Task)                                           {}
func (alwaysRenews) PickNext(simtime.Time, int) (*task.Task, time.Duration)                     { return nil, 0 }
func (alwaysRenews) Descheduled(simtime.Time, int, *task.Task, time.Duration, DescheduleReason) {}
func (alwaysRenews) WantsPreempt(simtime.Time, int) bool                                        { return false }
func (alwaysRenews) Renews(int) (time.Duration, bool)                                           { return 0, true }
func (alwaysRenews) Renewed(int, time.Duration)                                                 {}

// scanFirstHeld finds the held core whose renewal comes first in (time,
// sequence) order by walking the whole held list.
func scanFirstHeld(e *Engine) int {
	first := -1
	for i := e.heldHead; i >= 0; i = e.cores[i].nextHeld {
		if first < 0 || e.heldBefore(i, first) {
			first = i
		}
	}
	return first
}

// TestRememberedFirstHeldMatchesScan runs random scripts of holds,
// passes and unholds over engines of 1 to 8 cores, each running an
// hour-long task with a slice of 1 to 3 ms so renewals often tie in
// time, and after every step requires the first held core the engine
// remembers, when it remembers one, and the one firstHeld returns to be
// the one a scan of the held list finds. Passes go in (time, sequence)
// order, as catchUp makes them.
func TestRememberedFirstHeldMatchesScan(t *testing.T) {
	r := rng.New(9)
	holds, passes, unholds := 0, 0, 0
	for round := 0; round < 200; round++ {
		e := NewEngine(Config{Cores: 1 + r.Intn(8)}, alwaysRenews{})
		for i := range e.cores {
			tk := task.New(i, 0, time.Hour)
			tk.MarkReady(0)
			tk.MarkRunning(0, i)
			c := &e.cores[i]
			c.cur, c.lastTask = tk, tk
			c.budget = time.Duration(1+r.Intn(3)) * time.Millisecond
			c.cpuBudget = c.budget
		}
		for step := 0; step < 300; step++ {
			core := r.Intn(len(e.cores))
			c := &e.cores[core]
			switch op := r.Intn(3); {
			case op == 0 && !c.held:
				// A stint starts now and its renewal is held, as place
				// holds one that follows an event-path renewal.
				now := e.q.Now()
				c.runStart = now
				e.hold(core, now+c.budget, now+e.chainLength(c.cur.Remaining(), c.budget, c.cpuBudget))
				holds++
			case op == 1 && e.heldHead >= 0:
				e.pass(scanFirstHeld(e))
				passes++
			case op == 2 && c.held:
				// recheckHeld or a preemption drops the renewal; the
				// script keeps the task on its core for a later hold.
				e.unhold(core)
				unholds++
			default:
				continue
			}
			want := scanFirstHeld(e)
			if e.heldFirst >= 0 && e.heldFirst != want {
				t.Fatalf("round %d step %d: engine remembers core %d first, scan finds %d", round, step, e.heldFirst, want)
			}
			if want >= 0 {
				if got := e.firstHeld(); got != want {
					t.Fatalf("round %d step %d: firstHeld %d, scan %d", round, step, got, want)
				}
			}
		}
	}
	if holds == 0 || passes == 0 || unholds == 0 {
		t.Fatalf("script made %d holds, %d passes and %d unholds", holds, passes, unholds)
	}
}

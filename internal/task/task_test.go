package task

import (
	"testing"
	"time"
)

func TestNewDefaults(t *testing.T) {
	tk := New(7, 100*time.Millisecond, 50*time.Millisecond)
	if tk.ID != 7 || tk.Arrival != 100*time.Millisecond || tk.Service != 50*time.Millisecond {
		t.Fatal("constructor fields wrong")
	}
	if tk.Weight != DefaultWeight {
		t.Fatalf("weight %d", tk.Weight)
	}
	if tk.Start != -1 || tk.Finish != -1 || tk.lastCore != -1 {
		t.Fatal("sentinels not initialized")
	}
	if tk.State != StateNew {
		t.Fatalf("state %v", tk.State)
	}
}

func TestIOOpsOrderingEnforced(t *testing.T) {
	tk := New(1, 0, 100*time.Millisecond)
	tk.WithIO(10*time.Millisecond, time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order WithIO did not panic")
		}
	}()
	tk.WithIO(5*time.Millisecond, time.Millisecond)
}

func TestIOIteration(t *testing.T) {
	tk := New(1, 0, 100*time.Millisecond).
		WithIO(0, 5*time.Millisecond).
		WithIO(50*time.Millisecond, 10*time.Millisecond)
	io := tk.NextIO()
	if io == nil || io.At != 0 {
		t.Fatalf("first op %+v", io)
	}
	tk.PopIO()
	io = tk.NextIO()
	if io == nil || io.At != 50*time.Millisecond {
		t.Fatalf("second op %+v", io)
	}
	tk.PopIO()
	if tk.NextIO() != nil {
		t.Fatal("ops not exhausted")
	}
	if tk.TotalIO() != 15*time.Millisecond {
		t.Fatalf("total IO %v", tk.TotalIO())
	}
	if tk.IdealDuration() != 115*time.Millisecond {
		t.Fatalf("ideal %v", tk.IdealDuration())
	}
}

func TestLifecycleAccounting(t *testing.T) {
	tk := New(1, 10*time.Millisecond, 30*time.Millisecond)
	tk.MarkReady(10 * time.Millisecond)
	tk.MarkRunning(25*time.Millisecond, 0) // waited 15ms
	if tk.WaitTime != 15*time.Millisecond {
		t.Fatalf("wait %v", tk.WaitTime)
	}
	if tk.Start != 25*time.Millisecond {
		t.Fatalf("start %v", tk.Start)
	}
	tk.CPUUsed = 10 * time.Millisecond
	tk.MarkSleeping(35 * time.Millisecond)
	tk.MarkWoken(45 * time.Millisecond)
	if tk.IOTime != 10*time.Millisecond {
		t.Fatalf("io time %v", tk.IOTime)
	}
	tk.MarkRunning(50*time.Millisecond, 1) // waited 5ms more, migrated
	if tk.WaitTime != 20*time.Millisecond {
		t.Fatalf("wait %v", tk.WaitTime)
	}
	if tk.Migrations != 1 {
		t.Fatalf("migrations %d", tk.Migrations)
	}
	if tk.Dispatches != 2 {
		t.Fatalf("dispatches %d", tk.Dispatches)
	}
	tk.CPUUsed = 30 * time.Millisecond
	tk.MarkFinished(70 * time.Millisecond)
	if tk.Turnaround() != 60*time.Millisecond {
		t.Fatalf("turnaround %v", tk.Turnaround())
	}
	// RTE = service / turnaround = 30/60.
	if rte := tk.RTE(); rte != 0.5 {
		t.Fatalf("rte %v", rte)
	}
}

func TestTurnaroundUnfinished(t *testing.T) {
	tk := New(1, 0, time.Millisecond)
	if tk.Turnaround() != -1 {
		t.Fatal("unfinished turnaround should be -1")
	}
	if tk.RTE() != 0 {
		t.Fatal("unfinished RTE should be 0")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Task
		ok   bool
	}{
		{"valid", func() *Task { return New(1, 0, time.Millisecond) }, true},
		{"zero service", func() *Task { return New(1, 0, 0) }, false},
		{"negative arrival", func() *Task { return New(1, -time.Second, time.Millisecond) }, false},
		{"io beyond service", func() *Task {
			tk := New(1, 0, time.Millisecond)
			tk.IOOps = []IOOp{{At: 2 * time.Millisecond, Dur: time.Millisecond}}
			return tk
		}, false},
		{"negative io dur", func() *Task {
			tk := New(1, 0, time.Millisecond)
			tk.IOOps = []IOOp{{At: 0, Dur: -time.Millisecond}}
			return tk
		}, false},
		{"io at end", func() *Task {
			tk := New(1, 0, time.Millisecond)
			tk.IOOps = []IOOp{{At: time.Millisecond, Dur: time.Millisecond}}
			return tk
		}, true},
		{"unsorted io", func() *Task {
			tk := New(1, 0, 10*time.Millisecond)
			tk.IOOps = []IOOp{{At: 5 * time.Millisecond}, {At: 1 * time.Millisecond}}
			return tk
		}, false},
	}
	for _, c := range cases {
		err := c.mk().Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateNew: "new", StateRunnable: "runnable", StateRunning: "running",
		StateSleeping: "sleeping", StateFinished: "finished", State(99): "state(99)",
	} {
		if s.String() != want {
			t.Errorf("%d -> %q, want %q", int(s), s.String(), want)
		}
	}
}

package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// opaque hides a dispatcher's concrete type, so a host-oblivious policy
// takes the windowed path.
type opaque struct{ Dispatcher }

// burstTasks returns n invocations whose first `burst` all arrive at
// t=0 and the rest at short random gaps, cycling through a few app
// names so HASH spreads them.
func burstTasks(n, burst int, seed uint64) []*task.Task {
	r := rng.New(seed)
	tasks := make([]*task.Task, n)
	var at simtime.Time
	for i := range tasks {
		if i >= burst {
			at += time.Duration(r.Intn(400)) * time.Microsecond
		}
		tasks[i] = task.New(i, at, time.Duration(200+r.Intn(3000))*time.Microsecond)
		tasks[i].App = fmt.Sprintf("app%d", i%13)
	}
	return tasks
}

// TestBatchedParity pins the batched path to serial mode, the
// event-granular reference: under RR, RANDOM and HASH a sharded run
// (batched at 1 and 8 shards, windowed through a wrapper that hides
// the policy's type) must match serial mode byte for byte on a
// heterogeneous fleet with network delay. The traces cross several
// batch edges, and one opens with more than a batch of arrivals at a
// single instant; each also runs under a deadline that aborts it.
func TestBatchedParity(t *testing.T) {
	const hosts, cores, seed = 8, 2, 9
	traces := []struct {
		name  string
		tasks []*task.Task
	}{
		{"steady", burstTasks(15000, 0, seed)},
		{"burst", burstTasks(9000, 5000, seed)},
	}
	if 15000 <= 3*obliviousBatch || 5000 <= obliviousBatch {
		t.Fatal("traces no longer cross three batch edges, or burst past one")
	}
	for _, tr := range traces {
		half := tr.tasks[len(tr.tasks)-1].Arrival / 2
		for _, dp := range []string{"RR", "RANDOM", "HASH"} {
			for _, deadline := range []simtime.Time{0, half} {
				run := func(shards int, windowed bool) *Result {
					d, err := NewDispatcher(dp, FactoryConfig{Hosts: hosts, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if windowed {
						d = opaque{d}
					}
					return runSharded(t, Config{
						Hosts:        hosts,
						CoresPerHost: cores,
						Speeds:       []float64{1, 2, 0.5, 1, 1.5, 1, 0.75, 1},
						NetDelay:     dist.Uniform{Lo: 100 * time.Microsecond, Hi: 3 * time.Millisecond},
						NetDelaySeed: seed,
						Deadline:     deadline,
						NewScheduler: func() cpusim.Scheduler { return sched.NewCFS() },
						Dispatcher:   d,
						Shards:       shards,
					}, trace.FromTasks(tr.name, tr.tasks))
				}
				serial := run(0, false)
				if serial.Aborted != (deadline != 0) {
					t.Fatalf("%s/%s/deadline=%v: aborted = %v", tr.name, dp, deadline, serial.Aborted)
				}
				ref := shardedFP(serial)
				for _, mode := range []struct {
					shards   int
					windowed bool
				}{{1, false}, {8, false}, {8, true}} {
					if got := shardedFP(run(mode.shards, mode.windowed)); got != ref {
						t.Errorf("%s/%s/deadline=%v/shards=%d/windowed=%v diverges from serial:\n%s",
							tr.name, dp, deadline, mode.shards, mode.windowed, firstDiff(ref, got))
					}
				}
			}
		}
	}
}

// arrivalWindows counts the lookahead windows that hold at least one
// arrival; the windowed path runs one handoff for each of them.
func arrivalWindows(tasks []*task.Task, lookahead time.Duration) int {
	n, last := 0, simtime.Time(-1)
	for _, tk := range tasks {
		if w := tk.Arrival / lookahead; w != last {
			n, last = n+1, w
		}
	}
	return n
}

// TestBatchedHandoffs checks which path a sharded run takes, which its
// output cannot show: a plain RR run hands off once per arrival batch,
// while JSQ, which reads host state, and RR with a lifecycle or a
// chain, which tie hosts together, still hand off once per lookahead
// window.
func TestBatchedHandoffs(t *testing.T) {
	const hosts, cores, n, seed = 8, 2, 10000, 4
	src, ccfg, err := workload.ChainStream(workload.ChainSpec{
		N: n, Cores: hosts * cores, Load: 0.7, Family: "LINEAR", Depth: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := trace.Collect(src)
	windows := arrivalWindows(tasks, DefaultDispatchLatency)
	for _, tc := range []struct {
		dispatch         string
		lifecycle, chain bool
	}{{"RR", false, false}, {"JSQ", false, false}, {"RR", true, false}, {"RR", false, true}} {
		d, err := NewDispatcher(tc.dispatch, FactoryConfig{Hosts: hosts, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Hosts:        hosts,
			CoresPerHost: cores,
			NewScheduler: func() cpusim.Scheduler { return sched.NewCFS() },
			Dispatcher:   d,
			Shards:       4,
		}
		if tc.lifecycle {
			cfg.NewLifecycle = func() *lifecycle.Manager {
				m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(time.Second), Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
		}
		if tc.chain {
			cfg.Chain = &ccfg
		}
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(trace.FromTasks("chain", tasks)); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/lifecycle=%v/chain=%v", tc.dispatch, tc.lifecycle, tc.chain)
		if batched := tc.dispatch == "RR" && !tc.lifecycle && !tc.chain; batched {
			if limit := (n+obliviousBatch-1)/obliviousBatch + 1; cl.handoffs > limit {
				t.Errorf("%s: %d handoffs, want at most %d", name, cl.handoffs, limit)
			}
		} else if cl.handoffs < windows {
			t.Errorf("%s: %d handoffs for %d windows holding arrivals, want one per window", name, cl.handoffs, windows)
		}
	}
}

// TestRunRejectsDecreasingArrivals: sharded mode enqueues submissions
// in arrival order, so a source that goes backwards, breaking the
// trace.Source contract, makes a sharded Run fail. Serial mode delivers
// at once, so it still holds the late invocation until the coordinator
// clock and reports the wait as dispatch delay. The check reads
// arrivals as the source emitted them, so network delay, which moves a
// placed task's arrival, must not trip it.
func TestRunRejectsDecreasingArrivals(t *testing.T) {
	ms := func(n int) simtime.Time { return simtime.Time(n) * simtime.Time(time.Millisecond) }
	ordered := []*task.Task{task.New(0, ms(5), time.Millisecond), task.New(1, ms(5), time.Millisecond), task.New(2, ms(7), time.Millisecond)}
	unsorted := append(ordered, task.New(3, ms(3), time.Millisecond))
	for _, dispatch := range []string{"RR", "JSQ"} {
		for _, shards := range []int{0, 2} {
			run := func(tasks []*task.Task) (*Result, error) {
				d, err := NewDispatcher(dispatch, FactoryConfig{Hosts: 2})
				if err != nil {
					t.Fatal(err)
				}
				cl, err := New(Config{
					Hosts:        2,
					CoresPerHost: 1,
					NetDelay:     dist.Uniform{Lo: time.Millisecond, Hi: 2 * time.Millisecond},
					NewScheduler: func() cpusim.Scheduler { return sched.NewCFS() },
					Dispatcher:   d,
					Shards:       shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cl.Run(trace.FromTasks("unsorted", tasks))
			}
			if _, err := run(ordered); err != nil {
				t.Errorf("%s/shards=%d: ordered trace: %v", dispatch, shards, err)
			}
			res, err := run(unsorted)
			if shards == 0 {
				if err != nil || res.QueueDelayMax != 4*time.Millisecond {
					t.Errorf("%s/serial: err = %v, want the late invocation held 4ms", dispatch, err)
				}
				continue
			}
			const want = "cluster: source invocation 4: arrival 3ms precedes predecessor's 7ms"
			if err == nil || err.Error() != want {
				t.Errorf("%s/shards=%d: err = %v, want %q", dispatch, shards, err, want)
			}
		}
	}
}

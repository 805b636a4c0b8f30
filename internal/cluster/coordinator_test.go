package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/workload"
)

// TestSerialShardedOracle differentially checks the two execution
// modes. A dispatcher that reads no host state (RR, RANDOM, HASH)
// places every invocation identically whenever the coordinator looks,
// so serial mode and sharded mode must agree at any shard count and
// lookahead — on a heterogeneous fleet with a network delay too.
//
// The one modeled difference: with lifecycle modeling on, sharded mode
// advances lifecycle clocks to each window's end, so its final window
// can count expirations serial mode never reaches. Expirations must
// satisfy serial ≤ sharded, cluster-wide and per host; every other
// field must be equal.
func TestSerialShardedOracle(t *testing.T) {
	const hosts, cores, n, seed = 8, 2, 80, 5
	speeds := []float64{1, 2, 0.5, 1, 1.5, 1, 0.75, 1}
	shardings := []struct {
		shards    int
		lookahead time.Duration
	}{{1, 0}, {8, 0}, {8, 37 * time.Microsecond}, {3, 20 * time.Millisecond}}
	for _, sc := range []string{"SFS", "CFS", "EEVDF", "FIFO"} {
		for _, dp := range []string{"RR", "RANDOM", "HASH"} {
			for _, family := range workload.FamilyNames() {
				for _, withLifecycle := range []bool{false, true} {
					run := func(shards int, lookahead time.Duration) *Result {
						d, err := NewDispatcher(dp, FactoryConfig{Hosts: hosts, Seed: seed})
						if err != nil {
							t.Fatal(err)
						}
						src, err := workload.NewFamily(family, workload.FamilyConfig{
							N: n, Cores: hosts * cores, Load: 0.9, Seed: seed,
						})
						if err != nil {
							t.Fatal(err)
						}
						cfg := Config{
							Hosts:        hosts,
							CoresPerHost: cores,
							NewScheduler: func() cpusim.Scheduler {
								s, err := schedulers.New(sc)
								if err != nil {
									t.Fatal(err)
								}
								return s
							},
							Dispatcher:      d,
							Speeds:          speeds,
							NetDelay:        dist.Uniform{Lo: 100 * time.Microsecond, Hi: 3 * time.Millisecond},
							NetDelaySeed:    seed,
							Shards:          shards,
							DispatchLatency: lookahead,
						}
						if withLifecycle {
							cfg.NewLifecycle = func() *lifecycle.Manager {
								m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(500 * time.Millisecond), Seed: seed})
								if err != nil {
									t.Fatal(err)
								}
								return m
							}
						}
						return runSharded(t, cfg, src)
					}
					serial := run(0, 0)
					serialFP := fpWithoutExpirations(t, serial, serial)
					for _, sh := range shardings {
						name := fmt.Sprintf("%s/%s/%s/lifecycle=%v/shards=%d/lookahead=%v",
							sc, dp, family, withLifecycle, sh.shards, sh.lookahead)
						sharded := run(sh.shards, sh.lookahead)
						if got := fpWithoutExpirations(t, sharded, serial); got != serialFP {
							t.Errorf("%s: sharded diverges from serial:\n%s", name, firstDiff(serialFP, got))
						}
					}
				}
			}
		}
	}
}

// fpWithoutExpirations fingerprints res with its lifecycle expiration
// counts cleared, after checking they are at least serial's.
func fpWithoutExpirations(t *testing.T, res, serial *Result) string {
	t.Helper()
	if res.Lifecycle.Expirations < serial.Lifecycle.Expirations {
		t.Errorf("expirations: %d, below serial's %d", res.Lifecycle.Expirations, serial.Lifecycle.Expirations)
	}
	res.Lifecycle.Expirations = 0
	for i := range res.PerHost {
		if got, ref := res.PerHost[i].Lifecycle.Expirations, serial.PerHost[i].Lifecycle.Expirations; got < ref {
			t.Errorf("host %d expirations: %d, below serial's %d", i, got, ref)
		}
		res.PerHost[i].Lifecycle.Expirations = 0
	}
	return shardedFP(res)
}

// badDispatcher places its first `valid` invocations round-robin, then
// picks a host index that does not exist.
type badDispatcher struct {
	valid, pick, n int
}

func (d *badDispatcher) Name() string { return "BAD" }

func (d *badDispatcher) Pick(_ simtime.Time, _ *task.Task, hosts []Host) int {
	d.n++
	if d.n <= d.valid {
		return d.n % len(hosts)
	}
	return d.pick
}

// TestDispatcherOutOfRangeIsError: a dispatcher that picks a host
// outside [0, Hosts) — other than Hold — makes Run return an error, in
// either mode, with no worker goroutine left running. GOMAXPROCS is 4,
// so a 4-shard run starts four workers.
func TestDispatcherOutOfRangeIsError(t *testing.T) {
	const hosts = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, pick := range []int{hosts, -2} {
		for _, shards := range []int{0, 1, 4} {
			before := runtime.NumGoroutine()
			cl, err := New(Config{
				Hosts:        hosts,
				CoresPerHost: 2,
				NewScheduler: func() cpusim.Scheduler { return sched.NewCFS() },
				Dispatcher:   &badDispatcher{valid: 50, pick: pick},
				Shards:       shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			src := workload.AzureSampledStream(workload.AzureSampledSpec{N: 200, Cores: hosts * 2, Load: 0.8, Seed: 3})
			_, err = cl.Run(src)
			want := fmt.Sprintf("cluster: dispatcher BAD picked host %d of %d", pick, hosts)
			if err == nil || err.Error() != want {
				t.Errorf("pick=%d shards=%d: err = %v, want %q", pick, shards, err, want)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("pick=%d shards=%d: %d goroutines left running", pick, shards, after-before)
			}
		}
	}
}

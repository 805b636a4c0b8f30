package lifecycle_test

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
)

// ExampleNew walks a container through its lifecycle: the first
// invocation of an application cold-starts (image pull + sandbox
// boot), the released container stays warm under the keep-alive
// policy, and the next invocation reuses it for free.
func ExampleNew() {
	mgr, err := lifecycle.New(lifecycle.Config{
		Policy:      lifecycle.NewFixedTTL(time.Minute),
		MemoryMB:    1024,
		ImagePull:   dist.Constant{Value: 200 * time.Millisecond},
		SandboxBoot: dist.Constant{Value: 50 * time.Millisecond},
	})
	if err != nil {
		panic(err)
	}

	delay, c := mgr.Acquire(0, "fib") // no warm container yet
	fmt.Printf("first:  +%v cold start\n", delay)
	mgr.Release(30*time.Millisecond, c) // invocation finished

	delay, c = mgr.Acquire(100*time.Millisecond, "fib") // within the TTL
	fmt.Printf("second: +%v (warm hit)\n", delay)
	mgr.Release(130*time.Millisecond, c)

	st := mgr.Stats()
	fmt.Printf("warm-hit ratio %.0f%%, mean cold latency %v\n",
		100*st.WarmHitRatio(), st.MeanColdLatency())
	// Output:
	// first:  +250ms cold start
	// second: +0s (warm hit)
	// warm-hit ratio 50%, mean cold latency 250ms
}

// ExampleNewPolicy shows the keep-alive policy registry — the third
// name → constructor registry alongside the scheduler and dispatcher
// ones: lookups are case-insensitive and unknown names fail with the
// full list of choices.
func ExampleNewPolicy() {
	p, err := lifecycle.NewPolicy("hist", lifecycle.PolicyConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Name())

	_, err = lifecycle.NewPolicy("FOREVER", lifecycle.PolicyConfig{})
	fmt.Println(err)
	// Output:
	// HIST
	// unknown keep-alive policy "FOREVER" (want one of NONE, TTL, LRU, HIST)
}

// ExamplePolicyNames enumerates the registry, the same list faasbench
// replay prints in its -h output.
func ExamplePolicyNames() {
	for _, n := range lifecycle.PolicyNames() {
		fmt.Println(n)
	}
	// Output:
	// NONE
	// TTL
	// LRU
	// HIST
}

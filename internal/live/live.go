// Package live is a real-time, goroutine-based implementation of the SFS
// scheduling architecture: the form the paper's artifact actually takes
// (a standalone user-space Go scheduler, §VI).
//
// Because goroutines cannot change their OS scheduling class (the
// limitation that motivates the simulator in internal/cpusim), this
// runtime approximates the two levels cooperatively:
//
//   - the global queue is a channel, as in the paper's implementation;
//   - SFS workers are goroutines, one per configured worker, that fetch
//     requests whenever free and run them in FILTER mode bounded by the
//     dynamically adapted slice S = mean(IAT of last N) × workers;
//   - demotion to "CFS" hands the function to the Go runtime's own
//     scheduler, with demoted functions yielding at checkpoints whenever
//     FILTER work is pending — approximating SCHED_FIFO's static
//     priority over SCHED_NORMAL;
//   - functions declare blocking I/O via Ctx.IO, which releases the
//     worker (stop timekeeping, record unused slice) and re-enqueues the
//     invocation when the I/O completes, as in §V-D;
//   - transient overload routes requests straight to CFS mode when the
//     head-of-queue delay exceeds O × S (§V-E).
//
// Functions participate cooperatively by calling Ctx.Checkpoint inside
// compute loops (the role kernel preemption plays for real processes).
// Policy-faithful evaluation numbers come from the simulator; this
// package demonstrates the library API and measures real scheduling
// overhead on the host.
package live

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/serverless-sched/sfs/internal/stats"
)

// Mode is the scheduling level an invocation finished in.
type Mode int32

// Modes.
const (
	ModeFilter Mode = iota // completed entirely in FILTER
	ModeCFS                // demoted (slice exhausted) or overload-routed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeFilter {
		return "FILTER"
	}
	return "CFS"
}

// Function is user code run by the scheduler. It must call
// ctx.Checkpoint() periodically inside compute loops and use ctx.IO for
// blocking operations.
type Function func(ctx *Ctx)

// overloadFactor is O: a fetched request that waited longer than O × S
// bypasses FILTER (§V-E).
const overloadFactor = 3

// Config tunes the live scheduler.
type Config struct {
	// Workers is the FILTER pool size (defaults to GOMAXPROCS).
	Workers int
	// WindowSize is the IAT sliding window N (default 100).
	WindowSize int
	// InitialSlice seeds S (default 100 ms).
	InitialSlice time.Duration
	// FixedSlice pins S, disabling adaptation.
	FixedSlice time.Duration
	// QueueCapacity bounds the global queue channel (default 65536).
	QueueCapacity int
}

// Result describes one finished invocation.
type Result struct {
	// ID is the submission sequence number; Name the function's label.
	ID   int
	Name string
	// Submitted/Started/Finished are the wall-clock lifecycle stamps:
	// enqueue, first execution, and return.
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Mode is the scheduling level the invocation finished in.
	Mode Mode
	// QueueDelay is the time spent in the global queue before a worker
	// first fetched the invocation.
	QueueDelay time.Duration
}

// Turnaround is the end-to-end duration.
func (r Result) Turnaround() time.Duration { return r.Finished.Sub(r.Submitted) }

// Future resolves to an invocation's Result.
type Future struct {
	done chan struct{}
	res  Result
}

// Wait blocks until the invocation finishes.
func (f *Future) Wait() Result {
	<-f.done
	return f.res
}

// invocation is the scheduler-internal request state.
type invocation struct {
	id   int
	name string
	fn   Function
	fut  *Future

	submitted time.Time
	enqueued  atomic.Int64 // unix nanos of the current queue entry

	mode      atomic.Int32 // Mode
	started   atomic.Bool  // fn goroutine launched
	startedAt time.Time

	mu        sync.Mutex
	sliceLeft time.Duration
	assigned  bool

	resume   chan time.Duration // worker -> fn: run with this slice budget
	ioULeft  chan time.Duration // fn -> worker: entered IO, unused slice
	finished chan struct{}
}

// Stats are the scheduler's internal counters, updated live and safe
// to read concurrently.
type Stats struct {
	// Submitted counts every invocation handed to Submit.
	Submitted atomic.Int64
	// FilterComplete counts invocations that finished inside their
	// FILTER slice; Demotions those that exhausted it and moved to the
	// CFS level; OverloadRouted those sent straight to CFS by the
	// transient-overload detector (§V-E).
	FilterComplete atomic.Int64
	Demotions      atomic.Int64
	OverloadRouted atomic.Int64
	// Checkpoints counts cooperative Ctx.Checkpoint calls observed;
	// Yields the subset that actually yielded the processor to pending
	// FILTER work.
	Checkpoints atomic.Int64
	Yields      atomic.Int64
}

// Scheduler is the live SFS runtime. Create with New, then Start.
type Scheduler struct {
	cfg   Config
	queue chan *invocation
	stop  chan struct{}
	wg    sync.WaitGroup

	pending atomic.Int64 // queued, FILTER-eligible requests

	mu          sync.Mutex
	s           time.Duration
	window      *stats.Window // the last WindowSize inter-arrival times
	lastArrival time.Time
	haveArrival bool
	sinceRecalc int
	nextID      int

	// Stats exposes internal counters.
	Stats   Stats
	started atomic.Bool
}

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("live: scheduler stopped")

// New builds a live scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 100
	}
	if cfg.InitialSlice <= 0 {
		cfg.InitialSlice = 100 * time.Millisecond
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1 << 16
	}
	s := &Scheduler{
		cfg:    cfg,
		queue:  make(chan *invocation, cfg.QueueCapacity),
		stop:   make(chan struct{}),
		window: stats.NewWindow(cfg.WindowSize),
		s:      cfg.InitialSlice,
	}
	if cfg.FixedSlice > 0 {
		s.s = cfg.FixedSlice
	}
	return s
}

// Start launches the worker pool.
func (s *Scheduler) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Stop drains no further work and waits for workers to exit. Submitted
// functions that have not finished are abandoned by the workers but any
// already-running function goroutines run to completion.
func (s *Scheduler) Stop() {
	close(s.stop)
	s.wg.Wait()
}

// Slice returns the current time-slice parameter S.
func (s *Scheduler) Slice() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s
}

// Submit enqueues a function invocation.
func (s *Scheduler) Submit(name string, fn Function) (*Future, error) {
	select {
	case <-s.stop:
		return nil, ErrStopped
	default:
	}
	now := time.Now()
	inv := &invocation{
		name:      name,
		fn:        fn,
		fut:       &Future{done: make(chan struct{})},
		submitted: now,
		resume:    make(chan time.Duration),
		ioULeft:   make(chan time.Duration),
		finished:  make(chan struct{}),
	}
	inv.enqueued.Store(now.UnixNano())

	s.mu.Lock()
	inv.id = s.nextID
	s.nextID++
	if s.haveArrival {
		s.observeIAT(now.Sub(s.lastArrival))
	}
	s.lastArrival = now
	s.haveArrival = true
	s.mu.Unlock()

	s.Stats.Submitted.Add(1)
	s.pending.Add(1)
	select {
	case s.queue <- inv:
	default:
		s.pending.Add(-1)
		return nil, fmt.Errorf("live: global queue full (%d)", s.cfg.QueueCapacity)
	}
	return inv.fut, nil
}

// observeIAT updates the window and recomputes S every WindowSize
// arrivals. Caller holds s.mu.
func (s *Scheduler) observeIAT(iat time.Duration) {
	s.window.Push(iat)
	s.sinceRecalc++
	if s.sinceRecalc < s.cfg.WindowSize || s.cfg.FixedSlice > 0 {
		return
	}
	s.sinceRecalc = 0
	next := s.window.Mean() * time.Duration(s.cfg.Workers)
	if next < time.Millisecond {
		next = time.Millisecond
	}
	s.s = next
}

// worker is the FILTER-pool loop: fetch whenever free (§V-B step 2).
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case inv := <-s.queue:
			s.pending.Add(-1)
			s.dispatch(inv)
		}
	}
}

// dispatch runs one fetched request, choosing FILTER or overload-CFS.
func (s *Scheduler) dispatch(inv *invocation) {
	now := time.Now()
	delay := now.Sub(time.Unix(0, inv.enqueued.Load()))
	slice := s.Slice()
	if float64(delay) > overloadFactor*float64(slice) {
		// Transient overload: bypass FILTER (§V-E).
		inv.mode.Store(int32(ModeCFS))
		s.Stats.OverloadRouted.Add(1)
		s.launch(inv, 0)
		return
	}

	inv.mu.Lock()
	if !inv.assigned {
		inv.assigned = true
		inv.sliceLeft = slice
	}
	budget := inv.sliceLeft
	inv.mu.Unlock()
	if budget <= 0 {
		s.demote(inv)
		s.launch(inv, 0)
		return
	}

	s.launch(inv, budget)
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case <-inv.finished:
		s.Stats.FilterComplete.Add(1)
	case unused := <-inv.ioULeft:
		// The function blocked on I/O: stop timekeeping, record the
		// unused slice, free this worker (§V-D). The function
		// re-enqueues itself when the I/O completes.
		inv.mu.Lock()
		inv.sliceLeft = unused
		inv.mu.Unlock()
	case <-timer.C:
		// Slice exhausted: demote to CFS (§V-B step 4.2). The function
		// keeps running under the Go scheduler and will yield to FILTER
		// work at checkpoints.
		inv.mu.Lock()
		inv.sliceLeft = 0
		inv.mu.Unlock()
		s.demote(inv)
	}
}

func (s *Scheduler) demote(inv *invocation) {
	if inv.mode.CompareAndSwap(int32(ModeFilter), int32(ModeCFS)) {
		s.Stats.Demotions.Add(1)
	}
}

// launch starts the function goroutine on first dispatch or resumes it
// with the given budget afterwards. budget is informational for the fn
// side; the authoritative timer lives with the worker.
func (s *Scheduler) launch(inv *invocation, budget time.Duration) {
	if inv.started.CompareAndSwap(false, true) {
		inv.startedAt = time.Now()
		ctx := &Ctx{sched: s, inv: inv}
		go func() {
			inv.fn(ctx)
			s.finish(inv)
		}()
		return
	}
	// Resumed after I/O: unblock the function if it is waiting to be
	// rescheduled (it may also still be mid-IO if overload routed it).
	select {
	case inv.resume <- budget:
	case <-inv.finished:
	}
}

// finish completes the invocation and resolves its future.
func (s *Scheduler) finish(inv *invocation) {
	now := time.Now()
	inv.fut.res = Result{
		ID:         inv.id,
		Name:       inv.name,
		Submitted:  inv.submitted,
		Started:    inv.startedAt,
		Finished:   now,
		Mode:       Mode(inv.mode.Load()),
		QueueDelay: inv.startedAt.Sub(inv.submitted),
	}
	close(inv.finished)
	close(inv.fut.done)
}

// Ctx is passed to running functions for cooperative scheduling.
type Ctx struct {
	sched *Scheduler
	inv   *invocation
}

// Checkpoint must be called periodically from compute loops. In FILTER
// mode it is nearly free; in CFS mode it yields the processor whenever
// FILTER work is pending, approximating SCHED_FIFO > SCHED_NORMAL.
func (c *Ctx) Checkpoint() {
	c.sched.Stats.Checkpoints.Add(1)
	if Mode(c.inv.mode.Load()) == ModeCFS && c.sched.pending.Load() > 0 {
		c.sched.Stats.Yields.Add(1)
		runtime.Gosched()
	}
}

// IO performs a blocking operation. In FILTER mode the scheduler's
// worker is released for other requests and this invocation re-enters
// the global queue when f returns (§V-D); in CFS mode it simply blocks.
func (c *Ctx) IO(f func()) {
	inv := c.inv
	if Mode(inv.mode.Load()) == ModeCFS {
		f()
		return
	}
	// Report the unused slice to the worker and release it. The worker
	// may have demoted us concurrently (slice raced with the IO); if so
	// just block inline.
	inv.mu.Lock()
	unused := inv.sliceLeft
	inv.mu.Unlock()
	select {
	case inv.ioULeft <- unused:
	default:
		// Worker already left (timer fired first): CFS semantics.
		f()
		return
	}
	f()
	// Re-enqueue and wait to be rescheduled.
	now := time.Now()
	inv.enqueued.Store(now.UnixNano())
	c.sched.pending.Add(1)
	select {
	case c.sched.queue <- inv:
		<-inv.resume
	default:
		// Queue full: degrade to CFS mode rather than deadlock.
		c.sched.pending.Add(-1)
		c.sched.demote(inv)
	}
}

// Sleep is a convenience IO wrapper around time.Sleep.
func (c *Ctx) Sleep(d time.Duration) { c.IO(func() { time.Sleep(d) }) }

// Spin burns roughly d of CPU time, checkpointing as it goes. It is the
// live counterpart of FaaSBench's fib function body.
func (c *Ctx) Spin(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 2000; i++ {
			x = x*1.0000001 + 1e-9
		}
		c.Checkpoint()
	}
	sink.Store(uint64(x)) // defeats dead-code elimination of the work
}

var sink atomic.Uint64

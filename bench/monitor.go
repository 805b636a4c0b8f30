package main

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared VMs whose speed drifts: one tape's
// repetitions took from 3.5 s to 18 s here, with user time moving as
// much as wall time and no hypervisor steal to explain it, and the
// speed swings by a third within seconds. So every time metric is
// scaled to a reference machine speed, repetition by repetition:
//
//	reported = measured / slowdown
//
// The slowdown is read while the repetition runs, on the CPUs it runs
// on. A monitor thread pinned to each CPU wakes every monitorPeriod,
// staggered so no two CPUs sample at once, and times a frozen kernel:
// an event-queue churn on 256 items (16 KB, cache-resident), which
// feels the core's own speed, including a busy SMT sibling. Its time
// over the reference machine's is the CPU's slowdown at that instant.
// Meanwhile the parent reads, from /proc, how much CPU time the child's
// threads spend on each CPU. A repetition's slowdown is the geometric
// mean of the samples taken during its timed region, each CPU weighted
// by the child's share of CPU time on it.
//
// Candidates were compared on two ten-seed sets per workload, every
// repetition read by every candidate at once (bench/README.md, "Machine
// drift"). Kernels that miss the cache (a 4 MB churn, a 64 MB pointer
// chase) tracked the simulator worse, alone or combined, and a kernel
// that fits the cache cannot be slowed by what the child leaves in it.
// The kernel is frozen benchmark code that shares nothing with the
// simulator. Raw times are kept beside the scaled ones in every output.

const (
	monitorPeriod = 50 * time.Millisecond
	usagePeriod   = 50 * time.Millisecond
	churnItems    = 256
	churnOps      = 6000 // ~1 ms: the monitor takes ~2% of each CPU
	// refChurnNs is the reference machine's time per churn operation: a
	// round figure near the median on the 2-vCPU VM the baseline ran on.
	refChurnNs = 150.0
)

// churn is the kernel: a min-heap of event-sized items, each operation
// moving the earliest item later.
type churn struct {
	q calibHeap
	x xorshift
}

type calibItem struct {
	at  int64
	pad [7]int64 // one cache line, an event's size
}

// calibHeap is a min-heap of items by at.
type calibHeap []*calibItem

func (q calibHeap) Len() int           { return len(q) }
func (q calibHeap) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibHeap) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibHeap) Push(x any)        { *q = append(*q, x.(*calibItem)) }
func (q *calibHeap) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// xorshift is the kernel's fixed generator, so every run builds the
// same heap and draws the same keys.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func newChurn() *churn {
	c := &churn{x: xorshift(0x2545f4914f6cdd1d)}
	for range churnItems {
		c.q = append(c.q, &calibItem{at: int64(c.x.next() % 1_000_000)})
	}
	heap.Init(&c.q)
	return c
}

// nsPerOp times churnOps operations.
func (c *churn) nsPerOp() float64 {
	t0 := time.Now()
	for range churnOps {
		c.q[0].at += int64(c.x.next() % 1_000_000)
		heap.Fix(&c.q, 0)
	}
	return float64(time.Since(t0)) / churnOps
}

// speedSample is one CPU's slowdown at one instant, as a logarithm: 0
// at the reference speed, log 1.2 when the kernel ran 20% slower.
type speedSample struct {
	at   int64 // unix ns, mid-sample
	logS float64
}

// monitor samples every CPU the benchmark may run on until stopped.
type monitor struct {
	cpus []int
	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	samples map[int][]speedSample // by CPU, in time order
}

// startMonitor pins one sampling thread to each allowed CPU and returns
// once every CPU has its first sample.
func startMonitor() (*monitor, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	m := &monitor{cpus: cpus, stop: make(chan struct{}), samples: map[int][]speedSample{}}
	ready := make(chan error, len(cpus))
	for i, cpu := range cpus {
		m.wg.Add(1)
		go m.sample(cpu, monitorPeriod*time.Duration(i)/time.Duration(len(cpus)), ready)
	}
	for range cpus {
		if err := <-ready; err != nil {
			m.close()
			return nil, err
		}
	}
	return m, nil
}

// sample is one CPU's monitor thread. It never unlocks its OS thread,
// so the pinned thread exits with it instead of serving other
// goroutines.
func (m *monitor) sample(cpu int, offset time.Duration, ready chan<- error) {
	defer m.wg.Done()
	runtime.LockOSThread()
	if err := pinThread(cpu); err != nil {
		ready <- fmt.Errorf("pinning the monitor to CPU %d: %w", cpu, err)
		return
	}
	c := newChurn()
	time.Sleep(offset)
	tick := time.NewTicker(monitorPeriod)
	defer tick.Stop()
	for first := true; ; first = false {
		t0 := time.Now()
		logS := math.Log(c.nsPerOp() / refChurnNs)
		at := t0.UnixNano() + int64(time.Since(t0))/2
		m.mu.Lock()
		m.samples[cpu] = append(m.samples[cpu], speedSample{at: at, logS: logS})
		m.mu.Unlock()
		if first {
			ready <- nil
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

func (m *monitor) close() {
	close(m.stop)
	m.wg.Wait()
}

// slowdown reads the machine over [t0, t1] (unix ns) for a process that
// spent usage[cpu] of its CPU time on each CPU: the geometric mean of
// every CPU's samples inside the interval, weighted by that CPU's share
// of the usage. A geometric mean, because a sample that a preemption
// stretches tenfold would dominate an arithmetic one. A CPU without a
// sample inside the interval uses its sample nearest to it.
func (m *monitor) slowdown(t0, t1 int64, usage map[int]float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total float64
	for _, w := range usage {
		total += w
	}
	if total == 0 { // too short to be seen: weigh every CPU alike
		usage = map[int]float64{}
		for _, cpu := range m.cpus {
			usage[cpu] = 1
		}
		total = float64(len(m.cpus))
	}
	var logS float64
	for cpu, w := range usage {
		ss := m.samples[cpu]
		if w == 0 || len(ss) == 0 {
			continue
		}
		lo, _ := slices.BinarySearchFunc(ss, t0, func(s speedSample, t int64) int { return cmp.Compare(s.at, t) })
		hi, _ := slices.BinarySearchFunc(ss, t1, func(s speedSample, t int64) int { return cmp.Compare(s.at, t) })
		if lo == hi { // nearest sample
			if lo == len(ss) || (lo > 0 && t0-ss[lo-1].at < ss[lo].at-t1) {
				lo--
			}
			hi = lo + 1
		}
		var sum float64
		for _, s := range ss[lo:hi] {
			sum += s.logS
		}
		logS += w / total * sum / float64(hi-lo)
	}
	return math.Exp(logS)
}

// waitWatched waits for a started command and returns its CPU time per
// CPU, in clock ticks, polled every usagePeriod until it exits.
func waitWatched(cmd *exec.Cmd) (map[int]float64, error) {
	u := newCPUUsage(cmd.Process.Pid)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(usagePeriod)
	defer tick.Stop()
	for {
		u.poll()
		select {
		case err := <-done:
			return u.ticks, err
		case <-tick.C:
		}
	}
}

// cpuUsage accumulates a running process's CPU time per CPU by polling
// its threads in /proc: each poll charges a thread's CPU time since the
// previous poll to the CPU it last ran on.
type cpuUsage struct {
	pid   int
	prev  map[string]int64 // thread → utime + stime, in clock ticks
	ticks map[int]float64  // CPU → ticks
}

func newCPUUsage(pid int) *cpuUsage {
	return &cpuUsage{pid: pid, prev: map[string]int64{}, ticks: map[int]float64{}}
}

// poll reads every thread once. A thread that exits between listing and
// reading is skipped; its last interval goes uncharged.
func (u *cpuUsage) poll() {
	dir := filepath.Join("/proc", strconv.Itoa(u.pid), "task")
	tids, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, tid := range tids {
		stat, err := os.ReadFile(filepath.Join(dir, tid.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command: state is field 3,
		// utime 14, stime 15, processor 39 (proc(5)).
		i := strings.LastIndexByte(string(stat), ')')
		f := strings.Fields(string(stat[i+1:]))
		if len(f) < 37 {
			continue
		}
		utime, err1 := strconv.ParseInt(f[11], 10, 64)
		stime, err2 := strconv.ParseInt(f[12], 10, 64)
		cpu, err3 := strconv.Atoi(f[36])
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		t := utime + stime
		u.ticks[cpu] += float64(t - u.prev[tid.Name()])
		u.prev[tid.Name()] = t
	}
}

// cpuMask is a sched_setaffinity(2) CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var mask cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for cpu := range len(mask) * 64 {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus, nil
}

// pinThread binds the calling OS thread to one CPU.
func pinThread(cpu int) error {
	var mask cpuMask
	mask[cpu/64] |= 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	return nil
}

// Command bench is the simulator's end-to-end benchmark. It replays four
// fixed workloads through the public entry points the CLIs use, each
// repetition in its own child process, and reports host-side metrics:
// wall time, set-up time, peak RSS and allocation volume with tracing
// off, plus a per-layer breakdown from one traced repetition. Simulated
// results enter only as per-repetition correctness checks.
//
// Run it from the repository root; run.sh builds it into bench/.build/:
//
//	bash bench/run.sh                                      # every workload, traced pass included
//	bash bench/run.sh --workload host-replay --trace 0     # one workload, end-to-end metrics only
//	bash bench/run.sh --workload fleet-serial --seconds 0 --reps 1
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is a JSON summary, and bench/out/ receives the
// input tapes, results.json and spans.json (Chrome trace-event format).
// The exit code is non-zero when any repetition fails a check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// outDir receives the input tapes, results.json and spans.json.
var outDir = filepath.Join("bench", "out")

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 25
	// childTimeout bounds one repetition; the slowest takes ~4 s on a
	// calm host and ~8 s on a slow one.
	childTimeout = 120 * time.Second
)

func main() {
	entered := time.Now()
	var names []string
	for _, w := range newWorkloads(1) {
		names = append(names, w.name)
	}
	var (
		workloadFlag = flag.String("workload", "all", "workloads to run: all, or a comma-separated list of "+strings.Join(names, ", "))
		seed         = flag.Uint64("seed", 42, "seed the workload inputs are generated from")
		seconds      = flag.Float64("seconds", defaultSeconds, "untraced measuring time per workload, in seconds")
		traced       = flag.Int("trace", 1, "1 adds the traced pass and reports per-layer metrics in the JSON line; 0 reports end-to-end metrics only")
		minReps      = flag.Int("reps", 3, "minimum untraced repetitions per workload")
		child        = flag.String("child", "", "internal: run one repetition of this workload and print its report")
		tape         = flag.String("tape", "", "internal: the child repetition's input tape")
	)
	flag.Parse()

	if *child != "" {
		w := lookupWorkload(newWorkloads(1), *child)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *child))
		}
		r := runRep(w, input{seed: *seed, tape: *tape}, *traced == 1)
		r.Entered = entered.UnixNano()
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatal(err)
		}
		return
	}

	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	if *seconds < 0 || *minReps < 1 {
		fatal(fmt.Errorf("need -seconds >= 0 and -reps >= 1"))
	}
	ws, err := selectWorkloads(*workloadFlag)
	if err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{exe: exe, origin: entered, seed: *seed}
	for _, w := range ws {
		wr := &workloadRun{w: w, in: input{seed: *seed}}
		if w.tape != nil {
			if wr.in.tape, err = generateTape(outDir, w, *seed); err != nil {
				fatal(err)
			}
		}
		b.runs = append(b.runs, wr)
	}

	if b.mon, err = startMonitor(); err != nil {
		fatal(err)
	}
	b.measure(time.Duration(*seconds*float64(time.Second)), *minReps)
	if *traced == 1 {
		b.traced()
	}
	b.mon.close()
	sums := b.summarize(*traced == 1)
	for _, s := range sums {
		s.print(os.Stdout)
	}
	if err := b.writeFiles(outDir, sums); err != nil {
		fatal(err)
	}
	line := resultLine(sums, *traced == 1)
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fatal(err)
	}
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// selectWorkloads resolves the -workload flag.
func selectWorkloads(spec string) ([]*workload, error) {
	all := newWorkloads(1)
	if spec == "all" {
		return all, nil
	}
	var ws []*workload
	for _, name := range strings.Split(spec, ",") {
		w := lookupWorkload(all, strings.TrimSpace(name))
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if !slices.Contains(ws, w) {
			ws = append(ws, w)
		}
	}
	return ws, nil
}

// roundService rounds an invocation's service time to whole
// microseconds with a 1 µs floor. Both trace codecs truncate services
// to microseconds on write but reject a zero service on read, and the
// generators emit sub-microsecond services (README, "Codec follow-up").
func roundService(t *task.Task) *task.Task {
	t.Service = max(t.Service.Round(time.Microsecond), time.Microsecond)
	return t
}

// generateTape encodes w's input for seed into dir, untimed, and
// returns its absolute path.
func generateTape(dir string, w *workload, seed uint64) (string, error) {
	src, err := w.tape(seed)
	if err != nil {
		return "", err
	}
	path, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("%s-%d.sftb", w.name, seed)))
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	_, err = trace.WriteBinary(f, trace.Map(src, roundService))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("writing %s tape: %w", w.name, err)
	}
	return path, nil
}

// Repetition kinds.
const (
	kindRep    = "rep"    // untraced, GOMAXPROCS = nproc: the end-to-end samples
	kindTraced = "traced" // probes on: the per-layer numbers
	kindSerial = "serial" // untraced, GOMAXPROCS = 1: shard.speedup's numerator
)

// repResult is one child repetition as the parent saw it.
type repResult struct {
	kind     string
	report   repReport
	err      error
	start    time.Time
	elapsed  time.Duration
	cpuS     float64 // user + system
	slowdown float64 // the machine's, during the repetition (monitor.go)
}

// wallS is the repetition's measured (unscaled) wall time.
func (r *repResult) wallS() float64 {
	return float64(r.report.RunNs+r.report.SummarizeNs) / 1e9
}

// values returns the repetition's measurements under the names of
// endToEnd and rawTimes. The end-to-end times are the raw ones at the
// reference machine speed.
func (r *repResult) values() map[string]float64 {
	exec := r.report.Entered - r.start.UnixNano()
	setupS := float64(exec+r.report.SetupNs) / 1e9
	return map[string]float64{
		"wall_s":      r.wallS() / r.slowdown,
		"setup_s":     setupS / r.slowdown,
		"wall_raw_s":  r.wallS(),
		"setup_raw_s": setupS,
		"slowdown":    r.slowdown,
		"peak_rss_mb": float64(r.report.PeakRSS) / 1e6,
		"alloc_mb":    float64(r.report.AllocBytes) / 1e6,
		"allocs_m":    float64(r.report.Mallocs) / 1e6,
	}
}

// workloadRun is one workload's repetitions within an invocation.
type workloadRun struct {
	w       *workload
	in      input
	reps    []*repResult // kindRep, in run order
	extra   []*repResult // kindTraced and kindSerial
	elapsed time.Duration
}

type bench struct {
	exe    string
	origin time.Time
	seed   uint64
	mon    *monitor
	runs   []*workloadRun
}

// spawn runs one repetition in a child process, one at a time.
func (b *bench) spawn(wr *workloadRun, kind string) *repResult {
	args := []string{"-child", wr.w.name, "-seed", fmt.Sprint(wr.in.seed)}
	if wr.in.tape != "" {
		args = append(args, "-tape", wr.in.tape)
	}
	procs := runtime.NumCPU()
	if kind == kindSerial {
		procs = 1
	}
	traceArg := "0"
	if kind == kindTraced {
		traceArg = "1"
	}
	args = append(args, "-trace", traceArg)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr

	r := &repResult{kind: kind, start: time.Now()}
	var usage map[int]float64
	err := cmd.Start()
	if err == nil {
		usage, err = waitWatched(cmd)
	}
	r.elapsed = time.Since(r.start)
	if cmd.ProcessState != nil {
		r.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	}
	if err == nil {
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		err = json.Unmarshal(lines[len(lines)-1], &r.report)
	}
	if err == nil && r.report.Err != "" {
		err = errors.New(r.report.Err)
	}
	if err == nil {
		t0, t1 := r.report.timed()
		r.slowdown = b.mon.slowdown(t0, t1, usage)
	}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %w", wr.w.name, kind, err)
		fmt.Fprintln(os.Stderr, "bench:", r.err)
	} else {
		fmt.Fprintf(os.Stderr, "bench: %s %s: wall %.3f s, slowdown %.3f, rss %.0f MB\n",
			wr.w.name, kind, r.wallS(), r.slowdown, float64(r.report.PeakRSS)/1e6)
	}
	return r
}

// measure runs the untraced repetitions, interleaved across workloads
// one at a time, until each workload has run at least minReps
// repetitions and its child time is within half a repetition of d. A
// workload stops at its first failed repetition: the invocation is
// incorrect either way, and a crashing or hanging build must not run
// the clock out.
func (b *bench) measure(d time.Duration, minReps int) {
	for {
		progressed := false
		for _, wr := range b.runs {
			n := len(wr.reps)
			failed := n > 0 && wr.reps[n-1].err != nil
			if failed || (n >= minReps && wr.elapsed+wr.elapsed/time.Duration(2*n) >= d) {
				continue
			}
			r := b.spawn(wr, kindRep)
			wr.reps = append(wr.reps, r)
			wr.elapsed += r.elapsed
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// traced runs the traced repetition of every workload, plus the
// GOMAXPROCS=1 repetition of parallel ones.
func (b *bench) traced() {
	for _, wr := range b.runs {
		wr.extra = append(wr.extra, b.spawn(wr, kindTraced))
		if wr.w.parallel {
			wr.extra = append(wr.extra, b.spawn(wr, kindSerial))
		}
	}
}

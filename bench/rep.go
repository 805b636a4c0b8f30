package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// span is one coarse timed interval: workload, repetition, and the
// repetition's setup/run/summarize/check phases. Children report their
// phase spans with local IDs and parent 0, which the parent re-parents
// under the repetition's span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	Dur    int64  `json:"dur_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
}

// repReport is one repetition's measurements, printed by the child as a
// single JSON line.
type repReport struct {
	// Entered is the wall-clock instant the child reached main; the
	// parent subtracts its spawn instant to charge process start-up and
	// package initialisation to set-up.
	Entered     int64  `json:"entered_unix_ns"`
	SetupNs     int64  `json:"setup_ns"`
	RunNs       int64  `json:"run_ns"`
	SummarizeNs int64  `json:"summarize_ns"`
	AllocBytes  uint64 `json:"alloc_bytes"`
	Mallocs     uint64 `json:"mallocs"`
	// PeakRSS is the child's own resident high-water mark. The parent's
	// ru_maxrss for the child would not do: Linux folds the parent's
	// footprint at spawn into it.
	PeakRSS int64  `json:"peak_rss_bytes"`
	Digest  string `json:"digest,omitempty"`
	Err     string `json:"error,omitempty"`
	Spans   []span `json:"spans"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// timed returns the span wall_s measures, from the start of run to the
// end of summarize, in unix ns.
func (r *repReport) timed() (t0, t1 int64) {
	for _, sp := range r.Spans {
		switch sp.Name {
		case "run":
			t0 = sp.Start
		case "summarize":
			t1 = sp.Start + sp.Dur
		}
	}
	return t0, t1
}

// runRep runs one repetition of w in this process. Allocation counts
// cover setup and run; wall time covers run and summarize.
func runRep(w *workload, in input, traced bool) repReport {
	var pr *probes
	if traced {
		pr = newProbes()
	}
	ph := w.rep(in, pr)
	var r repReport
	timed := func(name string, fn func() error) (int64, error) {
		t0 := time.Now()
		err := fn()
		d := int64(time.Since(t0))
		r.Spans = append(r.Spans, span{Name: name, Start: t0.UnixNano(), Dur: d, ID: len(r.Spans) + 1})
		return d, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var err error
	if r.SetupNs, err = timed("setup", ph.setup); err == nil {
		r.RunNs, err = timed("run", ph.run)
	}
	runtime.ReadMemStats(&after)
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.Mallocs = after.Mallocs - before.Mallocs
	if err == nil {
		r.SummarizeNs, _ = timed("summarize", func() error { ph.summarize(); return nil })
		var digest uint64
		if _, err = timed("check", func() (e error) { digest, e = ph.check(); return e }); err == nil {
			r.Digest = fmt.Sprintf("%016x", digest)
		}
	}
	if err == nil {
		r.PeakRSS, err = peakRSS()
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}

	if pr != nil {
		vals, inLayers := pr.collect()
		runS := float64(r.RunNs) / 1e9
		vals["metrics.summarize_s"] = float64(r.SummarizeNs) / 1e9
		vals["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		vals["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		if w.self != "" {
			vals[w.self] = runS - inLayers
		}
		if win := vals["shard.windows"]; win > 0 {
			vals["shard.us_per_window"] = runS * 1e6 / win
		}
		r.Layers = vals
	}
	return r
}

// peakRSS reads this process's resident high-water mark (VmHWM).
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return n << 10, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}

// Command perfbench runs the repository's performance harness
// (internal/perfbench) and writes the measurements as BENCH_<date>.json.
//
// Usage:
//
//	perfbench [-quick] [-out DIR] [-baseline FILE|auto] [-max-regress 0.25]
//
// With -baseline, the run is also a regression gate: every gated
// benchmark (engine-step, sharded-cluster, trace-binary-decode,
// trace-binary-encode, predicted-dispatch, host-pipeline) may be at most
// -max-regress slower in ns/op, and make at most -max-regress more
// allocations per op, than in the baseline report, otherwise the
// process exits non-zero.
// Benchmarks the baseline predates are noted and skipped, so adding a
// scenario doesn't break the gate until a baseline containing it is
// checked in. Passing `-baseline auto` picks the lexically-newest
// checked-in BENCH_*.json in the repository root — the project's most
// recent trajectory point — which is how CI pins the gate without
// hard-coding a file name.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/serverless-sched/sfs/internal/perfbench"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced scenario sizes for a fast CI pass")
		seed       = flag.Uint64("seed", 42, "RNG seed for synthetic inputs")
		out        = flag.String("out", ".", "directory to write BENCH_<date>.json into")
		workers    = flag.Int("workers", runtime.NumCPU(), "worker count for the experiment-suite timing")
		baseline   = flag.String("baseline", "", "baseline BENCH_*.json to gate against, or 'auto' for the newest in the repo root")
		maxRegress = flag.Float64("max-regress", 0.25, "maximum allowed ns/op and allocs/op regression vs the baseline for each gated benchmark (0.25 = +25%)")
		skipExp    = flag.Bool("skip-experiments", false, "skip the experiment-suite wall-clock phase")
	)
	flag.Parse()

	// Resolve and load the baseline BEFORE running or writing anything:
	// with `-baseline auto` and `-out .` the fresh report could otherwise
	// overwrite a same-date checked-in baseline and the gate would
	// compare the run against itself.
	var base *perfbench.Report
	basePath := *baseline
	if basePath == "auto" {
		var err error
		basePath, err = perfbench.LatestBaseline(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if basePath == "" {
			fmt.Fprintln(os.Stderr, "note: no checked-in BENCH_*.json baseline found; gate will be skipped")
		}
	}
	if basePath != "" {
		var err error
		base, err = perfbench.ReadFile(basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	rep, err := perfbench.Run(perfbench.Options{
		Quick:           *quick,
		Seed:            *seed,
		Workers:         *workers,
		SkipExperiments: *skipExp,
		Log:             os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	path, err := rep.WriteFile(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (GOMAXPROCS=%d)\n", path, rep.GoMaxProcs)
	for _, note := range rep.Notes {
		fmt.Printf("note: %s\n", note)
	}
	if path == basePath {
		fmt.Fprintf(os.Stderr, "note: overwrote the baseline file %s (gate still compares against its previous contents)\n", basePath)
	}
	if rep.Experiments != nil {
		fmt.Printf("experiment suite: %.0f ms at %d workers (%.2fx over %.0f ms serial)\n",
			rep.Experiments.WallClockMS, rep.Experiments.Workers,
			rep.Experiments.Speedup, rep.Experiments.SerialWallClockMS)
	}

	if base == nil {
		return
	}
	failed := false
	for _, name := range perfbench.GatedBenchmarks() {
		if _, ok := base.Find(name); !ok {
			// A benchmark newer than the baseline can't regress against
			// it; it joins the gate once a baseline containing it lands.
			fmt.Fprintf(os.Stderr, "note: baseline %s predates benchmark %q; skipping its gate\n", basePath, name)
			continue
		}
		if err := perfbench.Compare(rep, base, name, *maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "regression gate vs %s FAILED: %v\n", basePath, err)
			failed = true
			continue
		}
		cur, _ := rep.Find(name)
		baseB, _ := base.Find(name)
		fmt.Printf("regression gate vs %s passed: %s %.0f ns/op, %d allocs/op (baseline %.0f, %d; limit +%.0f%%)\n",
			basePath, name, cur.NsPerOp, cur.AllocsPerOp, baseB.NsPerOp, baseB.AllocsPerOp, 100**maxRegress)
	}
	if failed {
		os.Exit(1)
	}
}

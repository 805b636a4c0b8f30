// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -id fig6 [-quick] [-seed 42] [-csv out/] [-parallel 8]
//	experiments -all [-quick] [-parallel 8]
//
// With -all the registered experiments fan out across -parallel
// workers (default: all CPUs); per-experiment sweeps such as keepalive
// and cluster-dispatch subdivide further across the same pool. Results
// are byte-identical at any worker count: every experiment runs with a
// seed derived from (-seed, experiment ID), and output is collected in
// registry order. A single -id run uses the same derivation, so it
// reproduces that experiment's slice of a full -all sweep.
//
// CSV write failures do not abort the run: remaining experiments still
// execute and print, the errors are reported together at the end, and
// the process exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/serverless-sched/sfs/internal/experiments"
)

func main() {
	var (
		id       = flag.String("id", "", "experiment ID to run (e.g. fig6, table2)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment IDs")
		quick    = flag.Bool("quick", false, "reduced scale for a fast pass")
		seed     = flag.Uint64("seed", 42, "RNG seed (per-experiment seeds are derived from it)")
		csv      = flag.String("csv", "", "directory to write per-experiment CSV files")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker count for experiments and their inner sweeps")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	var reports []*experiments.Report
	switch {
	case *all:
		reports = experiments.RunAll(cfg, *parallel)
	case *id != "":
		e, ok := experiments.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *id)
			os.Exit(1)
		}
		reports = []*experiments.Report{experiments.RunOne(cfg, e, *parallel)}
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -id, -all, or -list")
		os.Exit(1)
	}

	// Print every report and attempt every CSV; collect failures instead
	// of aborting mid-loop so one bad write cannot cost the rest of a
	// long sweep's output.
	var errs []error
	for _, rep := range reports {
		fmt.Println(rep.Render())
		// Wall-clock is printed here rather than rendered into the
		// report: rendered bytes stay a pure function of (seed, scale).
		fmt.Printf("(%s ran in %v)\n\n", rep.ID, rep.WallClock.Round(time.Millisecond))
		if *csv == "" {
			continue
		}
		path := filepath.Join(*csv, rep.ID+".csv")
		if err := writeCSV(path, rep.CSV()); err != nil {
			errs = append(errs, err)
			continue
		}
		fmt.Printf("wrote %s\n\n", path)
	}
	if len(errs) > 0 {
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, err)
		}
		fmt.Fprintf(os.Stderr, "%d of %d CSV files failed\n", len(errs), len(reports))
		os.Exit(1)
	}
}

// writeCSV creates the output directory on demand and writes one
// report's CSV.
func writeCSV(path, data string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(data), 0o644)
}

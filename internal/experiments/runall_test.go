package experiments

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEveryIndexOnce: Fan must invoke fn exactly once per index
// at any worker count, including nested fans.
func TestPoolRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		p := NewPool(workers)
		const n = 100
		var counts [n]int32
		p.Fan(n, func(i int) {
			// Nested fan borrows from the same pool without deadlock.
			p.Fan(3, func(int) {})
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestPoolBoundsConcurrency: at most `workers` cells run at once.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	var cur, max int32
	var mu sync.Mutex
	p.Fan(64, func(int) {
		n := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if n > max {
			max = n
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if max > workers {
		t.Fatalf("observed %d concurrent cells, pool allows %d", max, workers)
	}
}

// TestSweepCellOrder: experiments run outside RunAll (zero Config) must
// still work, running their cells serially in cell order, and on a
// pool the results come back in cell order however long each cell
// takes.
func TestSweepCellOrder(t *testing.T) {
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var cfg Config
	var order []int
	got := sweep(cfg, cells, func(c int) int { order = append(order, c); return 10 * c })
	if !slices.Equal(order, cells) {
		t.Fatalf("nil pool ran cells in order %v", order)
	}
	want := []int{0, 10, 20, 30, 40, 50, 60, 70}
	if !slices.Equal(got, want) {
		t.Fatalf("nil pool results %v, want %v", got, want)
	}

	// Early cells take longest, so on four workers they finish last.
	cfg.pool = NewPool(4)
	got = sweep(cfg, cells, func(c int) int {
		time.Sleep(time.Duration(len(cells)-c) * 2 * time.Millisecond)
		return 10 * c
	})
	if !slices.Equal(got, want) {
		t.Fatalf("pool of 4 results %v, want %v", got, want)
	}
}

// TestDeriveSeed: positional seeding is deterministic, sensitive to
// both inputs, and decorrelates sibling experiments.
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, "fig6") != DeriveSeed(42, "fig6") {
		t.Fatal("DeriveSeed is not deterministic")
	}
	if DeriveSeed(42, "fig6") == DeriveSeed(42, "fig7") {
		t.Fatal("sibling experiments share a derived seed")
	}
	if DeriveSeed(42, "fig6") == DeriveSeed(43, "fig6") {
		t.Fatal("base seed does not influence the derived seed")
	}
}

// TestRunAllDeterministicAcrossWorkers is the parallel-correctness
// contract: the full suite at 8 workers must render byte-identical
// reports and CSVs to the serial run, experiment by experiment.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	cfg := Config{Quick: true, Seed: 42}
	serial := RunAll(cfg, 1)
	parallel := RunAll(cfg, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("report counts differ: %d vs %d", len(serial), len(parallel))
	}
	exps := All()
	for i := range serial {
		if serial[i].ID != exps[i].ID || parallel[i].ID != exps[i].ID {
			t.Fatalf("report %d out of order: %s / %s / %s", i, serial[i].ID, parallel[i].ID, exps[i].ID)
		}
		if a, b := serial[i].Render(), parallel[i].Render(); a != b {
			t.Errorf("%s: rendered report differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", exps[i].ID, a, b)
		}
		if a, b := serial[i].CSV(), parallel[i].CSV(); a != b {
			t.Errorf("%s: CSV bytes differ between workers=1 and workers=8", exps[i].ID)
		}
	}
}

// TestRunOneMatchesRunAll: a lone -id rerun must reproduce that slice
// of the full sweep byte for byte (same derived seed, same report).
func TestRunOneMatchesRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	cfg := Config{Quick: true, Seed: 42}
	all := RunAll(cfg, 4)
	e, ok := ByID("fig6")
	if !ok {
		t.Fatal("fig6 missing")
	}
	lone := RunOne(cfg, e, 4)
	for i, exp := range All() {
		if exp.ID != "fig6" {
			continue
		}
		if lone.Render() != all[i].Render() {
			t.Fatal("RunOne(fig6) differs from the fig6 slice of RunAll")
		}
	}
}

// TestDeriveSeedDistinctAdjacentIDs: adjacent experiment IDs — the
// near-identical strings real registries produce (fig1/fig2, exp-0/
// exp-1, one-character and one-digit deltas) — must map to pairwise
// distinct seeds for many base seeds, and every registered experiment
// ID must already be collision-free.
func TestDeriveSeedDistinctAdjacentIDs(t *testing.T) {
	uniq := map[string]bool{}
	var ids []string
	add := func(id string) {
		if !uniq[id] {
			uniq[id] = true
			ids = append(ids, id)
		}
	}
	for i := 0; i < 64; i++ {
		add(fmt.Sprintf("exp-%d", i))
		add(fmt.Sprintf("fig%d", i))
	}
	for _, e := range All() {
		add(e.ID)
	}
	for _, base := range []uint64{0, 1, 42, ^uint64(0)} {
		seen := map[uint64]string{}
		for _, id := range ids {
			s := DeriveSeed(base, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("base %d: IDs %q and %q derive the same seed %d", base, prev, id, s)
			}
			seen[s] = id
			if s == base {
				t.Errorf("base %d: ID %q derives the base seed itself", base, id)
			}
		}
	}
	// The same ID under adjacent base seeds must also decorrelate.
	for i := uint64(0); i < 64; i++ {
		if DeriveSeed(i, "keepalive") == DeriveSeed(i+1, "keepalive") {
			t.Fatalf("bases %d and %d collide for one ID", i, i+1)
		}
	}
}

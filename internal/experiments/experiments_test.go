package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

var quick = Config{Quick: true, Seed: 42}

// TestRegistryComplete pins the registry's IDs and their order, the
// order RunAll reports in and the experiments-quick golden records.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-secondlevel", "ablation-baselines", "ablation-window",
		"ablation-overload", "ablation-tail", "ablation-queueing",
		"chain-slowdown", "cluster-dispatch", "keepalive",
		"fig1", "table1", "fig2a", "fig2b", "fig13", "fig14", "fig15", "fig16",
		"table2", "predicted-dispatch",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12a", "fig12b",
		"synth-ramp",
	}
	var got []string
	for _, e := range All() {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Errorf("registry order differs from position %d:\n got  %v\n want %v", i, got, want)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig1"); !ok {
		t.Fatal("fig1 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown ID found")
	}
}

// TestAllExperimentsProduceReports runs the full suite in quick mode and
// checks each report is structurally sound and renders.
func TestAllExperimentsProduceReports(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep := e.Run(quick)
			if rep.ID != e.ID {
				t.Fatalf("report ID %q != experiment ID %q", rep.ID, e.ID)
			}
			if len(rep.Series) == 0 && len(rep.Rows) == 0 {
				t.Fatal("report has neither series nor rows")
			}
			out := rep.Render()
			if !strings.Contains(out, e.ID) {
				t.Fatal("render missing ID")
			}
			csv := rep.CSV()
			if len(strings.Split(strings.TrimSpace(csv), "\n")) < 2 {
				t.Fatal("CSV has no data rows")
			}
			for _, n := range rep.Notes {
				t.Log(n)
			}
		})
	}
}

// TestFig2Shape verifies the motivation study's ordering: SRTF beats
// CFS, which beats FIFO, at full load.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	runs, ideal := fig2Runs(quick)
	byName := map[string]float64{}
	for _, r := range runs {
		if r.Load == 1.0 {
			byName[r.Scheduler] = float64(r.MeanTurnaround())
		}
	}
	if !(byName["SRTF"] < byName["CFS"]) {
		t.Errorf("SRTF mean %v should beat CFS %v", byName["SRTF"], byName["CFS"])
	}
	if !(byName["CFS"] < byName["FIFO"]) {
		t.Errorf("CFS mean %v should beat FIFO %v (convoy)", byName["CFS"], byName["FIFO"])
	}
	if ideal.MeanTurnaround() <= 0 {
		t.Error("IDEAL run empty")
	}
	if float64(ideal.MeanTurnaround()) > byName["SRTF"] {
		t.Error("IDEAL should lower-bound SRTF")
	}
}

// TestFig9AdaptiveCompetitive: the adaptive slice must not be beaten
// badly by every fixed slice (it should be at or near the best).
func TestFig9AdaptiveCompetitive(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rep := runFig9(quick)
	if len(rep.Series) != 4 {
		t.Fatalf("want 4 variants, got %d", len(rep.Series))
	}
}

// TestFig11ObliviousWorse: I/O-oblivious SFS must demote far more
// functions than any polling variant.
func TestFig11ObliviousWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rep := runFig11(quick)
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "demotions") {
			found = true
		}
	}
	if !found {
		t.Fatal("fig11 missing demotion note")
	}
}

// TestTable2OverheadMagnitude: the modeled overhead should land in the
// paper's single-digit-percent range.
func TestTable2OverheadMagnitude(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rep := runTable2(quick)
	if len(rep.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		avg := row[2]
		var v float64
		if _, err := fmtSscan(avg, &v); err != nil {
			t.Fatalf("unparseable avg %q", avg)
		}
		if v <= 0 || v > 15 {
			t.Errorf("interval %s: avg overhead %s out of plausible range", row[0], avg)
		}
	}
}

// fmtSscan parses "3.6%" into a float.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(strings.TrimSuffix(s, "%"), "%f", v)
}

// TestKeepaliveOrdering: the keepalive experiment must reproduce the
// expected warm-hit ordering — HIST >= TTL >= NONE at equal memory —
// on every family × memory point, and every ordering note must report
// "holds".
func TestKeepaliveOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rep := runKeepalive(quick)
	checked := 0
	for _, n := range rep.Notes {
		if !strings.Contains(n, ">=") {
			continue
		}
		checked++
		if strings.Contains(n, "VIOLATED") {
			t.Errorf("ordering violated: %s", n)
		}
	}
	if checked == 0 {
		t.Fatal("keepalive report has no ordering notes")
	}
	// The periodic family is constructed so the gaps between policies
	// are wide, not ties: verify from the raw rows that HIST is
	// strictly better than TTL there at unlimited memory.
	var hist, ttl float64
	for _, row := range rep.Rows {
		if row[0] != "periodic" || row[1] != "inf" {
			continue
		}
		var v float64
		if _, err := fmtSscan(row[3], &v); err != nil {
			t.Fatalf("unparseable warm-hit %q", row[3])
		}
		switch row[2] {
		case "HIST":
			hist = v
		case "TTL":
			ttl = v
		}
	}
	if hist <= ttl {
		t.Errorf("periodic family: HIST warm-hit %.1f%% should strictly beat TTL %.1f%%", hist, ttl)
	}
}

// TestChainSlowdownOrdering: on the synthetic multi-stage family, SFS's
// mean end-to-end workflow slowdown must be at or below CFS's at every
// (depth, load) point — the chain-slowdown experiment's acceptance
// assertion, reported in its notes.
func TestChainSlowdownOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rep := runChainSlowdown(quick)
	checked := 0
	for _, n := range rep.Notes {
		if !strings.Contains(n, "<=") {
			continue
		}
		checked++
		if strings.Contains(n, "VIOLATED") {
			t.Errorf("SFS <= CFS end-to-end slowdown violated: %s", n)
		}
	}
	if checked == 0 {
		t.Fatal("chain-slowdown report has no ordering notes")
	}
}

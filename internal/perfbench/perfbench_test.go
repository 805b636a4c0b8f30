package perfbench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareGate: the regression gate trips on >maxRegress slowdowns
// or allocation growth, passes within tolerance, and refuses scale
// mismatches.
func TestCompareGate(t *testing.T) {
	bench := func(ns float64, allocs int64) []Benchmark {
		return []Benchmark{{Name: EngineStepBenchmark, NsPerOp: ns, AllocsPerOp: allocs}}
	}
	base := &Report{Quick: true, Benchmarks: bench(1000, 100)}
	ok := &Report{Quick: true, Benchmarks: bench(1200, 120)}
	bad := &Report{Quick: true, Benchmarks: bench(1300, 100)}
	allocHeavy := &Report{Quick: true, Benchmarks: bench(900, 130)}
	full := &Report{Quick: false, Benchmarks: bench(1000, 100)}

	if err := Compare(ok, base, EngineStepBenchmark, 0.25); err != nil {
		t.Fatalf("+20%% should pass a 25%% gate: %v", err)
	}
	if err := Compare(bad, base, EngineStepBenchmark, 0.25); err == nil {
		t.Fatal("+30% must fail a 25% gate")
	}
	if err := Compare(allocHeavy, base, EngineStepBenchmark, 0.25); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("+30%% allocs/op must fail a 25%% gate even when faster: %v", err)
	}
	if err := Compare(full, base, EngineStepBenchmark, 0.25); err == nil {
		t.Fatal("quick/full scale mismatch must be an error")
	}
	if err := Compare(&Report{Quick: true}, base, EngineStepBenchmark, 0.25); err == nil {
		t.Fatal("missing benchmark must be an error")
	}
}

// TestCompareCalibrationNormalized: when both reports carry a machine
// calibration, the gate judges the speed ratio, not raw ns/op — a slow
// machine is forgiven, a fast machine cannot hide a real regression.
func TestCompareCalibrationNormalized(t *testing.T) {
	base := &Report{Quick: true, CalibrationNsPerOp: 1000,
		Benchmarks: []Benchmark{{Name: EngineStepBenchmark, NsPerOp: 1000}}}
	// Machine 2x slower (calibration 2000): raw 1900 ns/op normalizes
	// to 950 — within the 25% gate even though raw is +90%.
	slow := &Report{Quick: true, CalibrationNsPerOp: 2000,
		Benchmarks: []Benchmark{{Name: EngineStepBenchmark, NsPerOp: 1900}}}
	if err := Compare(slow, base, EngineStepBenchmark, 0.25); err != nil {
		t.Fatalf("slow machine should be normalized away: %v", err)
	}
	// Machine 2x faster (calibration 500): raw 700 ns/op normalizes to
	// 1400 — a genuine +40% code regression the fast hardware was
	// masking.
	fast := &Report{Quick: true, CalibrationNsPerOp: 500,
		Benchmarks: []Benchmark{{Name: EngineStepBenchmark, NsPerOp: 700}}}
	if err := Compare(fast, base, EngineStepBenchmark, 0.25); err == nil {
		t.Fatal("fast machine must not mask a normalized regression")
	}
	// A baseline without calibration falls back to the raw comparison.
	legacy := &Report{Quick: true, Benchmarks: []Benchmark{{Name: EngineStepBenchmark, NsPerOp: 1000}}}
	if err := Compare(slow, legacy, EngineStepBenchmark, 0.25); err == nil {
		t.Fatal("raw fallback should flag +90% when no calibration exists")
	}
}

// TestReportRoundTrip: WriteFile emits the BENCH_<date>.json schema and
// ReadFile restores it.
func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{
		Date: "2026-01-02", GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64",
		CPUs: 8, Quick: true, Seed: 42,
		Benchmarks:  []Benchmark{{Name: EngineStepBenchmark, NsPerOp: 123.5, AllocsPerOp: 7, BytesPerOp: 512, Iterations: 100}},
		Experiments: &ExperimentTiming{Workers: 8, WallClockMS: 100, SerialWallClockMS: 400, Speedup: 4, Experiments: 26, DeterministicBytes: true},
	}
	path, err := rep.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-01-02.json" {
		t.Fatalf("unexpected file name %s", path)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks[0] != rep.Benchmarks[0] || *back.Experiments != *rep.Experiments {
		t.Fatalf("round trip mutated the report: %+v", back)
	}

	// The schema must include the fields the CI gate and trajectory
	// tooling key on.
	raw, _ := os.ReadFile(path)
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"date", "quick", "benchmarks", "experiments", "cpus"} {
		if _, ok := m[k]; !ok {
			t.Errorf("BENCH json lacks %q", k)
		}
	}
}

// TestLatestBaseline: the newest BENCH file wins; empty dirs are not an
// error.
func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	if p, err := LatestBaseline(dir); err != nil || p != "" {
		t.Fatalf("empty dir: %q, %v", p, err)
	}
	for _, n := range []string{"BENCH_2026-01-02.json", "BENCH_2025-12-31.json", "other.json"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_2026-01-02.json" {
		t.Fatalf("picked %s", p)
	}
}

// TestScenariosComplete: the harness must cover the hot paths the
// tentpole optimized, and every scenario must actually run.
func TestScenariosComplete(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Scenarios(true, 42) {
		names[s.Name] = true
	}
	for _, want := range []string{EngineStepBenchmark, "cluster-dispatch", "sharded-cluster", "chain-run",
		"predicted-dispatch", "trace-decode", "trace-encode", "trace-binary-decode",
		"trace-binary-encode", "cluster-1m", "metrics-summary"} {
		if !names[want] {
			t.Errorf("scenario %q missing", want)
		}
	}
	// Every gated benchmark must exist as a scenario.
	for _, want := range GatedBenchmarks() {
		if !names[want] {
			t.Errorf("gated benchmark %q has no scenario", want)
		}
	}
}

// TestRunQuickMicro: a micro-only harness run produces a well-formed
// report with positive measurements.
func TestRunQuickMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every micro-benchmark")
	}
	rep, err := Run(Options{Quick: true, Seed: 42, SkipExperiments: true, SkipHeavy: true})
	if err != nil {
		t.Fatal(err)
	}
	light := 0
	for _, s := range Scenarios(true, 42) {
		if !s.Heavy {
			light++
		}
	}
	if len(rep.Benchmarks) != light {
		t.Fatalf("measured %d of %d non-heavy scenarios", len(rep.Benchmarks), light)
	}
	for _, b := range rep.Benchmarks {
		if b.NsPerOp <= 0 || b.Iterations <= 0 {
			t.Errorf("%s: implausible measurement %+v", b.Name, b)
		}
	}
	if rep.Date == "" || rep.GoVersion == "" {
		t.Errorf("missing provenance: %+v", rep)
	}
}

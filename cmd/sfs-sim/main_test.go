package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// runMainEnv makes the test binary act as sfs-sim: TestMain runs main
// on the process's arguments instead of running the tests.
const runMainEnv = "SFS_SIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs sfs-sim with args in a child process and returns its exit
// code and standard error. A child still running after 20 s fails the
// test, so a hang is reported rather than waited out.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("sfs-sim %s: still running after 20 s", strings.Join(args, " "))
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("sfs-sim %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestMalformedFlagsExitOne checks that a non-positive -n (outside
// synth) or -cores < 1 exits 1 with an error naming the flag, where
// these used to panic or stream forever.
func TestMalformedFlagsExitOne(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "w.csv")
	f, err := os.Create(csv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCSV(f, workload.Stream(workload.Spec{N: 20, Cores: 16, Load: 0.8, Seed: 42})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "0"}, "-n "},
		{[]string{"-n", "0", "-arrivals", "trace"}, "-n "},
		{[]string{"-n", "0", "-arrivals", "diurnal"}, "-n "},
		{[]string{"-n", "-3", "-arrivals", "flashcrowd"}, "-n "},
		{[]string{"-n", "10", "-cores", "0"}, "-cores"},
		{[]string{"-workload", csv, "-cores", "0"}, "-cores"},
	} {
		name := strings.ReplaceAll(strings.Join(tc.args, " "), csv, "w.csv")
		t.Run(name, func(t *testing.T) {
			code, stderr := runCLI(t, tc.args...)
			if code != 1 || strings.Contains(stderr, "panic:") {
				t.Fatalf("exit %d, want 1 without a panic; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.flag) {
				t.Errorf("stderr %q does not name %s", stderr, strings.TrimSpace(tc.flag))
			}
		})
	}
}

// TestSynthZeroNRunsToHorizon checks that -n 0 keeps meaning "until
// -horizon" for synth arrivals.
func TestSynthZeroNRunsToHorizon(t *testing.T) {
	if code, stderr := runCLI(t, "-n", "0", "-arrivals", "synth", "-horizon", "2s"); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
}

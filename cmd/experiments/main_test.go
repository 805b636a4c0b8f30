package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/experiments"
)

// runMainEnv makes the test binary act as experiments: TestMain runs
// main on the process's arguments instead of running the tests.
const runMainEnv = "EXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs experiments with args in a child process and returns its
// exit code, standard output and standard error. A child still running
// after 20 s fails the test, so a hang is reported rather than waited
// out.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("experiments %s: still running after 20 s", strings.Join(args, " "))
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("experiments %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestListPrintsRegistryOrder: -list prints one line per experiment,
// ID first, in registry order.
func TestListPrintsRegistryOrder(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr)
	}
	var got, want []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	for _, e := range experiments.All() {
		want = append(want, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("-list printed IDs\n %v\nwant registry order\n %v", got, want)
	}
}

// TestUnknownIDExitsOne: an unregistered -id is an error naming it.
func TestUnknownIDExitsOne(t *testing.T) {
	code, _, stderr := runCLI(t, "-id", "fig99", "-quick")
	if code != 1 || !strings.Contains(stderr, `unknown experiment "fig99"`) {
		t.Fatalf("-id fig99: exit %d, stderr %q; want exit 1 naming the ID", code, stderr)
	}
}

// TestCSVFailureStillPrintsReport: a CSV directory that cannot be
// created (its parent is a regular file) does not abort the run: the
// report still prints, then the CSV error is reported and the process
// exits 1.
func TestCSVFailureStillPrintsReport(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-id", "table1", "-quick", "-csv", filepath.Join(file, "out"))
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "== table1: ") {
		t.Fatalf("report not printed before the CSV failure; stdout %q", stdout)
	}
	if !strings.Contains(stderr, file) || !strings.Contains(stderr, "1 of 1 CSV files failed") {
		t.Fatalf("stderr %q does not report the CSV failure", stderr)
	}
}

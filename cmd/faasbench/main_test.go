package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/goldens"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// runMainEnv makes the test binary act as faasbench: TestMain runs main
// on the process's arguments instead of running the tests.
const runMainEnv = "FAASBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs faasbench with args in a child process and returns its
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
		t.Fatalf("faasbench %s: still running after 20 s", strings.Join(args, " "))
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("faasbench %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// writeCSV writes a small Poisson trace, calibrated to 8 cores at load
// 0.9, to a temporary CSV file and returns its path.
func writeCSV(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "T.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCSV(f, workload.Stream(workload.Spec{N: n, Cores: 8, Load: 0.9, Seed: 42})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeFile writes content to name under a temporary directory and
// returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMalformedFlagsExitOne checks that malformed flags exit 1 with an
// error naming the flag rather than panic, stream forever, exhaust
// memory, or fall back to a default: a non-positive -n (outside synth),
// -cores < 1, a -load that is not positive and finite, an -io-fraction
// outside [0, 1], synth flags giving no positive finite rate or span, a
// -speeds count far beyond -hosts, non-positive SFS, keep-alive and
// chain knobs, out-of-range ingest knobs, and a set generation flag the
// -arrivals family (or -in) ignores. The subcommands folded into replay
// must be unknown, and a short Azure CSV row and a trace CSV whose
// arrivals decrease are errors naming the row.
func TestMalformedFlagsExitOne(t *testing.T) {
	csv := writeCSV(t, 20)
	inv := writeFile(t, "inv.csv", "HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,f,http,3,4\n")
	shortInv := writeFile(t, "short.csv", "HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,f,http,3,4\nx\n")
	unsorted := writeFile(t, "unsorted.csv", "id,app,arrival_us,service_us,io_ops\n"+
		"5,fib,237149,34123,\n0,fib,0,60901,\n1,fib,4053,234848,\n")
	out := filepath.Join(t.TempDir(), "o.sftb")
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"gen", "-n", "0"}, "-n "},
		{[]string{"gen", "-n", "0", "-arrivals", "trace"}, "-n "},
		{[]string{"gen", "-n", "0", "-arrivals", "multitenant"}, "-n "},
		{[]string{"export", "-n", "-5"}, "-n "},
		{[]string{"gen", "-arrivals", "synth", "-start-rps", "0", "-target-rps", "0"}, "-start-rps"},
		{[]string{"gen", "-arrivals", "synth", "-shape", "sine", "-start-rps", "10", "-target-rps", "-10"}, "-start-rps"},
		{[]string{"gen", "-arrivals", "synth", "-shape", "step", "-slot-dur", "0"}, "-slot-dur"},
		{[]string{"replay", "-n", "0"}, "-n "},
		{[]string{"replay", "-n", "0", "-arrivals", "trace"}, "-n "},
		{[]string{"replay", "-n", "0", "-arrivals", "diurnal"}, "-n "},
		{[]string{"replay", "-n", "-3", "-arrivals", "flashcrowd"}, "-n "},
		{[]string{"replay", "-n", "0", "-chain", "LINEAR"}, "-n "},
		{[]string{"replay", "-n", "0", "-arrivals", "trigger", "-chain", "LINEAR"}, "-n "},
		{[]string{"replay", "-n", "10", "-cores", "0"}, "-cores"},
		{[]string{"replay", "-n", "10", "-chain", "LINEAR", "-cores", "0"}, "-cores"},
		{[]string{"replay", "-in", csv, "-cores", "0"}, "-cores"},
		{[]string{"replay", "-in", csv, "-sched", "SFS", "-cores", "0"}, "-cores"},
		{[]string{"replay", "-n", "50", "-arrivals", "synth", "-start-rps", "-5"}, "-start-rps"},
		{[]string{"replay", "-n", "10", "-hosts", "2", "-speeds", "1x500000000"}, "-speeds"},
		{[]string{"cluster", "-n", "10"}, "unknown subcommand"},
		{[]string{"chain", "-n", "10"}, "unknown subcommand"},
		{[]string{"gen", "-arrivals", "diurnal", "-load", "NaN", "-n", "100"}, "-load"},
		{[]string{"gen", "-arrivals", "flashcrowd", "-load", "NaN", "-n", "100"}, "-load"},
		{[]string{"gen", "-arrivals", "multitenant", "-load", "NaN", "-n", "100"}, "-load"},
		{[]string{"gen", "-arrivals", "trigger", "-load", "NaN"}, "-load"},
		{[]string{"replay", "-arrivals", "multitenant", "-load", "+Inf"}, "-load"},
		{[]string{"replay", "-load", "NaN"}, "-load"},
		{[]string{"replay", "-load", "0"}, "-load"},
		{[]string{"replay", "-load", "-1"}, "-load"},
		{[]string{"replay", "-n", "10", "-poll", "-1ms"}, "-poll"},
		{[]string{"replay", "-n", "10", "-fixed-slice", "-1ms"}, "-fixed-slice"},
		{[]string{"replay", "-n", "10", "-keepalive", "TTL", "-keepalive-ttl", "-1s"}, "-keepalive-ttl"},
		{[]string{"replay", "-n", "10", "-chain", "LINEAR", "-chain-depth", "-3"}, "-chain-depth"},
		{[]string{"gen", "-io-fraction", "2"}, "-io-fraction"},
		{[]string{"gen", "-io-fraction", "NaN"}, "-io-fraction"},
		{[]string{"gen", "-arrivals", "synth", "-start-rps", "NaN", "-target-rps", "5"}, "-start-rps"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-scale", "NaN"}, "-scale"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-scale", "-1"}, "-scale"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-scale", "2"}, "-scale"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-max", "-1"}, "-max"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-default-ms", "0"}, "-default-ms"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-default-ms", "-5"}, "-default-ms"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-minutes", "5:2"}, "-minutes"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-minutes", "0:10"}, "-minutes"},
		{[]string{"ingest", "-invocations", inv, "-o", out, "-minutes", "1:1441"}, "-minutes"},
		{[]string{"ingest", "-invocations", shortInv, "-o", out}, "invocation row 2"},
		{[]string{"gen", "-arrivals", "diurnal", "-io-fraction", "0.5"}, "-io-fraction"},
		{[]string{"gen", "-arrivals", "poisson", "-spikes", "3"}, "-spikes"},
		{[]string{"gen", "-arrivals", "trigger", "-mix"}, "-mix"},
		{[]string{"gen", "-arrivals", "flashcrowd", "-shape", "sine", "-start-rps", "5"}, "-shape"},
		{[]string{"gen", "-arrivals", "synth", "-load", "1.0"}, "-load"},
		{[]string{"gen", "-arrivals", "synth", "-shape", "ramp", "-slots", "4"}, "-slots"},
		{[]string{"gen", "-arrivals", "synth", "-shape", "step", "-horizon", "10s"}, "-horizon"},
		{[]string{"replay", "-in", csv, "-n", "10"}, "-n "},
		{[]string{"replay", "-in", csv, "-arrivals", "trace"}, "-arrivals"},
		{[]string{"replay", "-in", unsorted, "-hosts", "2", "-cores", "2", "-dispatch", "RR"}, "row 2"},
		{[]string{"replay", "-in", unsorted, "-hosts", "2", "-cores", "2", "-dispatch", "RR", "-shards", "2"}, "row 2"},
	} {
		name := strings.NewReplacer(csv, "f.csv", inv, "inv.csv", shortInv, "short.csv", unsorted, "unsorted.csv", out, "o.sftb").Replace(strings.Join(tc.args, " "))
		t.Run(name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 1 || strings.Contains(stderr, "panic:") {
				t.Fatalf("exit %d, want 1 without a panic; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.flag) {
				t.Errorf("stderr %q does not name %s", stderr, strings.TrimSpace(tc.flag))
			}
		})
	}
}

// TestArrivalsCaseInsensitive checks that -arrivals takes one path
// whatever its case, azure included as another name for trace, so the
// family's own flags apply under every spelling.
func TestArrivalsCaseInsensitive(t *testing.T) {
	for _, tc := range []struct {
		a, b  string
		flags []string
	}{
		{"Poisson", "poisson", []string{"-io-fraction", "0.5"}},
		{"SYNTH", "synth", []string{"-shape", "sine", "-start-rps", "5"}},
		{"AZURE", "trace", []string{"-spikes", "3"}},
	} {
		emit := func(family string) string {
			args := append([]string{"gen", "-emit", "-n", "500", "-arrivals", family}, tc.flags...)
			code, stdout, stderr := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("faasbench %s: exit %d; stderr:\n%s", strings.Join(args, " "), code, stderr)
			}
			return stdout
		}
		if a, b := emit(tc.a), emit(tc.b); a != b {
			t.Errorf("-arrivals %s and %s emit different traces with %s", tc.a, tc.b, strings.Join(tc.flags, " "))
		}
	}
}

// TestSynthZeroNRunsToHorizon checks that -n 0 keeps meaning "until
// -horizon" for synth arrivals, when generating and when simulating.
func TestSynthZeroNRunsToHorizon(t *testing.T) {
	for _, cmd := range []string{"gen", "replay"} {
		if code, _, stderr := runCLI(t, cmd, "-n", "0", "-arrivals", "synth", "-horizon", "2s"); code != 0 {
			t.Fatalf("%s: exit %d, want 0; stderr:\n%s", cmd, code, stderr)
		}
	}
}

var wallTime = regexp.MustCompile(`in \S+ wall time`)

// TestGoldenReplay pins replay's report in each of its modes to
// testdata/replay.golden, with the wall-clock time masked. Bless a
// deliberate change with `go test ./cmd/faasbench -run Golden -update`.
// Under RR, which reads no host state, the serial and sharded reports
// must also differ only in the sharded engine line.
func TestGoldenReplay(t *testing.T) {
	csv := writeCSV(t, 300)
	var golden strings.Builder
	reports := map[string]string{}
	for _, cmd := range []string{
		"-in T.csv -cores 8 -sched SFS",
		"-in T.csv -cores 8 -sched SFS -keepalive HIST -memory 1024",
		"-in T.csv -cores 8 -sched IDEAL",
		"-in T.csv -sched ''",
		"-in T.csv -hosts 4 -cores 2 -dispatch RR",
		"-in T.csv -hosts 4 -cores 2 -dispatch RR -shards 2",
		"-n 200 -chain LINEAR -keepalive TTL",
		"-n 300 -arrivals trigger -chain LINEAR -hosts 4 -dispatch PREDICTED",
	} {
		args := []string{"replay"}
		for _, f := range strings.Fields(cmd) {
			switch f {
			case "T.csv":
				f = csv
			case "''":
				f = ""
			}
			args = append(args, f)
		}
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("faasbench replay %s: exit %d; stderr:\n%s", cmd, code, stderr)
		}
		out := wallTime.ReplaceAllString(strings.ReplaceAll(stdout, csv, "T.csv"), "in <wall> wall time")
		reports[cmd] = out
		fmt.Fprintf(&golden, "$ faasbench replay %s\n%s\n", cmd, out)
	}
	goldens.Check(t, "replay", golden.String())

	serial := reports["-in T.csv -hosts 4 -cores 2 -dispatch RR"]
	var sharded []string
	for _, l := range strings.SplitAfter(reports["-in T.csv -hosts 4 -cores 2 -dispatch RR -shards 2"], "\n") {
		if !strings.HasPrefix(l, "sharded engine:") {
			sharded = append(sharded, l)
		}
	}
	if got := strings.Join(sharded, ""); got != serial {
		t.Errorf("RR serial and sharded reports differ beyond the sharded engine line:\nserial:\n%s\nsharded:\n%s", serial, got)
	}
}

package azure

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/trace"
)

func openFixture(t *testing.T, name string) *os.File {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestScanFixtures: the scanners read the checked-in dataset samples
// the ingest golden is built from.
func TestScanFixtures(t *testing.T) {
	durations := scanDurations(t, openFixture(t, "durations_sample.csv"))
	if len(durations) != 3 {
		t.Fatalf("%d duration rows, want 3", len(durations))
	}
	if durations[0].P50 != 180*time.Millisecond {
		t.Errorf("P50 = %v, want 180ms", durations[0].P50)
	}

	inv := scanInvocations(t, openFixture(t, "invocations_sample.csv"))
	if len(inv) != 4 {
		t.Fatalf("%d invocation rows, want 4", len(inv))
	}
	if inv[0].Total != 105 || inv[1].Total != 40 || inv[2].Total != 5 || inv[3].Total != 32 {
		t.Errorf("totals = %d %d %d %d", inv[0].Total, inv[1].Total, inv[2].Total, inv[3].Total)
	}
}

// TestScanInvocationsRowValidity: a row retained without copying is
// overwritten by the next — documenting the reuse contract.
func TestScanInvocationsRowValidity(t *testing.T) {
	var first []int
	var firstCopy []int
	rows := 0
	err := ScanInvocations(openFixture(t, "invocations_sample.csv"), func(row InvocationRow) error {
		if rows == 0 {
			first = row.PerMinute
			firstCopy = append([]int(nil), row.PerMinute...)
		}
		rows++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range first {
		if first[i] != firstCopy[i] {
			same = false
		}
	}
	if same {
		t.Skip("scanner buffer happened to retain row 0; reuse not observable here")
	}
}

// TestDurationsIndex: P50 preferred, Average as fallback.
func TestDurationsIndex(t *testing.T) {
	idx, err := DurationsIndex(openFixture(t, "durations_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Fatalf("index has %d entries, want 3", len(idx))
	}
	if d := idx[FuncKey{"o1", "app-a", "f1"}]; d != 180*time.Millisecond {
		t.Errorf("f1 = %v, want P50 180ms", d)
	}
	if d := idx[FuncKey{"o2", "app-b", "f3"}]; d != 3100*time.Millisecond {
		t.Errorf("f3 = %v, want P50 3.1s", d)
	}
}

// TestIngestTape: the full streaming path — counts expanded within
// their minutes, serviced from the index, app-labeled, sorted, valid,
// and deterministic in the seed.
func TestIngestTape(t *testing.T) {
	idx, err := DurationsIndex(openFixture(t, "durations_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*trace.Tape, IngestStats) {
		tp, stats, err := IngestTape(openFixture(t, "invocations_sample.csv"), idx, IngestConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return tp, stats
	}
	tp, stats := run()
	if stats.Rows != 4 || stats.Functions != 4 {
		t.Errorf("rows=%d functions=%d, want 4/4", stats.Rows, stats.Functions)
	}
	if want := 105 + 40 + 5 + 32; stats.Invocations != want || tp.Len() != want {
		t.Errorf("invocations=%d len=%d, want %d", stats.Invocations, tp.Len(), want)
	}
	if stats.NoDuration != 32 { // f4 has no durations row
		t.Errorf("NoDuration = %d, want 32", stats.NoDuration)
	}
	if stats.Truncated {
		t.Error("unexpected truncation")
	}

	tasks := tp.Materialize(nil)
	perApp := map[string]int{}
	for i, tk := range tasks {
		perApp[tk.App]++
		if tk.ID != i {
			t.Fatalf("task %d has ID %d", i, tk.ID)
		}
		if i > 0 && tk.Arrival < tasks[i-1].Arrival {
			t.Fatalf("arrival order violated at %d", i)
		}
	}
	if perApp["app-a"] != 145 || perApp["app-b"] != 5 || perApp["app-c"] != 32 {
		t.Errorf("per-app counts = %v", perApp)
	}
	// f4's invocations carry the default service time.
	seenDefault := false
	for _, tk := range tasks {
		if tk.App == "app-c" {
			if tk.Service != 100*time.Millisecond {
				t.Fatalf("app-c service = %v, want default 100ms", tk.Service)
			}
			seenDefault = true
		}
	}
	if !seenDefault {
		t.Error("no app-c invocations emitted")
	}
	if _, err := trace.Validate(tp.Source()); err != nil {
		t.Fatalf("ingested tape invalid: %v", err)
	}

	tp2, _ := run()
	a, b := tp.Materialize(nil), tp2.Materialize(nil)
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Service != b[i].Service || a[i].App != b[i].App {
			t.Fatalf("replay diverges at invocation %d", i)
		}
	}
}

// TestIngestTapeWindowScaleCap: the minute window drops out-of-window
// mass, Scale thins roughly proportionally, and MaxInvocations
// truncates with the flag set.
func TestIngestTapeWindowScaleCap(t *testing.T) {
	idx, err := DurationsIndex(openFixture(t, "durations_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	tp, stats, err := IngestTape(openFixture(t, "invocations_sample.csv"), idx,
		IngestConfig{MinuteLo: 2, MinuteHi: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Window minutes 2..4: f1 8+0+25, f2 0+5+5, f3 0+1+0, f4 30+0+0 = 74.
	if tp.Len() != 74 {
		t.Errorf("windowed tape holds %d, want 74", tp.Len())
	}
	for _, tk := range tp.Materialize(nil) {
		if at := time.Duration(tk.Arrival); at < 0 || at >= 3*time.Minute {
			t.Fatalf("arrival %v outside the 3-minute window", at)
		}
	}

	_, sStats, err := IngestTape(openFixture(t, "invocations_sample.csv"), idx,
		IngestConfig{Scale: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sStats.Invocations < 60 || sStats.Invocations > 120 {
		t.Errorf("scaled ingestion kept %d of 182, want ~91", sStats.Invocations)
	}

	capped, cStats, err := IngestTape(openFixture(t, "invocations_sample.csv"), idx,
		IngestConfig{MaxInvocations: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Len() != 50 || !cStats.Truncated {
		t.Errorf("cap: len=%d truncated=%v, want 50/true", capped.Len(), cStats.Truncated)
	}
	if stats.Truncated {
		t.Error("windowed run reported truncation")
	}
}

// TestScanErrors: malformed inputs surface row-numbered errors, and a
// callback error stops the scan.
func TestScanErrors(t *testing.T) {
	bad := "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\no,a,f,notanumber,1,1,1\n"
	err := ScanDurations(strings.NewReader(bad), func(DurationRow) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("bad Average: err = %v", err)
	}

	for _, header := range []string{"Nope\n", "HashOwner,HashApp\no,a\n"} {
		if err := ScanDurations(strings.NewReader(header), func(DurationRow) error { return nil }); err == nil {
			t.Errorf("missing columns accepted: %q", header)
		}
	}

	stop := strings.NewReader("HashOwner,HashApp,HashFunction,1\no,a,f,1\no,a,g,1\n")
	calls := 0
	sentinel := os.ErrClosed
	err = ScanInvocations(stop, func(InvocationRow) error {
		calls++
		return sentinel
	})
	if err != sentinel || calls != 1 {
		t.Errorf("callback error: err=%v calls=%d", err, calls)
	}
}

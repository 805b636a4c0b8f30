package azure

import (
	"io"
	"strings"
	"testing"
	"time"
)

const durationCSV = `HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum,percentile_Average_0,percentile_Average_1,percentile_Average_25,percentile_Average_50,percentile_Average_75,percentile_Average_99,percentile_Average_100
o1,a1,f1,120.5,300,10,900,10,12,80,100,150,800,900
o1,a1,f2,35.0,1200,1,90,1,2,20,30,45,85,90
o2,a2,f3,5000,15,2000,20000,2000,2100,3000,4500,6000,19000,20000
`

const invocationCSV = `HashOwner,HashApp,HashFunction,Trigger,1,2,3,4,5,6,7,8,9,10,11,12
o1,a1,f1,http,10,12,9,11,10,11,9,10,12,10,9,11
o1,a1,f2,queue,0,0,500,0,1,0,0,0,0,0,0,0
o9,a9,f9,timer,1,1,1,1,1,1,1,1,1,1,1,1
`

// scanDurations collects every row ScanDurations visits.
func scanDurations(t *testing.T, r io.Reader) []DurationRow {
	t.Helper()
	var rows []DurationRow
	if err := ScanDurations(r, func(row DurationRow) error {
		rows = append(rows, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// scanInvocations collects every row ScanInvocations visits, copying
// each PerMinute out of the scanner's reused buffer.
func scanInvocations(t *testing.T, r io.Reader) []InvocationRow {
	t.Helper()
	var rows []InvocationRow
	if err := ScanInvocations(r, func(row InvocationRow) error {
		row.PerMinute = append([]int(nil), row.PerMinute...)
		rows = append(rows, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestScanDurations(t *testing.T) {
	rows := scanDurations(t, strings.NewReader(durationCSV))
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.Owner != "o1" || r.App != "a1" || r.Function != "f1" {
		t.Fatalf("keys %+v", r)
	}
	if r.Average != 120500*time.Microsecond {
		t.Fatalf("average %v", r.Average)
	}
	if r.Count != 300 {
		t.Fatalf("count %d", r.Count)
	}
	if r.Minimum != 10*time.Millisecond || r.Maximum != 900*time.Millisecond {
		t.Fatalf("min/max %v/%v", r.Minimum, r.Maximum)
	}
	if r.P50 != 100*time.Millisecond {
		t.Fatalf("p50 %v", r.P50)
	}
}

func TestScanInvocations(t *testing.T) {
	rows := scanInvocations(t, strings.NewReader(invocationCSV))
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Total != 124 {
		t.Fatalf("f1 total %d", rows[0].Total)
	}
	if rows[0].Trigger != "http" {
		t.Fatalf("trigger %q", rows[0].Trigger)
	}
	if len(rows[0].PerMinute) != 12 {
		t.Fatalf("minutes %d", len(rows[0].PerMinute))
	}
	if rows[1].Total != 501 {
		t.Fatalf("f2 total %d", rows[1].Total)
	}
}

// TestIngestTapeJoin: the streaming join of the two files on (owner,
// app, function). A joined function is serviced at its median, not its
// Average; its arrivals come from the invocation file's per-minute
// counts; a function with no durations row gets DefaultDuration, and a
// durations row with no invocation row emits nothing.
func TestIngestTapeJoin(t *testing.T) {
	idx, err := DurationsIndex(strings.NewReader(durationCSV))
	if err != nil {
		t.Fatal(err)
	}
	const fallback = 7 * time.Millisecond
	tp, stats, err := IngestTape(strings.NewReader(invocationCSV), idx,
		IngestConfig{DefaultDuration: fallback, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 3 || stats.Functions != 3 || stats.Invocations != 124+501+12 || stats.NoDuration != 12 {
		t.Fatalf("stats %+v", stats)
	}
	perService := map[time.Duration]int{}
	inMinute3 := 0
	for _, tk := range tp.Materialize(nil) {
		perService[tk.Service]++
		if tk.Service == 30*time.Millisecond {
			if at := time.Duration(tk.Arrival); at >= 2*time.Minute && at < 3*time.Minute {
				inMinute3++
			}
		}
	}
	// f1 (median 100ms, Average 120.5ms), f2 (median 30ms), f9 (no
	// durations row); f3 (median 4.5s) has no invocation row.
	want := map[time.Duration]int{100 * time.Millisecond: 124, 30 * time.Millisecond: 501, fallback: 12}
	if len(perService) != len(want) {
		t.Fatalf("services %v, want %v", perService, want)
	}
	for d, n := range want {
		if perService[d] != n {
			t.Errorf("%d invocations at %v, want %d", perService[d], d, n)
		}
	}
	// f2's spike stays a spike: 500 of its 501 invocations land in minute 3.
	if inMinute3 != 500 {
		t.Errorf("f2 minute-3 arrivals = %d, want 500", inMinute3)
	}
}

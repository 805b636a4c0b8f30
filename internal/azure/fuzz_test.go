package azure

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The scanner fuzz targets. Each seeds its corpus with the checked-in
// dataset sample plus a file whose second row is shorter than the
// required columns, then checks that no input panics and that whatever
// scans cleanly is well formed. CI runs each target briefly (-fuzz with
// a short -fuzztime); a plain `go test` replays just the seeds.

const (
	shortDurations   = "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\no,a,f,1,2,3,4\nx\n"
	shortInvocations = "HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,f,http,3,4\nx\n"
)

func scanDurationsString(in string) error {
	return ScanDurations(strings.NewReader(in), func(DurationRow) error { return nil })
}

func scanInvocationsString(in string) error {
	return ScanInvocations(strings.NewReader(in), func(InvocationRow) error { return nil })
}

func addFixture(f *testing.F, name string) {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(data))
}

func FuzzScanDurations(f *testing.F) {
	addFixture(f, "durations_sample.csv")
	f.Add(shortDurations)
	f.Fuzz(func(t *testing.T, in string) {
		idx, err := DurationsIndex(strings.NewReader(in))
		if err != nil {
			return
		}
		for k, d := range idx {
			if d <= 0 {
				t.Fatalf("function %v has duration %v, want positive", k, d)
			}
		}
	})
}

func FuzzScanInvocations(f *testing.F) {
	addFixture(f, "invocations_sample.csv")
	f.Add(shortInvocations)
	f.Fuzz(func(t *testing.T, in string) {
		_ = ScanInvocations(strings.NewReader(in), func(row InvocationRow) error {
			sum := 0
			for m, v := range row.PerMinute {
				if v < 0 {
					t.Fatalf("minute %d has negative count %d", m+1, v)
				}
				sum += v
			}
			if row.Total != sum {
				t.Fatalf("Total %d, want the per-minute sum %d", row.Total, sum)
			}
			return nil
		})
	})
}

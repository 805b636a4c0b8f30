package workload

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/serverless-sched/sfs/internal/trace"
)

func TestCSVRoundTrip(t *testing.T) {
	tasks := trace.Collect(Stream(Spec{
		N: 200, Cores: 4, Load: 0.8, Seed: 31, IOFraction: 0.5,
		Apps: []AppChoice{
			{Profile: AppFib, Weight: 1},
			{Profile: AppMd, Weight: 1},
		},
	}))
	var buf bytes.Buffer
	if _, err := trace.WriteCSV(&buf, trace.FromTasks("csv", tasks)); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(got), len(tasks))
	}
	for i, orig := range tasks {
		g := got[i]
		if g.ID != orig.ID || g.App != orig.App {
			t.Fatalf("task %d identity mismatch", i)
		}
		// Microsecond resolution: values are truncated, not perturbed,
		// except that a positive service under 1 µs is written as 1 µs.
		if g.Arrival != orig.Arrival.Truncate(time.Microsecond) {
			t.Fatalf("task %d arrival %v vs %v", i, g.Arrival, orig.Arrival)
		}
		wantSvc := orig.Service.Truncate(time.Microsecond)
		if wantSvc == 0 {
			wantSvc = time.Microsecond
		}
		if g.Service != wantSvc {
			t.Fatalf("task %d service %v vs %v", i, g.Service, orig.Service)
		}
		if len(g.IOOps) != len(orig.IOOps) {
			t.Fatalf("task %d io ops %d vs %d", i, len(g.IOOps), len(orig.IOOps))
		}
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		tasks := trace.Collect(Stream(Spec{N: int(n%50) + 1, Cores: 2, Load: 0.5, Seed: seed, IOFraction: 0.3}))
		var buf bytes.Buffer
		if _, err := trace.WriteCSV(&buf, trace.FromTasks("csv", tasks)); err != nil {
			return false
		}
		got, err := trace.ReadCSV(&buf)
		if err != nil || len(got) != len(tasks) {
			return false
		}
		// Writing the read-back workload must be byte-identical (fixed
		// point after one truncation).
		var buf2 bytes.Buffer
		if _, err := trace.WriteCSV(&buf2, trace.FromTasks("csv", got)); err != nil {
			return false
		}
		got2, err := trace.ReadCSV(&buf2)
		if err != nil || len(got2) != len(got) {
			return false
		}
		for i := range got {
			if got[i].Arrival != got2[i].Arrival || got[i].Service != got2[i].Service {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":  "a,b,c,d,e\n",
		"bad id":      "id,app,arrival_us,service_us,io_ops\nx,fib,0,1000,\n",
		"bad arrival": "id,app,arrival_us,service_us,io_ops\n0,fib,x,1000,\n",
		"bad io op":   "id,app,arrival_us,service_us,io_ops\n0,fib,0,1000,zzz\n",
		"bad io nums": "id,app,arrival_us,service_us,io_ops\n0,fib,0,1000,a:b\n",
		"invalid svc": "id,app,arrival_us,service_us,io_ops\n0,fib,0,0,\n",
	}
	for name, data := range cases {
		if _, err := trace.ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadCSVEmpty(t *testing.T) {
	tasks, err := trace.ReadCSV(strings.NewReader("id,app,arrival_us,service_us,io_ops\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Fatal("expected empty workload")
	}
}

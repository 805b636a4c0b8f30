package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/task"
)

// binFixture builds a small trace exercising every codec feature:
// interned and repeated app names, the empty app, id gaps, repeated
// arrivals, multi-op I/O lists.
func binFixture() []*task.Task {
	t0 := task.New(3, 0, 5*time.Millisecond)
	t0.App = "fib26"
	t1 := task.New(4, 2*time.Millisecond, 3*time.Millisecond)
	t1.App = "md"
	t1.WithIO(time.Millisecond, 4*time.Millisecond)
	t1.WithIO(2*time.Millisecond, 500*time.Microsecond)
	t2 := task.New(10, 2*time.Millisecond, time.Millisecond) // same arrival as t1
	t3 := task.New(11, 7*time.Millisecond, 9*time.Millisecond)
	t3.App = "fib26" // repeat: must hit the intern table
	t3.Weight = task.DefaultWeight
	return []*task.Task{t0, t1, t2, t3}
}

func mustEncode(tasks []*task.Task) []byte {
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, FromTasks("fixture", tasks))
	if err != nil {
		panic(err)
	}
	if n != len(tasks) {
		panic("short write")
	}
	return buf.Bytes()
}

func encodeBinary(t *testing.T, tasks []*task.Task) []byte {
	t.Helper()
	return mustEncode(tasks)
}

func TestBinaryRoundTripFixedPoint(t *testing.T) {
	first := encodeBinary(t, binFixture())
	decoded, err := ReadBinary(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	var second bytes.Buffer
	if _, err := WriteBinary(&second, FromTasks("redecoded", decoded)); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, second.Bytes()) {
		t.Fatalf("export→import→export not byte-identical:\n% x\nvs\n% x", first, second.Bytes())
	}
}

func TestBinaryDecodedFieldsMatch(t *testing.T) {
	want := binFixture()
	got, err := ReadBinary(bytes.NewReader(encodeBinary(t, want)))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.ID != w.ID || g.App != w.App || g.Arrival != w.Arrival || g.Service != w.Service || g.Weight != w.Weight {
			t.Errorf("task %d: got %v, want %v", i, g, w)
		}
		if len(g.IOOps) != len(w.IOOps) {
			t.Fatalf("task %d: %d io ops, want %d", i, len(g.IOOps), len(w.IOOps))
		}
		for j := range w.IOOps {
			if g.IOOps[j] != w.IOOps[j] {
				t.Errorf("task %d op %d: got %+v, want %+v", i, j, g.IOOps[j], w.IOOps[j])
			}
		}
	}
}

// TestBinaryCSVCrossConversion checks the two codecs describe the same
// trace: CSV→binary→CSV reproduces the CSV bytes and the direct binary
// encoding, in both directions.
func TestBinaryCSVCrossConversion(t *testing.T) {
	tasks := binFixture()
	var csvBuf bytes.Buffer
	if _, err := WriteCSV(&csvBuf, FromTasks("fixture", tasks)); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	csvSrc, err := NewCSVSource(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatalf("NewCSVSource: %v", err)
	}
	var viaCSV bytes.Buffer
	if _, err := WriteBinary(&viaCSV, csvSrc); err != nil {
		t.Fatalf("csv→binary: %v", err)
	}
	direct := encodeBinary(t, tasks)
	if !bytes.Equal(direct, viaCSV.Bytes()) {
		t.Fatalf("binary-from-CSV differs from binary-from-tasks")
	}
	binSrc, err := NewBinarySource(bytes.NewReader(direct))
	if err != nil {
		t.Fatalf("NewBinarySource: %v", err)
	}
	var backToCSV bytes.Buffer
	if _, err := WriteCSV(&backToCSV, binSrc); err != nil {
		t.Fatalf("binary→csv: %v", err)
	}
	if !bytes.Equal(csvBuf.Bytes(), backToCSV.Bytes()) {
		t.Fatalf("CSV→binary→CSV not a fixed point:\n%s\nvs\n%s", csvBuf.Bytes(), backToCSV.Bytes())
	}
}

// TestSubMicrosecondService: both writers write a positive service
// under 1 µs as 1 µs, with or without I/O, so the exported trace reads
// back through every reader (all of which reject a zero service) and
// export→import→export stays a fixed point in both codecs.
func TestSubMicrosecondService(t *testing.T) {
	const svc = 526 * time.Nanosecond
	withIO := task.New(1, time.Millisecond, svc)
	withIO.WithIO(0, 2*time.Millisecond)
	tasks := []*task.Task{task.New(0, 0, svc), withIO}
	check := func(reader string, got []*task.Task) {
		t.Helper()
		if len(got) != len(tasks) {
			t.Fatalf("%s: %d tasks, want %d", reader, len(got), len(tasks))
		}
		for i, g := range got {
			if g.Service != time.Microsecond {
				t.Errorf("%s: task %d service %v, want 1µs", reader, i, g.Service)
			}
			if len(g.IOOps) != len(tasks[i].IOOps) {
				t.Errorf("%s: task %d has %d io ops, want %d", reader, i, len(g.IOOps), len(tasks[i].IOOps))
			}
		}
	}

	var csv1, csv2 bytes.Buffer
	if _, err := WriteCSV(&csv1, FromTasks("sub-us", tasks)); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(bytes.NewReader(csv1.Bytes()))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	check("ReadCSV", fromCSV)
	if _, err := WriteCSV(&csv2, FromTasks("again", fromCSV)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Errorf("CSV export→import→export not a fixed point:\n%s\nvs\n%s", csv1.Bytes(), csv2.Bytes())
	}

	bin := encodeBinary(t, tasks)
	src, err := NewBinarySource(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	fromBin := Collect(src)
	if err := Err(src); err != nil {
		t.Fatalf("NewBinarySource: %v", err)
	}
	check("NewBinarySource", fromBin)
	tp, err := ReadBinaryTape(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("ReadBinaryTape: %v", err)
	}
	check("ReadBinaryTape", tp.Materialize(nil))
	if again := encodeBinary(t, fromBin); !bytes.Equal(bin, again) {
		t.Errorf("binary export→import→export not a fixed point:\n% x\nvs\n% x", bin, again)
	}
}

func TestBinaryHeaderErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte("SF")},
		{"bad magic", []byte("NOPE\x01")},
		{"bad version", []byte("SFTB\x09")},
	} {
		if _, err := NewBinarySource(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: NewBinarySource succeeded, want error", tc.name)
		}
	}
}

func TestBinaryTruncatedAndCorrupt(t *testing.T) {
	fixture := binFixture()
	full := encodeBinary(t, fixture)
	// The encoding is streaming, so encoding the first k tasks yields a
	// prefix of the full trace; those prefix lengths are the record
	// boundaries. Every strict prefix ending inside a record must error,
	// while boundary cuts decode cleanly to fewer tasks.
	bounds := map[int]bool{}
	for k := 0; k <= len(fixture); k++ {
		bounds[len(encodeBinary(t, fixture[:k]))] = true
	}
	for cut := len(binaryMagic) + 1; cut < len(full); cut++ {
		tasks, err := ReadBinary(bytes.NewReader(full[:cut]))
		if bounds[cut] {
			if err != nil {
				t.Errorf("cut at record boundary %d: unexpected error %v", cut, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("truncation at %d decoded %d tasks with no error", cut, len(tasks))
		}
	}
	// Flipping the first record's length prefix to a huge value.
	huge := append([]byte(nil), full[:len(binaryMagic)+1]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := ReadBinary(bytes.NewReader(huge)); err == nil {
		t.Error("oversized record length accepted")
	}
	if !strings.Contains(errString(t, huge), "limit") {
		t.Errorf("oversized length error missing limit context: %v", errString(t, huge))
	}
	// Zero-service records fail task validation with a record number.
	var zero bytes.Buffer
	if _, err := WriteBinary(&zero, New("bad", oneShot(task.New(1, 0, 0)))); err != nil {
		t.Fatalf("encoding zero-service task: %v", err)
	}
	if err := readErr(zero.Bytes()); err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Errorf("zero-service decode error = %v, want record-numbered validation failure", err)
	}
}

func errString(t *testing.T, data []byte) string {
	t.Helper()
	err := readErr(data)
	if err == nil {
		return ""
	}
	return err.Error()
}

func readErr(data []byte) error {
	_, err := ReadBinary(bytes.NewReader(data))
	return err
}

func oneShot(t *task.Task) func() (*task.Task, bool) {
	done := false
	return func() (*task.Task, bool) {
		if done {
			return nil, false
		}
		done = true
		return t, true
	}
}

func TestBinaryRejectsArrivalRegression(t *testing.T) {
	a := task.New(0, 5*time.Millisecond, time.Millisecond)
	b := task.New(1, time.Millisecond, time.Millisecond)
	tasks := []*task.Task{a, b}
	i := 0
	src := New("regressing", func() (*task.Task, bool) {
		if i >= len(tasks) {
			return nil, false
		}
		tk := tasks[i]
		i++
		return tk, true
	})
	if _, err := WriteBinary(&bytes.Buffer{}, src); err == nil {
		t.Fatal("WriteBinary accepted a regressing arrival")
	}
}

func TestDetectSource(t *testing.T) {
	tasks := binFixture()
	bin := encodeBinary(t, tasks)
	src, err := DetectSource(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("DetectSource(binary): %v", err)
	}
	if src.String() != "binary" {
		t.Fatalf("DetectSource(binary) = %q source", src.String())
	}
	if got := Collect(src); len(got) != len(tasks) {
		t.Fatalf("binary detect decoded %d tasks, want %d", len(got), len(tasks))
	}
	var csvBuf bytes.Buffer
	if _, err := WriteCSV(&csvBuf, FromTasks("fixture", tasks)); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	src, err = DetectSource(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatalf("DetectSource(csv): %v", err)
	}
	if src.String() != "csv" {
		t.Fatalf("DetectSource(csv) = %q source", src.String())
	}
	if got := Collect(src); len(got) != len(tasks) {
		t.Fatalf("csv detect decoded %d tasks, want %d", len(got), len(tasks))
	}
	if _, err := DetectSource(bytes.NewReader(nil)); err == nil {
		t.Fatal("DetectSource(empty) succeeded")
	}
}

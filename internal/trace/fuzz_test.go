package trace

import (
	"bytes"
	"io"
	"testing"

	"github.com/serverless-sched/sfs/internal/task"
)

// The codec fuzz targets. Each seeds the corpus with one well-formed
// trace plus the malformed prefixes that previously tripped the
// decoders, then checks two properties on anything that decodes
// cleanly: the decode must round-trip (re-encode → re-decode →
// identical invocations), and for the binary format the slice and
// struct-of-arrays decoders must agree byte for byte. CI runs each
// target briefly (-fuzz with a short -fuzztime) so the corpus keeps
// probing new mutations; a plain `go test` replays just the seeds.

// sameTasks reports whether two decoded traces describe identical
// invocations, field by field.
func sameTasks(a, b []*task.Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		g := b[i]
		if g.ID != w.ID || g.App != w.App || g.Arrival != w.Arrival ||
			g.Service != w.Service || g.Weight != w.Weight || len(g.IOOps) != len(w.IOOps) {
			return false
		}
		for j := range w.IOOps {
			if g.IOOps[j] != w.IOOps[j] {
				return false
			}
		}
	}
	return true
}

func FuzzReadBinary(f *testing.F) {
	f.Add(mustEncode(binFixture()))
	f.Add([]byte("SFTB\x01"))
	f.Add([]byte("SFTB\x01\x02\x00\x01"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := ReadBinary(bytes.NewReader(data))
		tp, tapeErr := ReadBinaryTape(bytes.NewReader(data))
		if (err == nil) != (tapeErr == nil) {
			t.Fatalf("decoder disagreement: ReadBinary err=%v, ReadBinaryTape err=%v", err, tapeErr)
		}
		if err != nil {
			return
		}
		// The fast struct-of-arrays path must describe the same
		// invocations as the slice path.
		if mat := tp.Materialize(nil); !sameTasks(tasks, mat) {
			t.Fatalf("tape decode diverged from slice decode:\nslice %v\ntape  %v", tasks, mat)
		}
		// Whatever decodes cleanly must re-encode to a decodable trace
		// describing the same invocations.
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, FromTasks("fuzz", tasks)); err != nil {
			t.Fatalf("re-encoding decoded tasks: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded tasks: %v", err)
		}
		if !sameTasks(tasks, again) {
			t.Fatalf("binary round trip changed the trace:\nfirst  %v\nsecond %v", tasks, again)
		}
	})
}

func FuzzReadCSV(f *testing.F) {
	var valid bytes.Buffer
	if _, err := WriteCSV(&valid, FromTasks("seed", binFixture())); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("id,app,arrival_us,service_us,io_ops\n"))
	f.Add([]byte("id,app,arrival_us,service_us,io_ops\n1,fib,0,100,\n"))
	f.Add([]byte("id,app,arrival_us,service_us,io_ops\n1,fib,0,100,50:10;60:5\n"))
	// Out-of-order io ops once panicked the importer (found by this
	// fuzzer; also pinned in testdata/fuzz): must be a parse error.
	f.Add([]byte("id,app,arrival_us,service_us,io_ops\n1,fib,0,100,60:5;50:10\n"))
	f.Add([]byte("id,app,arrival_us,service_us,io_ops\n1,\"a,b\",0,100,\n"))
	// Decreasing arrivals were once accepted here while the binary
	// writer refused them: every accepted trace must honour the Source
	// contract, which the binary re-encode below checks.
	f.Add([]byte("id,app,arrival_us,service_us,io_ops\n5,fib,237149,100,\n0,fib,0,100,\n"))
	f.Add([]byte("id,app\n"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever the CSV importer accepts, the binary codec must be
		// able to store.
		if _, err := WriteBinary(io.Discard, FromTasks("fuzz", tasks)); err != nil {
			t.Fatalf("binary encode of an accepted CSV trace: %v", err)
		}
		// Timestamps are already microsecond-truncated after one
		// decode, so export → import must be an exact fixed point.
		var buf bytes.Buffer
		if _, err := WriteCSV(&buf, FromTasks("fuzz", tasks)); err != nil {
			t.Fatalf("re-encoding decoded tasks: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded tasks: %v", err)
		}
		if !sameTasks(tasks, again) {
			t.Fatalf("csv round trip changed the trace:\nfirst  %v\nsecond %v", tasks, again)
		}
		// A second export of the re-imported trace must be
		// byte-identical — the documented canonicalization fixed point.
		var buf2 bytes.Buffer
		if _, err := WriteCSV(&buf2, FromTasks("fuzz", again)); err != nil {
			t.Fatalf("third encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("export → import → export not byte-identical:\nfirst  %q\nsecond %q", buf.Bytes(), buf2.Bytes())
		}
	})
}

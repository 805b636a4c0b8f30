package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// staticTasks builds a small fixed trace.
func staticTasks() []*task.Task {
	a := task.New(0, 0, ms(10))
	a.App = "fib"
	b := task.New(1, ms(5), ms(20))
	b.App = "md"
	b.WithIO(ms(2), ms(30))
	c := task.New(2, ms(12), ms(5))
	c.App = "sa"
	return []*task.Task{a, b, c}
}

func TestFromTasksClones(t *testing.T) {
	orig := staticTasks()
	src := FromTasks("test", orig)
	got := Collect(src)
	if len(got) != 3 {
		t.Fatalf("collected %d", len(got))
	}
	got[0].CPUUsed = ms(5)
	got[1].IOOps[0].Dur = 0
	if orig[0].CPUUsed != 0 || orig[1].IOOps[0].Dur != ms(30) {
		t.Fatal("FromTasks must yield isolated copies")
	}
	// Exhausted source stays exhausted.
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source yielded")
	}
}

func TestLimit(t *testing.T) {
	src := Limit(FromTasks("test", staticTasks()), 2)
	if got := len(Collect(src)); got != 2 {
		t.Fatalf("limit yielded %d", got)
	}
}

func TestMapTransformAndDrop(t *testing.T) {
	src := Map(FromTasks("test", staticTasks()), func(tk *task.Task) *task.Task {
		if tk.App == "md" {
			return nil // drop
		}
		tk.Weight = 2048
		return tk
	})
	got := Collect(src)
	if len(got) != 2 {
		t.Fatalf("map yielded %d", len(got))
	}
	for _, tk := range got {
		if tk.Weight != 2048 {
			t.Fatal("map transform not applied")
		}
	}
}

func TestMergeOrdersByArrival(t *testing.T) {
	a := []*task.Task{task.New(0, 0, ms(1)), task.New(1, ms(10), ms(1))}
	b := []*task.Task{task.New(0, ms(5), ms(1)), task.New(1, ms(15), ms(1))}
	got := Collect(Merge(FromTasks("a", a), FromTasks("b", b)))
	if len(got) != 4 {
		t.Fatalf("merged %d", len(got))
	}
	want := []simtime.Time{0, ms(5), ms(10), ms(15)}
	for i, tk := range got {
		if tk.Arrival != want[i] {
			t.Fatalf("arrival %d = %v, want %v", i, tk.Arrival, want[i])
		}
		if tk.ID != i {
			t.Fatalf("merged ID %d = %d, want sequential", i, tk.ID)
		}
	}
}

func TestValidateCatchesDisorder(t *testing.T) {
	bad := []*task.Task{task.New(0, ms(5), ms(1)), task.New(1, 0, ms(1))}
	if _, err := Validate(FromTasks("bad", bad)); err == nil {
		t.Fatal("out-of-order arrivals accepted")
	}
	invalid := []*task.Task{task.New(0, 0, 0)} // zero service
	if _, err := Validate(FromTasks("bad2", invalid)); err == nil {
		t.Fatal("invalid task accepted")
	}
}

func synthSpec(seed uint64) SynthSpec {
	return SynthSpec{
		Shape:     ShapeRamp,
		StartRPS:  50,
		TargetRPS: 500,
		Horizon:   20 * time.Second,
		Duration:  dist.Uniform{Lo: ms(1), Hi: ms(50)},
		Seed:      seed,
	}
}

// TestTraceDeterminism is the satellite-task contract: the same seed
// must produce a byte-identical trace through the whole pipeline,
// including CSV export.
func TestTraceDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	na, err := WriteCSV(&a, NewSynthetic(synthSpec(7)))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := WriteCSV(&b, NewSynthetic(synthSpec(7)))
	if err != nil {
		t.Fatal(err)
	}
	if na == 0 || na != nb {
		t.Fatalf("counts %d vs %d", na, nb)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed traces are not byte-identical")
	}
	var c bytes.Buffer
	if _, err := WriteCSV(&c, NewSynthetic(synthSpec(8))); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestCSVRoundTripEquivalentSource: export → import yields an equivalent
// source (µs truncation is a fixed point, so a second export is
// byte-identical).
func TestCSVRoundTripEquivalentSource(t *testing.T) {
	var first bytes.Buffer
	n, err := WriteCSV(&first, NewSynthetic(synthSpec(9)))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	n2, err := WriteCSV(&second, src)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("round trip lost invocations: %d vs %d", n2, n)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("export → import → export is not byte-identical")
	}
	// And the imported stream is a valid trace.
	src2, err := NewCSVSource(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Validate(src2); err != nil || got != n {
		t.Fatalf("validate: n=%d err=%v", got, err)
	}
}

func TestCSVSourceErrors(t *testing.T) {
	if _, err := NewCSVSource(strings.NewReader("a,b,c,d,e\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	src, err := NewCSVSource(strings.NewReader("id,app,arrival_us,service_us,io_ops\n0,fib,0,1000,\nx,fib,0,1000,\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.Next(); !ok {
		t.Fatal("first row should parse")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("bad row should terminate the stream")
	}
	if Err(src) == nil {
		t.Fatal("Err must report the parse failure")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("failed source must stay exhausted")
	}
}

// TestCSVSourceRejectsDecreasingArrivals: a row arriving before its
// predecessor breaks the Source contract that every consumer relies
// on, so the stream stops there with a row-numbered error, as the
// binary writer refuses the same trace. Equal arrivals are allowed.
func TestCSVSourceRejectsDecreasingArrivals(t *testing.T) {
	const unsorted = "id,app,arrival_us,service_us,io_ops\n" +
		"0,fib,5,1000,\n1,fib,5,1000,\n2,fib,237149,1000,\n3,fib,4053,1000,\n4,fib,300000,1000,\n"
	src, err := NewCSVSource(strings.NewReader(unsorted))
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(src); len(got) != 3 {
		t.Fatalf("collected %d rows, want the 3 before the decrease", len(got))
	}
	const want = "trace: row 4: arrival 4.053ms precedes predecessor's 237.149ms"
	if err := Err(src); err == nil || err.Error() != want {
		t.Fatalf("Err = %v, want %q", err, want)
	}
	if _, err := ReadCSV(strings.NewReader(unsorted)); err == nil || err.Error() != want {
		t.Fatalf("ReadCSV err = %v, want %q", err, want)
	}
}

// TestCombinatorsPropagateErr: a mid-stream failure must survive
// composition — a wrapped failing source cannot read as clean
// exhaustion.
func TestCombinatorsPropagateErr(t *testing.T) {
	const brokenCSV = "id,app,arrival_us,service_us,io_ops\n0,fib,0,1000,\nx,fib,0,1000,\n"
	mk := func() Source {
		src, err := NewCSVSource(strings.NewReader(brokenCSV))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for name, wrap := range map[string]func(Source) Source{
		"limit":  func(s Source) Source { return Limit(s, 10) },
		"map":    func(s Source) Source { return Map(s, func(tk *task.Task) *task.Task { return tk }) },
		"merge":  func(s Source) Source { return Merge(s) },
		"nested": func(s Source) Source { return Limit(Map(s, func(tk *task.Task) *task.Task { return tk }), 10) },
	} {
		src := wrap(mk())
		got := Collect(src)
		if len(got) != 1 {
			t.Fatalf("%s: collected %d of the 1 valid row", name, len(got))
		}
		if Err(src) == nil {
			t.Fatalf("%s swallowed the mid-stream failure", name)
		}
	}
}

// TestCSVQuotedAppRoundTrip: the hand-rolled CSV encoder must quote
// awkward app names exactly as encoding/csv would, and they must
// survive a round trip.
func TestCSVQuotedAppRoundTrip(t *testing.T) {
	mk := func() []*task.Task {
		a := task.New(0, 0, time.Millisecond)
		a.App = `weird,app "v2"`
		b := task.New(1, time.Millisecond, 2*time.Millisecond)
		b.App = "plain"
		return []*task.Task{a, b}
	}

	var hand bytes.Buffer
	if _, err := WriteCSV(&hand, FromTasks("quoted", mk())); err != nil {
		t.Fatal(err)
	}

	// Reference encoding via encoding/csv over the same logical rows.
	var ref bytes.Buffer
	cw := csv.NewWriter(&ref)
	_ = cw.Write([]string{"id", "app", "arrival_us", "service_us", "io_ops"})
	_ = cw.Write([]string{"0", `weird,app "v2"`, "0", "1000", ""})
	_ = cw.Write([]string{"1", "plain", "1000", "2000", ""})
	cw.Flush()
	if hand.String() != ref.String() {
		t.Fatalf("hand-rolled encoding diverges from encoding/csv:\n%q\nvs\n%q", hand.String(), ref.String())
	}

	back, err := ReadCSV(bytes.NewReader(hand.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].App != `weird,app "v2"` || back[1].App != "plain" {
		t.Fatalf("round trip mangled app names: %+v", back)
	}
}

// TestCSVFieldQuotingMatchesEncodingCSV: appendField's quoting decision
// must agree with encoding/csv for every edge the standard library
// special-cases (separators, quotes, newlines, leading whitespace, the
// `\.` marker).
func TestCSVFieldQuotingMatchesEncodingCSV(t *testing.T) {
	for _, app := range []string{
		"plain", "with,comma", `with"quote`, "with\nnewline", "with\rcr",
		" leading-space", "\tleading-tab", `\.`, "trailing-space ", "",
	} {
		tk := task.New(0, 0, time.Millisecond)
		tk.App = app

		var hand bytes.Buffer
		if _, err := WriteCSV(&hand, FromTasks("q", []*task.Task{tk})); err != nil {
			t.Fatalf("app %q: %v", app, err)
		}

		var ref bytes.Buffer
		cw := csv.NewWriter(&ref)
		_ = cw.Write([]string{"id", "app", "arrival_us", "service_us", "io_ops"})
		_ = cw.Write([]string{"0", app, "0", "1000", ""})
		cw.Flush()

		if hand.String() != ref.String() {
			t.Errorf("app %q: hand-rolled %q != encoding/csv %q", app, hand.String(), ref.String())
		}
	}
}

// tagged builds a source of n invocations for app, all arriving at the
// given instants (one invocation per instant).
func tagged(app string, instants ...time.Duration) Source {
	tasks := make([]*task.Task, len(instants))
	for i, at := range instants {
		tk := task.New(i, simtime.Time(at), ms(5))
		tk.App = app
		tasks[i] = tk
	}
	return FromTasks(app, tasks)
}

// TestMergeTieBreakAcrossThreeSources: when three or more sources emit
// invocations at identical timestamps, Merge must interleave them in
// source order at every tied instant, assign sequential IDs, and be
// reproducible — the determinism contract multi-tenant compositions
// rest on.
func TestMergeTieBreakAcrossThreeSources(t *testing.T) {
	mk := func() Source {
		return Merge(
			tagged("a", 0, ms(10), ms(20)),
			tagged("b", 0, ms(10), ms(20)),
			tagged("c", 0, ms(10), ms(20)),
		)
	}
	out := Collect(mk())
	if len(out) != 9 {
		t.Fatalf("merged %d invocations, want 9", len(out))
	}
	wantApps := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i, tk := range out {
		if tk.ID != i {
			t.Errorf("invocation %d has ID %d, want sequential reassignment", i, tk.ID)
		}
		if tk.App != wantApps[i] {
			t.Errorf("invocation %d from %q, want %q (ties break by source index)", i, tk.App, wantApps[i])
		}
		if want := simtime.Time(ms(10 * (i / 3))); tk.Arrival != want {
			t.Errorf("invocation %d arrives at %v, want %v", i, tk.Arrival, want)
		}
	}
	// Reproducible: a second construction yields the identical stream.
	again := Collect(mk())
	for i := range out {
		if out[i].App != again[i].App || out[i].Arrival != again[i].Arrival {
			t.Fatalf("merge replay diverged at %d", i)
		}
	}
}

// TestMergeTieBreakUnevenSources: the tie-break is by source index
// among the *current heads* (k-way merge semantics, not round-robin):
// once a lower-indexed source's next invocation also ties, it drains
// before any higher-indexed source gets another turn, and a source
// that exhausts mid-tie simply drops out.
func TestMergeTieBreakUnevenSources(t *testing.T) {
	out := Collect(Merge(
		tagged("a", 0),
		tagged("b", 0, 0),
		tagged("c", 0, 0, 0),
	))
	wantApps := []string{"a", "b", "b", "c", "c", "c"}
	if len(out) != len(wantApps) {
		t.Fatalf("merged %d invocations, want %d", len(out), len(wantApps))
	}
	for i, tk := range out {
		if tk.App != wantApps[i] || tk.Arrival != 0 {
			t.Errorf("invocation %d = %s@%v, want %s@0", i, tk.App, tk.Arrival, wantApps[i])
		}
	}
}

// TestMergeMatchesStableSortByArrival: Merge yields exactly a stable
// sort of its sources laid end to end in source order — by arrival,
// then source index, then position within the source — the total order
// a k-way merge over (arrival, source index) heads produces. Random
// sources with dense ties, empty sources and uneven lengths all take
// that order, with IDs reassigned sequentially.
func TestMergeMatchesStableSortByArrival(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 200; trial++ {
		srcs := make([]Source, 1+r.Intn(6))
		var all []*task.Task
		for s := range srcs {
			tasks := make([]*task.Task, r.Intn(8))
			at := simtime.Time(ms(r.Intn(3)))
			for j := range tasks {
				at += ms(r.Intn(3))
				tasks[j] = task.New(j, at, ms(1))
				tasks[j].App = fmt.Sprintf("s%d-%d", s, j)
			}
			srcs[s] = FromTasks(fmt.Sprintf("s%d", s), tasks)
			all = append(all, tasks...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Arrival < all[j].Arrival })
		got := Collect(Merge(srcs...))
		if len(got) != len(all) {
			t.Fatalf("trial %d: merged %d invocations, want %d", trial, len(got), len(all))
		}
		for i, tk := range got {
			if tk.App != all[i].App || tk.Arrival != all[i].Arrival || tk.ID != i {
				t.Fatalf("trial %d: invocation %d = #%d %s@%v, want #%d %s@%v",
					trial, i, tk.ID, tk.App, tk.Arrival, i, all[i].App, all[i].Arrival)
			}
		}
	}
}

// TestMergeOfNoSources: a merge of nothing, or of sources that are all
// empty, is exhausted from the first pull and stays exhausted.
func TestMergeOfNoSources(t *testing.T) {
	for _, m := range []Source{
		Merge(),
		Merge(FromTasks("a", nil), FromTasks("b", nil)),
	} {
		for i := 0; i < 2; i++ {
			if tk, ok := m.Next(); ok || tk != nil {
				t.Fatalf("%s: pull %d yielded %v, want exhaustion", m, i, tk)
			}
		}
		if err := Err(m); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	if got, want := Merge(FromTasks("a", nil), FromTasks("b", nil)).String(), "merge(a, b)"; got != want {
		t.Fatalf("description %q, want %q", got, want)
	}
}

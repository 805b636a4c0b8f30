// Package trace is the streaming workload pipeline: every scenario
// family in this repository — Azure-sampled replays, the paper's Table I
// mixture, synthetic RPS ramps — is produced and consumed through one
// pull-based Source interface instead of materialized task slices.
//
// A Source is an iterator of timestamped invocations in arrival order.
// Sources are deterministic functions of their construction parameters
// (spec + seed), so re-opening a source replays the identical stream;
// that property is what makes traces exportable, replayable, and
// byte-for-byte reproducible across machines. Combinators (Limit, Map,
// Merge) compose sources without buffering; Collect materializes one
// for consumers that need slices (the discrete-event engine).
package trace

import (
	"fmt"

	"github.com/serverless-sched/sfs/internal/task"
)

// Source is a pull-based iterator of timestamped invocations.
//
// Next returns invocations with non-decreasing Arrival fields and
// yields ownership of each returned task: callers may mutate it freely.
// After Next returns false the source is exhausted and every further
// call must return false.
type Source interface {
	// Next returns the next invocation, or nil, false when the stream is
	// exhausted.
	Next() (*task.Task, bool)
	// String describes the source's provenance (scenario family,
	// parameters, seed).
	String() string
}

// Failer is implemented by sources that can fail mid-stream (e.g. CSV
// parsers). After Next returns false, Err distinguishes clean exhaustion
// (nil) from a truncated stream.
type Failer interface {
	Err() error
}

// Err returns the terminal error of a source, or nil for sources that
// cannot fail.
func Err(src Source) error {
	if f, ok := src.(Failer); ok {
		return f.Err()
	}
	return nil
}

// funcSource adapts a closure to Source, optionally delegating Err to
// the sources it derives from.
type funcSource struct {
	desc   string
	next   func() (*task.Task, bool)
	inners []Source
}

func (f *funcSource) Next() (*task.Task, bool) { return f.next() }
func (f *funcSource) String() string           { return f.desc }

// Err implements Failer: a derived source fails when any source it
// draws from failed.
func (f *funcSource) Err() error {
	for _, s := range f.inners {
		if err := Err(s); err != nil {
			return err
		}
	}
	return nil
}

// New adapts a next closure into a Source described by desc.
func New(desc string, next func() (*task.Task, bool)) Source {
	return &funcSource{desc: desc, next: next}
}

// Derive adapts a next closure into a Source whose Err reports the
// first error of the sources it draws from — combinators and wrappers
// must use this so a mid-stream failure (e.g. a malformed CSV row)
// survives composition instead of reading as clean exhaustion.
func Derive(desc string, next func() (*task.Task, bool), from ...Source) Source {
	return &funcSource{desc: desc, next: next, inners: from}
}

// cloneChunk is how many tasks FromTasks clones at a time.
const cloneChunk = 4096

// FromTasks returns a Source that replays tasks in order, yielding a
// fresh copy of each with accounting reset — the streaming equivalent of
// CloneTasks, so one collected trace can feed many runs. It clones
// through CloneTasks in chunks of up to 4,096 tasks, each sized by what
// is left of tasks, so a replay allocates three times per chunk instead
// of twice per task.
func FromTasks(desc string, tasks []*task.Task) Source {
	var chunk []*task.Task // cloned, not yet yielded
	return New(desc, func() (*task.Task, bool) {
		if len(chunk) == 0 {
			if len(tasks) == 0 {
				return nil, false
			}
			n := min(len(tasks), cloneChunk)
			chunk, tasks = CloneTasks(tasks[:n]), tasks[n:]
		}
		t := chunk[0]
		chunk = chunk[1:]
		return t, true
	})
}

// CloneTasks deep-copies a task slice's definitions (identity, arrival,
// service, I/O ops, weight) with all accounting reset, block-allocating
// one backing array for all task structs and one for all I/O ops
// instead of 2N individual allocations. Replay paths that run one
// collected stream under several schedulers (benchmarks, experiment
// sweeps) clone it per run with this: it allocates exactly the slice it
// returns, where Tape.Materialize carves arena blocks.
func CloneTasks(tasks []*task.Task) []*task.Task {
	nIO := 0
	for _, t := range tasks {
		nIO += len(t.IOOps)
	}
	block := make([]task.Task, len(tasks))
	ioBlock := make([]task.IOOp, 0, nIO)
	out := make([]*task.Task, len(tasks))
	for i, t := range tasks {
		n := &block[i]
		*n = *task.New(t.ID, t.Arrival, t.Service)
		n.App = t.App
		n.Weight = t.Weight
		if len(t.IOOps) > 0 {
			start := len(ioBlock)
			ioBlock = append(ioBlock, t.IOOps...)
			n.IOOps = ioBlock[start : start+len(t.IOOps) : start+len(t.IOOps)]
		}
		out[i] = n
	}
	return out
}

// Collect drains a source into a slice. Use trace.Err afterwards when
// the source can fail mid-stream.
func Collect(src Source) []*task.Task {
	var out []*task.Task
	for {
		t, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// Limit caps a source at n invocations.
func Limit(src Source, n int) Source {
	taken := 0
	return Derive(fmt.Sprintf("limit(%d, %s)", n, src), func() (*task.Task, bool) {
		if taken >= n {
			return nil, false
		}
		t, ok := src.Next()
		if !ok {
			return nil, false
		}
		taken++
		return t, true
	}, src)
}

// Map applies fn to every invocation as it streams past. fn receives
// ownership of the task and returns the (possibly same, possibly
// replaced) task to emit; returning nil drops the invocation.
func Map(src Source, fn func(*task.Task) *task.Task) Source {
	return Derive(src.String(), func() (*task.Task, bool) {
		for {
			t, ok := src.Next()
			if !ok {
				return nil, false
			}
			if t = fn(t); t != nil {
				return t, true
			}
		}
	}, src)
}

// Merge interleaves sources by arrival time (k-way merge) — the
// multi-tenant composition primitive: each tenant is a source, the
// platform sees one stream. It keeps each source's next invocation and
// emits the earliest, the lowest source index winning ties, so merges
// are deterministic. Task IDs are reassigned sequentially so the merged
// stream has unique IDs.
func Merge(srcs ...Source) Source {
	heads := make([]*task.Task, len(srcs)) // nil once a source is exhausted
	primed := false
	id := 0
	desc := "merge("
	for i, s := range srcs {
		if i > 0 {
			desc += ", "
		}
		desc += s.String()
	}
	desc += ")"
	pull := func(i int) {
		heads[i] = nil
		if t, ok := srcs[i].Next(); ok {
			heads[i] = t
		}
	}
	return Derive(desc, func() (*task.Task, bool) {
		if !primed {
			primed = true
			for i := range srcs {
				pull(i)
			}
		}
		k := -1
		for i, t := range heads {
			if t != nil && (k < 0 || t.Arrival < heads[k].Arrival) {
				k = i
			}
		}
		if k < 0 {
			return nil, false
		}
		t := heads[k]
		pull(k)
		t.ID = id
		id++
		return t, true
	}, srcs...)
}

// Validate streams a source through task validation and a monotonicity
// check, returning the invocation count or the first violation.
func Validate(src Source) (int, error) {
	n := 0
	prev := task.New(0, -1, 1)
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		if err := t.Validate(); err != nil {
			return n, fmt.Errorf("trace: invocation %d: %w", n, err)
		}
		if t.Arrival < prev.Arrival {
			return n, fmt.Errorf("trace: invocation %d arrives at %v before predecessor %v", n, t.Arrival, prev.Arrival)
		}
		prev = t
		n++
	}
	if err := Err(src); err != nil {
		return n, err
	}
	return n, nil
}

package task

import (
	"time"

	"github.com/serverless-sched/sfs/internal/simtime"
)

// An arena's blocks start at firstBlock entries and double up to
// arenaBlock, so a small arena reserves little and a large one
// allocates one block per arenaBlock tasks (or IOOp payloads).
const (
	firstBlock = 16
	arenaBlock = 4096
)

// Arena block-allocates Task structs and IOOp payloads. Million-task
// simulations materialize their workload through an arena so the hot
// loops walk a handful of large contiguous blocks instead of chasing
// one heap object per invocation, and re-materializing the same trace
// for the next run (Reset) costs zero allocations once the blocks
// exist. Blocks double from 16 entries up to 4,096, so an arena that
// hands out 50 tasks reserves 112 structs, not 4,096.
//
// An Arena is not safe for concurrent use. Reset invalidates every
// task previously handed out: callers must drop all references to a
// generation before starting the next one.
type Arena struct {
	taskBlocks [][]Task
	ioBlocks   [][]IOOp
	ti, tn     int // current task block / used entries within it
	ii, in     int // current IOOp block / used entries within it
	total      int
}

// NewArena returns an empty arena. Blocks are allocated lazily on
// first use.
func NewArena() *Arena { return &Arena{} }

// New allocates one task from the arena, initialized exactly as
// task.New initializes it.
func (a *Arena) New(id int, arrival simtime.Time, service time.Duration) *Task {
	if a.ti == len(a.taskBlocks) {
		a.taskBlocks = addBlock(a.taskBlocks, 1)
	}
	block := a.taskBlocks[a.ti]
	t := &block[a.tn]
	if a.tn++; a.tn == len(block) {
		a.ti++
		a.tn = 0
	}
	*t = Task{
		ID:       id,
		Arrival:  arrival,
		Service:  service,
		Weight:   DefaultWeight,
		Start:    -1,
		Finish:   -1,
		lastCore: -1,
	}
	a.total++
	return t
}

// IO allocates a zeroed IOOp slice of length n from the arena (full
// capacity n, so appends never bleed into a neighbor). Requests larger
// than one block fall back to a plain allocation rather than
// fragmenting the block chain.
func (a *Arena) IO(n int) []IOOp {
	if n <= 0 {
		return nil
	}
	if n > arenaBlock {
		return make([]IOOp, n)
	}
	for a.ii < len(a.ioBlocks) && len(a.ioBlocks[a.ii])-a.in < n {
		a.ii++
		a.in = 0
	}
	if a.ii == len(a.ioBlocks) {
		a.ioBlocks = addBlock(a.ioBlocks, n)
	}
	s := a.ioBlocks[a.ii][a.in : a.in+n : a.in+n]
	a.in += n
	for i := range s {
		s[i] = IOOp{}
	}
	return s
}

// addBlock appends a block twice the size of the last (firstBlock for
// the first, at most arenaBlock) and at least n entries long.
func addBlock[T any](blocks [][]T, n int) [][]T {
	size := firstBlock
	if k := len(blocks); k > 0 {
		size = min(2*len(blocks[k-1]), arenaBlock)
	}
	return append(blocks, make([]T, max(size, n)))
}

// Len returns the number of tasks allocated since construction or the
// last Reset.
func (a *Arena) Len() int { return a.total }

// Reset rewinds the arena for reuse, retaining every block it has
// allocated. All previously returned tasks and IOOp slices become
// invalid: the next generation will overwrite them in place.
func (a *Arena) Reset() {
	a.ti, a.tn, a.ii, a.in, a.total = 0, 0, 0, 0, 0
}

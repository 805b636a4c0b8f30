package task

import (
	"slices"
	"testing"
	"time"
)

func TestArenaMatchesNew(t *testing.T) {
	a := NewArena()
	got := a.New(7, 3*time.Millisecond, 5*time.Millisecond)
	want := New(7, 3*time.Millisecond, 5*time.Millisecond)
	if got.ID != want.ID || got.Arrival != want.Arrival || got.Service != want.Service ||
		got.Weight != want.Weight || got.Start != want.Start || got.Finish != want.Finish ||
		got.lastCore != want.lastCore {
		t.Fatalf("arena task = %+v, want %+v", got, want)
	}
}

func TestArenaCrossesBlocks(t *testing.T) {
	a := NewArena()
	n := arenaBlock*2 + 17
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = a.New(i, time.Duration(i), time.Millisecond)
	}
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	for i, tk := range tasks {
		if tk.ID != i || tk.Arrival != time.Duration(i) {
			t.Fatalf("task %d corrupted after later allocations: %+v", i, tk)
		}
	}
}

func TestArenaIO(t *testing.T) {
	a := NewArena()
	s1 := a.IO(3)
	s1[0] = IOOp{At: time.Millisecond, Dur: time.Second}
	s2 := a.IO(2)
	if len(s1) != 3 || cap(s1) != 3 || len(s2) != 2 {
		t.Fatalf("bad slice shapes: len/cap %d/%d, %d", len(s1), cap(s1), len(s2))
	}
	// Appending past capacity must not clobber the neighbor slice.
	_ = append(s1, IOOp{Dur: time.Hour})
	if s2[0] != (IOOp{}) {
		t.Fatalf("append to earlier slice corrupted later slice: %+v", s2[0])
	}
	if got := a.IO(0); got != nil {
		t.Fatalf("IO(0) = %v, want nil", got)
	}
	if got := a.IO(arenaBlock + 1); len(got) != arenaBlock+1 {
		t.Fatalf("oversized IO request: len %d", len(got))
	}
	// Force a block boundary: request more than remains in the block.
	a.IO(arenaBlock - 7)
	s3 := a.IO(16)
	if len(s3) != 16 {
		t.Fatalf("post-boundary IO: len %d", len(s3))
	}
}

func TestArenaReset(t *testing.T) {
	a := NewArena()
	first := a.New(1, 0, time.Millisecond)
	io := a.IO(2)
	io[0] = IOOp{Dur: time.Second}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d", a.Len())
	}
	second := a.New(2, time.Millisecond, time.Millisecond)
	if first != second {
		t.Fatalf("Reset did not reuse the first slot")
	}
	io2 := a.IO(2)
	if io2[0] != (IOOp{}) {
		t.Fatalf("IO slice not zeroed after Reset: %+v", io2[0])
	}
}

// TestArenaBlocksDouble: task blocks start at 16 structs and double up
// to arenaBlock, so an arena that hands out 50 tasks holds 112 structs,
// and a large one adds one arenaBlock-sized block at a time; IO blocks
// grow the same way. A Reset arena hands its blocks out again without
// allocating.
func TestArenaBlocksDouble(t *testing.T) {
	sizes := func(a *Arena) (tasks, ios []int) {
		for _, b := range a.taskBlocks {
			tasks = append(tasks, len(b))
		}
		for _, b := range a.ioBlocks {
			ios = append(ios, len(b))
		}
		return tasks, ios
	}
	a := NewArena()
	for i := 0; i < 50; i++ {
		a.New(i, 0, time.Millisecond)
		a.IO(1)
	}
	if tasks, ios := sizes(a); !slices.Equal(tasks, []int{16, 32, 64}) || !slices.Equal(ios, []int{16, 32, 64}) {
		t.Fatalf("50 tasks and ops took task blocks %v and IO blocks %v, want 16, 32 and 64 each", tasks, ios)
	}
	want := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 4096}
	full := 0
	for _, n := range want {
		full += n
	}
	for i := 50; i < full; i++ {
		a.New(i, 0, time.Millisecond)
	}
	if tasks, _ := sizes(a); !slices.Equal(tasks, want) {
		t.Fatalf("%d tasks took blocks %v, want %v", full, tasks, want)
	}
	n := a.Len()
	if allocs := testing.AllocsPerRun(3, func() {
		a.Reset()
		for i := 0; i < n; i++ {
			a.New(i, 0, time.Millisecond)
		}
	}); allocs != 0 {
		t.Fatalf("re-filling a reset arena allocated %v times, want 0", allocs)
	}
}

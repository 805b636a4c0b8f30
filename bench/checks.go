package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/task"
)

// The checks run after the timed region of every repetition. They
// verify the simulated result against invariants any correct run
// satisfies, so a speed-up that breaks the simulator fails the
// benchmark instead of improving it. Which schedule a run produces is
// the golden fixtures' concern (internal/goldens), not the benchmark's.

// checkTasks verifies that exactly want distinct invocations finished,
// each retiring exactly its CPU demand and taking at least its
// uncontended duration.
func checkTasks(tasks []*task.Task, want int) error {
	if len(tasks) != want {
		return fmt.Errorf("%d invocations in the result, want %d", len(tasks), want)
	}
	seen := make(map[int]bool, len(tasks))
	for _, t := range tasks {
		if seen[t.ID] {
			return fmt.Errorf("invocation %d appears twice", t.ID)
		}
		seen[t.ID] = true
		if t.Finish < 0 {
			return fmt.Errorf("invocation %d never finished", t.ID)
		}
		if t.CPUUsed != t.Service {
			return fmt.Errorf("invocation %d retired %v of CPU for a %v demand", t.ID, t.CPUUsed, t.Service)
		}
		if t.Turnaround() < t.IdealDuration() {
			return fmt.Errorf("invocation %d turned around in %v, under its ideal %v", t.ID, t.Turnaround(), t.IdealDuration())
		}
	}
	return nil
}

// checkWorkflows verifies that want distinct workflows each finished.
func checkWorkflows(wfs []metrics.Workflow, want int) error {
	if len(wfs) != want {
		return fmt.Errorf("%d workflows in the result, want %d", len(wfs), want)
	}
	seen := make(map[int]bool, len(wfs))
	for _, w := range wfs {
		if seen[w.ID] {
			return fmt.Errorf("workflow %d appears twice", w.ID)
		}
		seen[w.ID] = true
		if !w.Done() {
			return fmt.Errorf("workflow %d never finished", w.ID)
		}
	}
	return nil
}

// digestTasks is FNV-64a over (ID, Finish, CPUUsed) in task order: equal
// across every repetition of one seed, traced or not, at any GOMAXPROCS.
func digestTasks(tasks []*task.Task) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, t := range tasks {
		binary.LittleEndian.PutUint64(buf[0:], uint64(t.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(t.Finish))
		binary.LittleEndian.PutUint64(buf[16:], uint64(t.CPUUsed))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// digestBytes is FNV-64a over a sequence of rendered outputs.
func digestBytes(parts [][]byte) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum64()
}

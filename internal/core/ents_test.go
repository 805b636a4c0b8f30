package core

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// TestEntsDroppedOnceTasksLeaveFilter: SFS holds per-task state only
// while it schedules the task. FILTER completions, slice demotions and
// overload routing all hand the state back, so a run that exercises
// every exit ends with none left, in both I/O modes.
func TestEntsDroppedOnceTasksLeaveFilter(t *testing.T) {
	w := trace.Collect(workload.AzureSampledStream(workload.AzureSampledSpec{
		N: 3000, Cores: 4, Load: 1.0, Seed: 42,
		IOFraction: 0.3, Spikes: 3, SpikeWidth: 200,
	}))
	for _, aware := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.IOAware = aware
		s := New(cfg)
		eng := cpusim.NewEngine(cpusim.Config{Cores: 4, Deadline: 1000 * time.Hour}, s)
		eng.Submit(trace.CloneTasks(w)...)
		eng.Run()
		if eng.Aborted() {
			t.Fatal("simulation aborted")
		}
		st := s.Stat
		if st.Demotions == 0 || st.OverloadRouted == 0 || st.FilterCompletions == 0 {
			t.Fatalf("aware=%v: trace must exercise every exit: %d demotions, %d overload-routed, %d FILTER completions",
				aware, st.Demotions, st.OverloadRouted, st.FilterCompletions)
		}
		if len(s.ents) != 0 {
			t.Fatalf("aware=%v: %d tasks still have SFS state after the run", aware, len(s.ents))
		}
		if got := len(s.free); got >= st.Requests/10 {
			t.Fatalf("aware=%v: %d recycled states for %d requests; reuse is not happening", aware, got, st.Requests)
		}
	}
}

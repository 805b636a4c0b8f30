package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// stat summarizes one measurement over a workload's untraced
// repetitions.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func newStat(vals []float64, unit string) stat {
	s := stat{N: len(vals), Unit: unit}
	if len(vals) == 0 {
		return s
	}
	v := slices.Clone(vals)
	slices.Sort(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Median = v[len(v)/2]
	if len(v)%2 == 0 {
		s.Median = (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	return s
}

// summary is one workload's results within an invocation.
type summary struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Digest    string             `json:"digest"`
	EndToEnd  map[string]stat    `json:"end_to_end"`
	Raw       map[string]stat    `json:"raw_times"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
}

// summarize checks every workload's digests for agreement and reduces
// its repetitions to metrics. A repetition whose digest differs from
// the workload's first successful one counts as failed.
func (b *bench) summarize(tracedPass bool) []*summary {
	var sums []*summary
	for _, wr := range b.runs {
		s := &summary{Workload: wr.w.name, Why: wr.w.why, EndToEnd: map[string]stat{}, Raw: map[string]stat{}}
		all := append(slices.Clone(wr.reps), wr.extra...)
		for _, r := range all {
			if r.err == nil && s.Digest == "" {
				s.Digest = r.report.Digest
			}
		}
		for _, r := range all {
			s.Attempted++
			if r.err == nil && r.report.Digest != s.Digest {
				r.err = fmt.Errorf("%s %s: result digest %s differs from %s", wr.w.name, r.kind, r.report.Digest, s.Digest)
			}
			if r.err != nil {
				s.Failed++
				s.Errors = append(s.Errors, r.err.Error())
			}
		}
		s.FailRatio = float64(s.Failed) / float64(s.Attempted)

		vals := map[string][]float64{}
		for _, r := range wr.reps {
			if r.err == nil {
				for k, v := range r.values() {
					vals[k] = append(vals[k], v)
				}
			}
		}
		for _, def := range endToEnd {
			s.EndToEnd[def.Name] = newStat(vals[def.Name], def.Unit)
		}
		for _, def := range rawTimes {
			s.Raw[def.Name] = newStat(vals[def.Name], def.Unit)
		}

		if tracedPass {
			s.PerLayer = map[string]float64{}
			for _, def := range perLayer {
				s.PerLayer[def.Name] = 0
			}
			// The traced and serial repetitions compare with the
			// untraced median at the reference machine speed.
			wall := s.EndToEnd["wall_s"].Median
			for _, r := range wr.extra {
				if r.err != nil || wall == 0 {
					continue
				}
				switch r.kind {
				case kindTraced:
					for k, v := range r.report.Layers {
						s.PerLayer[k] = v
					}
					s.PerLayer["runtime.cpu_s"] = r.cpuS
					s.PerLayer["bench.trace_overhead"] = r.values()["wall_s"]/wall - 1
				case kindSerial:
					s.PerLayer["shard.speedup"] = r.values()["wall_s"] / wall
				}
			}
		}
		sums = append(sums, s)
	}
	return sums
}

// print writes every metric as "workload metric value unit".
func (s *summary) print(w io.Writer) {
	stats := func(defs []metricDef, m map[string]stat) {
		for _, def := range defs {
			st := m[def.Name]
			fmt.Fprintf(w, "%s %s %.6g %s (median of %d; min %.6g, max %.6g)\n",
				s.Workload, def.Name, st.Median, def.Unit, st.N, st.Min, st.Max)
		}
	}
	stats(endToEnd, s.EndToEnd)
	stats(rawTimes, s.Raw)
	fmt.Fprintf(w, "%s fail_ratio %.4g ratio (%d of %d repetitions failed)\n", s.Workload, s.FailRatio, s.Failed, s.Attempted)
	fmt.Fprintf(w, "%s digest %s fnv64\n", s.Workload, s.Digest)
	if s.PerLayer == nil {
		return
	}
	for _, def := range perLayer {
		fmt.Fprintf(w, "%s %s %.6g %s\n", s.Workload, def.Name, s.PerLayer[def.Name], def.Unit)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine reports the end-to-end medians (or, for the traced pass,
// the per-layer metrics). With several workloads each key is prefixed
// "workload/".
func resultLine(sums []*summary, tracedPass bool) result {
	res := result{Metrics: map[string]metricValue{}}
	defs := endToEnd
	if tracedPass {
		defs = perLayer
	}
	for _, s := range sums {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		for _, def := range defs {
			key := def.Name
			if len(sums) > 1 {
				key = s.Workload + "/" + def.Name
			}
			v := s.EndToEnd[def.Name].Median
			if tracedPass {
				v = s.PerLayer[def.Name]
			}
			res.Metrics[key] = metricValue{Value: v, Unit: def.Unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// traceEvent is one Chrome trace-event "complete" event; spans.json
// opens in Perfetto or chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the benchmark started
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// spans lays the coarse spans out as workload → repetition →
// setup/run/summarize/check, one track per workload.
func (b *bench) spans() []traceEvent {
	var evs []traceEvent
	id := 0
	add := func(name string, start, dur int64, tid, parent int) int {
		id++
		evs = append(evs, traceEvent{
			Name: name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(start-b.origin.UnixNano()) / 1e3,
			Dur:  float64(dur) / 1e3,
			Args: map[string]int{"id": id, "parent": parent},
		})
		return id
	}
	for i, wr := range b.runs {
		all := append(slices.Clone(wr.reps), wr.extra...)
		if len(all) == 0 {
			continue
		}
		first, last := all[0].start, all[0].start.Add(all[0].elapsed)
		for _, r := range all {
			if r.start.Before(first) {
				first = r.start
			}
			if end := r.start.Add(r.elapsed); end.After(last) {
				last = end
			}
		}
		wid := add(wr.w.name, first.UnixNano(), int64(last.Sub(first)), i+1, 0)
		for k, r := range all {
			rid := add(fmt.Sprintf("%s %d", r.kind, k), r.start.UnixNano(), int64(r.elapsed), i+1, wid)
			for _, sp := range r.report.Spans {
				add(sp.Name, sp.Start, sp.Dur, i+1, rid)
			}
		}
	}
	return evs
}

// writeFiles writes results.json and spans.json into dir.
func (b *bench) writeFiles(dir string, sums []*summary) error {
	results := map[string]any{
		"seed":      b.seed,
		"nproc":     runtime.NumCPU(),
		"go":        runtime.Version(),
		"date":      time.Now().UTC().Format(time.RFC3339),
		"workloads": sums,
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), results); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "spans.json"), map[string]any{
		"traceEvents":     b.spans(),
		"displayTimeUnit": "ms",
	})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

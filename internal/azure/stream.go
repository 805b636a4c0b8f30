package azure

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// This file is the memory-bounded path through the real Azure Functions
// dataset: the 2019 release's invocation file is a multi-GB CSV (one
// row per function x 1440 minute columns). The Scan* iterators visit
// one row at a time with a reused record buffer, and IngestTape drives
// them straight onto a compact trace.Tape — memory is bounded by the
// emitted invocations and the per-function duration index, never by
// the CSV size.

// ScanDurations streams a function_durations_percentiles CSV, calling
// fn for each row. The DurationRow passed to fn is only valid during
// the call (the scanner reuses its buffers); copy what you keep.
// Returning a non-nil error from fn stops the scan and propagates it.
func ScanDurations(r io.Reader, fn func(DurationRow) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("azure: reading duration header: %w", err)
	}
	col := indexColumns(header)
	width, err := requiredWidth(col, "duration", "HashOwner", "HashApp", "HashFunction", "Average", "Count", "Minimum", "Maximum")
	if err != nil {
		return err
	}
	p50Col, hasP50 := col["percentile_Average_50"]

	for i := 1; ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("azure: duration row %d: %w", i, err)
		}
		if len(rec) < width {
			return fmt.Errorf("azure: duration row %d: %d fields, the required columns need %d", i, len(rec), width)
		}
		row := DurationRow{
			Owner:    rec[col["HashOwner"]],
			App:      rec[col["HashApp"]],
			Function: rec[col["HashFunction"]],
		}
		if row.Average, err = msField(rec[col["Average"]]); err != nil {
			return fmt.Errorf("azure: duration row %d: bad Average: %w", i, err)
		}
		if row.Count, err = strconv.Atoi(rec[col["Count"]]); err != nil {
			return fmt.Errorf("azure: duration row %d: bad Count: %w", i, err)
		}
		if row.Minimum, err = msField(rec[col["Minimum"]]); err != nil {
			return fmt.Errorf("azure: duration row %d: bad Minimum: %w", i, err)
		}
		if row.Maximum, err = msField(rec[col["Maximum"]]); err != nil {
			return fmt.Errorf("azure: duration row %d: bad Maximum: %w", i, err)
		}
		if hasP50 && p50Col < len(rec) {
			if p50, err := msField(rec[p50Col]); err == nil {
				row.P50 = p50
			}
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// ScanInvocations streams an invocations_per_function CSV, calling fn
// for each row. The InvocationRow — its PerMinute slice included — is
// only valid during the call; copy what you keep.
func ScanInvocations(r io.Reader, fn func(InvocationRow) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("azure: reading invocation header: %w", err)
	}
	// indexColumns must copy: ReuseRecord invalidates header strings on
	// the next Read.
	hdr := make([]string, len(header))
	copy(hdr, header)
	col := indexColumns(hdr)
	width, err := requiredWidth(col, "invocation", "HashOwner", "HashApp", "HashFunction")
	if err != nil {
		return err
	}
	type minuteCol struct{ header, idx int }
	var minutes []minuteCol
	for i, h := range hdr {
		if m, err := strconv.Atoi(h); err == nil && m >= 1 {
			minutes = append(minutes, minuteCol{header: m, idx: i})
		}
	}
	triggerCol, hasTrigger := col["Trigger"]

	perMinute := make([]int, 0, len(minutes))
	for i := 1; ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("azure: invocation row %d: %w", i, err)
		}
		if len(rec) < width {
			return fmt.Errorf("azure: invocation row %d: %d fields, the required columns need %d", i, len(rec), width)
		}
		row := InvocationRow{
			Owner:    rec[col["HashOwner"]],
			App:      rec[col["HashApp"]],
			Function: rec[col["HashFunction"]],
		}
		if hasTrigger && triggerCol < len(rec) {
			row.Trigger = rec[triggerCol]
		}
		perMinute = perMinute[:0]
		row.Total = 0
		for _, mc := range minutes {
			if mc.idx >= len(rec) {
				break
			}
			v, err := strconv.Atoi(rec[mc.idx])
			if err != nil {
				return fmt.Errorf("azure: invocation row %d: bad minute %d: %w", i, mc.header, err)
			}
			if v < 0 {
				return fmt.Errorf("azure: invocation row %d: negative count %d at minute %d", i, v, mc.header)
			}
			perMinute = append(perMinute, v)
			row.Total += v
		}
		row.PerMinute = perMinute
		if err := fn(row); err != nil {
			return err
		}
	}
}

// requiredWidth checks that the header has every needed column and
// returns the row width they require. Rows may be ragged, so each row
// is checked against it before the needed columns are read.
func requiredWidth(col map[string]int, file string, need ...string) (int, error) {
	width := 0
	for _, name := range need {
		i, ok := col[name]
		if !ok {
			return 0, fmt.Errorf("azure: %s file missing column %q", file, name)
		}
		width = max(width, i+1)
	}
	return width, nil
}

// FuncKey identifies one function across the dataset's files.
type FuncKey struct{ Owner, App, Function string }

// DurationsIndex streams a durations CSV into a per-function expected
// execution time (P50 when present — the paper's outlier-resistant
// choice — else Average). Memory is one map entry per function, not the
// percentile-heavy CSV rows.
func DurationsIndex(r io.Reader) (map[FuncKey]time.Duration, error) {
	idx := map[FuncKey]time.Duration{}
	err := ScanDurations(r, func(row DurationRow) error {
		d := row.Average
		if row.P50 > 0 {
			d = row.P50
		}
		if d <= 0 {
			d = time.Millisecond
		}
		idx[FuncKey{row.Owner, row.App, row.Function}] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// IngestConfig bounds and shapes a trace ingestion run.
type IngestConfig struct {
	// MinuteLo and MinuteHi bound the replayed window in dataset minutes
	// (1-based, inclusive; zero values mean the whole day). A one-hour
	// window of a multi-GB day is the typical experiment input.
	MinuteLo, MinuteHi int
	// Scale thins invocations: each is kept with probability Scale
	// (0 < Scale <= 1; zero means keep all). The full dataset is ~1.8
	// billion invocations per day — far more than a simulation needs.
	Scale float64
	// MaxInvocations stops ingestion once the tape holds this many
	// invocations (zero = unlimited). The cap is applied in file order,
	// before sorting.
	MaxInvocations int
	// DefaultDuration services invocations whose function has no entry
	// in the durations index (default 100ms, roughly the dataset's
	// short-function mode).
	DefaultDuration time.Duration
	// Seed drives the thinning and within-minute placement draws.
	Seed uint64
}

// IngestStats reports what an ingestion run consumed and emitted.
type IngestStats struct {
	Rows        int // invocation rows visited
	Functions   int // rows that emitted at least one invocation
	Invocations int // invocations on the tape
	NoDuration  int // invocations serviced by DefaultDuration
	Truncated   bool
}

// errIngestFull stops the row scan once MaxInvocations is reached.
var errIngestFull = fmt.Errorf("azure: ingestion cap reached")

// IngestTape streams an invocations CSV onto a trace.Tape: each row's
// per-minute counts are expanded into arrivals placed uniformly within
// their minute, serviced from the durations index, labeled with the
// row's HashApp, then the tape is sorted into one arrival-ordered
// trace. Peak memory is the duration index plus the emitted tape — the
// CSV itself is never held. Deterministic in cfg.Seed.
func IngestTape(invocations io.Reader, durations map[FuncKey]time.Duration, cfg IngestConfig) (*trace.Tape, IngestStats, error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		cfg.Scale = 1
	}
	if cfg.MinuteLo <= 0 {
		cfg.MinuteLo = 1
	}
	if cfg.MinuteHi <= 0 || cfg.MinuteHi > 1440 {
		cfg.MinuteHi = 1440
	}
	if cfg.MinuteHi < cfg.MinuteLo {
		cfg.MinuteLo, cfg.MinuteHi = cfg.MinuteHi, cfg.MinuteLo
	}
	if cfg.DefaultDuration <= 0 {
		cfg.DefaultDuration = 100 * time.Millisecond
	}

	r := rng.New(cfg.Seed)
	thinR := r.Split()
	jitterR := r.Split()
	tp := trace.NewTape()
	stats := IngestStats{}

	err := ScanInvocations(invocations, func(row InvocationRow) error {
		stats.Rows++
		service, known := durations[FuncKey{row.Owner, row.App, row.Function}]
		if !known {
			service = cfg.DefaultDuration
		}
		emitted := false
		for m, count := range row.PerMinute {
			minute := m + 1 // dataset minutes are 1-based
			if minute < cfg.MinuteLo || minute > cfg.MinuteHi || count == 0 {
				continue
			}
			start := time.Duration(minute-cfg.MinuteLo) * time.Minute
			for i := 0; i < count; i++ {
				if cfg.Scale < 1 && thinR.Float64() >= cfg.Scale {
					continue
				}
				if cfg.MaxInvocations > 0 && stats.Invocations >= cfg.MaxInvocations {
					stats.Truncated = true
					return errIngestFull
				}
				at := start + time.Duration(jitterR.Float64()*float64(time.Minute))
				tk := task.New(stats.Invocations, simtime.Time(at), service)
				tk.App = row.App
				tp.Append(tk)
				stats.Invocations++
				if !known {
					stats.NoDuration++
				}
				emitted = true
			}
		}
		if emitted {
			stats.Functions++
		}
		return nil
	})
	if err != nil && err != errIngestFull {
		return nil, stats, err
	}
	tp.SortByArrival()
	return tp, stats, nil
}

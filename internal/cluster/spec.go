package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
)

// ParseSpeeds parses a CLI fleet-speed spec into a per-host speed
// vector. The spec is a comma-separated list of `speed` or `speedxN`
// entries expanded in order:
//
//	"2"          — every host at 2x
//	"1.5x4,0.5x4" — four 1.5x hosts then four 0.5x hosts
//	"2x1,1x7"     — one fast host in an otherwise uniform fleet
//
// A single bare entry (no count) applies to all hosts; otherwise the
// counts must sum exactly to hosts. An empty spec returns nil (uniform
// 1.0 fleet). Factor validity (positive, finite) is enforced by
// cluster.New; this parser only rejects malformed syntax.
func ParseSpeeds(spec string, hosts int) ([]float64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	entries := strings.Split(spec, ",")
	if len(entries) == 1 && !strings.Contains(entries[0], "x") {
		sp, err := strconv.ParseFloat(strings.TrimSpace(entries[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("speed spec %q: %w", spec, err)
		}
		out := make([]float64, hosts)
		for i := range out {
			out[i] = sp
		}
		return out, nil
	}
	var out []float64
	for _, e := range entries {
		e = strings.TrimSpace(e)
		val, countStr, hasCount := strings.Cut(e, "x")
		sp, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("speed spec entry %q: %w", e, err)
		}
		count := 1
		if hasCount {
			if count, err = strconv.Atoi(countStr); err != nil {
				return nil, fmt.Errorf("speed spec entry %q: %w", e, err)
			}
			if count < 1 {
				return nil, fmt.Errorf("speed spec entry %q: count must be at least 1", e)
			}
		}
		// Reject an oversized count before expanding it, so a huge
		// count fails fast instead of exhausting memory.
		if count > hosts-len(out) {
			return nil, fmt.Errorf("speed spec %q covers more than the cluster's %d hosts", spec, hosts)
		}
		for i := 0; i < count; i++ {
			out = append(out, sp)
		}
	}
	if len(out) < hosts {
		return nil, fmt.Errorf("speed spec %q covers %d hosts, cluster has %d", spec, len(out), hosts)
	}
	return out, nil
}

// ParseNetDelay parses a CLI dispatcher→host network-delay spec:
//
//	""           — no delay modeled (nil)
//	"500us"      — constant delay
//	"200us-2ms"  — uniform on [lo, hi)
func ParseNetDelay(spec string) (dist.Distribution, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if i := strings.Index(spec, "-"); i > 0 {
		lo, err := time.ParseDuration(strings.TrimSpace(spec[:i]))
		if err != nil {
			return nil, fmt.Errorf("net-delay spec %q: %w", spec, err)
		}
		hi, err := time.ParseDuration(strings.TrimSpace(spec[i+1:]))
		if err != nil {
			return nil, fmt.Errorf("net-delay spec %q: %w", spec, err)
		}
		if lo < 0 || hi < lo {
			return nil, fmt.Errorf("net-delay spec %q: want 0 <= lo <= hi", spec)
		}
		return dist.Uniform{Lo: lo, Hi: hi}, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil {
		return nil, fmt.Errorf("net-delay spec %q: %w", spec, err)
	}
	if d < 0 {
		return nil, fmt.Errorf("net-delay spec %q: negative delay", spec)
	}
	return dist.Constant{Value: d}, nil
}

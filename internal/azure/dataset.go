package azure

import (
	"strconv"
	"time"
)

// This file parses the real Azure Functions 2019 trace release (Shahrad
// et al., ATC '20) so that users with access to the dataset can replay
// the paper's exact inputs instead of the synthetic stand-in.
//
// Two of the dataset's file schemas are supported:
//
//   - function_durations_percentiles.anon.dNN.csv:
//     HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum,
//     percentile_Average_0,...,percentile_Average_100   (milliseconds)
//   - invocations_per_function_md.anon.dNN.csv:
//     HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440 (per-minute counts)

// DurationRow is one function's duration statistics from the dataset.
type DurationRow struct {
	Owner, App, Function string
	Average              time.Duration
	Count                int
	Minimum, Maximum     time.Duration
	P50                  time.Duration // percentile_Average_50 when present
}

// InvocationRow is one function's per-minute invocation counts.
type InvocationRow struct {
	Owner, App, Function string
	Trigger              string
	PerMinute            []int // up to 1440 entries
	Total                int
}

// msField parses a millisecond-valued CSV field into a duration.
func msField(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(v * float64(time.Millisecond)), nil
}

func indexColumns(header []string) map[string]int {
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[h] = i
	}
	return col
}

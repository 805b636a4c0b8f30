// Package queueing implements the M/G/c quantities SFS's time-slice
// heuristic is derived from (§V-C of the paper) plus the Erlang-C and
// M/G/1 wait formulas used to validate simulator output.
//
// The paper models the FILTER pool as a multi-server queueing system with
// per-core traffic intensity rho = lambda / (c * mu); SFS bounds rho by
// capping the FILTER service time at S = meanIAT * c.
//
// Two roles in the repository:
//
//   - Calibration: IATForLoad inverts the load definition to compute
//     the mean inter-arrival time that offers a target utilization to c
//     cores — every workload generator's Load knob goes through it.
//   - Validation: ErlangC / expected-wait formulas give closed-form
//     steady-state answers an M/M/c simulation must converge to, which
//     the cpusim validation tests check.
//
// All formulas return ErrUnstable rather than a number once rho >= 1,
// because steady-state waiting time is unbounded there; callers probing
// the saturated regime (deliberately, in overload experiments) must
// treat that as a regime marker, not a failure.
package queueing

import (
	"errors"
	"math"
	"time"
)

// ErrUnstable is returned by delay formulas when the system is saturated
// (rho >= 1) and steady-state waiting time is unbounded.
var ErrUnstable = errors.New("queueing: system unstable (rho >= 1)")

// TrafficIntensity returns rho = lambda/(c*mu) for arrival rate lambda
// (requests/sec), per-core service rate mu (requests/sec), and c cores.
// It panics on non-positive mu or c.
func TrafficIntensity(lambda, mu float64, c int) float64 {
	if mu <= 0 {
		panic("queueing: service rate must be positive")
	}
	if c <= 0 {
		panic("queueing: need at least one core")
	}
	return lambda / (float64(c) * mu)
}

// ErlangC returns the probability that an arriving request must queue in
// an M/M/c system with offered load a = lambda/mu and c servers.
func ErlangC(a float64, c int) (float64, error) {
	if c <= 0 {
		panic("queueing: need at least one server")
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 0, ErrUnstable
	}
	// Compute iteratively to avoid factorial overflow.
	// inv = sum_{k=0}^{c-1} (c! / k!) * a^(k-c) -- folded incrementally.
	term := 1.0 // a^k / k! relative accumulator
	sum := 1.0
	for k := 1; k < c; k++ {
		term *= a / float64(k)
		sum += term
	}
	last := term * a / float64(c) // a^c / c!
	pWait := (last / (1 - rho)) / (sum + last/(1-rho))
	return pWait, nil
}

// MMcWait returns the mean waiting time (time in queue, excluding service)
// of an M/M/c system.
func MMcWait(lambda, mu float64, c int) (time.Duration, error) {
	rho := TrafficIntensity(lambda, mu, c)
	if rho >= 1 {
		return 0, ErrUnstable
	}
	pw, err := ErlangC(lambda/mu, c)
	if err != nil {
		return 0, err
	}
	wq := pw / (float64(c)*mu - lambda) // seconds
	return time.Duration(wq * float64(time.Second)), nil
}

// MG1Wait returns the Pollaczek-Khinchine mean waiting time of an M/G/1
// queue with arrival rate lambda, mean service time es (seconds), and
// service-time second moment es2 (seconds^2).
func MG1Wait(lambda, es, es2 float64) (time.Duration, error) {
	rho := lambda * es
	if rho >= 1 {
		return 0, ErrUnstable
	}
	wq := lambda * es2 / (2 * (1 - rho))
	return time.Duration(wq * float64(time.Second)), nil
}

// OfferedLoad returns the average CPU utilization fraction a workload
// offers to c cores: (mean service time / mean IAT) / c. The paper's load
// levels (50%..100%) are defined this way.
func OfferedLoad(meanService, meanIAT time.Duration, c int) float64 {
	if meanIAT <= 0 || c <= 0 {
		return math.Inf(1)
	}
	return float64(meanService) / float64(meanIAT) / float64(c)
}

// IATForLoad returns the mean IAT that makes a workload with the given
// mean service time offer `load` (fraction, e.g. 0.8) to c cores. This is
// how experiments sweep load levels, mirroring the paper's proportional
// IAT adjustment (§VIII-A).
func IATForLoad(meanService time.Duration, c int, load float64) time.Duration {
	if load <= 0 || c <= 0 {
		panic("queueing: load and cores must be positive")
	}
	return time.Duration(float64(meanService) / (load * float64(c)))
}

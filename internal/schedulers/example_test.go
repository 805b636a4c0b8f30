package schedulers_test

import (
	"fmt"

	"github.com/serverless-sched/sfs/internal/schedulers"
)

// ExampleNew shows the name → constructor registry the CLIs select
// schedulers from: lookups are case-insensitive and unknown names fail
// with the full list of choices.
func ExampleNew() {
	s, err := schedulers.New("cfs") // case-insensitive
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Name())

	_, err = schedulers.New("O(1)")
	fmt.Println(err)
	// Output:
	// CFS
	// unknown scheduler "O(1)" (want one of SFS, CFS, EEVDF, FIFO, RR, SRTF, PSRTF, COREGRANULAR, LOTTERY)
}

// ExampleNames enumerates the registry, the same list faasbench replay
// prints in its -h output.
func ExampleNames() {
	for _, n := range schedulers.Names() {
		fmt.Println(n)
	}
	// Output:
	// SFS
	// CFS
	// EEVDF
	// FIFO
	// RR
	// SRTF
	// PSRTF
	// COREGRANULAR
	// LOTTERY
}

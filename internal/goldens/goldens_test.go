package goldens

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/serverless-sched/sfs/internal/azure"
	"github.com/serverless-sched/sfs/internal/workload"
)

// TestGoldenFamilies pins every scenario family's simulated metrics to
// its checked-in fixture. Sweeping FamilyNames() keeps the fixture set
// and the registry in lockstep: adding a family without blessing a
// fixture fails here with the -update hint.
func TestGoldenFamilies(t *testing.T) {
	for _, family := range workload.FamilyNames() {
		t.Run(family, func(t *testing.T) {
			got, err := FamilyDigest(family)
			if err != nil {
				t.Fatal(err)
			}
			Check(t, "family-"+strings.ToLower(family), got)
		})
	}
}

// TestGoldenFixtureSync: every fixture on disk belongs to a digest
// this package still renders — deleted families and digests must take
// their goldens along.
func TestGoldenFixtureSync(t *testing.T) {
	known := map[string]bool{
		"azure-ingest.golden":   true,
		"cluster-matrix.golden": true,
		"trigger-chain.golden":  true,
	}
	for _, f := range workload.FamilyNames() {
		known["family-"+strings.ToLower(f)+".golden"] = true
	}
	for _, f := range predictedDigestFamilies {
		known["predicted-"+strings.ToLower(f)+".golden"] = true
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".golden") && !known[name] {
			t.Errorf("fixture %s has no digest rendering it; delete it or restore the digest", name)
		}
	}
}

// TestGoldenPredicted pins the prediction layer — PSRTF hosts, the
// PREDICTED dispatcher, heterogeneous speeds, and the network-delay
// stream — on a steady family and a shaped one.
func TestGoldenPredicted(t *testing.T) {
	for _, family := range predictedDigestFamilies {
		t.Run(family, func(t *testing.T) {
			got, err := PredictedDigest(family)
			if err != nil {
				t.Fatal(err)
			}
			Check(t, "predicted-"+strings.ToLower(family), got)
		})
	}
}

// TestGoldenTriggerChain pins the workflow-expanded trigger mix.
func TestGoldenTriggerChain(t *testing.T) {
	got, err := TriggerChainDigest()
	if err != nil {
		t.Fatal(err)
	}
	Check(t, "trigger-chain", got)
}

// TestGoldenClusterMatrix pins the cluster coordinator's absolute
// output in both execution modes: the shard-parity tests only compare
// runs with each other, so a change that moved serial and sharded
// results together would pass them.
func TestGoldenClusterMatrix(t *testing.T) {
	got, err := ClusterMatrixDigest()
	if err != nil {
		t.Fatal(err)
	}
	Check(t, "cluster-matrix", got)
}

// TestGoldenAzureIngest pins the streaming CSV ingestion path: the
// dataset fixtures in internal/azure/testdata flow through
// DurationsIndex + IngestTape and the resulting tape is digested.
func TestGoldenAzureIngest(t *testing.T) {
	durf, err := os.Open(filepath.Join("..", "azure", "testdata", "durations_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer durf.Close()
	idx, err := azure.DurationsIndex(durf)
	if err != nil {
		t.Fatal(err)
	}
	invf, err := os.Open(filepath.Join("..", "azure", "testdata", "invocations_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer invf.Close()
	tp, stats, err := azure.IngestTape(invf, idx, azure.IngestConfig{Seed: digestSeed})
	if err != nil {
		t.Fatal(err)
	}
	tasks := tp.Materialize(nil)
	var b strings.Builder
	fmt.Fprintf(&b, "digest v1: azure-ingest seed=%d\n", digestSeed)
	fmt.Fprintf(&b, "ingest: rows=%d functions=%d invocations=%d no-duration=%d truncated=%v\n",
		stats.Rows, stats.Functions, stats.Invocations, stats.NoDuration, stats.Truncated)
	b.WriteString(traceDigest(tasks))
	Check(t, "azure-ingest", b.String())
}

// Package goldens is the golden-metrics regression harness: it renders
// small deterministic simulations of every scenario family into
// byte-stable text digests and compares them against fixtures checked
// in under testdata/. Any change to a policy constant, engine
// mechanism, or generator — intended or not — shifts at least one
// digest and fails `go test ./...` with a readable diff; intended
// shifts are blessed with
//
//	go test ./internal/goldens -run Golden -update
//
// which regenerates the fixtures for review in the same commit. On a
// mismatch the harness also writes the offending digest next to its
// fixture as testdata/<name>.got, so CI can upload the regenerated
// bytes as an artifact.
package goldens

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures from the current digests")

// path returns the fixture location for a digest name.
func path(name string) string { return filepath.Join("testdata", name+".golden") }

// Check compares got against the named fixture under the calling
// package's testdata directory. With -update it
// (re)writes the fixture instead and always passes. On a mismatch it
// writes testdata/<name>.got and fails with the first differing line
// and the -update hint.
func Check(t *testing.T, name, got string) {
	t.Helper()
	if !strings.HasSuffix(got, "\n") {
		got += "\n"
	}
	p := path(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		os.Remove(gotPath(name))
		return
	}
	want, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("golden fixture %s missing (%v) — rerun the test with -update (e.g. `go test ./internal/goldens -run Golden -update`) and commit the result", p, err)
	}
	if string(want) == got {
		os.Remove(gotPath(name))
		return
	}
	if err := os.WriteFile(gotPath(name), []byte(got), 0o644); err != nil {
		t.Errorf("writing %s: %v", gotPath(name), err)
	}
	t.Errorf("golden digest %q drifted from %s:\n%s\nfull digest written to %s\nif the change is intended, rerun the test with -update (e.g. go test ./internal/goldens -run Golden -update)",
		name, p, firstDiff(string(want), got), gotPath(name))
}

func gotPath(name string) string { return filepath.Join("testdata", name+".got") }

// firstDiff renders the first differing line with one line of context.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("  line %d:\n    want: %s\n    got:  %s", i+1, wl, gl)
		}
	}
	return "  (lengths differ only)"
}

package exp

// Golden-run regression suite: every registered artifact's Quick-scale
// output — table plus cross-layer metrics rendering — is pinned byte for
// byte under testdata/golden/. The point is the paper-reproduction
// contract: any change to the simulator that moves a number in a table,
// a histogram bucket, or a counter shows up here as a readable diff.
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/exp -run Golden -update
//
// Each artifact is additionally run at 1 and 8 sweep workers and the two
// outputs compared, and re-run at several worker counts under GOMAXPROCS 1
// and NumCPU against the golden bytes, pinning the determinism guarantee:
// results and metric snapshots are collected in input order, and the
// engine's baton passing admits one running process goroutine at a time,
// so neither the worker count nor how the Go runtime schedules those
// goroutines may change a byte.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// runArtifact runs e at Quick scale on the given worker count and returns
// the artifact output with the merged metrics table appended — the full
// deterministic surface a golden file pins.
func runArtifact(t *testing.T, e *Experiment, workers int) string {
	t.Helper()
	prev := SetWorkers(workers)
	defer SetWorkers(prev)
	// Drain accumulators left over from other tests in the package.
	TakeStats()
	TakeSnapshot()
	var buf bytes.Buffer
	if err := e.Run(&buf, Quick); err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	if snap := TakeSnapshot(); snap != nil {
		buf.WriteString("\n-- metrics --\n")
		buf.WriteString(snap.Table())
	}
	return buf.String()
}

// firstDiff returns a human-readable pointer at the first differing line.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line count differs: want %d, got %d", len(w), len(g))
}

// TestGoldenArtifacts pins every artifact's Quick-scale output and checks
// worker-count independence on the way.
func TestGoldenArtifacts(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			got := runArtifact(t, e, 1)
			if got8 := runArtifact(t, e, 8); got8 != got {
				t.Fatalf("%s output differs between -j 1 and -j 8; %s",
					e.ID, firstDiff(got, got8))
			}
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (regenerate with `go test ./internal/exp -run Golden -update`): %v", err)
			}
			if string(want) != got {
				t.Errorf("%s output drifted from golden; %s", e.ID, firstDiff(string(want), got))
			}
		})
	}
}

// TestGoldenArtifactsInvariantUnderParallelRequest re-runs every registered
// artifact with sweep workers ∈ {2, 8} × GOMAXPROCS ∈ {1, NumCPU} and
// compares against the committed golden bytes. GOMAXPROCS 1 is the case no
// other test covers: it changes how the Go runtime interleaves the engine's
// process goroutines, which must never move a byte.
func TestGoldenArtifactsInvariantUnderParallelRequest(t *testing.T) {
	if *update {
		t.Skip("golden files being rewritten")
	}
	maxProcs := []int{1, runtime.NumCPU()}
	if maxProcs[1] == 1 {
		maxProcs = maxProcs[:1]
	}
	for _, workers := range []int{2, 8} {
		for _, mp := range maxProcs {
			prev := runtime.GOMAXPROCS(mp)
			for _, e := range All() {
				want, err := os.ReadFile(filepath.Join("testdata", "golden", e.ID+".txt"))
				if err != nil {
					t.Fatal(err)
				}
				if got := runArtifact(t, e, workers); string(want) != got {
					t.Errorf("-j %d GOMAXPROCS=%d: %s drifted; %s",
						workers, mp, e.ID, firstDiff(string(want), got))
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestGoldenCoversRegistry fails when an artifact is registered without a
// golden file (or a golden file is orphaned), so the suite cannot silently
// fall out of sync with the registry.
func TestGoldenCoversRegistry(t *testing.T) {
	if *update {
		t.Skip("golden files being rewritten")
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := make(map[string]bool)
	for _, ent := range entries {
		onDisk[strings.TrimSuffix(ent.Name(), ".txt")] = true
	}
	for _, e := range All() {
		if !onDisk[e.ID] {
			t.Errorf("artifact %s has no golden file", e.ID)
		}
		delete(onDisk, e.ID)
	}
	for id := range onDisk {
		t.Errorf("golden file %s.txt matches no registered artifact", id)
	}
}

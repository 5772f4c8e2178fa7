package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pario/internal/apps/fft"
	"pario/internal/apps/scf"
	"pario/internal/core"
	"pario/internal/exp"
	"pario/internal/machine"
	sstats "pario/internal/stats"
	"pario/internal/trace"
)

// goldenDir holds each artifact's pinned Quick-scale output plus its
// metrics table, relative to the repository root the benchmark runs from.
const goldenDir = "internal/exp/testdata/golden"

// loadGoldens reads the pinned output of each artifact.
func loadGoldens(ids []string) (map[string][]byte, error) {
	g := make(map[string][]byte, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("loading golden: %w", err)
		}
		g[id] = b
	}
	return g, nil
}

// runArtifact runs one artifact at Quick scale and returns its output with
// the merged metrics table appended (the exact surface its golden pins),
// its metrics snapshot and its host time.
func runArtifact(id string, tr *tracer) ([]byte, *sstats.Snapshot, time.Duration, error) {
	e := exp.ByID(id)
	if e == nil {
		return nil, nil, 0, fmt.Errorf("artifact %s is not registered", id)
	}
	exp.TakeStats()
	exp.TakeSnapshot()
	var buf bytes.Buffer
	sp := tr.begin("exp." + id)
	t0 := time.Now()
	err := e.Run(&buf, exp.Quick)
	snap := exp.TakeSnapshot()
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", id, err)
	}
	if snap != nil {
		buf.WriteString("\n-- metrics --\n")
		buf.WriteString(snap.Table())
	}
	return buf.Bytes(), snap, d, nil
}

// recordArtifact adds one artifact run of a traced pass to the layers.
func recordArtifact(l *layers, id string, snap *sstats.Snapshot, d time.Duration) {
	l.sample("exp."+id+"_ms", d.Seconds()*1e3)
	l.addSnapshot(snap)
	l.add("sim.run_sec", d.Seconds())
}

// checkGolden counts a mismatch against the artifact's golden and reports
// the first differing line once per artifact.
func checkGolden(id string, got, want []byte, reported map[string]bool) bool {
	if bytes.Equal(got, want) {
		return true
	}
	if !reported[id] {
		reported[id] = true
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				fmt.Fprintf(os.Stderr, "perfbench: %s differs from golden at line %d:\n  want %q\n  got  %q\n", id, i+1, w[i], g[i])
				return false
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s differs from golden in length\n", id)
	}
	return false
}

// paperQuick runs the eleven paper artifacts per pass, in a seed-drawn
// order, and checks each against its golden byte for byte.
type paperQuick struct {
	seed     uint64
	dir      string
	golden   map[string][]byte
	reported map[string]bool
}

func setupPaperQuick(seed uint64, dir string) (workload, error) {
	g, err := loadGoldens(paperIDs)
	if err != nil {
		return nil, err
	}
	return &paperQuick{seed: seed, dir: dir, golden: g, reported: make(map[string]bool)}, nil
}

func (w *paperQuick) pass(p int, tr *tracer, l *layers) (attempted, failed int) {
	for _, id := range paperOrder(w.seed, p) {
		tr.nextOp()
		attempted++
		got, snap, d, err := runArtifact(id, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			failed++
			continue
		}
		recordArtifact(l, id, snap, d)
		if !checkGolden(id, got, w.golden[id], w.reported) {
			failed++
		}
	}
	return attempted, failed
}

func (w *paperQuick) ladder(l *layers) error {
	tr, err := capturePaperOps()
	if err != nil {
		return err
	}
	return runLadder(l, []*trace.Trace{tr}, w.dir, true)
}

func (w *paperQuick) close() {}

// capturePaperOps runs the Table 2 and Figure 6 workloads (scf11 SMALL
// and fft, 4 processes, paper machines) with operation capture on, calling
// the application models directly so paper-quick makes no serve calls,
// and folds every rank's captured operations into one trace.
func capturePaperOps() (*trace.Trace, error) {
	prev := core.DefaultCapture()
	core.SetDefaultCapture(true)
	defer core.SetDefaultCapture(prev)
	large, err := machine.ParagonLarge(12)
	if err != nil {
		return nil, err
	}
	small, err := machine.ParagonSmall(2)
	if err != nil {
		return nil, err
	}
	scfRep, err := scf.Run11(scf.Config11{Machine: large, Input: scf.Small, Version: scf.Original, Procs: 4})
	if err != nil {
		return nil, fmt.Errorf("capture run scf11: %w", err)
	}
	fftRep, err := fft.Run(fft.Config{Machine: small, Procs: 4})
	if err != nil {
		return nil, fmt.Errorf("capture run fft: %w", err)
	}
	ranks := append(scfRep.Captured, fftRep.Captured...)
	return trace.FromCaptured(ranks, "", "perfbench:capture"), nil
}

// Package fft models the paper's 2-D out-of-core FFT (§2, §4.4): three
// passes over two disk-resident N x N complex arrays on the small Paragon.
//
//	step 1: 1-D FFTs over the columns of A (strip-mined panels)
//	step 2: out-of-core transpose A -> B
//	step 3: 1-D FFTs over the (transposed) data in B
//
// Steps 1 and 3 sweep their file in storage order and are cheap. The
// transpose is the expensive step: with both files column-major, a tile
// read from A shatters into per-column segments and the corresponding tile
// written to B shatters the same way, so the program compromises on square
// tiles and pays a seek-bound request stream on both files. Storing B
// row-major makes the panel that is contiguous to read from A also
// contiguous to write to B, collapsing the transpose to a handful of large
// sequential requests (the paper's file-layout optimization).
package fft

import (
	"context"
	"fmt"
	"math"

	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/sim"
)

// elemBytes is one complex double-precision element.
const elemBytes = 16

// fftFlops returns the arithmetic of one 1-D complex FFT of length n.
func fftFlops(n int64) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}

// Config describes one FFT run.
type Config struct {
	// Ctx, when non-nil, bounds the run: cancellation tears the
	// simulation down promptly (see core.System.RunRanksCtx).
	Ctx context.Context
	// Faults, when non-nil, schedules the plan's injections on the run
	// and enables PFS client resilience (see core.System.InstallFaults).
	Faults  *fault.Plan
	Machine *machine.Config
	Procs   int
	// N is the array dimension; the paper's 1.5 GB total I/O corresponds
	// to N = 4096 (6 passes x 256 MB).
	N int64
	// OptimizedLayout stores B row-major (the §4.4 optimization).
	OptimizedLayout bool
	// BufferBytes is the per-process staging memory; default 8 MB of the
	// Paragon node's 32 MB.
	BufferBytes int64
}

func (c *Config) defaults() error {
	if c.Machine == nil || c.Procs < 1 {
		return fmt.Errorf("fft: incomplete config %+v", c)
	}
	if c.N == 0 {
		c.N = 4096
	}
	if c.N < int64(c.Procs) {
		return fmt.Errorf("fft: N=%d smaller than %d procs", c.N, c.Procs)
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 8 << 20
	}
	if c.BufferBytes < c.N*elemBytes {
		return fmt.Errorf("fft: buffer %d cannot hold one column (%d)", c.BufferBytes, c.N*elemBytes)
	}
	return nil
}

// TotalIOBytes returns the run's total I/O volume (6 passes over the
// array), for reporting.
func TotalIOBytes(n int64) int64 { return 6 * n * n * elemBytes }

// Run simulates the FFT and returns its report.
func Run(cfg Config) (core.Report, error) {
	if err := cfg.defaults(); err != nil {
		return core.Report{}, err
	}
	sys, err := core.NewSystem(cfg.Machine, cfg.Procs)
	if err != nil {
		return core.Report{}, err
	}
	if err := sys.InstallFaults(cfg.Faults); err != nil {
		return core.Report{}, err
	}
	nio := sys.FS.NumIONodes()
	layout := pfs.Layout{StripeUnit: cfg.Machine.DefaultStripeUnit, StripeFactor: nio}

	arrBytes := cfg.N * cfg.N * elemBytes
	fileA, err := sys.FS.Create("fft.A", layout, arrBytes)
	if err != nil {
		return core.Report{}, err
	}
	fileB, err := sys.FS.Create("fft.B", layout, arrBytes)
	if err != nil {
		return core.Report{}, err
	}

	orderB := ooc.ColMajor
	if cfg.OptimizedLayout {
		orderB = ooc.RowMajor
	}
	arrA, err := ooc.NewArray2D(cfg.N, cfg.N, elemBytes, ooc.ColMajor, 0)
	if err != nil {
		return core.Report{}, err
	}
	arrB, err := ooc.NewArray2D(cfg.N, cfg.N, elemBytes, orderB, 0)
	if err != nil {
		return core.Report{}, err
	}

	// Per-process column ownership (block distribution).
	colsOf := func(rank int) (int64, int64) {
		per := cfg.N / int64(cfg.Procs)
		rem := cfg.N % int64(cfg.Procs)
		c0 := int64(rank)*per + min64(int64(rank), rem)
		c1 := c0 + per
		if int64(rank) < rem {
			c1++
		}
		return c0, c1
	}

	// Panel width for the sequential sweeps (steps 1 and 3): as many full
	// columns as fit the buffer (the 1-D FFTs run in place).
	panel := cfg.BufferBytes / (cfg.N * elemBytes)
	if panel < 1 {
		panel = 1
	}
	// The transpose holds a source and a destination buffer, so each gets
	// half the memory: the optimized version's panels are half as wide,
	// and the original's square tiles have edge sqrt(M/2/elem).
	tPanel := panel / 2
	if tPanel < 1 {
		tPanel = 1
	}
	tile := int64(math.Sqrt(float64(cfg.BufferBytes) / (2 * elemBytes)))
	if tile > cfg.N {
		tile = cfg.N
	}
	if tile < 1 {
		tile = 1
	}

	colFFTFlops := fftFlops(cfg.N)

	wall, err := sys.RunRanksCtx(cfg.Ctx, func(p *sim.Proc, rank int) {
		// Hand-written code driving PFS directly: the client path is
		// cheap, so the I/O nodes set the pace (paper §4.4).
		cl := sys.Client(rank, cfg.Machine.Native)
		hA := cl.Open(p, fileA)
		hB := cl.Open(p, fileB)
		c0, c1 := colsOf(rank)

		// Step 1: column FFTs on A (contiguous panels either layout).
		for c := c0; c < c1; c += panel {
			w := min64(panel, c1-c)
			off := c * cfg.N * elemBytes
			n := w * cfg.N * elemBytes
			hA.ReadAt(p, off, n)
			sys.Compute(p, float64(w)*colFFTFlops)
			hA.WriteAt(p, off, n)
		}
		sys.Comm.Barrier(p, rank)

		// Step 2: transpose A -> B.
		if cfg.OptimizedLayout {
			// Column panels of A are row panels of row-major B: both
			// sides contiguous.
			for c := c0; c < c1; c += tPanel {
				w := min64(tPanel, c1-c)
				for _, run := range arrA.SectionRuns(0, cfg.N, c, c+w) {
					hA.ReadAt(p, run.Off, run.Len)
				}
				sys.Compute(p, 2*float64(w*cfg.N)) // in-memory transpose
				for _, run := range arrB.SectionRuns(c, c+w, 0, cfg.N) {
					hB.WriteAt(p, run.Off, run.Len)
				}
			}
		} else {
			// Square tiles; both sides shatter into per-line segments.
			for c := c0; c < c1; c += tile {
				w := min64(tile, c1-c)
				for r := int64(0); r < cfg.N; r += tile {
					hgt := min64(tile, cfg.N-r)
					for _, run := range arrA.SectionRuns(r, r+hgt, c, c+w) {
						hA.ReadAt(p, run.Off, run.Len)
					}
					sys.Compute(p, 2*float64(w*hgt))
					for _, run := range arrB.SectionRuns(c, c+w, r, r+hgt) {
						hB.WriteAt(p, run.Off, run.Len)
					}
				}
			}
		}
		sys.Comm.Barrier(p, rank)

		// Step 3: column FFTs over the transposed data, swept in B's
		// storage order (contiguous panels for either layout).
		for c := c0; c < c1; c += panel {
			w := min64(panel, c1-c)
			off := c * cfg.N * elemBytes
			n := w * cfg.N * elemBytes
			hB.ReadAt(p, off, n)
			sys.Compute(p, float64(w)*colFFTFlops)
			hB.WriteAt(p, off, n)
		}
		hA.Close(p)
		hB.Close(p)
	})
	if err != nil {
		return core.Report{}, err
	}
	return sys.MakeReport(wall), nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

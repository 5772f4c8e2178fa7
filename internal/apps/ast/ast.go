// Package ast models the astrophysics application (§2, §4.6): a simulation
// of gravitational collapse whose I/O consists of periodic dumps of several
// distributed 2-D arrays into one shared column-major file, for
// check-pointing, data analysis and visualization.
//
// The unoptimized version performs its dumps through a Chameleon-style
// library (pio.Funnel): every process hands its portion to node 0 in small
// chunks, and node 0 performs all file requests. The optimized version
// performs the same dumps with two-phase collective I/O (pio.Collective).
// Table 4 of the paper compares the two on 16 and 64 I/O nodes of the
// large Paragon.
package ast

import (
	"context"
	"fmt"

	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/pio"
	"pario/internal/sim"
)

// Calibration constants.
const (
	elemBytes = 8

	// chameleonChunk is the funnel library's internal chunk size: the
	// "small non-contiguous chunks" of §4.6.
	chameleonChunk = 8 << 10

	// solverFlopsPerPoint is the per-gridpoint arithmetic between dump
	// points (PPM hydro step plus multigrid cycles), folded into one
	// constant. It is small relative to the unoptimized I/O path, as the
	// paper's Table 4 requires.
	solverFlopsPerPoint = 60
)

// Config describes one AST run.
type Config struct {
	// Ctx, when non-nil, bounds the run: cancellation tears the
	// simulation down promptly (see core.System.RunRanksCtx).
	Ctx context.Context
	// Faults, when non-nil, schedules the plan's injections on the run
	// and enables PFS client resilience (see core.System.InstallFaults).
	Faults  *fault.Plan
	Machine *machine.Config
	Procs   int
	// N is the square array dimension; the paper's "reasonably large
	// input" is 2K x 2K.
	N int64
	// Arrays is how many distributed arrays are dumped at each dump point
	// (check-pointing + analysis + visualization sets).
	Arrays int
	// Dumps is the number of dump points simulated.
	Dumps int
	// Optimized selects two-phase collective I/O instead of the funnel.
	Optimized bool
	// Restart prepends a read of the last checkpoint (the paper notes the
	// application becomes read-intensive when restarting from
	// check-pointed data).
	Restart bool
}

func (c *Config) defaults() error {
	if c.Machine == nil || c.Procs < 1 {
		return fmt.Errorf("ast: incomplete config %+v", c)
	}
	if c.N == 0 {
		c.N = 2048
	}
	if c.Arrays == 0 {
		c.Arrays = 5
	}
	if c.Dumps == 0 {
		c.Dumps = 12
	}
	if c.N < int64(c.Procs) {
		return fmt.Errorf("ast: N=%d smaller than %d procs", c.N, c.Procs)
	}
	return nil
}

// TotalIOBytes returns the configured run's dump volume.
func (c Config) TotalIOBytes() int64 {
	cc := c
	_ = cc.defaults()
	return int64(cc.Dumps) * int64(cc.Arrays) * cc.N * cc.N * elemBytes
}

// Run simulates the AST run and returns its report.
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
	layout := pfs.Layout{StripeUnit: cfg.Machine.DefaultStripeUnit, StripeFactor: sys.FS.NumIONodes()}
	snapBytes := int64(cfg.Arrays) * cfg.N * cfg.N * elemBytes
	file, err := sys.FS.Create("ast.dump", layout, int64(cfg.Dumps)*snapBytes)
	if err != nil {
		return core.Report{}, err
	}

	// Each array is stored column-major; processes own block column
	// ranges, so a process's portion of one array is a single contiguous
	// file run (the funnel's chunking is what shatters it).
	arrays := make([]*ooc.Array2D, cfg.Arrays)
	for a := range arrays {
		arr, aerr := ooc.NewArray2D(cfg.N, cfg.N, elemBytes, ooc.ColMajor, int64(a)*cfg.N*cfg.N*elemBytes)
		if aerr != nil {
			return core.Report{}, aerr
		}
		arrays[a] = arr
	}
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

	pointsPerProc := float64(cfg.N) * float64(cfg.N) * float64(cfg.Arrays) / float64(cfg.Procs)
	computePerDump := solverFlopsPerPoint * pointsPerProc

	handles := make([]*pio.Handle, cfg.Procs)
	var coll *pio.Collective
	var funnel *pio.Funnel

	wall, err := sys.RunRanksCtx(cfg.Ctx, func(p *sim.Proc, rank int) {
		cl := sys.Client(rank, cfg.Machine.Passion)
		h := cl.Open(p, file)
		handles[rank] = h
		sys.Comm.Barrier(p, rank)
		if rank == 0 {
			if cfg.Optimized {
				c, cerr := pio.NewCollective(sys.Comm, handles)
				if cerr != nil {
					panic(cerr)
				}
				coll = c
			} else {
				f, ferr := pio.NewFunnel(sys.Comm, handles[0], chameleonChunk)
				if ferr != nil {
					panic(ferr)
				}
				// The per-chunk packing cost on the owning compute node is
				// the Fortran write-call path the library goes through.
				f.SetCallCost(cfg.Machine.Fortran.WriteCallSec)
				f.SetRecorders(sys.Recorders)
				funnel = f
			}
		}
		sys.Comm.Barrier(p, rank)

		c0, c1 := colsOf(rank)
		if cfg.Restart {
			// Read the previous run's final snapshot back in.
			var runs []ooc.Run
			for _, arr := range arrays {
				runs = append(runs, arr.SectionRuns(0, cfg.N, c0, c1)...)
			}
			if cfg.Optimized {
				coll.Read(p, rank, runs)
			} else {
				funnel.Read(p, rank, runs)
			}
		}
		for d := 0; d < cfg.Dumps; d++ {
			sys.Compute(p, computePerDump)
			base := int64(d) * snapBytes
			var runs []ooc.Run
			for _, arr := range arrays {
				for _, r := range arr.SectionRuns(0, cfg.N, c0, c1) {
					runs = append(runs, ooc.Run{Off: base + r.Off, Len: r.Len})
				}
			}
			if cfg.Optimized {
				coll.Write(p, rank, runs)
			} else {
				funnel.Write(p, rank, runs)
			}
		}
		h.Close(p)
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

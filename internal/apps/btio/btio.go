// Package btio models the NAS BTIO benchmark (§2, §4.5): a pseudo-time-
// stepping flow solver on the IBM SP-2 that periodically dumps its solution
// vector — u(5, nx, ny, nz), Fortran order — to one shared file.
//
// The grid uses BT's diagonal multipartition scheme: with P = q*q
// processes, each dimension is cut into q slabs and every process owns q
// cells arranged on a diagonal. Each cell's footprint in the file is
// (ny/q)*(nz/q) short runs of (nx/q)*40 bytes, so the unoptimized
// ("UNIX-style MPI-2 I/O") version issues one seek+write per run: the total
// request count grows with sqrt(P) while the request size shrinks — the
// paper's explanation for its erratic I/O times. The optimized version
// performs the same dump as one two-phase collective write: P large
// conforming requests per dump regardless of the decomposition.
package btio

import (
	"context"
	"fmt"
	"math"

	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/pio"
	"pario/internal/sim"
)

// Class is a NAS problem class.
type Class struct {
	Name string
	// N is the grid dimension (cubic).
	N int64
	// Dumps is how many solution dumps the full benchmark performs
	// (200 timesteps, writing every 5).
	Dumps int
}

// The paper's two input classes. Class A's total I/O volume is
// 40 dumps x 64^3 x 5 x 8 B = 419 MB (the paper reports 408.9 MB, the
// difference being header/padding records we do not model).
var (
	ClassA = Class{Name: "A", N: 64, Dumps: 40}
	ClassB = Class{Name: "B", N: 102, Dumps: 40}
)

// Calibration constants.
const (
	// comp is 5 solution components of 8 bytes per grid point.
	comp      = 5
	elemBytes = 8

	// stepsPerDump: BT writes the solution every 5 timesteps.
	stepsPerDump = 5

	// stepFlopsPerPoint approximates BT's per-gridpoint arithmetic per
	// timestep (block-tridiagonal solves in three directions, at the
	// SP-2's modest sustained rate). Fitted so that, for Class A at 36
	// processes, collective I/O reduces total time by the paper's ~46%.
	stepFlopsPerPoint = 20000
)

// Config describes one BTIO run.
type Config struct {
	// Ctx, when non-nil, bounds the run: cancellation tears the
	// simulation down promptly (see core.System.RunRanksCtx).
	Ctx context.Context
	// Faults, when non-nil, schedules the plan's injections on the run
	// and enables PFS client resilience (see core.System.InstallFaults).
	Faults  *fault.Plan
	Machine *machine.Config
	// Procs must be a perfect square (BT requirement).
	Procs int
	Class Class
	// Collective selects the two-phase optimized version.
	Collective bool
	// DumpsOverride, when positive, simulates that many dumps instead of
	// the class default. Dumps are statistically identical, so reported
	// bandwidths are unaffected; use it to shorten large sweeps.
	DumpsOverride int
	// Verify appends a read-back of the final solution dump (the full
	// benchmark's verification stage).
	Verify bool
}

// TotalIOBytes returns the volume the configured run writes.
func (c Config) TotalIOBytes() int64 {
	d := c.Class.Dumps
	if c.DumpsOverride > 0 {
		d = c.DumpsOverride
	}
	return int64(d) * c.Class.N * c.Class.N * c.Class.N * comp * elemBytes
}

// bounds returns the half-open slab [lo, hi) of index i when n points are
// cut into q slabs.
func bounds(i, q int, n int64) (int64, int64) {
	lo := int64(i) * n / int64(q)
	hi := int64(i+1) * n / int64(q)
	return lo, hi
}

// cellRuns returns the file runs of process (pi, pj)'s k'th multipartition
// cell.
func cellRuns(arr *ooc.Array3D, pi, pj, k, q int, n int64) []ooc.Run {
	x0, x1 := bounds(k, q, n)
	y0, y1 := bounds(pi, q, n)
	z0, z1 := bounds((pj+k)%q, q, n)
	return arr.SectionRuns(x0, x1, y0, y1, z0, z1)
}

// Run simulates the BTIO run and returns its report.
func Run(cfg Config) (core.Report, error) {
	if cfg.Machine == nil || cfg.Procs < 1 {
		return core.Report{}, fmt.Errorf("btio: incomplete config %+v", cfg)
	}
	q := int(math.Round(math.Sqrt(float64(cfg.Procs))))
	if q*q != cfg.Procs {
		return core.Report{}, fmt.Errorf("btio: %d processes is not a perfect square", cfg.Procs)
	}
	if cfg.Class.N == 0 {
		return core.Report{}, fmt.Errorf("btio: missing class")
	}
	dumps := cfg.Class.Dumps
	if cfg.DumpsOverride > 0 {
		dumps = cfg.DumpsOverride
	}
	sys, err := core.NewSystem(cfg.Machine, cfg.Procs)
	if err != nil {
		return core.Report{}, err
	}
	if err := sys.InstallFaults(cfg.Faults); err != nil {
		return core.Report{}, err
	}
	n := cfg.Class.N
	arr, err := ooc.NewArray3D(n, n, n, comp, elemBytes, 0)
	if err != nil {
		return core.Report{}, err
	}
	layout := pfs.Layout{StripeUnit: cfg.Machine.DefaultStripeUnit, StripeFactor: sys.FS.NumIONodes()}
	file, err := sys.FS.Create("btio.solution", layout, int64(dumps)*arr.SizeBytes())
	if err != nil {
		return core.Report{}, err
	}

	// Each dump appends a full solution snapshot; dump d's array starts at
	// d * SizeBytes.
	snapBytes := arr.SizeBytes()

	pointsPerProc := float64(n*n*n) / float64(cfg.Procs)
	computePerDump := stepsPerDump * stepFlopsPerPoint * pointsPerProc

	// Pre-build the collective once (shared across all ranks' closures).
	handles := make([]*pio.Handle, cfg.Procs)
	var coll *pio.Collective

	wall, err := sys.RunRanksCtx(cfg.Ctx, func(p *sim.Proc, rank int) {
		cl := sys.Client(rank, cfg.Machine.Unix)
		h := cl.Open(p, file)
		handles[rank] = h
		sys.Comm.Barrier(p, rank)
		if cfg.Collective && rank == 0 {
			c, cerr := pio.NewCollective(sys.Comm, handles)
			if cerr != nil {
				panic(cerr)
			}
			coll = c
		}
		sys.Comm.Barrier(p, rank)

		pi, pj := rank/q, rank%q
		for d := 0; d < dumps; d++ {
			sys.Compute(p, computePerDump)
			base := int64(d) * snapBytes
			if cfg.Collective {
				var runs []ooc.Run
				for k := 0; k < q; k++ {
					for _, r := range cellRuns(arr, pi, pj, k, q, n) {
						runs = append(runs, ooc.Run{Off: base + r.Off, Len: r.Len})
					}
				}
				coll.Write(p, rank, runs)
				continue
			}
			for k := 0; k < q; k++ {
				for _, r := range cellRuns(arr, pi, pj, k, q, n) {
					h.WriteAt(p, base+r.Off, r.Len)
				}
			}
		}
		if cfg.Verify {
			// Read the final snapshot back for verification.
			base := int64(dumps-1) * snapBytes
			var runs []ooc.Run
			for k := 0; k < q; k++ {
				for _, r := range cellRuns(arr, pi, pj, k, q, n) {
					runs = append(runs, ooc.Run{Off: base + r.Off, Len: r.Len})
				}
			}
			if cfg.Collective {
				coll.Read(p, rank, runs)
			} else {
				for _, r := range runs {
					h.ReadAt(p, r.Off, r.Len)
				}
			}
			sys.Compute(p, 10*pointsPerProc) // residual check arithmetic
			sys.Comm.Allreduce(p, rank, 8)
		}
		h.Close(p)
	})
	if err != nil {
		return core.Report{}, err
	}
	return sys.MakeReport(wall), nil
}

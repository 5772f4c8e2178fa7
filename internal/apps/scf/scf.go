// Package scf models the two self-consistent-field computational chemistry
// applications of the paper (§2, §4.2, §4.3): the disk-based SCF 1.1 and
// the semi-direct SCF 3.0.
//
// The Hartree-Fock structure both share: an N-basis-function problem needs
// ~N^4/8 two-electron integrals. A disk-based run evaluates them once,
// writes the significant ones to a per-process private file, and on every
// subsequent SCF iteration reads the file back in full while folding the
// integrals into the Fock matrix. The I/O request stream is therefore
// "write the file once in large packed chunks, then re-read it K times
// sequentially" — which is what the paper's Tables 2-3 trace.
//
// Calibration constants below are fitted to the paper's own measurements
// (Table 2/3 and the platform description); each constant's derivation is
// in its comment. They make no claim beyond "the same arithmetic the paper
// reports".
package scf

import (
	"context"
	"fmt"

	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/pfs"
	"pario/internal/pio"
	"pario/internal/sim"
)

// Input is a named problem size. The paper uses basis-set sizes 108, 140
// and 285 (Figure 1 caption).
type Input struct {
	Name string
	N    int // basis functions
}

// The paper's three inputs.
var (
	Small  = Input{Name: "SMALL", N: 108}
	Medium = Input{Name: "MEDIUM", N: 140}
	Large  = Input{Name: "LARGE", N: 285}
)

// Calibration constants. See DESIGN.md §4.
const (
	// integralBytes is the stored size of one significant integral: an
	// 8-byte value plus 8 bytes of packed basis-function indices.
	integralBytes = 16

	// screenFrac is the fraction of the N^4/8 integrals that survive
	// magnitude screening and are stored. Fitted so the LARGE integral
	// file volume matches Table 2: 0.19 * 285^4/8 * 16 B = 2.5 GB.
	screenFrac = 0.19

	// readIterations is the number of SCF iterations that re-read the
	// integral file. Fitted from Table 2: 37 GB read / 2.5 GB file ≈ 15.
	readIterations = 15

	// evalFlopsPerIntegral is the cost of evaluating one integral
	// (paper §2: "300-500 floating point operations on average").
	evalFlopsPerIntegral = 400

	// fockFlopsPerStored is the per-iteration Fock-matrix arithmetic per
	// stored integral in SCF 1.1. Fitted so the non-I/O execution residue
	// of the LARGE 4-processor run matches Table 2 (~13,400 s at
	// 25 MFlops sustained).
	fockFlopsPerStored = 430

	// fock30FlopsPerStored is the same constant for SCF 3.0, whose Fock
	// build is substantially leaner; fitted so the 100%-cached MEDIUM runs
	// are I/O-bound (paper §4.3: processor count barely matters there).
	fock30FlopsPerStored = 100

	// recomputeCostFactor discounts re-evaluated integrals in SCF 3.0:
	// the most expensive integrals are kept on disk, so the re-computed
	// ones are cheaper than average (§2, SCF 3.0 description).
	recomputeCostFactor = 0.6

	// recordBlocks is the number of index blocks in a private integral
	// file; the original (Fortran) version performs one seek per block
	// per read iteration. Fitted to Table 2's seek count
	// (≈994 / 4 procs / 15 iterations ≈ 16).
	recordBlocks = 16
)

// integrals returns the total two-electron integral count for n basis
// functions.
func integrals(n int) float64 {
	fn := float64(n)
	return fn * fn * fn * fn / 8
}

// StoredBytes returns the per-run integral file volume (all processors).
func StoredBytes(in Input) int64 {
	return int64(integrals(in.N) * screenFrac * integralBytes)
}

// Version selects the SCF 1.1 code path of Figure 1's tuples.
type Version int

const (
	// Original is the PNL code with Fortran I/O (tuple V = O).
	Original Version = iota
	// Passion replaces the interface with PASSION calls (V = P).
	Passion
	// PassionPrefetch additionally prefetches the next chunk (V = F).
	PassionPrefetch
	// Direct is the fully "direct" SCF: integrals are re-evaluated on
	// every iteration and nothing touches the disk. The paper's §5 notes
	// that users prefer this version at large processor counts, where the
	// disk-based version's I/O collapses.
	Direct
)

func (v Version) String() string {
	switch v {
	case Original:
		return "original"
	case Passion:
		return "passion"
	case PassionPrefetch:
		return "passion+prefetch"
	case Direct:
		return "direct"
	}
	return "?"
}

// Config11 describes one SCF 1.1 run: the paper's five-tuple
// (V, P, M, Su, Sf) plus the input.
type Config11 struct {
	// Ctx, when non-nil, bounds the run: cancellation tears the
	// simulation down promptly (see core.System.RunRanksCtx).
	Ctx context.Context
	// Faults, when non-nil, schedules the plan's injections on the run
	// and enables PFS client resilience (see core.System.InstallFaults).
	Faults  *fault.Plan
	Machine *machine.Config
	Input   Input
	Version Version
	// Procs is P.
	Procs int
	// MemoryKB is M, the I/O buffer memory per process (the read/write
	// chunk size). The paper's default is 64.
	MemoryKB int64
	// StripeUnitKB is Su; 0 means the machine default.
	StripeUnitKB int64
	// PrefetchDepth is the number of chunks kept in flight by the
	// prefetching version; the PASSION default is 1 (double buffering).
	PrefetchDepth int
}

func (c *Config11) defaults() error {
	if c.Machine == nil || c.Procs < 1 || c.Input.N < 1 {
		return fmt.Errorf("scf: incomplete config %+v", c)
	}
	if c.MemoryKB == 0 {
		c.MemoryKB = 64
	}
	if c.StripeUnitKB == 0 {
		c.StripeUnitKB = c.Machine.DefaultStripeUnit >> 10
	}
	if c.PrefetchDepth == 0 {
		c.PrefetchDepth = 1
	}
	return nil
}

// Run simulates the SCF 1.1 run and returns its report.
func Run11(cfg Config11) (core.Report, error) {
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

	total := StoredBytes(cfg.Input)
	perProc := total / int64(cfg.Procs)
	chunk := cfg.MemoryKB << 10

	if cfg.Version == Direct {
		// No disk at all: every iteration re-evaluates the integrals.
		nInt := integrals(cfg.Input.N)
		evalWallFlops := nInt * evalFlopsPerIntegral / float64(cfg.Procs)
		fockWallFlops := nInt * screenFrac * fockFlopsPerStored / float64(cfg.Procs)
		wall, err := sys.RunRanksCtx(cfg.Ctx, func(p *sim.Proc, rank int) {
			for it := 0; it <= readIterations; it++ {
				sys.Compute(p, evalWallFlops+fockWallFlops)
				sys.Comm.Allreduce(p, rank, int64(8*cfg.Input.N))
			}
		})
		if err != nil {
			return core.Report{}, err
		}
		return sys.MakeReport(wall), nil
	}

	nio := sys.FS.NumIONodes()
	layout := pfs.Layout{
		StripeUnit:   cfg.StripeUnitKB << 10,
		StripeFactor: nio,
	}

	// One private integral file per process, spread across the I/O
	// partition with rotated first nodes.
	files := make([]*pfs.File, cfg.Procs)
	for r := range files {
		l := layout
		l.FirstNode = r % nio
		f, err := sys.FS.Create(fmt.Sprintf("scf.ints.%d", r), l, perProc)
		if err != nil {
			return core.Report{}, err
		}
		files[r] = f
	}

	par := cfg.Machine.Fortran
	if cfg.Version != Original {
		par = cfg.Machine.Passion
	}

	evalFlopsPerByte := evalFlopsPerIntegral / (screenFrac * integralBytes)
	fockFlopsPerByte := float64(fockFlopsPerStored) / integralBytes

	wall, err := sys.RunRanksCtx(cfg.Ctx, func(p *sim.Proc, rank int) {
		cl := sys.Client(rank, par)
		h := cl.Open(p, files[rank])
		// The production code also touches a handful of control and
		// output files; counts fitted to Table 2 (19 opens, 14 closes
		// across 4 processes, rank 0 holding the shared ones open).
		aux, auxClose := 3, 2
		if rank == 0 {
			aux, auxClose = 6, 4
		}
		for i := 0; i < aux; i++ {
			auxh := cl.Open(p, files[rank])
			if i < auxClose {
				auxh.Close(p)
			}
		}

		// Write phase: evaluate integrals, pack into chunks, write.
		for off := int64(0); off < perProc; off += chunk {
			n := chunk
			if off+n > perProc {
				n = perProc - off
			}
			sys.Compute(p, evalFlopsPerByte*float64(n))
			h.WriteAt(p, off, n)
		}
		if rank == 0 {
			h.Flush(p) // rank 0 syncs the shared progress file
		}

		// Read phase: each iteration re-reads the private file while
		// folding integrals into the Fock matrix.
		for it := 0; it < readIterations; it++ {
			switch cfg.Version {
			case PassionPrefetch:
				pf := pio.NewPrefetcher(h, 0, perProc, chunk, cfg.PrefetchDepth)
				for {
					n := pf.Read(p)
					if n == 0 {
						break
					}
					sys.Compute(p, fockFlopsPerByte*float64(n))
				}
			default:
				blockLen := (perProc + recordBlocks - 1) / recordBlocks
				for off := int64(0); off < perProc; off += chunk {
					if cfg.Version == Original && blockLen > chunk && off%blockLen < chunk && off != 0 {
						// Index-block boundary: the original code seeks.
						h.Seek(p, off)
					}
					n := chunk
					if off+n > perProc {
						n = perProc - off
					}
					h.ReadAt(p, off, n)
					sys.Compute(p, fockFlopsPerByte*float64(n))
				}
			}
			if cfg.Version == Original {
				h.Seek(p, 0) // rewind for the next pass
			}
			// Periodic output flush (≈ one per iteration, minus the
			// final short iterations; fitted to Table 2's 49 flushes).
			if it < readIterations-3 {
				h.Flush(p)
			}
			sys.Comm.Allreduce(p, rank, int64(8*cfg.Input.N)) // density convergence check
		}
		h.Close(p)
	})
	if err != nil {
		return core.Report{}, err
	}
	return sys.MakeReport(wall), nil
}

// Config30 describes one SCF 3.0 run (§4.3): the semi-direct scheme where
// CachedPct of the integrals live on disk and the rest are re-evaluated
// every iteration.
type Config30 struct {
	// Ctx, when non-nil, bounds the run: cancellation tears the
	// simulation down promptly (see core.System.RunRanksCtx).
	Ctx context.Context
	// Faults, when non-nil, schedules the plan's injections on the run
	// and enables PFS client resilience (see core.System.InstallFaults).
	Faults  *fault.Plan
	Machine *machine.Config
	Input   Input
	Procs   int
	// CachedPct is the percentage of integrals stored on disk (0-100).
	CachedPct int
	// MemoryKB is the I/O chunk size; default 256 (3.0 uses larger
	// buffers than 1.1).
	MemoryKB int64
	// Balance applies the release-3.0 file balancing (sizes within 10% or
	// 1 MB); disabling it models the unbalanced write phase.
	Balance bool
	// ImbalancePct is the worst-case per-file size skew when Balance is
	// off; default 30.
	ImbalancePct int
}

// Run30 simulates the SCF 3.0 run.
func Run30(cfg Config30) (core.Report, error) {
	if cfg.Machine == nil || cfg.Procs < 1 || cfg.Input.N < 1 {
		return core.Report{}, fmt.Errorf("scf: incomplete config %+v", cfg)
	}
	if cfg.CachedPct < 0 || cfg.CachedPct > 100 {
		return core.Report{}, fmt.Errorf("scf: cached %d%% out of range", cfg.CachedPct)
	}
	if cfg.MemoryKB == 0 {
		cfg.MemoryKB = 256
	}
	if cfg.ImbalancePct == 0 {
		cfg.ImbalancePct = 30
	}
	sys, err := core.NewSystem(cfg.Machine, cfg.Procs)
	if err != nil {
		return core.Report{}, err
	}
	if err := sys.InstallFaults(cfg.Faults); err != nil {
		return core.Report{}, err
	}

	nio := sys.FS.NumIONodes()
	cached := float64(cfg.CachedPct) / 100
	total := float64(StoredBytes(cfg.Input)) * cached
	chunk := cfg.MemoryKB << 10

	// Per-process file sizes: balanced to within a few percent, or skewed
	// linearly across ranks when balancing is off (the slowest rank then
	// gates every iteration).
	sizes := make([]int64, cfg.Procs)
	var even = total / float64(cfg.Procs)
	for r := range sizes {
		skew := 0.0
		if !cfg.Balance && cfg.Procs > 1 {
			frac := float64(r)/float64(cfg.Procs-1) - 0.5 // -0.5 .. +0.5
			skew = 2 * frac * float64(cfg.ImbalancePct) / 100
		}
		sizes[r] = int64(even * (1 + skew))
	}

	files := make([]*pfs.File, cfg.Procs)
	for r := range files {
		l := pfs.Layout{StripeUnit: cfg.Machine.DefaultStripeUnit, StripeFactor: nio, FirstNode: r % nio}
		f, err := sys.FS.Create(fmt.Sprintf("scf3.ints.%d", r), l, sizes[r])
		if err != nil {
			return core.Report{}, err
		}
		files[r] = f
	}

	nInt := integrals(cfg.Input.N)
	evalAllFlops := nInt * evalFlopsPerIntegral / float64(cfg.Procs)
	recomputeFlops := nInt * (1 - cached) * evalFlopsPerIntegral * recomputeCostFactor / float64(cfg.Procs)
	fockFlops := nInt * screenFrac * fock30FlopsPerStored / float64(cfg.Procs)

	wall, err := sys.RunRanksCtx(cfg.Ctx, func(p *sim.Proc, rank int) {
		cl := sys.Client(rank, cfg.Machine.Passion)
		h := cl.Open(p, files[rank])
		perProc := sizes[rank]

		// First iteration: evaluate everything, write the cached share.
		sys.Compute(p, evalAllFlops)
		for off := int64(0); off < perProc; off += chunk {
			n := chunk
			if off+n > perProc {
				n = perProc - off
			}
			h.WriteAt(p, off, n)
		}
		h.Flush(p)
		if cfg.Balance && cfg.Procs > 1 {
			// File balancing redistributes integral records so that
			// sizes agree within 10% or 1 MB; cost: one collective
			// shuffle of the size delta.
			sys.Comm.Alltoallv(p, rank, balancedDeltas(sizes, rank))
			sys.Comm.Barrier(p, rank)
		}

		// Subsequent iterations: read the cached share (prefetched),
		// re-evaluate the rest, build the Fock matrix.
		for it := 0; it < readIterations; it++ {
			if perProc > 0 {
				pf := pio.NewPrefetcher(h, 0, perProc, chunk, 1)
				for {
					n := pf.Read(p)
					if n == 0 {
						break
					}
					// Fock work attributable to this chunk's integrals.
					sys.Compute(p, fockFlops*float64(n)/float64(perProc)*cached)
				}
			}
			sys.Compute(p, recomputeFlops+fockFlops*(1-cached))
			sys.Comm.Allreduce(p, rank, int64(8*cfg.Input.N))
		}
		h.Close(p)
	})
	if err != nil {
		return core.Report{}, err
	}
	return sys.MakeReport(wall), nil
}

// balancedDeltas returns the per-peer byte volumes rank must ship during
// file balancing: the surplus over the mean, spread across deficit ranks.
func balancedDeltas(sizes []int64, rank int) []int64 {
	n := len(sizes)
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	mean := sum / int64(n)
	out := make([]int64, n)
	surplus := sizes[rank] - mean
	if surplus <= 0 {
		return out
	}
	// Ship the surplus round-robin to ranks below the mean.
	var deficits []int
	for q, s := range sizes {
		if s < mean {
			deficits = append(deficits, q)
		}
	}
	if len(deficits) == 0 {
		return out
	}
	per := surplus / int64(len(deficits))
	for _, q := range deficits {
		out[q] = per
	}
	return out
}

// Package tracerun replays a captured or generated I/O trace through the
// simulated stack — the app that makes the scenario space unbounded: any
// workload anyone can log (see internal/trace's format) becomes a
// benchmarkable citizen, run under any machine, any client interface, and
// every optimization combo the paper studies (interface choice via
// -iface, prefetch overlap via Opt, write-behind via the machine's I/O
// node cache).
package tracerun

import (
	"context"
	"fmt"

	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/pio"
	"pario/internal/sim"
	"pario/internal/trace"
)

// Config describes one trace replay.
type Config struct {
	// Ctx, when non-nil, bounds the run (see core.System.RunRanksCtx).
	Ctx context.Context
	// Faults, when non-nil, schedules the plan's injections on the run.
	Faults  *fault.Plan
	Machine *machine.Config
	// Trace is the event log to replay; its rank count is the run's
	// process count.
	Trace *trace.Trace
	// Interface selects the client cost model ("fortran", "passion",
	// "native", "unix"); empty uses the trace's own hint, falling back to
	// "native".
	Interface string
	// Opt enables the optimized replay: each read is issued
	// asynchronously before the compute gap that precedes it, so the
	// fetch overlaps the compute (the paper's prefetch convention:
	// charged time is wait + copy). Writes rely on the machine's
	// write-behind cache either way.
	Opt bool
}

func (c *Config) defaults() error {
	if c.Machine == nil || c.Trace == nil {
		return fmt.Errorf("tracerun: incomplete config")
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	if c.Interface == "" {
		c.Interface = c.Trace.Iface
	}
	if c.Interface == "" {
		c.Interface = "native"
	}
	if ranks := len(c.Trace.Ranks); ranks > c.Machine.NumCompute {
		return fmt.Errorf("tracerun: trace has %d ranks but %s has %d compute nodes",
			ranks, c.Machine.Name, c.Machine.NumCompute)
	}
	return nil
}

// Run replays the trace and returns its report. All ranks share one file
// sized to the trace's extent — offsets in the trace are file offsets, so
// overlapping ranks contend exactly as the original application did.
func Run(cfg Config) (core.Report, error) {
	if err := cfg.defaults(); err != nil {
		return core.Report{}, err
	}
	sys, err := core.NewSystem(cfg.Machine, len(cfg.Trace.Ranks))
	if err != nil {
		return core.Report{}, err
	}
	if err := sys.InstallFaults(cfg.Faults); err != nil {
		return core.Report{}, err
	}
	extent := cfg.Trace.MaxExtent()
	file, err := sys.FS.Create("trace.dat", sys.DefaultLayout(), extent)
	if err != nil {
		return core.Report{}, err
	}
	iface := cfg.Machine.Interface(cfg.Interface)
	wall, err := sys.RunRanksCtx(cfg.Ctx, func(p *sim.Proc, rank int) {
		h := sys.Client(rank, iface).Open(p, file)
		for _, ev := range cfg.Trace.Ranks[rank] {
			var ar *pio.AsyncRead
			if cfg.Opt && !ev.Write && ev.GapSec > 0 {
				// Optimized: start the fetch, compute through the gap,
				// then pay only wait + copy.
				ar = h.ReadAsync(ev.Off, ev.Bytes)
			}
			if ev.GapSec > 0 {
				p.Delay(ev.GapSec)
			}
			switch {
			case ev.Write:
				h.WriteAt(p, ev.Off, ev.Bytes)
			case ar != nil:
				h.Await(p, ar)
			default:
				h.ReadAt(p, ev.Off, ev.Bytes)
			}
		}
		h.Close(p)
	})
	if err != nil {
		return core.Report{}, err
	}
	return sys.MakeReport(wall), nil
}

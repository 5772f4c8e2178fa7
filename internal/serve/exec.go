package serve

import (
	"context"
	"fmt"

	"pario/internal/apps/ast"
	"pario/internal/apps/btio"
	"pario/internal/apps/fft"
	"pario/internal/apps/scf"
	"pario/internal/apps/tracerun"
	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/trace"
)

// Execute runs the simulation a canonicalized request names and returns its
// report. ctx bounds the run: cancellation tears the simulation down
// promptly and surfaces the context's error. Execute is the single
// execution path shared by the daemon and cmd/iosim, so both produce the
// same report for the same request.
func Execute(ctx context.Context, req Request) (core.Report, error) {
	var pl *fault.Plan
	if req.Faults != "" {
		var err error
		if pl, err = fault.Parse(req.Faults); err != nil {
			// Canonicalize already validated the spec; a parse failure here
			// means the request skipped canonicalization.
			return core.Report{}, err
		}
	}
	switch req.App {
	case "scf11":
		m, err := machine.ParagonLarge(req.IONodes)
		if err != nil {
			return core.Report{}, err
		}
		v := scf.Original
		switch req.Version {
		case "original":
		case "passion":
			v = scf.Passion
		case "prefetch":
			v = scf.PassionPrefetch
		default:
			return core.Report{}, fmt.Errorf("serve: unknown version %q", req.Version)
		}
		return scf.Run11(scf.Config11{
			Ctx: ctx, Faults: pl, Machine: m, Input: scfInput(req.Input), Procs: req.Procs, Version: v,
		})
	case "scf30":
		m, err := machine.ParagonLarge(req.IONodes)
		if err != nil {
			return core.Report{}, err
		}
		return scf.Run30(scf.Config30{
			Ctx: ctx, Faults: pl, Machine: m, Input: scfInput(req.Input), Procs: req.Procs,
			CachedPct: req.CachedPct, Balance: true,
		})
	case "fft":
		m, err := machine.ParagonSmall(req.IONodes)
		if err != nil {
			return core.Report{}, err
		}
		return fft.Run(fft.Config{Ctx: ctx, Faults: pl, Machine: m, Procs: req.Procs, OptimizedLayout: req.Opt})
	case "btio":
		m, err := machine.SP2()
		if err != nil {
			return core.Report{}, err
		}
		cls := btio.ClassA
		if req.Class == "B" {
			cls = btio.ClassB
		}
		return btio.Run(btio.Config{Ctx: ctx, Faults: pl, Machine: m, Procs: req.Procs, Class: cls, Collective: req.Opt})
	case "ast":
		m, err := machine.ParagonLarge(req.IONodes)
		if err != nil {
			return core.Report{}, err
		}
		return ast.Run(ast.Config{Ctx: ctx, Faults: pl, Machine: m, Procs: req.Procs, Optimized: req.Opt})
	case "trace":
		// The request names the trace only by hash; resolving the bytes
		// needs a store (the daemon's upload registry, or a file loaded by
		// iosim -trace) — callers with the trace in hand use ExecuteTrace.
		return core.Report{}, core.Classify("trace_unknown",
			fmt.Errorf("serve: trace %s is not available here", req.Trace))
	default:
		return core.Report{}, fmt.Errorf("serve: unknown app %q", req.App)
	}
}

// ExecuteTrace runs a canonicalized app-"trace" request against a resolved
// trace: the replay machine is the large Paragon with the request's I/O
// partition, the interface is req.Version, and req.Opt selects the
// prefetch-overlap replay. The caller is responsible for tr matching
// req.Trace — the daemon resolves it from its upload store by hash.
func ExecuteTrace(ctx context.Context, req Request, tr *trace.Trace) (core.Report, error) {
	var pl *fault.Plan
	if req.Faults != "" {
		var err error
		if pl, err = fault.Parse(req.Faults); err != nil {
			return core.Report{}, err
		}
	}
	m, err := machine.ParagonLarge(req.IONodes)
	if err != nil {
		return core.Report{}, err
	}
	return tracerun.Run(tracerun.Config{
		Ctx: ctx, Faults: pl, Machine: m, Trace: tr,
		Interface: req.Version, Opt: req.Opt,
	})
}

// scfInput maps a canonical input name to the deck; Canonicalize has
// already validated it.
func scfInput(name string) scf.Input {
	switch name {
	case "SMALL":
		return scf.Small
	case "LARGE":
		return scf.Large
	default:
		return scf.Medium
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"pario/internal/apps/tracerun"
	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/serve"
	sstats "pario/internal/stats"
	"pario/internal/trace"
)

// faultedReplay runs a dozen degraded runs per pass plus the degraded
// artifact. Any non-empty fault plan sends pfs down its blocking resilient
// path, and the three trace adversaries are the write-heavy, small-request
// use of pio, pfs and the I/O nodes' write-behind.
type faultedReplay struct {
	dir    string
	runs   []preparedRun
	golden []byte
	// bodies[i] is run i's first encoded body (or error class); every later
	// pass must reproduce it byte for byte.
	bodies   [][]byte
	reported map[string]bool
}

// preparedRun is a faultedRun with its request canonicalized, its plan
// parsed and its trace generated, so a pass does only the run itself.
type preparedRun struct {
	faultedRun
	canon serve.Request
	plan  *fault.Plan
	trace *trace.Trace
	m     *machine.Config
}

func setupFaultedReplay(seed uint64, dir string) (workload, error) {
	g, err := loadGoldens([]string{"degraded"})
	if err != nil {
		return nil, err
	}
	w := &faultedReplay{dir: dir, golden: g["degraded"], reported: make(map[string]bool)}
	for _, fr := range faultedRuns(seed) {
		pr := preparedRun{faultedRun: fr}
		req := fr.Req
		if fr.Adversary != "" {
			pr.trace = trace.Generate(fr.Adversary, fr.Ranks, fr.Events, fr.TraceSeed)
			if pr.trace == nil {
				return nil, fmt.Errorf("unknown adversary %q", fr.Adversary)
			}
			req = serve.Request{App: "trace", Trace: pr.trace.Hash(), Version: fr.Iface}
		}
		req.Faults = fr.Faults
		if pr.canon, err = serve.Canonicalize(req); err != nil {
			return nil, fmt.Errorf("%s: %w", fr.Name, err)
		}
		if pr.plan, err = fault.Parse(pr.canon.Faults); err != nil {
			return nil, fmt.Errorf("%s: %w", fr.Name, err)
		}
		if pr.trace != nil {
			if pr.m, err = machine.ParagonLarge(pr.canon.IONodes); err != nil {
				return nil, fmt.Errorf("%s: %w", fr.Name, err)
			}
		}
		w.runs = append(w.runs, pr)
	}
	w.bodies = make([][]byte, len(w.runs))
	return w, nil
}

// execute performs one run and returns its encoded body (the error class
// for a run that fail-stops), its report and the host time of the run
// alone, without the encode.
func (pr *preparedRun) execute(tr *tracer) ([]byte, core.Report, time.Duration, error) {
	var rep core.Report
	var err error
	sp := tr.begin("run." + pr.Name)
	t0 := time.Now()
	if pr.trace != nil {
		rep, err = tracerun.Run(tracerun.Config{
			Ctx: context.Background(), Faults: pr.plan, Machine: pr.m, Trace: pr.trace, Interface: pr.Iface,
		})
	} else {
		rep, err = serve.Execute(context.Background(), pr.canon)
	}
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return []byte("error: " + core.ErrorClass(err)), rep, d, err
	}
	esp := tr.begin("serve.Encode")
	body, err := serve.Encode(pr.canon, rep)
	tr.end(esp)
	if err != nil {
		return nil, rep, d, fmt.Errorf("encoding %s: %w", pr.Name, err)
	}
	return body, rep, d, nil
}

func counter(s *sstats.Snapshot, name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func (w *faultedReplay) fail(name, format string, args ...any) {
	if !w.reported[name] {
		w.reported[name] = true
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, fmt.Sprintf(format, args...))
	}
}

func (w *faultedReplay) pass(_ int, tr *tracer, l *layers) (attempted, failed int) {
	for i := range w.runs {
		pr := &w.runs[i]
		tr.nextOp()
		attempted++
		body, rep, d, err := pr.execute(tr)
		if class := core.ErrorClass(err); class != pr.Want {
			w.fail(pr.Name, "ended %s, want %s (%v)", core.ErrorClass(err), pr.Want, err)
			failed++
			continue
		}
		// A fail-stopped run returns no report; its disk_failed class is
		// itself proof that the injected outage fired. A completed run must
		// show the injection in its counters, or the plan missed the run.
		if err == nil {
			if counter(rep.Stats, "fault.injections") == 0 {
				w.fail(pr.Name, "no fault injected")
				failed++
				continue
			}
			l.addSnapshot(rep.Stats)
			l.add("sim.run_sec", d.Seconds())
		}
		if w.bodies[i] == nil {
			w.bodies[i] = body
		} else if !bytes.Equal(w.bodies[i], body) {
			w.fail(pr.Name, "body differs from the first pass")
			failed++
		}
	}
	tr.nextOp()
	attempted++
	got, snap, d, err := runArtifact("degraded", tr)
	if err != nil {
		w.fail("degraded", "%v", err)
		failed++
	} else {
		recordArtifact(l, "degraded", snap, d)
		if !checkGolden("degraded", got, w.golden, w.reported) {
			failed++
		}
	}
	return attempted, failed
}

func (w *faultedReplay) ladder(l *layers) error {
	var trs []*trace.Trace
	for _, pr := range w.runs {
		if pr.trace != nil {
			trs = append(trs, pr.trace)
		}
	}
	return runLadder(l, trs, w.dir, true)
}

func (w *faultedReplay) close() {}

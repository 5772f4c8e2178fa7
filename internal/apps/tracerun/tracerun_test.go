package tracerun

import (
	"reflect"
	"testing"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/trace"
)

const kb = 1 << 10

func replay(t *testing.T, tr *trace.Trace, opt bool) core.Report {
	t.Helper()
	m, err := machine.ParagonLarge(12)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Machine: m, Trace: tr, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func wantCount(t *testing.T, rep core.Report, op trace.Op, n int64) {
	t.Helper()
	if got := rep.Trace.Get(op).Count; got != n {
		t.Errorf("%v count = %d, want %d", op, got, n)
	}
}

func TestOneRank(t *testing.T) {
	tr := &trace.Trace{Ranks: [][]trace.Event{{
		{Off: 0, Bytes: 64 * kb},
		{Off: 64 * kb, Bytes: 64 * kb, GapSec: 1e-3},
		{Write: true, Off: 128 * kb, Bytes: 32 * kb},
		{Off: 0, Bytes: 16 * kb},
	}}}
	rep := replay(t, tr, false)
	if rep.Procs != 1 || len(rep.PerRankIOSec) != 1 {
		t.Fatalf("procs = %d, per-rank entries = %d, want 1 and 1", rep.Procs, len(rep.PerRankIOSec))
	}
	wantCount(t, rep, trace.Read, 3)
	wantCount(t, rep, trace.Write, 1)
	wantCount(t, rep, trace.Open, 1)
	wantCount(t, rep, trace.Close, 1)
	if rep.BytesRead != 144*kb || rep.BytesWritten != 32*kb {
		t.Errorf("bytes read/written = %d/%d, want %d/%d", rep.BytesRead, rep.BytesWritten, 144*kb, 32*kb)
	}
	if rep.ExecSec <= 0 || rep.IOMaxSec <= 0 || rep.IOMaxSec > rep.ExecSec {
		t.Errorf("exec %g s, I/O %g s: want 0 < I/O <= exec", rep.ExecSec, rep.IOMaxSec)
	}
}

// An empty rank still opens and closes the shared file but issues no data
// operations, so its I/O time stays below its busy neighbour's.
func TestIdleRankBesideBusyRank(t *testing.T) {
	busy := make([]trace.Event, 8)
	for i := range busy {
		busy[i] = trace.Event{Write: i%2 == 1, Off: int64(i) * 64 * kb, Bytes: 64 * kb}
	}
	rep := replay(t, &trace.Trace{Ranks: [][]trace.Event{nil, busy}}, false)
	if rep.Procs != 2 {
		t.Fatalf("procs = %d, want 2", rep.Procs)
	}
	wantCount(t, rep, trace.Read, 4)
	wantCount(t, rep, trace.Write, 4)
	wantCount(t, rep, trace.Open, 2)
	wantCount(t, rep, trace.Close, 2)
	if idle, work := rep.PerRankIOSec[0], rep.PerRankIOSec[1]; idle >= work {
		t.Errorf("idle rank I/O %g s not below busy rank's %g s", idle, work)
	}
}

// A multi-second compute gap is charged as virtual time before its read,
// and the optimized replay overlaps that read with the gap.
func TestMultiSecondGap(t *testing.T) {
	const gap = 3.0
	tr := &trace.Trace{Ranks: [][]trace.Event{{
		{Off: 0, Bytes: 256 * kb},
		{Off: 256 * kb, Bytes: 256 * kb, GapSec: gap},
	}}}
	plain := replay(t, tr, false)
	wantCount(t, plain, trace.Read, 2)
	if plain.ExecSec < gap || plain.ExecSec > gap+1 {
		t.Errorf("exec = %g s, want the %g s gap plus under a second of I/O", plain.ExecSec, gap)
	}
	opt := replay(t, tr, true)
	wantCount(t, opt, trace.Read, 2)
	if opt.ExecSec < gap || opt.ExecSec >= plain.ExecSec {
		t.Errorf("optimized exec = %g s, want within [%g, %g)", opt.ExecSec, gap, plain.ExecSec)
	}
}

func TestReplayDeterministic(t *testing.T) {
	ranks := make([][]trace.Event, 4)
	for r := range ranks {
		for i := 0; i < 6; i++ {
			ranks[r] = append(ranks[r], trace.Event{
				Write:  (r+i)%3 == 0,
				Off:    int64(i*len(ranks)+r) * 48 * kb,
				Bytes:  48 * kb,
				GapSec: float64(i%2) * 2e-3,
			})
		}
	}
	tr := &trace.Trace{Label: "det", Ranks: ranks}
	for _, opt := range []bool{false, true} {
		a, b := replay(t, tr, opt), replay(t, tr, opt)
		if a.ExecSec != b.ExecSec || a.Events != b.Events ||
			!reflect.DeepEqual(a.PerRankIOSec, b.PerRankIOSec) ||
			!reflect.DeepEqual(a.IONodeBusySec, b.IONodeBusySec) ||
			a.Stats.Table() != b.Stats.Table() {
			t.Errorf("opt=%v: two replays of one trace differ: exec %g vs %g, events %d vs %d",
				opt, a.ExecSec, b.ExecSec, a.Events, b.Events)
		}
	}
}

package core

import (
	"testing"

	"pario/internal/machine"
	"pario/internal/sim"
	"pario/internal/trace"
)

func sp2System(t *testing.T, procs int) *System {
	t.Helper()
	cfg, err := machine.SP2()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemWiresEverything(t *testing.T) {
	s := sp2System(t, 4)
	if s.FS.NumIONodes() != 4 {
		t.Fatalf("io nodes = %d", s.FS.NumIONodes())
	}
	if s.Comm.Size() != 4 {
		t.Fatalf("comm size = %d", s.Comm.Size())
	}
	if len(s.Recorders) != 4 {
		t.Fatalf("recorders = %d", len(s.Recorders))
	}
}

func TestProcsBounds(t *testing.T) {
	cfg, _ := machine.SP2()
	if _, err := NewSystem(cfg, 0); err == nil {
		t.Fatal("0 procs accepted")
	}
	if _, err := NewSystem(cfg, cfg.NumCompute+1); err == nil {
		t.Fatal("too many procs accepted")
	}
}

func TestRunRanksWallIsSlowestRank(t *testing.T) {
	s := sp2System(t, 4)
	wall, err := s.RunRanks(func(p *sim.Proc, rank int) {
		p.Delay(float64(rank + 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall != 4 {
		t.Fatalf("wall = %g, want 4", wall)
	}
}

func TestComputeUsesCPURate(t *testing.T) {
	s := sp2System(t, 1)
	wall, err := s.RunRanks(func(p *sim.Proc, rank int) {
		s.Compute(p, 100e6) // 100 MFlop at 100 MFlops = 1 s
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall < 0.99 || wall > 1.01 {
		t.Fatalf("wall = %g, want ~1", wall)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	s := sp2System(t, 1)
	wall, err := s.RunRanks(func(p *sim.Proc, rank int) {
		s.Compute(p, 0)
		s.Compute(p, -5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall != 0 {
		t.Fatalf("wall = %g, want 0", wall)
	}
}

func TestReportAggregation(t *testing.T) {
	s := sp2System(t, 3)
	f, err := s.FS.Create("x", s.DefaultLayout(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	wall, err := s.RunRanks(func(p *sim.Proc, rank int) {
		c := s.Client(rank, s.Cfg.Unix)
		h := c.Open(p, f)
		h.WriteAt(p, int64(rank)*65536, 65536)
		h.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.MakeReport(wall)
	if rep.Procs != 3 || rep.IONodes != 4 {
		t.Fatalf("report identity = %+v", rep)
	}
	if rep.BytesWritten != 3*65536 {
		t.Fatalf("bytes written = %d", rep.BytesWritten)
	}
	if rep.Trace.Get(trace.Write).Count != 3 {
		t.Fatalf("aggregated writes = %d", rep.Trace.Get(trace.Write).Count)
	}
	if rep.IOAggSec < rep.IOMaxSec {
		t.Fatal("aggregate I/O below per-rank max")
	}
	if rep.ExecSec <= 0 {
		t.Fatal("exec time not positive")
	}
	if rep.BandwidthMBs() <= 0 {
		t.Fatal("bandwidth not positive")
	}
	if pct := rep.IOPctOfExec(); pct <= 0 || pct > 100.0001 {
		t.Fatalf("I/O%% of exec = %g", pct)
	}
}

func TestBandwidthZeroWhenNoIO(t *testing.T) {
	var r Report
	if r.BandwidthMBs() != 0 || r.IOPctOfExec() != 0 {
		t.Fatal("zero report not handled")
	}
}

func TestDefaultLayoutSpansAllIONodes(t *testing.T) {
	s := sp2System(t, 2)
	l := s.DefaultLayout()
	if l.StripeFactor != 4 || l.StripeUnit != 32<<10 {
		t.Fatalf("layout = %+v", l)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		s := sp2System(t, 8)
		f, _ := s.FS.Create("x", s.DefaultLayout(), 8<<20)
		wall, err := s.RunRanks(func(p *sim.Proc, rank int) {
			c := s.Client(rank, s.Cfg.Unix)
			h := c.Open(p, f)
			for i := 0; i < 4; i++ {
				h.WriteAt(p, int64(rank*4+i)*65536, 65536)
			}
			h.Close(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return wall
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %g vs %g", a, b)
	}
}

func TestPerRankIOAndImbalance(t *testing.T) {
	s := sp2System(t, 4)
	f, err := s.FS.Create("x", s.DefaultLayout(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	wall, err := s.RunRanks(func(p *sim.Proc, rank int) {
		c := s.Client(rank, s.Cfg.Unix)
		h := c.Open(p, f)
		// Rank 3 does 4x the I/O of rank 0.
		for i := 0; i <= rank; i++ {
			h.WriteAt(p, int64(rank*4+i)*65536, 65536)
		}
		h.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.MakeReport(wall)
	if len(rep.PerRankIOSec) != 4 {
		t.Fatalf("per-rank entries = %d", len(rep.PerRankIOSec))
	}
	if rep.PerRankIOSec[3] <= rep.PerRankIOSec[0] {
		t.Fatal("rank 3 not slower than rank 0")
	}
	if im := rep.IOImbalance(); im <= 1.0 {
		t.Fatalf("imbalance = %g, want > 1", im)
	}
}

func TestIOImbalanceZeroWithoutIO(t *testing.T) {
	var r Report
	if r.IOImbalance() != 0 {
		t.Fatal("empty report imbalance != 0")
	}
}

func TestIONodeBusyReported(t *testing.T) {
	s := sp2System(t, 2)
	f, _ := s.FS.Create("x", s.DefaultLayout(), 1<<20)
	wall, err := s.RunRanks(func(p *sim.Proc, rank int) {
		h := s.Client(rank, s.Cfg.Unix).Open(p, f)
		h.WriteAt(p, int64(rank)<<19, 1<<19)
		h.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.MakeReport(wall)
	if len(rep.IONodeBusySec) != 4 {
		t.Fatalf("busy entries = %d", len(rep.IONodeBusySec))
	}
	var total float64
	for _, b := range rep.IONodeBusySec {
		total += b
	}
	if total <= 0 {
		t.Fatal("no disk busy time recorded")
	}
	// SP-2 nodes have 4 drives and drains may outlast the ranks, so the
	// ratio can exceed 1 but stays bounded by the drive count plus slack.
	if u := rep.MaxIONodeUtil(); u <= 0 || u > 8 {
		t.Fatalf("max util = %g", u)
	}
}

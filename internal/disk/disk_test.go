package disk

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pario/internal/sim"
)

func testParams() Params {
	return Params{
		RequestOverhead: 1e-3,
		SeekMin:         2e-3,
		SeekMax:         20e-3,
		FullStroke:      1 << 30,
		ByteTime:        2e-7, // 5 MB/s
	}
}

func newDisk(t *testing.T) (*sim.Engine, *Disk) {
	t.Helper()
	e := sim.NewEngine()
	d, err := New(e, "d0", testParams())
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSequentialAccessHasNoSeek(t *testing.T) {
	e, d := newDisk(t)
	var t1, t2 float64
	e.Spawn("u", func(p *sim.Proc) {
		d.Access(p, 0, 1000, false)
		t1 = p.Now()
		d.Access(p, 1000, 1000, false) // continues at the head
		t2 = p.Now() - t1
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	par := testParams()
	seq := par.RequestOverhead + 1000*par.ByteTime
	if !almost(t2, seq) {
		t.Fatalf("sequential access took %g, want %g", t2, seq)
	}
	if d.Stats().Seeks != 0 {
		t.Fatalf("Seeks = %d, want 0 (first access at head 0, second sequential)", d.Stats().Seeks)
	}
	_ = t1
}

func TestDiscontiguousAccessPaysSeek(t *testing.T) {
	e, d := newDisk(t)
	var dt float64
	e.Spawn("u", func(p *sim.Proc) {
		d.Access(p, 0, 1000, false)
		start := p.Now()
		d.Access(p, 1<<20, 1000, false)
		dt = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	par := testParams()
	seq := par.RequestOverhead + 1000*par.ByteTime
	if dt <= seq+par.SeekMin/2 {
		t.Fatalf("discontiguous access took %g, want > %g", dt, seq+par.SeekMin/2)
	}
	if d.Stats().Seeks != 1 {
		t.Fatalf("Seeks = %d, want 1", d.Stats().Seeks)
	}
}

func TestSeekGrowsWithDistance(t *testing.T) {
	e, d := newDisk(t)
	var short, long float64
	e.Spawn("u", func(p *sim.Proc) {
		d.Access(p, 0, 0, false)
		s := p.Now()
		d.Access(p, 1<<16, 0, false)
		short = p.Now() - s
		d.Access(p, 0, 0, false) // back near the start
		s = p.Now()
		d.Access(p, 1<<29, 0, false)
		long = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if long <= short {
		t.Fatalf("long seek %g not slower than short seek %g", long, short)
	}
}

func TestSeekCappedAtFullStroke(t *testing.T) {
	_, d := newDisk(t)
	par := testParams()
	max := d.ServiceTime(par.FullStroke*10, 0)
	capped := par.RequestOverhead + par.SeekMax
	if !almost(max, capped) {
		t.Fatalf("full-stroke service %g, want %g", max, capped)
	}
}

func TestHeadTracksEndOfAccess(t *testing.T) {
	e, d := newDisk(t)
	e.Spawn("u", func(p *sim.Proc) {
		d.Access(p, 500, 250, true)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Head() != 750 {
		t.Fatalf("Head = %d, want 750", d.Head())
	}
}

func TestInterleavedStreamsThrash(t *testing.T) {
	// Two processes reading sequentially from distant regions force a seek
	// on nearly every request when interleaved — the contention mechanism
	// behind the paper's unoptimized results.
	e, d := newDisk(t)
	const n = 20
	read := func(base int64) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for i := int64(0); i < n; i++ {
				d.Access(p, base+i*1000, 1000, false)
			}
		}
	}
	e.Spawn("a", read(0))
	e.Spawn("b", read(1<<25))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats().Seeks; s < n {
		t.Fatalf("Seeks = %d, want >= %d under interleaving", s, n)
	}
}

func TestStatsAccounting(t *testing.T) {
	e, d := newDisk(t)
	e.Spawn("u", func(p *sim.Proc) {
		d.Access(p, 0, 100, false)
		d.Access(p, 100, 200, true)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BytesRead != 100 || st.BytesWrite != 200 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusySec <= 0 {
		t.Fatal("BusySec not accumulated")
	}
}

func TestBadRequestPanics(t *testing.T) {
	e, d := newDisk(t)
	e.Spawn("u", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative offset did not panic")
			}
			panic("unwind")
		}()
		d.Access(p, -1, 10, false)
	})
	defer func() { recover() }()
	_ = e.Run()
}

func TestInvalidParamsRejected(t *testing.T) {
	e := sim.NewEngine()
	if _, err := New(e, "d", Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
	bad := testParams()
	bad.SeekMax = bad.SeekMin / 2
	if _, err := New(e, "d", bad); err == nil {
		t.Fatal("SeekMax < SeekMin accepted")
	}
}

// Property: service time is monotone in request size.
func TestServiceTimeMonotoneProperty(t *testing.T) {
	_, d := newDisk(t)
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return d.ServiceTime(0, x) <= d.ServiceTime(0, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: one large sequential request is never slower than the same
// bytes split into two requests at the same location.
func TestBatchingNeverHurtsProperty(t *testing.T) {
	_, d := newDisk(t)
	f := func(a, b uint16) bool {
		x, y := int64(a)+1, int64(b)+1
		whole := d.ServiceTime(0, x+y)
		split := d.ServiceTime(0, x) + d.ServiceTime(0, y) // second pays overhead again
		return whole <= split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegradeSlowsService(t *testing.T) {
	e, d := newDisk(t)
	var before, after float64
	e.Spawn("u", func(p *sim.Proc) {
		s := p.Now()
		d.Access(p, 0, 100000, false)
		before = p.Now() - s
		d.SetDegrade(4)
		s = p.Now()
		d.Access(p, 100000, 100000, false)
		after = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after < 3.5*before {
		t.Fatalf("degraded access %g not ~4x baseline %g", after, before)
	}
}

func TestDegradeBadFactorPanics(t *testing.T) {
	_, d := newDisk(t)
	defer func() {
		if recover() == nil {
			t.Fatal("zero factor did not panic")
		}
	}()
	d.SetDegrade(0)
}

// TestSetDegradeRestoreExact pins the degrade→restore regression: a
// multiplier compounded in place and repaired by its inverse drifts off
// baseline by floating-point residue. SetDegrade is absolute and Restore
// returns the multiplier to exactly 1, so a repaired disk's service times
// are bit-identical to a never-degraded one.
func TestSetDegradeRestoreExact(t *testing.T) {
	e, d := newDisk(t)
	var base, repaired float64
	e.Spawn("u", func(p *sim.Proc) {
		s := p.Now()
		d.Access(p, 0, 123457, false)
		base = p.Now() - s
		d.SetDegrade(7)
		d.SetDegrade(3) // absolute, not compounding
		if got := d.DegradeFactor(); got != 3 {
			t.Errorf("DegradeFactor = %g, want 3", got)
		}
		d.Restore()
		s = p.Now()
		d.Access(p, 123457, 123457, false) // sequential: same service time
		repaired = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if repaired != base {
		t.Fatalf("post-restore access %g != baseline %g (degrade state leaked)", repaired, base)
	}
}

// SetDegrade is absolute: a second call replaces the multiplier instead of
// compounding it, and Restore brings it back to exactly 1.
func TestSetDegradeDoesNotCompound(t *testing.T) {
	_, d := newDisk(t)
	d.SetDegrade(2)
	d.SetDegrade(3)
	if got := d.DegradeFactor(); got != 3 {
		t.Fatalf("DegradeFactor = %g, want 3 (SetDegrade replaces, not compounds)", got)
	}
	d.Restore()
	if got := d.DegradeFactor(); got != 1 {
		t.Fatalf("DegradeFactor after Restore = %g, want 1", got)
	}
}

func TestStallBlocksAccess(t *testing.T) {
	e, d := newDisk(t)
	d.Stall(0.5) // phantom request occupying the drive from t=0
	var done float64
	e.Spawn("u", func(p *sim.Proc) {
		d.Access(p, 0, 1000, false)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	par := testParams()
	want := 0.5 + par.RequestOverhead + 1000*par.ByteTime
	if !almost(done, want) {
		t.Fatalf("access behind a 0.5s stall finished at %g, want %g", done, want)
	}
}

func TestFailedDiskErrorsUntilRestored(t *testing.T) {
	e, d := newDisk(t)
	var failErr, okErr error
	e.Spawn("u", func(p *sim.Proc) {
		d.SetFailed(true)
		failErr = d.Access(p, 0, 1000, false)
		d.SetFailed(false)
		okErr = d.Access(p, 0, 1000, false)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(failErr, ErrFailed) {
		t.Fatalf("failed-disk access returned %v, want ErrFailed", failErr)
	}
	if okErr != nil {
		t.Fatalf("restored-disk access returned %v", okErr)
	}
	if d.Failed() {
		t.Fatal("Failed() still true after SetFailed(false)")
	}
}

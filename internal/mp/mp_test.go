package mp

import (
	"testing"

	"pario/internal/network"
	"pario/internal/sim"
	"pario/internal/topology"
)

func newComm(t *testing.T, ranks int) (*sim.Engine, *Comm) {
	t.Helper()
	e := sim.NewEngine()
	topo, err := topology.NewMesh2D(32, 16, 480, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(e, topo, network.Params{
		Latency: 50e-6, ByteTime: 1e-8, HopTime: 1e-6, MemCopyByteTime: 2e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(e, net, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

// spawnRanks runs body once per rank and waits for all to finish.
func spawnRanks(t *testing.T, e *sim.Engine, n int, body func(p *sim.Proc, rank int)) {
	t.Helper()
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) { body(p, r) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvMatches(t *testing.T) {
	e, c := newComm(t, 2)
	var got int64
	spawnRanks(t, e, 2, func(p *sim.Proc, rank int) {
		if rank == 0 {
			c.Send(p, 0, 1, 7, 1234)
		} else {
			got = c.Recv(p, 1, 0, 7)
		}
	})
	if got != 1234 {
		t.Fatalf("Recv size = %d, want 1234", got)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	e, c := newComm(t, 2)
	var recvAt float64
	spawnRanks(t, e, 2, func(p *sim.Proc, rank int) {
		if rank == 0 {
			p.Delay(5)
			c.Send(p, 0, 1, 0, 8)
		} else {
			c.Recv(p, 1, 0, 0)
			recvAt = p.Now()
		}
	})
	if recvAt < 5 {
		t.Fatalf("recv completed at %g, want >= 5", recvAt)
	}
}

func TestSendBeforeRecvIsBuffered(t *testing.T) {
	e, c := newComm(t, 2)
	done := false
	spawnRanks(t, e, 2, func(p *sim.Proc, rank int) {
		if rank == 0 {
			c.Send(p, 0, 1, 0, 8)
		} else {
			p.Delay(5)
			c.Recv(p, 1, 0, 0)
			done = true
		}
	})
	if !done {
		t.Fatal("buffered message not received")
	}
}

func TestMessagesOrderedPerPair(t *testing.T) {
	e, c := newComm(t, 2)
	var sizes []int64
	spawnRanks(t, e, 2, func(p *sim.Proc, rank int) {
		if rank == 0 {
			for i := 1; i <= 5; i++ {
				c.Send(p, 0, 1, 0, int64(i*100))
			}
		} else {
			for i := 0; i < 5; i++ {
				sizes = append(sizes, c.Recv(p, 1, 0, 0))
			}
		}
	})
	for i, s := range sizes {
		if s != int64((i+1)*100) {
			t.Fatalf("sizes = %v, want ascending hundreds", sizes)
		}
	}
}

func TestTagsDoNotCrossMatch(t *testing.T) {
	e, c := newComm(t, 2)
	var first int64
	spawnRanks(t, e, 2, func(p *sim.Proc, rank int) {
		if rank == 0 {
			c.Send(p, 0, 1, 1, 111)
			c.Send(p, 0, 1, 2, 222)
		} else {
			first = c.Recv(p, 1, 0, 2) // tag 2 even though tag 1 arrived first
		}
	})
	if first != 222 {
		t.Fatalf("tag-2 recv got size %d, want 222", first)
	}
}

func barrierCheck(t *testing.T, n int) {
	e, c := newComm(t, n)
	arrive := make([]float64, n)
	depart := make([]float64, n)
	spawnRanks(t, e, n, func(p *sim.Proc, rank int) {
		p.Delay(float64(rank)) // staggered arrivals
		arrive[rank] = p.Now()
		c.Barrier(p, rank)
		depart[rank] = p.Now()
	})
	lastArrive := arrive[n-1]
	for r := 0; r < n; r++ {
		if depart[r] < lastArrive {
			t.Fatalf("n=%d: rank %d departed at %g before last arrival %g", n, r, depart[r], lastArrive)
		}
	}
}

func TestBarrierWaitsForAll(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33} {
		barrierCheck(t, n)
	}
}

func TestBcastReachesAllRanks(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < n; root += 2 {
			e, c := newComm(t, n)
			done := 0
			spawnRanks(t, e, n, func(p *sim.Proc, rank int) {
				c.Bcast(p, rank, root, 4096)
				done++
			})
			if done != n {
				t.Fatalf("n=%d root=%d: %d ranks completed bcast", n, root, done)
			}
		}
	}
}

func TestAlltoallvCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		e, c := newComm(t, n)
		done := 0
		spawnRanks(t, e, n, func(p *sim.Proc, rank int) {
			sizes := make([]int64, n)
			for i := range sizes {
				sizes[i] = int64(1000 * (rank + i + 1))
			}
			c.Alltoallv(p, rank, sizes)
			done++
		})
		if done != n {
			t.Fatalf("n=%d: %d ranks completed alltoallv", n, done)
		}
	}
}

func TestAlltoallvZeroSizes(t *testing.T) {
	e, c := newComm(t, 4)
	done := 0
	spawnRanks(t, e, 4, func(p *sim.Proc, rank int) {
		c.Alltoallv(p, rank, make([]int64, 4)) // all zero
		done++
	})
	if done != 4 {
		t.Fatalf("%d ranks completed zero alltoallv", done)
	}
}

func TestAlltoallvSizeMismatchPanics(t *testing.T) {
	e, c := newComm(t, 4)
	e.Spawn("r", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("bad sizes length did not panic")
			}
			panic("unwind")
		}()
		c.Alltoallv(p, 0, make([]int64, 3))
	})
	defer func() { recover() }()
	_ = e.Run()
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		e, c := newComm(t, n)
		done := 0
		spawnRanks(t, e, n, func(p *sim.Proc, rank int) {
			c.Reduce(p, rank, 0, 800)
			c.Allreduce(p, rank, 800)
			done++
		})
		if done != n {
			t.Fatalf("n=%d: %d ranks completed reduce+allreduce", n, done)
		}
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	e, c := newComm(t, 4)
	done := 0
	spawnRanks(t, e, 4, func(p *sim.Proc, rank int) {
		c.Reduce(p, rank, 2, 100)
		done++
	})
	if done != 4 {
		t.Fatalf("%d ranks completed reduce to non-zero root", done)
	}
}

func TestBarrierCostGrowsWithRanks(t *testing.T) {
	cost := func(n int) float64 {
		e, c := newComm(t, n)
		var took float64
		spawnRanks(t, e, n, func(p *sim.Proc, rank int) {
			start := p.Now()
			c.Barrier(p, rank)
			if rank == 0 {
				took = p.Now() - start
			}
		})
		return took
	}
	if c64, c4 := cost(64), cost(4); c64 <= c4 {
		t.Fatalf("barrier(64) = %g not slower than barrier(4) = %g", c64, c4)
	}
}

func TestTooManyRanksRejected(t *testing.T) {
	e := sim.NewEngine()
	topo, _ := topology.NewMesh2D(2, 2, 2, 1, 0)
	net, _ := network.New(e, topo, network.Params{
		Latency: 1e-6, ByteTime: 1e-8, HopTime: 0, MemCopyByteTime: 1e-9,
	})
	if _, err := New(e, net, 3); err == nil {
		t.Fatal("3 ranks on 2 compute nodes accepted")
	}
}

package main

import (
	"fmt"
	"time"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/trace"
)

// The ladder times each layer's public entry point on its own, on the
// operation sizes the workload itself produced, so a change inside one
// layer shows on that layer's rung. Every call runs from one simulated
// process on an otherwise idle engine, so its host time is the work the
// engine does for that call alone.

// ladderOps bounds the operations replayed per rung.
const ladderOps = 256

// ladderEvents takes up to ladderOps data operations from the traces,
// rank by rank.
func ladderEvents(trs []*trace.Trace) []trace.Event {
	var evs []trace.Event
	for _, tr := range trs {
		for _, rank := range tr.Ranks {
			for _, e := range rank {
				if e.Bytes > 0 && len(evs) < ladderOps {
					evs = append(evs, e)
				}
			}
		}
	}
	return evs
}

func extentOf(evs []trace.Event) int64 {
	var ext int64
	for _, e := range evs {
		if end := e.Off + e.Bytes; end > ext {
			ext = end
		}
	}
	return ext
}

// ladderMachine is the machine every rung runs on: the large Paragon with
// its 16-node I/O partition, where the SCF, AST and trace replays run.
func ladderMachine() (*machine.Config, error) { return machine.ParagonLarge(16) }

// runOne builds a fresh procs-rank system with one striped file sized for
// evs, lets prepare adjust it, and runs body on every rank.
func runOne(procs int, evs []trace.Event, prepare func(*core.System), body func(sys *core.System, f *pfs.File, p *sim.Proc, rank int)) error {
	m, err := ladderMachine()
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(m, procs)
	if err != nil {
		return err
	}
	if prepare != nil {
		prepare(sys)
	}
	f, err := sys.FS.Create("ladder.data", sys.DefaultLayout(), extentOf(evs))
	if err != nil {
		return err
	}
	_, err = sys.RunRanks(func(p *sim.Proc, rank int) { body(sys, f, p, rank) })
	return err
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// ioLadder times pio, pfs, network, mp, disk and the trace codec on the
// operations of trs.
func ioLadder(l *layers, trs []*trace.Trace) error {
	evs := ladderEvents(trs)
	if len(evs) == 0 {
		return fmt.Errorf("ladder: the workload produced no data operations")
	}
	m, err := ladderMachine()
	if err != nil {
		return err
	}
	// Every rung writes each operation's range and then reads it back, so
	// both directions are timed on every workload's sizes.
	var nativeRead []float64
	for _, iface := range ifaces {
		par := m.Interface(iface)
		err := runOne(1, evs, nil, func(sys *core.System, f *pfs.File, p *sim.Proc, _ int) {
			h := sys.Client(0, par).Open(p, f)
			for _, e := range evs {
				t0 := time.Now()
				h.WriteAt(p, e.Off, e.Bytes)
				l.sample("pio."+iface+".write_us", usSince(t0))
			}
			for _, e := range evs {
				t0 := time.Now()
				h.ReadAt(p, e.Off, e.Bytes)
				us := usSince(t0)
				l.sample("pio."+iface+".read_us", us)
				if iface == "native" {
					nativeRead = append(nativeRead, us)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("ladder pio %s: %w", iface, err)
		}
	}

	// pfs.Transfer on the same operations, healthy and with a resilience
	// policy set: any policy sends a transfer down the blocking resilient
	// path, which is what every faulted run pays.
	for _, faulted := range []bool{false, true} {
		name := "pfs.transfer_us"
		var prepare func(*core.System)
		if faulted {
			name = "pfs.transfer_faulted_us"
			prepare = func(sys *core.System) {
				sys.FS.SetResilience(pfs.Resilience{TimeoutSec: 1, Retries: 2, BackoffSec: 0.01})
			}
		}
		err := runOne(1, evs, prepare, func(sys *core.System, f *pfs.File, p *sim.Proc, _ int) {
			node := sys.Comm.NodeOf(0)
			for _, write := range []bool{true, false} {
				for i, e := range evs {
					t0 := time.Now()
					f.Transfer(p, node, e.Off, e.Bytes, write)
					us := usSince(t0)
					l.sample(name, us)
					if !faulted && !write {
						l.sample("pio.self_read_us", nativeRead[i]-us)
					}
				}
			}
		})
		if err != nil {
			return fmt.Errorf("ladder pfs: %w", err)
		}
	}

	err = runOne(2, evs, nil, func(sys *core.System, _ *pfs.File, p *sim.Proc, rank int) {
		if rank != 0 {
			return
		}
		src, dst := sys.Comm.NodeOf(0), sys.Comm.NodeOf(1)
		for _, e := range evs {
			t0 := time.Now()
			sys.Net.Send(p, src, dst, e.Bytes)
			l.sample("network.send_us", usSince(t0))
		}
	})
	if err != nil {
		return fmt.Errorf("ladder network: %w", err)
	}

	// Alltoallv over 4 ranks, each sending a quarter of one operation's
	// bytes to every rank: the FFT transpose shape.
	const ranks = 4
	err = runOne(ranks, evs, nil, func(sys *core.System, _ *pfs.File, p *sim.Proc, rank int) {
		sizes := make([]int64, ranks)
		for _, e := range evs[:min(len(evs), 64)] {
			for i := range sizes {
				sizes[i] = e.Bytes / ranks
			}
			t0 := time.Now()
			sys.Comm.Alltoallv(p, rank, sizes)
			if rank == 0 {
				l.sample("mp.alltoallv_us", usSince(t0))
			}
		}
	})
	if err != nil {
		return fmt.Errorf("ladder mp: %w", err)
	}

	sys, err := core.NewSystem(m, 1)
	if err != nil {
		return fmt.Errorf("ladder disk: %w", err)
	}
	d := sys.FS.IONode(0).Disk(0)
	for rep := 0; rep < 5; rep++ {
		var sum float64
		t0 := time.Now()
		for _, e := range evs {
			sum += d.ServiceTime(e.Off, e.Bytes)
		}
		l.sample("disk.service_ns", float64(time.Since(t0).Nanoseconds())/float64(len(evs)))
		if sum <= 0 {
			return fmt.Errorf("ladder disk: %d operations took no service time", len(evs))
		}
	}

	if err := simLadder(l); err != nil {
		return err
	}
	return traceLadder(l, trs)
}

// runLadder times every layer on its own after a workload's traced passes,
// the same rungs on every workload, so every per-layer timing is measured
// on every workload: the I/O, kernel and codec rungs on the workload's own
// operations, one run of each artifact, and the serving rungs. probe adds
// the per-outcome handler timings for workloads whose passes never serve.
func runLadder(l *layers, trs []*trace.Trace, dir string, probe bool) error {
	if err := ioLadder(l, trs); err != nil {
		return err
	}
	if err := expRungs(l); err != nil {
		return err
	}
	if err := serveRungs(l, dir); err != nil {
		return err
	}
	if probe {
		if err := serveProbe(l, dir, trs); err != nil {
			return err
		}
	}
	tail(l, "serve.hit", "us")
	tail(l, "serve.l2", "us")
	tail(l, "serve.miss", "ms")
	return nil
}

// expRungs runs every artifact once at Quick scale. On a workload whose
// passes run the artifact this adds one sample to many; elsewhere it is
// the only one.
func expRungs(l *layers) error {
	for _, id := range append(append([]string(nil), paperIDs...), "degraded") {
		_, _, d, err := runArtifact(id, nil)
		if err != nil {
			return fmt.Errorf("ladder exp: %w", err)
		}
		l.sample("exp."+id+"_ms", d.Seconds()*1e3)
	}
	return nil
}

// simLadder times the kernel's two process primitives: a Delay (one
// handoff to the engine and back) and a spawn followed by a join.
func simLadder(l *layers) error {
	const delays, groups, width = 20000, 2000, 4
	for rep := 0; rep < 5; rep++ {
		e := sim.NewEngine()
		e.Spawn("handoff", func(p *sim.Proc) {
			for i := 0; i < delays; i++ {
				p.Delay(1)
			}
		})
		t0 := time.Now()
		if err := e.Run(); err != nil {
			return fmt.Errorf("ladder sim handoff: %w", err)
		}
		l.sample("sim.handoff_ns", float64(time.Since(t0).Nanoseconds())/delays)

		e = sim.NewEngine()
		e.Spawn("parent", func(p *sim.Proc) {
			for i := 0; i < groups; i++ {
				wg := sim.NewWaitGroup(e)
				for j := 0; j < width; j++ {
					wg.Go("child", func(c *sim.Proc) { c.Delay(1) })
				}
				wg.Wait(p)
			}
		})
		t0 = time.Now()
		if err := e.Run(); err != nil {
			return fmt.Errorf("ladder sim spawn/join: %w", err)
		}
		l.sample("sim.spawn_join_ns", float64(time.Since(t0).Nanoseconds())/(groups*width))
	}
	return nil
}

// traceLadder times the trace codec: binary encode, content hash and
// decode of each trace.
func traceLadder(l *layers, trs []*trace.Trace) error {
	for _, tr := range trs {
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			b := tr.EncodeBinary()
			l.sample("trace.encode_us", usSince(t0))
			t0 = time.Now()
			_ = tr.Hash()
			l.sample("trace.hash_us", usSince(t0))
			t0 = time.Now()
			if _, err := trace.Decode(b); err != nil {
				return fmt.Errorf("ladder trace decode: %w", err)
			}
			l.sample("trace.decode_us", usSince(t0))
		}
	}
	return nil
}

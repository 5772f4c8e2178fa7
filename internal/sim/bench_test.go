package sim

import (
	"testing"
)

// BenchmarkEventThroughput measures raw event dispatch (no processes).
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		if e.pq.Len() > 1024 {
			_ = e.Run()
		}
	}
	_ = e.Run()
}

// BenchmarkProcessHandoff measures the goroutine lockstep cost: one Delay
// is two channel handoffs plus heap traffic — the kernel's hot path.
func BenchmarkProcessHandoff(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Delay(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures queued acquire/release under 8
// contending processes.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	per := b.N/8 + 1
	for i := 0; i < 8; i++ {
		e.Spawn("u", func(p *Proc) {
			for j := 0; j < per; j++ {
				r.Use(p, 1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSameInstantLane measures the zero-delay event path (After(0)
// from inside the instant), which takes the FIFO ring rather than the time
// heap.
func BenchmarkSameInstantLane(b *testing.B) {
	e := NewEngine()
	n := b.N
	var chain func()
	chain = func() {
		if n--; n > 0 {
			e.After(0, chain)
		}
	}
	e.After(0, chain)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnJoin measures process churn: spawn a child, join it. With
// pooled resume machinery the steady state reuses one parked goroutine and
// channel instead of creating them per child.
func BenchmarkSpawnJoin(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("root", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Join(e.Spawn("c", func(c *Proc) {}))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSignalBroadcast measures the fan-out wakeup path: each round one
// leader fires a signal releasing 15 parked processes.
func BenchmarkSignalBroadcast(b *testing.B) {
	e := NewEngine()
	rounds := b.N/16 + 1
	sigs := make([]*Signal, rounds)
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	for w := 0; w < 15; w++ {
		e.Spawn("w", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.WaitSignal(sigs[i])
			}
		})
	}
	e.Spawn("leader", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Delay(1)
			sigs[i].Fire()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

package main

import (
	"fmt"
	"math/rand/v2"

	"pario/internal/serve"
)

// Every input the program sees is a pure function of the --seed argument:
// the artifact order, the fault windows, the trace seeds and the request
// mix. Each workload draws from its own stream, and pass p of a run from
// its own sub-stream (the untimed warm-up pass is p = -1), so a pass's
// inputs do not depend on how many passes fit in the run.

const (
	streamPaper = iota + 1
	streamFaulted
	streamMixSetup
	streamMixPass
)

func rng(seed uint64, stream int, pass int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)<<32|uint64(uint32(pass+1))))
}

// paperIDs are the paper's artifacts: Tables 2-5 and Figures 1-7.
var paperIDs = []string{
	"table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table4", "table5",
}

// paperOrder is the order pass p runs the artifacts in.
func paperOrder(seed uint64, pass int) []string {
	ids := append([]string(nil), paperIDs...)
	r := rng(seed, streamPaper, pass)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// faultedRun is one degraded run: an application request executed through
// serve.Execute, or (Adversary set) a generated write-heavy trace replayed
// through tracerun on a named client interface.
type faultedRun struct {
	Name      string
	Req       serve.Request `json:",omitempty"`
	Adversary string        `json:",omitempty"`
	Ranks     int           `json:",omitempty"`
	Events    int           `json:",omitempty"`
	TraceSeed uint64        `json:",omitempty"`
	Iface     string        `json:",omitempty"`
	Faults    string
	// Want is the core.ErrorClass the run must end with.
	Want string
}

// The plan families of the degraded artifact, with their windows and
// factors drawn from the seed. Every window opens inside the first 150 ms
// of virtual time, where every run below is still doing I/O, so the
// injection always lands.
func planDegrade(r *rand.Rand) string {
	return fmt.Sprintf("disk:degrade=%d@t=0", []int{2, 4, 8}[r.IntN(3)])
}

func planBrownout(r *rand.Rand) string {
	at := 20 + r.IntN(61)
	return fmt.Sprintf("ionode:stall=%dms@t=%dms;link:slow=%dx@t=%dms..%dms",
		[]int{50, 100, 150}[r.IntN(3)], at, []int{2, 4, 8}[r.IntN(3)], at, at+50+r.IntN(101))
}

// planTransient is a 30 ms outage of drive 0, far inside the reach of the
// retry ladder (5+10+20+... ms over 8 retries), so reads ride it out.
func planTransient(r *rand.Rand) string {
	at := 30 + r.IntN(51)
	return fmt.Sprintf("disk:0:fail@t=%dms..%dms;retry=8;backoff=5ms", at, at+30)
}

// planFailStop is a permanent outage of drive 0 that exhausts two retries.
func planFailStop(r *rand.Rand) string {
	return fmt.Sprintf("disk:0:fail@t=%dms;retry=2;backoff=10ms", 20+r.IntN(101))
}

// faultedRuns is the fixed list one faulted-replay pass executes. The shape
// (apps, sizes, plan families) is fixed so every seed costs about the same;
// the seed moves the windows, factors and trace contents.
func faultedRuns(seed uint64) []faultedRun {
	r := rng(seed, streamFaulted, 0)
	runs := []faultedRun{
		{Name: "scf11-degrade", Req: serve.Request{App: "scf11", Input: "SMALL", Procs: 4}, Faults: planDegrade(r), Want: "ok"},
		{Name: "scf30-brownout", Req: serve.Request{App: "scf30", Input: "SMALL", Procs: 4}, Faults: planBrownout(r), Want: "ok"},
		{Name: "fft-transient", Req: serve.Request{App: "fft", Procs: 4, Opt: true}, Faults: planTransient(r), Want: "ok"},
		{Name: "ast-degrade", Req: serve.Request{App: "ast", Procs: 4, Opt: true}, Faults: planDegrade(r), Want: "ok"},
		{Name: "fft-failstop", Req: serve.Request{App: "fft", Procs: 4, Opt: true}, Faults: planFailStop(r), Want: "disk_failed"},
	}
	adversaries := []struct {
		name          string
		ranks, events int
		plan          func(*rand.Rand) string
	}{
		{"smallwrites", 8, 256, planDegrade},
		{"appendstorm", 8, 256, planBrownout},
		{"checkpoint", 4, 32, planDegrade},
	}
	for _, a := range adversaries {
		for _, iface := range []string{"fortran", "passion", "native"} {
			runs = append(runs, faultedRun{
				Name: a.name + "-" + iface, Adversary: a.name, Ranks: a.ranks, Events: a.events,
				TraceSeed: r.Uint64(), Iface: iface, Faults: a.plan(r), Want: "ok",
			})
		}
	}
	return runs
}

// mixUniverse is serve-mix's key universe: cheap exact configurations whose
// cold runs take 10-50 ms, so the cache fill stays a small part of set-up.
func mixUniverse() []serve.Request {
	var u []serve.Request
	for _, p := range []int{1, 2, 4, 8} {
		for _, v := range []string{"original", "passion", "prefetch"} {
			u = append(u, serve.Request{App: "scf11", Input: "SMALL", Procs: p, Version: v})
		}
		for _, c := range []int{50, 90} {
			u = append(u, serve.Request{App: "scf30", Input: "SMALL", Procs: p, CachedPct: c})
		}
		u = append(u, serve.Request{App: "fft", Procs: p, Opt: true})
		u = append(u, serve.Request{App: "ast", Procs: p, Opt: true})
	}
	return u
}

// Request kinds of one serve-mix pass.
const (
	opRun      = "run"      // canonical exact /run
	opAlias    = "alias"    // the same key, spelled differently
	opEstimate = "estimate" // ?mode=estimate
	opTrace    = "trace"    // POST /trace of a fresh trace, then its cold /run
)

// mixOp is one client step: Key indexes mixUniverse; Variant picks an alias
// spelling; TraceSeed generates a trace no earlier step has sent.
type mixOp struct {
	Kind      string
	Key       int    `json:",omitempty"`
	Variant   int    `json:",omitempty"`
	TraceSeed uint64 `json:",omitempty"`
}

// The serve-mix traffic is a synthetic choice, not a measurement: the
// repository holds no request log to derive it from. pariobench's stream
// (80% of requests on two hot keys, 20% on distinct cold keys) is not
// reused, because at one simulation in five requests the model would take
// most of a pass and hide the serving layers this workload exists for.
// Each number is chosen so that every serving path gets hundreds of
// samples per pass while simulation stays a small part of it; a pass_s
// figure on serve-mix holds for this mix only.
const (
	// mixRequests is the cache-answered requests per pass: a pass of about
	// 70 ms, long against the clock's resolution, short against drift.
	mixRequests = 2400
	// mixTraces is the fresh traces per pass, each one upload plus one cold
	// run: about 200 cold misses in a 20 s traced run, enough for a p50 and
	// a p90 with ten samples beyond it, at under a tenth of a pass.
	mixTraces = 2
	// mixZipfS is the key skew. With L1 holding a third of the bodies, about
	// 70% of cached /run answers come from L1 and 30% from L2.
	mixZipfS = 1.2
	// mixRunShare and mixAliasShare split the cached requests; the rest are
	// estimates. Exact keys are the majority because the L1 hit is the path
	// the serving work ahead targets. Aliases give about 480 non-canonical
	// spellings to canonicalise per pass; estimates about 600, of which
	// about half were evicted from L1 by run bodies and are computed again.
	mixRunShare   = 0.55
	mixAliasShare = 0.20
)

// mixHotOrder maps Zipf rank to universe index, so which keys are hot
// depends on the seed.
func mixHotOrder(seed uint64, n int) []int {
	return rng(seed, streamMixSetup, 0).Perm(n)
}

// mixPass is the request sequence of serve-mix pass p.
func mixPass(seed uint64, pass int, hot []int) []mixOp {
	r := rng(seed, streamMixPass, pass)
	zipf := rand.NewZipf(r, mixZipfS, 1, uint64(len(hot)-1))
	ops := make([]mixOp, 0, mixRequests+mixTraces)
	for i := 0; i < mixRequests; i++ {
		key := hot[zipf.Uint64()]
		switch u := r.Float64(); {
		case u < mixRunShare:
			ops = append(ops, mixOp{Kind: opRun, Key: key})
		case u < mixRunShare+mixAliasShare:
			ops = append(ops, mixOp{Kind: opAlias, Key: key, Variant: r.IntN(2)})
		default:
			ops = append(ops, mixOp{Kind: opEstimate, Key: key})
		}
	}
	for i := 0; i < mixTraces; i++ {
		at := r.IntN(len(ops) + 1)
		ops = append(ops[:at], append([]mixOp{{Kind: opTrace, TraceSeed: r.Uint64()}}, ops[at:]...)...)
	}
	return ops
}

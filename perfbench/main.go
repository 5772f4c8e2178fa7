// Command perfbench is pario's end-to-end and per-layer benchmark. It runs
// one named workload in-process for a fixed time and prints, as the last
// line of standard output, one JSON object with the outcome of every
// correctness check and the metrics: the end-to-end set by default, the
// per-layer set with --trace 1. Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-quick --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for why each workload exists and what each
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pario/internal/exp"
)

// workload is one set of inputs the benchmark runs, set up fresh from a
// seed. pass runs pass p once and checks every output; a nil tracer and
// layers mean an untraced pass. ladder times each layer on its own after
// the traced passes.
type workload interface {
	pass(p int, tr *tracer, l *layers) (attempted, failed int)
	ladder(l *layers) error
	close()
}

var workloads = map[string]func(seed uint64, dir string) (workload, error){
	"paper-quick":    setupPaperQuick,
	"faulted-replay": setupFaultedReplay,
	"serve-mix":      setupServeMix,
}

const (
	// setupRepeats is how many times a run sets the workload up; setup_s
	// is their median.
	setupRepeats = 5
	// minPasses keeps a median meaningful on a very short run.
	minPasses = 5
	// scratchRoot is where runs keep their temporary files, inside the
	// checkout the benchmark runs from.
	scratchRoot = ".bench_build/tmp"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: paper-quick, faulted-replay or serve-mix")
	seed := flag.Uint64("seed", 1, "seed all generated inputs are drawn from")
	seconds := flag.Int("seconds", 10, "seconds of timed passes")
	traced := flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratchRoot, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// One sweep worker: the second vCPU is left to GC and the daemon's
	// worker, so nothing the benchmark starts competes with them.
	exp.SetWorkers(1)

	var res result
	var setups []float64
	var w workload
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		dir := filepath.Join(tmp, "setup"+strconv.Itoa(k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		next, err := setup(*seed, dir)
		if err != nil {
			return fmt.Errorf("%s setup: %w", *name, err)
		}
		a, f := next.pass(-1, nil, nil) // untimed warm-up
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += a
		res.Failed += f
		if w != nil {
			w.close()
		}
		w = next
	}
	defer w.close()

	budget := time.Duration(*seconds) * time.Second
	p := 0
	onePass := func(tr *tracer, l *layers) float64 {
		runtime.GC()
		sp := tr.begin("pass")
		t0 := time.Now()
		a, f := w.pass(p, tr, l)
		d := time.Since(t0).Seconds()
		tr.end(sp)
		res.Attempted += a
		res.Failed += f
		p++
		return d
	}

	res.Metrics = make(map[string]metric)
	if *traced == 0 {
		var passes, rss []float64 // rss: resident set after each pass, MB
		deadline := time.Now().Add(budget)
		for len(passes) < minPasses || time.Now().Before(deadline) {
			passes = append(passes, onePass(nil, nil))
			mb, err := procStatusMB("VmRSS")
			if err != nil {
				return err
			}
			rss = append(rss, mb)
		}
		vals := map[string]float64{"pass_s": median(passes), "setup_s": median(setups), "rss_mb": median(rss)}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, pass_s median %.4f (min %.4f, max %.4f), setups %v\n",
			*name, *seed, len(passes), median(passes), percentile(passes, 0), percentile(passes, 100), setups)
	} else {
		l, tr, err := tracedRun(w, onePass, budget)
		if err != nil {
			return err
		}
		if l["peak_rss_mb"], err = procStatusMB("VmHWM"); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))); err != nil {
			return err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{l[d.name], d.unit}
		}
		printSelfTimes(tr)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: error_rate %g (%d failed of %d checks)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// tracedRun alternates untraced and traced passes for the budget, so the
// machine's drift over minutes falls on both alike and the ratio of their
// medians is the tracing overhead. Then it runs the layer ladder.
func tracedRun(w workload, onePass func(*tracer, *layers) float64, budget time.Duration) (map[string]float64, *tracer, error) {
	l := newLayers()
	tr := newTracer()
	var plain, traced []float64
	var allocBytes, gcs uint64
	deadline := time.Now().Add(budget)
	for len(traced) < minPasses || time.Now().Before(deadline) {
		plain = append(plain, onePass(nil, nil))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		traced = append(traced, onePass(tr, l))
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)
	}
	n := float64(len(traced))
	l.set("gc.alloc_mb_per_pass", float64(allocBytes)/1e6/n)
	// Each pass forces one collection before it starts; count the rest.
	l.set("gc.count_per_pass", float64(gcs)/n-1)
	l.set("bench.trace_overhead_pct", (median(traced)/median(plain)-1)*100)
	if err := w.ladder(l); err != nil {
		return nil, nil, err
	}
	out := l.result(len(traced))
	if ev := out["sim.events"]; ev > 0 {
		out["sim.ns_per_event"] = l.vals["sim.run_sec"] / n * 1e9 / ev
	}
	return out, tr, nil
}

// printSelfTimes writes where the traced passes spent their time, by span
// name, to standard error.
func printSelfTimes(tr *tracer) {
	self := tr.selfSec()
	var names []string
	var total float64
	for n, s := range self {
		names = append(names, n)
		total += s
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(os.Stderr, "perfbench: self time by span")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %9.3f s %6.1f%%\n", n, self[n], 100*self[n]/total)
	}
}

// procStatusMB reads a memory field of /proc/self/status (VmRSS, VmHWM)
// in MB.
func procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", field, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

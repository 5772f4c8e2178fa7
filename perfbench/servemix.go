package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pario/internal/diskcache"
	"pario/internal/serve"
	sstats "pario/internal/stats"
	"pario/internal/trace"
)

// mixL1Bytes bounds the in-memory cache well below the universe's ~1.1 MB
// of bodies, so the Zipf head is answered from L1 and the tail from L2.
const mixL1Bytes = 384 << 10

// serveMix drives an in-process daemon through its HTTP handler from one
// closed-loop client: no sockets, so the numbers are decode, canonicalise,
// key, L1, L2, estimate and encode, not the kernel's TCP stack.
type serveMix struct {
	seed uint64
	dir  string
	l2   *diskcache.Cache
	srv  *serve.Server

	universe []serve.Request // canonical
	run      []*call         // canonical POST per key
	alias    [2][]*call      // two other spellings per key
	est      []*call         // ?mode=estimate per key
	keys     []string        // canonical key per universe index
	estKeys  []string        // estimate key per universe index, from the fill
	hot      []int
	cl       client

	// runBody and estBody are what the cache fill returned per key; every
	// later cached answer must equal them byte for byte.
	runBody map[string][]byte
	estBody map[string][]byte

	runsSeen int64
	counts   map[string]float64
	traces   []*trace.Trace
	reported map[string]bool
}

// call is one prepared request. The client reuses its *http.Request and
// gives it a fresh body reader per send, so a timed call spends its time in
// the server, not in building the request.
type call struct {
	req  *http.Request
	body []byte
}

func newCall(method, target string, body []byte) *call {
	return &call{req: httptest.NewRequest(method, target, nil), body: body}
}

// respWriter is the client's http.ResponseWriter, reused for every call.
// When the body of an answer is known in advance (expect is set), it
// compares the body as it arrives instead of keeping it, so the client
// adds no copy and no allocation to the call it times; otherwise it keeps
// the body.
type respWriter struct {
	header  http.Header
	code    int
	expect  func(http.Header) []byte
	want    []byte
	n       int
	match   bool
	started bool
	body    []byte
}

func (r *respWriter) reset(expect func(http.Header) []byte) {
	if r.header == nil {
		r.header = make(http.Header)
	}
	clear(r.header)
	*r = respWriter{header: r.header, expect: expect, body: r.body[:0]}
}

func (r *respWriter) Header() http.Header { return r.header }

func (r *respWriter) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *respWriter) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if !r.started {
		r.started = true
		if r.expect != nil {
			r.want = r.expect(r.header)
			r.match = r.want != nil
		}
	}
	if r.expect == nil {
		r.body = append(r.body, p...)
		return len(p), nil
	}
	if r.match && (r.n+len(p) > len(r.want) || !bytes.Equal(p, r.want[r.n:r.n+len(p)])) {
		r.match = false
	}
	r.n += len(p)
	return len(p), nil
}

// bodyMatches reports whether the whole body equaled the expected one.
func (r *respWriter) bodyMatches() bool { return r.match && r.n == len(r.want) }

func setupServeMix(seed uint64, dir string) (workload, error) {
	l2, err := diskcache.Open(filepath.Join(dir, "l2"), 1<<30)
	if err != nil {
		return nil, fmt.Errorf("opening L2: %w", err)
	}
	// The trace registry is bounded well below its default so the fresh
	// traces of a long run are evicted, and memory does not grow with the
	// number of passes a run happens to fit.
	srv := serve.New(serve.Options{
		Workers: 1, CacheEntries: 4096, CacheBytes: mixL1Bytes, L2: l2, TraceStoreBytes: 1 << 20,
	})
	w := &serveMix{
		seed: seed, dir: dir, l2: l2, srv: srv, cl: client{h: srv.Handler()},
		runBody: make(map[string][]byte), estBody: make(map[string][]byte),
		counts: make(map[string]float64), reported: make(map[string]bool),
	}
	if err := w.prepare(); err != nil {
		w.close()
		return nil, err
	}
	if err := w.fill(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// prepare renders every spelling of every key once, so a pass spends its
// time in the server rather than in building requests.
func (w *serveMix) prepare() error {
	for _, r := range mixUniverse() {
		c, err := serve.Canonicalize(r)
		if err != nil {
			return err
		}
		b, err := json.Marshal(c)
		if err != nil {
			return err
		}
		w.universe = append(w.universe, c)
		w.keys = append(w.keys, c.Key())
		w.run = append(w.run, newCall(http.MethodPost, "/run", b))

		// Spelling 0: GET with the app upper-cased, the deck lower-cased
		// and every default left out.
		q := url.Values{"app": {strings.ToUpper(c.App)}, "procs": {strconv.Itoa(c.Procs)}}
		if c.Input != "" {
			q.Set("input", strings.ToLower(c.Input))
		}
		if c.Version != "" && c.Version != "original" {
			q.Set("version", strings.ToUpper(c.Version))
		}
		if c.CachedPct != 0 && c.CachedPct != 90 {
			q.Set("cached_pct", strconv.Itoa(c.CachedPct))
		}
		if c.Opt {
			q.Set("opt", "1")
		}
		w.alias[0] = append(w.alias[0], newCall(http.MethodGet, "/run?"+q.Encode(), nil))

		// Spelling 1: POST with a padded, mixed-case app name and the
		// default I/O partition written out.
		m := map[string]any{"app": " " + strings.ToUpper(c.App[:1]) + c.App[1:] + " ", "procs": c.Procs, "ionodes": c.IONodes}
		if c.Input != "" {
			m["input"] = strings.ToLower(c.Input)
		}
		if c.Version != "" {
			m["version"] = c.Version
		}
		if c.CachedPct != 0 {
			m["cached_pct"] = c.CachedPct
		}
		if c.Opt {
			m["opt"] = true
		}
		ab, err := json.Marshal(m)
		if err != nil {
			return err
		}
		w.alias[1] = append(w.alias[1], newCall(http.MethodPost, "/run", ab))

		eq := url.Values{"mode": {"estimate"}, "app": {c.App}, "procs": {strconv.Itoa(c.Procs)}, "ionodes": {strconv.Itoa(c.IONodes)}}
		if c.Input != "" {
			eq.Set("input", c.Input)
		}
		if c.Version != "" {
			eq.Set("version", c.Version)
		}
		if c.CachedPct != 0 {
			eq.Set("cached_pct", strconv.Itoa(c.CachedPct))
		}
		if c.Opt {
			eq.Set("opt", "true")
		}
		w.est = append(w.est, newCall(http.MethodGet, "/run?"+eq.Encode(), nil))
	}
	w.hot = mixHotOrder(w.seed, len(w.universe))
	return nil
}

// fill runs every key once cold, which puts its body in L1 and L2, and
// computes every estimate once. Every key, run or estimate, must be new.
func (w *serveMix) fill() error {
	for i, key := range w.keys {
		rw := w.cl.do(w.run[i], nil)
		if rw.code != http.StatusOK || rw.header.Get("X-Pario-Cache") != "miss" || w.runBody[key] != nil {
			return fmt.Errorf("fill %s: status %d, cache %q: %s", key, rw.code, rw.header.Get("X-Pario-Cache"), rw.body)
		}
		w.runBody[key] = bytes.Clone(rw.body)
		rw = w.cl.do(w.est[i], nil)
		ek := rw.header.Get("X-Pario-Key")
		if rw.code != http.StatusOK || rw.header.Get("X-Pario-Cache") != "miss" || w.runBody[ek] != nil || w.estBody[ek] != nil {
			return fmt.Errorf("fill estimate %s: status %d, cache %q, key %q: %s", key, rw.code, rw.header.Get("X-Pario-Cache"), ek, rw.body)
		}
		w.estKeys = append(w.estKeys, ek)
		w.estBody[ek] = bytes.Clone(rw.body)
	}
	w.runsSeen = w.srv.MetricsSnapshot().RunsTotal
	return nil
}

// client is one closed-loop client of a handler. It reuses one response
// writer, valid until its next call.
type client struct {
	h  http.Handler
	rw respWriter
}

// do sends one prepared call through the handler.
func (cl *client) do(c *call, expect func(http.Header) []byte) *respWriter {
	c.req.Body = http.NoBody
	if c.body != nil {
		c.req.Body = io.NopCloser(bytes.NewReader(c.body))
		c.req.ContentLength = int64(len(c.body))
	}
	cl.rw.reset(expect)
	cl.h.ServeHTTP(&cl.rw, c.req)
	return &cl.rw
}

// runBodyOf and estBodyOf expect the body the fill recorded for the key
// the server names.
func (w *serveMix) runBodyOf(h http.Header) []byte { return w.runBody[h.Get("X-Pario-Key")] }
func (w *serveMix) estBodyOf(h http.Header) []byte { return w.estBody[h.Get("X-Pario-Key")] }

func (w *serveMix) fail(what, format string, args ...any) {
	if !w.reported[what] {
		w.reported[what] = true
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix %s: %s\n", what, fmt.Sprintf(format, args...))
	}
}

// runMetric and estimateMetric name the latency bucket of a cached /run
// answer and of an estimate by the X-Pario-Cache value the server sent. An
// estimate the L1 still holds is a "hit"; one the run bodies evicted is
// computed again by the roofline model, a "miss".
var (
	runMetric      = map[string]string{"hit": "serve.hit_p50_us", "l2": "serve.l2_p50_us"}
	estimateMetric = map[string]string{"hit": "serve.estimate_hit_p50_us", "miss": "serve.estimate_p50_us"}
)

func (w *serveMix) pass(p int, tr *tracer, l *layers) (attempted, failed int) {
	var m0 serve.Metrics
	if l != nil {
		m0 = w.srv.MetricsSnapshot()
	}
	cold := 0
	seen := make(map[string]int)
	for _, op := range mixPass(w.seed, p, w.hot) {
		tr.nextOp()
		attempted++
		var ok bool
		switch op.Kind {
		case opRun, opAlias:
			a := w.run[op.Key]
			if op.Kind == opAlias {
				a = w.alias[op.Variant][op.Key]
			}
			var src string
			ok, src = w.cachedRun(op.Key, a, tr, l)
			seen[src]++
		case opEstimate:
			var src string
			ok, src = w.estimate(op.Key, tr, l)
			seen["estimate "+src]++
		case opTrace:
			attempted++
			n := 0
			ok, n = w.coldTrace(op.TraceSeed, tr, l)
			cold += n
		}
		if !ok {
			failed++
		}
	}
	// A pass that stopped reaching either cache tier, or stopped computing
	// estimates, no longer measures it.
	for _, src := range []string{"hit", "l2", "estimate hit", "estimate miss"} {
		if seen[src] == 0 {
			w.fail("outcomes", "a pass got no %q answers", src)
			failed++
		}
	}
	// Every simulation this pass ran must be one of its cold trace runs.
	m1 := w.srv.MetricsSnapshot()
	if m1.RunsTotal-w.runsSeen != int64(cold) {
		w.fail("runs_total", "pass ran %d simulations for %d cold misses", m1.RunsTotal-w.runsSeen, cold)
		failed++
	}
	w.runsSeen = m1.RunsTotal
	if l != nil {
		// The server's own run accounting brackets the simulations alone,
		// without queueing, encode or cache puts.
		l.addSnapshot(counterDelta(m1.Sim, m0.Sim))
		l.add("sim.run_sec", m1.RunWallSecTotal-m0.RunWallSecTotal)
		l.add("serve.runs_total", float64(m1.RunsTotal-m0.RunsTotal))
		l.add("serve.cold_misses", float64(cold))
	}
	return attempted, failed
}

func (w *serveMix) timed(name string, tr *tracer, c *call, expect func(http.Header) []byte) (*respWriter, float64) {
	sp := tr.begin(name)
	t0 := time.Now()
	rw := w.cl.do(c, expect)
	us := usSince(t0)
	tr.end(sp)
	return rw, us
}

func (w *serveMix) cachedRun(key int, c *call, tr *tracer, l *layers) (ok bool, src string) {
	rw, us := w.timed("handler.run", tr, c, w.runBodyOf)
	src = rw.header.Get("X-Pario-Cache")
	if l != nil {
		w.counts[src]++
	}
	if rw.code != http.StatusOK {
		w.fail("run", "status %d", rw.code)
		return false, src
	}
	if got := rw.header.Get("X-Pario-Key"); got != w.keys[key] {
		w.fail("canonicalize", "%s %s keyed %s, want %s", c.req.Method, c.req.URL, got, w.keys[key])
		return false, src
	}
	metric, known := runMetric[src]
	if !known {
		w.fail("run", "cached key answered from %q", src)
		return false, src
	}
	if !rw.bodyMatches() {
		w.fail("run", "%s body for %s differs from its cold run", src, w.keys[key])
		return false, src
	}
	l.sample(metric, us)
	return true, src
}

func (w *serveMix) estimate(key int, tr *tracer, l *layers) (ok bool, src string) {
	rw, us := w.timed("handler.estimate", tr, w.est[key], w.estBodyOf)
	src = rw.header.Get("X-Pario-Cache")
	if l != nil {
		w.counts["estimate "+src]++
	}
	if rw.code != http.StatusOK {
		w.fail("estimate", "status %d", rw.code)
		return false, src
	}
	if got := rw.header.Get("X-Pario-Key"); got != w.estKeys[key] {
		w.fail("estimate", "estimate keyed %s, want %s", got, w.estKeys[key])
		return false, src
	}
	metric, known := estimateMetric[src]
	if !known {
		w.fail("estimate", "answered from %q", src)
		return false, src
	}
	if !rw.bodyMatches() {
		w.fail("estimate", "%s body for %s differs from its first answer", src, w.keys[key])
		return false, src
	}
	l.sample(metric, us)
	return true, src
}

// coldTrace uploads a trace no earlier pass has sent and replays it; the
// replay must be a miss. It returns whether both steps passed their checks
// and how many cold runs it sent.
func (w *serveMix) coldTrace(seed uint64, tr *tracer, l *layers) (bool, int) {
	t := trace.Generate("smallwrites", 2, 64, seed)
	rw, us := w.timed("handler.upload", tr, newCall(http.MethodPost, "/trace", t.EncodeBinary()), nil)
	var up struct {
		Trace string `json:"trace"`
	}
	if rw.code != http.StatusOK {
		w.fail("upload", "status %d: %s", rw.code, rw.body)
		return false, 0
	}
	if err := json.Unmarshal(rw.body, &up); err != nil || up.Trace != t.Hash() {
		w.fail("upload", "hash %q, want %s (%v)", up.Trace, t.Hash(), err)
		return false, 0
	}
	l.sample("serve.upload_p50_us", us)

	body, err := json.Marshal(serve.Request{App: "trace", Trace: up.Trace, Version: ifaces[seed%3]})
	if err != nil {
		w.fail("trace run", "%v", err)
		return false, 0
	}
	rw, us = w.timed("handler.miss", tr, newCall(http.MethodPost, "/run", body), nil)
	if rw.code != http.StatusOK || rw.header.Get("X-Pario-Cache") != "miss" {
		w.fail("trace run", "status %d, cache %q: %s", rw.code, rw.header.Get("X-Pario-Cache"), rw.body)
		return false, 1
	}
	l.sample("serve.miss_p50_ms", us/1e3)
	if l != nil && len(w.traces) < 4 {
		w.traces = append(w.traces, t)
	}
	return true, 1
}

// tail reports the highest percentile of one latency bucket that keeps ten
// samples beyond it, under <outcome>_tail_<unit>, with the percentile and
// the sample count.
func tail(l *layers, outcome, unit string) {
	xs := l.samples[outcome+"_p50_"+unit]
	l.set(outcome+"_n", float64(len(xs)))
	if p, ok := tailPercentile(len(xs)); ok {
		l.set(outcome+"_tail_pct", p)
		l.set(outcome+"_tail_"+unit, percentile(xs, p))
	}
}

func (w *serveMix) ladder(l *layers) error {
	// Cached /run answers by source; a "miss" here is a filled key the
	// cache lost, already counted as a failed check.
	hits, l2, lost := w.counts["hit"], w.counts["l2"], w.counts["miss"]
	if hits+l2+lost > 0 {
		l.set("serve.l1_hit_ratio", hits/(hits+l2+lost))
	}
	if l2+lost > 0 {
		l.set("serve.l2_hit_ratio", l2/(l2+lost))
	}
	if e := w.counts["estimate hit"] + w.counts["estimate miss"]; e > 0 {
		l.set("serve.estimate_hit_ratio", w.counts["estimate hit"]/e)
	}
	if err := w.allocsPerHit(l); err != nil {
		return err
	}
	return runLadder(l, w.traces, w.dir, false)
}

// counterDelta is cur's counters minus base's.
func counterDelta(cur, base *sstats.Snapshot) *sstats.Snapshot {
	prev := make(map[string]int64, len(base.Counters))
	for _, c := range base.Counters {
		prev[c.Name] = c.Value
	}
	d := &sstats.Snapshot{}
	for _, c := range cur.Counters {
		d.Counters = append(d.Counters, sstats.CounterValue{Name: c.Name, Value: c.Value - prev[c.Name]})
	}
	return d
}

// allocsPerHit measures the allocations of one L1 hit: the hottest key
// through the handler, minus the same client loop against a handler that
// does nothing.
func (w *serveMix) allocsPerHit(l *layers) error {
	const n = 2000
	hot := w.run[w.hot[0]]
	allocs := func(h http.Handler) (count, size float64) {
		cl := client{h: h}
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			cl.do(hot, w.runBodyOf)
		}
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n
	}
	w.cl.do(hot, w.runBodyOf) // an L2 answer is promoted into L1
	rw := w.cl.do(hot, w.runBodyOf)
	if src := rw.header.Get("X-Pario-Cache"); src != "hit" || !rw.bodyMatches() {
		return fmt.Errorf("ladder: the hottest key answered %q, want an L1 hit", src)
	}
	srvAllocs, srvBytes := allocs(w.cl.h)
	baseAllocs, baseBytes := allocs(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	l.set("serve.allocs_per_hit", srvAllocs-baseAllocs)
	l.set("serve.alloc_bytes_per_hit", srvBytes-baseBytes)
	return nil
}

func (w *serveMix) close() {
	if w.srv != nil {
		shutdown(w.srv)
	}
	if w.l2 != nil {
		w.l2.Close()
	}
}

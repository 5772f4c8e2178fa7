package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pario/internal/core"
)

// postRun issues a POST /run against ts and returns the response.
func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func metricsOf(t *testing.T, ts *httptest.Server) Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServerColdThenCached runs one real simulation cold, re-requests it,
// and verifies: byte-identical bodies, hit/miss headers, and — the serving
// layer's core invariant — zero additional simulation runs on the cached
// path, asserted via the run counter, not timing.
func TestServerColdThenCached(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	const reqBody = `{"app":"scf11","procs":4,"input":"SMALL"}`
	resp1, body1 := postRun(t, ts, reqBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Pario-Cache"); got != "miss" {
		t.Fatalf("cold: X-Pario-Cache = %q, want miss", got)
	}
	if m := metricsOf(t, ts); m.RunsTotal != 1 {
		t.Fatalf("runs_total after cold run = %d, want 1", m.RunsTotal)
	}

	resp2, body2 := postRun(t, ts, reqBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Pario-Cache"); got != "hit" {
		t.Fatalf("cached: X-Pario-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached body differs from fresh body")
	}
	m := metricsOf(t, ts)
	if m.RunsTotal != 1 {
		t.Fatalf("runs_total after cached rerun = %d, want 1 (cached path re-simulated)", m.RunsTotal)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", m.CacheHits, m.CacheMisses)
	}

	// A decoded body is a valid Result whose report carries a metrics
	// snapshot with wall time quarantined.
	var res Result
	if err := json.Unmarshal(body1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Report.ExecSec <= 0 || res.Report.Events == 0 {
		t.Fatalf("implausible report: %+v", res.Report)
	}
	if res.Report.Stats == nil || res.Report.Stats.WallSec != 0 {
		t.Fatal("metrics snapshot missing or wall_sec not quarantined")
	}
}

// TestServerFreshVsCachedByteEquality is the determinism soundness check
// behind content-addressed caching: a second, completely fresh server must
// produce byte-for-byte the body the first server cached.
func TestServerFreshVsCachedByteEquality(t *testing.T) {
	const reqBody = `{"app":"fft","procs":4,"opt":true}`
	bodies := make([][]byte, 2)
	for i := range bodies {
		s := New(Options{Workers: 1, QueueDepth: 2})
		ts := httptest.NewServer(s.Handler())
		resp, b := postRun(t, ts, reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Pario-Cache"); got != "miss" {
			t.Fatalf("server %d: X-Pario-Cache = %q, want miss", i, got)
		}
		bodies[i] = b
		ts.Close()
		s.sched.Close()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("two fresh servers produced different bodies for one canonical request")
	}
}

// TestServerEquivalentRequestsShareOneRun verifies canonicalization: a
// request with defaults spelled out (and shuffled case, and GET vs POST)
// lands on the same content address as the bare request.
func TestServerEquivalentRequestsShareOneRun(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp1, body1 := postRun(t, ts, `{"app":"scf11","input":"small"}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	resp2, err := http.Get(ts.URL + "/run?app=SCF11&procs=4&ionodes=12&input=SMALL&version=original")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET: status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Pario-Cache"); got != "hit" {
		t.Fatalf("equivalent request missed the cache (X-Pario-Cache = %q)", got)
	}
	if resp1.Header.Get("X-Pario-Key") != resp2.Header.Get("X-Pario-Key") {
		t.Fatal("equivalent requests got different content addresses")
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("equivalent requests got different bodies")
	}
	if m := metricsOf(t, ts); m.RunsTotal != 1 {
		t.Fatalf("runs_total = %d, want 1", m.RunsTotal)
	}
}

// fakeRun installs a controllable execution seam; each distinct request
// blocks until release closes (or its ctx ends).
func fakeRun(started chan<- string, release <-chan struct{}) func(context.Context, Request) (core.Report, error) {
	return func(ctx context.Context, req Request) (core.Report, error) {
		if started != nil {
			started <- req.App
		}
		select {
		case <-release:
			return core.Report{Machine: "fake", Procs: req.Procs, ExecSec: 1}, nil
		case <-ctx.Done():
			return core.Report{}, ctx.Err()
		}
	}
}

// TestServerBackpressure429 saturates a 1-worker, 1-slot server and
// verifies the overflow request is shed with 429 + Retry-After, then that
// the server recovers after the queue drains.
func TestServerBackpressure429(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	started := make(chan string, 4)
	release := make(chan struct{})
	rel := releaser(release)
	s.run = fakeRun(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	defer rel()

	var wg sync.WaitGroup
	// Distinct requests so singleflight cannot collapse them: one
	// occupies the worker, one the queue slot. Serialized so the second
	// cannot race the worker's dequeue of the first and get shed itself.
	for i, procs := range []int{4, 9} {
		wg.Add(1)
		go func(procs int) {
			defer wg.Done()
			resp, body := postRun(t, ts, fmt.Sprintf(`{"app":"btio","procs":%d}`, procs))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("procs %d: status %d: %s", procs, resp.StatusCode, body)
			}
		}(procs)
		if i == 0 {
			<-started // worker busy
		}
	}
	waitFor(t, "the queue slot to fill", func() bool {
		return s.sched.QueueDepth(LaneInteractive) == 1
	})

	resp, _ := postRun(t, ts, `{"app":"btio","procs":16}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	rel()
	wg.Wait()

	// Recovery: the same request now gets served.
	resp2, body := postRun(t, ts, `{"app":"btio","procs":16}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain: status %d: %s", resp2.StatusCode, body)
	}
	m := metricsOf(t, ts)
	if m.RejectedTotal != 1 {
		t.Fatalf("rejected_total = %d, want 1", m.RejectedTotal)
	}
}

// TestServerSingleflightCollapse fires two concurrent identical requests
// and verifies one simulation, one miss, one shared response.
func TestServerSingleflightCollapse(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	started := make(chan string, 2)
	release := make(chan struct{})
	s.run = fakeRun(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	results := make(chan string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postRun(t, ts, `{"app":"fft","procs":8}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
			}
			results <- resp.Header.Get("X-Pario-Cache")
		}()
	}
	<-started // leader simulating
	// Let the follower reach the flight group, then release the run.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)
	got := map[string]int{}
	for r := range results {
		got[r]++
	}
	if got["miss"] != 1 || got["shared"] != 1 {
		t.Fatalf("outcomes = %v, want one miss and one shared", got)
	}
	if m := metricsOf(t, ts); m.RunsTotal != 1 {
		t.Fatalf("runs_total = %d, want 1 (herd was not collapsed)", m.RunsTotal)
	}
}

// TestServerTimeoutFreesWorker lets a request time out against a stuck run
// and verifies 504 — and that the pool slot is usable again afterwards.
func TestServerTimeoutFreesWorker(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	// procs=4 wedges until its ctx ends (a run that would outlive any
	// deadline); procs=8 completes instantly.
	s.run = func(ctx context.Context, req Request) (core.Report, error) {
		if req.Procs == 4 {
			<-ctx.Done()
			return core.Report{}, ctx.Err()
		}
		return core.Report{Machine: "instant", Procs: req.Procs, ExecSec: 1}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp, err := http.Post(ts.URL+"/run?timeout_sec=0.05", "application/json",
		strings.NewReader(`{"app":"fft","procs":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	// The stuck run saw its ctx end, so the pool slot must come free for
	// the next (instant) request.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp2, body2 := postRun(t, ts, `{"app":"fft","procs":8}`)
		if resp2.StatusCode != http.StatusOK {
			t.Errorf("post-timeout: status %d: %s", resp2.StatusCode, body2)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker still occupied after request timeout")
	}
	if m := metricsOf(t, ts); m.CanceledTotal != 1 {
		t.Fatalf("canceled_total = %d, want 1", m.CanceledTotal)
	}
}

// TestServerErrorsAreNotCached verifies a failed run is retried fresh, not
// served from cache.
func TestServerErrorsAreNotCached(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	calls := 0
	s.run = func(ctx context.Context, req Request) (core.Report, error) {
		calls++
		if calls == 1 {
			return core.Report{}, fmt.Errorf("transient failure")
		}
		return core.Report{Machine: "ok", Procs: req.Procs, ExecSec: 1}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp1, _ := postRun(t, ts, `{"app":"fft","procs":4}`)
	if resp1.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first: status %d, want 500", resp1.StatusCode)
	}
	resp2, _ := postRun(t, ts, `{"app":"fft","procs":4}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry: status %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Pario-Cache"); got != "miss" {
		t.Fatalf("retry served %q, want a fresh miss", got)
	}
	if m := metricsOf(t, ts); m.ErrorTotal != 1 || m.RunsTotal != 2 {
		t.Fatalf("error/runs = %d/%d, want 1/2", m.ErrorTotal, m.RunsTotal)
	}
}

// TestServerBadRequests pins the 400 surface.
func TestServerBadRequests(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	for _, body := range []string{
		`{"app":"warp"}`,
		`{"app":"scf11","input":"HUGE"}`,
		`{"app":"scf11","version":"turbo"}`,
		`{"app":"btio","procs":5}`,
		`{"app":"scf30","cached_pct":150}`,
		`{"app":"fft","unknown_field":1}`,
		`not json`,
	} {
		resp, _ := postRun(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if m := metricsOf(t, ts); m.BadRequestTotal != 7 {
		t.Fatalf("bad_request_total = %d, want 7", m.BadRequestTotal)
	}
}

// TestServerDropsSlowHeaderClient pins the connection limits of the
// managed listener: a client that trickles a request header that never
// ends is disconnected once the header deadline passes, instead of holding
// the connection open for as long as it keeps sending.
func TestServerDropsSlowHeaderClient(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	defer func() { readHeaderTimeout = prev }()
	s := New(Options{Workers: 1})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: pario\r\n"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// A header line that grows forever; write errors mean
				// the server has hung up, which the reader observes.
				if _, err := io.WriteString(conn, "x"); err != nil {
					return
				}
			}
		}
	}()
	defer func() { close(stop); <-trickled }()

	// The server answers nothing and closes; a read that is still
	// blocked when this deadline fires means the connection was held.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("slow-header client still connected after 5s; want it dropped after the header timeout")
	}
}

// TestServerGracefulShutdownDrains starts a slow request over a real
// listener, shuts the server down mid-flight, and verifies the in-flight
// response arrives complete before Shutdown returns.
func TestServerGracefulShutdownDrains(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.run = fakeRun(started, release)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/run", "application/json",
			strings.NewReader(`{"app":"ast","procs":4}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{status: resp.StatusCode, body: b, err: err}
	}()
	<-started // the run occupies the worker

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request truncated by shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", res.status, res.body)
	}
	var r Result
	if err := json.Unmarshal(res.body, &r); err != nil {
		t.Fatalf("in-flight response body truncated: %v", err)
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestServerHealthz pins the liveness/readiness split: plain /healthz stays
// 200 while the process is alive — draining included — and only the
// readiness probe (?ready=1) flips to 503 during drain, so orchestrators
// stop routing without killing a node that is finishing in-flight work.
func TestServerHealthz(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h.Status
	}
	if code, status := get("/healthz"); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, status)
	}
	if code, status := get("/healthz?ready=1"); code != http.StatusOK || status != "ok" {
		t.Fatalf("ready probe = %d %q, want 200 ok", code, status)
	}
	s.sched.Close()
	s.draining.Store(true)
	// Liveness stays 200 under drain; the body names the state.
	if code, status := get("/healthz"); code != http.StatusOK || status != "draining" {
		t.Fatalf("draining healthz = %d %q, want 200 draining", code, status)
	}
	// Readiness answers 503 so balancers and peers stop routing here.
	if code, status := get("/healthz?ready=1"); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("draining ready probe = %d %q, want 503 draining", code, status)
	}
}

// TestRetryAfterGrowsUnderOverload pins the Retry-After satellite: the 429
// hint is queue depth times the recent mean run duration spread over the
// pool, not a hard-coded constant — slow runs and a deep backlog push it
// up, fast runs bring it back to the 1s floor.
func TestRetryAfterGrowsUnderOverload(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	started := make(chan string, 4)
	release := make(chan struct{})
	rel := releaser(release)
	s.run = fakeRun(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	defer rel()

	if got := s.retryAfterSec(LaneInteractive); got != 1 {
		t.Fatalf("idle, no history: retryAfterSec = %d, want the 1s floor", got)
	}

	// Distinct requests: one occupies the worker, two the queue slots.
	// The first is serialized so the queued pair cannot race its dequeue.
	var wg sync.WaitGroup
	for i, procs := range []int{4, 9, 16} {
		wg.Add(1)
		go func(procs int) {
			defer wg.Done()
			resp, body := postRun(t, ts, fmt.Sprintf(`{"app":"btio","procs":%d}`, procs))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("procs %d: status %d: %s", procs, resp.StatusCode, body)
			}
		}(procs)
		if i == 0 {
			<-started
		}
	}
	waitFor(t, "both queue slots to fill", func() bool {
		return s.sched.QueueDepth(LaneInteractive) == 2
	})

	s.recordRunDur(10 * time.Second) // recent runs are slow
	resp, _ := postRun(t, ts, `{"app":"btio","procs":25}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	// Backlog of 3 ahead plus this request, 10s mean, one worker.
	if ra != 40 {
		t.Fatalf("Retry-After = %d, want 40 (4 jobs x 10s / 1 worker)", ra)
	}

	// Fast runs shrink the estimate, but never below the floor.
	s.runDurEWMA.Store(int64(10 * time.Millisecond))
	resp2, _ := postRun(t, ts, `{"app":"btio","procs":36}`)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second overflow: status %d, want 429", resp2.StatusCode)
	}
	if got := resp2.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("fast-run Retry-After = %q, want the 1s floor", got)
	}

	rel()
	wg.Wait()
}

// TestFaultSpecCanonicalizedIntoKey: equivalent fault-plan spellings fold
// onto one cache entry, and any fault plan at all keys differently from the
// healthy run — a degraded result can never be served for a healthy request
// or vice versa.
func TestFaultSpecCanonicalizedIntoKey(t *testing.T) {
	a, err := Canonicalize(Request{App: "fft", Faults: "disk:0:degrade=8@t=1500ms..4s"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(Request{App: "fft", Faults: "disk:0:degrade=8x@t=1.5s..4s"})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := Canonicalize(Request{App: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults != b.Faults || a.Key() != b.Key() {
		t.Fatalf("equivalent plans canonicalized differently: %q vs %q", a.Faults, b.Faults)
	}
	if a.Key() == healthy.Key() {
		t.Fatal("faulted request aliases the healthy cache entry")
	}
	if _, err := Canonicalize(Request{App: "fft", Faults: "disk:warp"}); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

// TestServerFaultedRunTaxonomy drives a real simulation into a permanent
// disk outage through the request schema and verifies the daemon's failure
// surface: a structured 500 carrying the error-taxonomy class, the class
// counted in /metrics, no panic, and no cache pollution — the healthy entry
// stays served as healthy, the faulted key is never cached.
func TestServerFaultedRunTaxonomy(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	respH, bodyH := postRun(t, ts, `{"app":"fft","procs":4}`)
	if respH.StatusCode != http.StatusOK {
		t.Fatalf("healthy: status %d: %s", respH.StatusCode, bodyH)
	}

	const faulted = `{"app":"fft","procs":4,"faults":"disk:0:fail@t=1ms;retry=1;backoff=1ms"}`
	respF, bodyF := postRun(t, ts, faulted)
	if respF.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted: status %d: %s", respF.StatusCode, bodyF)
	}
	if respF.Header.Get("X-Pario-Cache") != "" {
		t.Fatal("faulted request was served from cache")
	}
	if ct := respF.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("faulted 500 Content-Type = %q", ct)
	}
	var eb errorBody
	if err := json.Unmarshal(bodyF, &eb); err != nil {
		t.Fatalf("faulted 500 body %q is not structured JSON: %v", bodyF, err)
	}
	if eb.Class != "disk_failed" || eb.Error == "" {
		t.Fatalf("faulted 500 body = %+v, want class disk_failed with a message", eb)
	}

	// The healthy entry is still a healthy hit; the faulted key stays cold.
	respH2, bodyH2 := postRun(t, ts, `{"app":"fft","procs":4}`)
	if respH2.StatusCode != http.StatusOK || respH2.Header.Get("X-Pario-Cache") != "hit" {
		t.Fatalf("healthy after fault: status %d cache %q", respH2.StatusCode, respH2.Header.Get("X-Pario-Cache"))
	}
	if !bytes.Equal(bodyH, bodyH2) {
		t.Fatal("healthy body changed after a faulted run")
	}
	m := metricsOf(t, ts)
	if m.ErrorClasses["disk_failed"] != 1 {
		t.Fatalf("error_classes = %v, want disk_failed:1", m.ErrorClasses)
	}
	if m.RunsTotal != 2 {
		t.Fatalf("runs_total = %d, want 2 (healthy + faulted attempt)", m.RunsTotal)
	}
}

// TestOptionsDefaultsClampNegatives is the satellite bugfix check: negative
// bounds select the documented defaults instead of leaking into a 1-deep
// queue or an already-expired timeout.
func TestOptionsDefaultsClampNegatives(t *testing.T) {
	o := Options{
		Workers: -3, QueueDepth: -1, BatchQueueDepth: -7, CacheEntries: -2,
		Timeout: -time.Second, MaxSweepPoints: -5, MaxSweeps: -1,
	}
	o.defaults()
	var want Options
	want.defaults()
	if o != want {
		t.Fatalf("negative options = %+v, want the defaults %+v", o, want)
	}
	if want.QueueDepth != 64 || want.BatchQueueDepth != 256 ||
		want.CacheEntries != 512 || want.Timeout != 60*time.Second ||
		want.MaxSweepPoints != 4096 || want.MaxSweeps != 4 {
		t.Fatalf("documented defaults drifted: %+v", want)
	}
}

// TestTimeoutSecRejectsOverflow is the satellite regression for the
// duration-overflow bug: non-finite and overflowing ?timeout_sec= values are
// 400s, and a huge-but-finite ask never raises the server's own ceiling.
func TestTimeoutSecRejectsOverflow(t *testing.T) {
	for _, v := range []string{"1e308", "9e18", "NaN", "+Inf", "-Inf", "-1", "0", "forever"} {
		if d, err := parseTimeoutSec(v); err == nil {
			t.Errorf("timeout_sec=%s accepted as %v", v, d)
		}
	}
	if d, err := parseTimeoutSec("0.25"); err != nil || d != 250*time.Millisecond {
		t.Fatalf("timeout_sec=0.25 = %v, %v", d, err)
	}

	s := New(Options{Workers: 1, QueueDepth: 2, Timeout: 50 * time.Millisecond})
	s.run = fakeRun(nil, nil) // wedges until its deadline
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp, _ := postRun(t, ts, `{"app":"fft","procs":4,"timeout_sec":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("timeout_sec in body: status %d, want 400 (query-only parameter)", resp.StatusCode)
	}
	for _, q := range []string{"timeout_sec=1e308", "timeout_sec=NaN"} {
		resp, err := http.Post(ts.URL+"/run?"+q, "application/json",
			strings.NewReader(`{"app":"fft","procs":4}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	// A finite but enormous ask is capped by the server Timeout: the wedged
	// run must be cut off by the 50ms ceiling, not wait out 1e6 seconds.
	start := time.Now()
	resp2, err := http.Post(ts.URL+"/run?timeout_sec=1000000", "application/json",
		strings.NewReader(`{"app":"fft","procs":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("huge timeout ask: status %d, want 504 at the server cap", resp2.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("server cap not enforced: request ran %v", elapsed)
	}
}

// TestRetryAfterColdSeed is the cold-EWMA satellite: an instance whose queue
// fills before any run completes derives Retry-After from how long the head
// job has been waiting, instead of answering the bare floor forever.
func TestRetryAfterColdSeed(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	started := make(chan string, 2)
	release := make(chan struct{})
	rel := releaser(release)
	s.run = fakeRun(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	defer rel()

	var wg sync.WaitGroup
	for i, procs := range []int{4, 9} {
		wg.Add(1)
		go func(procs int) {
			defer wg.Done()
			resp, body := postRun(t, ts, fmt.Sprintf(`{"app":"btio","procs":%d}`, procs))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("procs %d: status %d: %s", procs, resp.StatusCode, body)
			}
		}(procs)
		if i == 0 {
			<-started // worker busy, no run has ever completed
		}
	}
	waitFor(t, "the queue slot to fill", func() bool {
		return s.sched.QueueDepth(LaneInteractive) == 1
	})

	// Head job has waited >= 400ms: with one in flight and one queued, the
	// seeded estimate is (2+1) x 400ms / 1 worker = 1.2s -> at least 2s,
	// strictly above the 1s cold floor.
	time.Sleep(400 * time.Millisecond)
	if got := s.retryAfterSec(LaneInteractive); got < 2 {
		t.Fatalf("cold retryAfterSec = %d, want >= 2 (seeded from pending wait)", got)
	}
	// The batch lane is idle, but the pending-age seed still applies to its
	// own (empty) backlog: (0+1) x age / 1 worker -> at least 1.
	if got := s.retryAfterSec(LaneBatch); got < 1 {
		t.Fatalf("batch retryAfterSec = %d, want >= 1", got)
	}
	rel()
	wg.Wait()
}

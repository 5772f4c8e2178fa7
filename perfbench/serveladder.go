package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pario/internal/diskcache"
	"pario/internal/serve"
	"pario/internal/trace"
)

// serveRungs times the serving layers one call at a time, the same way on
// every workload: canonicalise, key and the roofline estimate over
// serve-mix's key universe; encode of the cheapest key's report; L1 Put and
// Get of that body; and L2 Put, Get and reopen in a fresh directory.
func serveRungs(l *layers, dir string) error {
	universe := mixUniverse()
	canon0, err := serve.Canonicalize(universe[0])
	if err != nil {
		return err
	}
	rep, err := serve.Execute(context.Background(), canon0)
	if err != nil {
		return fmt.Errorf("ladder serve: %w", err)
	}
	var body []byte
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if body, err = serve.Encode(canon0, rep); err != nil {
			return err
		}
		l.sample("serve.encode_us", usSince(t0))
	}

	cache := serve.NewCacheBytes(4096, mixL1Bytes)
	var keys []string
	for round := 0; round < 5; round++ {
		for _, r := range universe {
			r.App = strings.ToUpper(r.App)
			t0 := time.Now()
			c, err := serve.Canonicalize(r)
			l.sample("serve.canonicalize_us", usSince(t0))
			if err != nil {
				return err
			}
			t0 = time.Now()
			key := c.Key()
			l.sample("serve.key_us", usSince(t0))
			t0 = time.Now()
			if _, err := serve.EstimateFor(c); err != nil {
				return err
			}
			l.sample("roofline.estimate_us", usSince(t0))
			t0 = time.Now()
			cache.Put(key, body)
			l.sample("serve.l1_put_us", usSince(t0))
			t0 = time.Now()
			if _, ok := cache.Get(key); !ok {
				return fmt.Errorf("ladder: L1 lost %s right after Put", key)
			}
			l.sample("serve.l1_get_us", usSince(t0))
			if round == 0 {
				keys = append(keys, key)
			}
		}
	}
	return diskcacheRungs(l, filepath.Join(dir, "ladder-l2"), keys, body)
}

// diskcacheRungs times L2 Put and Get of body under keys in a fresh
// directory, then reopening it with every entry present.
func diskcacheRungs(l *layers, dir string, keys []string, body []byte) error {
	c, err := diskcache.Open(dir, 1<<30)
	if err != nil {
		return err
	}
	for _, key := range keys {
		t0 := time.Now()
		if err := c.Put(key, body); err != nil {
			c.Close()
			return err
		}
		l.sample("diskcache.put_us", usSince(t0))
	}
	for round := 0; round < 5; round++ {
		for _, key := range keys {
			t0 := time.Now()
			if _, ok := c.Get(key); !ok {
				c.Close()
				return fmt.Errorf("ladder: L2 lost %s", key)
			}
			l.sample("diskcache.get_us", usSince(t0))
		}
	}
	c.Close()
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		c, err := diskcache.Open(dir, 1<<30)
		if err != nil {
			return err
		}
		l.sample("diskcache.open_ms", usSince(t0)/1e3)
		c.Close()
	}
	return nil
}

// probeTraces is how many distinct traces the serving probe sends: enough
// for a p90 with ten misses beyond it.
const probeTraces = 100

// serveProbe times the handler for each cache outcome on fresh in-process
// daemons, for workloads whose passes never serve. Trace k is the first k
// of the workload's own operations on one rank; each is uploaded and
// replayed cold (miss), replayed again three times (L1 hit), and asked
// three times of a second daemon on the same L2 whose one-entry L1 sends
// every answer to disk (L2). Estimates use serve-mix's universe.
func serveProbe(l *layers, dir string, trs []*trace.Trace) error {
	evs := ladderEvents(trs)
	if len(evs) < probeTraces {
		return fmt.Errorf("ladder: the workload produced %d operations, the probe needs %d", len(evs), probeTraces)
	}
	l2, err := diskcache.Open(filepath.Join(dir, "probe-l2"), 1<<30)
	if err != nil {
		return err
	}
	defer l2.Close()
	warm := serve.New(serve.Options{Workers: 1, L2: l2})
	defer shutdown(warm)
	disk := serve.New(serve.Options{Workers: 1, L2: l2, CacheBytes: 1})
	defer shutdown(disk)

	warmC, diskC := &client{h: warm.Handler()}, &client{h: disk.Handler()}
	send := func(cl *client, c *call, want string) (float64, error) {
		t0 := time.Now()
		rw := cl.do(c, nil)
		us := usSince(t0)
		if rw.code != http.StatusOK || (want != "" && rw.header.Get("X-Pario-Cache") != want) {
			return 0, fmt.Errorf("ladder probe %s %s: status %d, cache %q, want %q: %s",
				c.req.Method, c.req.URL, rw.code, rw.header.Get("X-Pario-Cache"), want, rw.body)
		}
		return us, nil
	}

	var runs []*call
	for k := 1; k <= probeTraces; k++ {
		t := &trace.Trace{Label: "perfbench:probe", Ranks: [][]trace.Event{evs[:k]}}
		us, err := send(warmC, newCall(http.MethodPost, "/trace", t.EncodeBinary()), "")
		if err != nil {
			return err
		}
		l.sample("serve.upload_p50_us", us)
		body, err := json.Marshal(serve.Request{App: "trace", Trace: t.Hash(), Version: ifaces[k%len(ifaces)]})
		if err != nil {
			return err
		}
		c := newCall(http.MethodPost, "/run", body)
		if us, err = send(warmC, c, "miss"); err != nil {
			return err
		}
		l.sample("serve.miss_p50_ms", us/1e3)
		runs = append(runs, c)
	}
	for round := 0; round < 3; round++ {
		for _, c := range runs {
			us, err := send(warmC, c, "hit")
			if err != nil {
				return err
			}
			l.sample("serve.hit_p50_us", us)
			if us, err = send(diskC, c, "l2"); err != nil {
				return err
			}
			l.sample("serve.l2_p50_us", us)
		}
	}
	// The daemon has seen no estimate yet: the first round computes each
	// one, the other two are answered from L1.
	for round, want := range []string{"miss", "hit", "hit"} {
		for _, r := range mixUniverse() {
			c, err := serve.Canonicalize(r)
			if err != nil {
				return err
			}
			b, err := json.Marshal(c)
			if err != nil {
				return err
			}
			us, err := send(warmC, newCall(http.MethodPost, "/run?mode=estimate", b), want)
			if err != nil {
				return fmt.Errorf("estimate round %d: %w", round, err)
			}
			l.sample(estimateMetric[want], us)
		}
	}
	return nil
}

// shutdown retires a daemon's workers.
func shutdown(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: shutting a daemon down: %v\n", err)
	}
}

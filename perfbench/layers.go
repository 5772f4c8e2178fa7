package main

import sstats "pario/internal/stats"

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed for every workload.
var endToEnd = []metricDef{
	{"pass_s", "s"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// snapshotCounters are the exact model counters summed from the runs'
// stats snapshots and reported per pass.
var snapshotCounters = []metricDef{
	{"sim.events", "count"},
	{"pfs.chunks", "count"},
	{"pfs.transfers", "count"},
	{"pfs.retries", "count"},
	{"ionode.requests", "count"},
	{"ionode.writeback_bytes", "B"},
	{"disk.seeks", "count"},
	{"disk.bytes_read", "B"},
	{"disk.bytes_written", "B"},
	{"net.msgs", "count"},
	{"net.bytes", "B"},
	{"fault.injections", "count"},
}

// perLayer are the metrics of a traced run, printed for every workload.
// Counts of a layer the workload's passes never call read 0: paper-quick's
// serve.runs_total and cache ratios are 0 by construction. Timings are
// measured on every workload, by the ladder where the passes do not.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, id := range append(append([]string(nil), paperIDs...), "degraded") {
		defs = append(defs, metricDef{"exp." + id + "_ms", "ms"})
	}
	defs = append(defs, snapshotCounters...)
	defs = append(defs,
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"sim.handoff_ns", "ns"},
		metricDef{"sim.spawn_join_ns", "ns"},
	)
	for _, iface := range ifaces {
		defs = append(defs,
			metricDef{"pio." + iface + ".read_us", "us"},
			metricDef{"pio." + iface + ".write_us", "us"})
	}
	defs = append(defs,
		metricDef{"pio.self_read_us", "us"},
		metricDef{"pio.prefetch_hit_ratio", "ratio"},
		metricDef{"pfs.transfer_us", "us"},
		metricDef{"pfs.transfer_faulted_us", "us"},
		metricDef{"disk.service_ns", "ns"},
		metricDef{"network.send_us", "us"},
		metricDef{"mp.alltoallv_us", "us"},
		metricDef{"trace.decode_us", "us"},
		metricDef{"trace.hash_us", "us"},
		metricDef{"trace.encode_us", "us"},
		metricDef{"roofline.estimate_us", "us"},
		metricDef{"serve.canonicalize_us", "us"},
		metricDef{"serve.key_us", "us"},
		metricDef{"serve.l1_get_us", "us"},
		metricDef{"serve.l1_put_us", "us"},
		metricDef{"serve.encode_us", "us"},
		metricDef{"serve.allocs_per_hit", "count"},
		metricDef{"serve.alloc_bytes_per_hit", "B"},
		metricDef{"serve.l1_hit_ratio", "ratio"},
		metricDef{"serve.l2_hit_ratio", "ratio"},
		metricDef{"serve.runs_total", "count"},
		metricDef{"serve.cold_misses", "count"},
		metricDef{"serve.hit_p50_us", "us"},
		metricDef{"serve.l2_p50_us", "us"},
		metricDef{"serve.estimate_p50_us", "us"},
		metricDef{"serve.estimate_hit_p50_us", "us"},
		metricDef{"serve.estimate_hit_ratio", "ratio"},
		metricDef{"serve.miss_p50_ms", "ms"},
		metricDef{"serve.upload_p50_us", "us"},
		metricDef{"serve.hit_tail_us", "us"},
		metricDef{"serve.hit_tail_pct", "%"},
		metricDef{"serve.hit_n", "count"},
		metricDef{"serve.l2_tail_us", "us"},
		metricDef{"serve.l2_tail_pct", "%"},
		metricDef{"serve.l2_n", "count"},
		metricDef{"serve.miss_tail_ms", "ms"},
		metricDef{"serve.miss_tail_pct", "%"},
		metricDef{"serve.miss_n", "count"},
		metricDef{"diskcache.get_us", "us"},
		metricDef{"diskcache.put_us", "us"},
		metricDef{"diskcache.open_ms", "ms"},
		metricDef{"gc.alloc_mb_per_pass", "MB"},
		metricDef{"gc.count_per_pass", "count"},
		metricDef{"peak_rss_mb", "MB"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
	return defs
}()

// ifaces are the pio client interfaces the ladder and the write-heavy
// replays exercise.
var ifaces = []string{"fortran", "passion", "native"}

// layers collects per-layer numbers during a traced run: exact values, and
// timing samples whose median is reported.
type layers struct {
	vals    map[string]float64
	samples map[string][]float64
}

func newLayers() *layers {
	return &layers{vals: make(map[string]float64), samples: make(map[string][]float64)}
}

// set records an exact value; a nil *layers (untraced run) drops it.
func (l *layers) set(name string, v float64) {
	if l != nil {
		l.vals[name] = v
	}
}

// add accumulates into an exact value.
func (l *layers) add(name string, v float64) {
	if l != nil {
		l.vals[name] += v
	}
}

// sample records one timing whose median becomes the metric.
func (l *layers) sample(name string, v float64) {
	if l != nil {
		l.samples[name] = append(l.samples[name], v)
	}
}

// addSnapshot sums a run's model counters.
func (l *layers) addSnapshot(s *sstats.Snapshot) {
	if l == nil || s == nil {
		return
	}
	for _, c := range s.Counters {
		switch c.Name {
		case "pio.prefetch_hits", "pio.prefetch_misses":
			l.vals[c.Name] += float64(c.Value)
		}
		for _, d := range snapshotCounters {
			if d.name == c.Name {
				l.vals[c.Name] += float64(c.Value)
			}
		}
	}
}

// result resolves every per-layer metric: sample medians, exact values,
// snapshot counters divided into per-pass figures, and 0 for layers the
// workload never called.
func (l *layers) result(passes int) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = l.vals[d.name]
	}
	for name, xs := range l.samples {
		out[name] = median(xs)
	}
	for _, d := range snapshotCounters {
		out[d.name] = l.vals[d.name] / float64(passes)
	}
	if h, m := l.vals["pio.prefetch_hits"], l.vals["pio.prefetch_misses"]; h+m > 0 {
		out["pio.prefetch_hit_ratio"] = h / (h + m)
	}
	return out
}

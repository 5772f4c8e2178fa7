package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// inputsFor renders every input the three workloads send in their first
// passes passes under seed.
func inputsFor(seed uint64, passes int) []byte {
	type all struct {
		Paper   [][]string
		Faulted []faultedRun
		Mix     [][]mixOp
	}
	var in all
	hot := mixHotOrder(seed, len(mixUniverse()))
	for p := -1; p < passes; p++ {
		in.Paper = append(in.Paper, paperOrder(seed, p))
		in.Mix = append(in.Mix, mixPass(seed, p, hot))
	}
	in.Faulted = faultedRuns(seed)
	b, err := json.Marshal(in)
	if err != nil {
		panic(err)
	}
	return b
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, b := inputsFor(7, 3), inputsFor(7, 3)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated two different input lists")
	}
	if bytes.Equal(a, inputsFor(8, 3)) {
		t.Fatal("two seeds generated the same input list")
	}
	// Each workload's inputs must move with the seed on its own, or a
	// workload would run the same inputs under every seed.
	if reflect.DeepEqual(paperOrder(7, 0), paperOrder(8, 0)) {
		t.Error("paper-quick order ignores the seed")
	}
	if reflect.DeepEqual(faultedRuns(7), faultedRuns(8)) {
		t.Error("faulted-replay plans ignore the seed")
	}
	hot := mixHotOrder(7, len(mixUniverse()))
	if reflect.DeepEqual(mixPass(7, 0, hot), mixPass(8, 0, hot)) {
		t.Error("serve-mix requests ignore the seed")
	}
	if reflect.DeepEqual(mixPass(7, 0, hot), mixPass(7, 1, hot)) {
		t.Error("serve-mix passes repeat one request list")
	}
}

func TestMixPassShape(t *testing.T) {
	ops := mixPass(3, 0, mixHotOrder(3, len(mixUniverse())))
	kinds := map[string]int{}
	for _, op := range ops {
		kinds[op.Kind]++
	}
	if len(ops) != mixRequests+mixTraces || kinds[opTrace] != mixTraces {
		t.Fatalf("pass has %d ops (%v), want %d with %d traces", len(ops), kinds, mixRequests+mixTraces, mixTraces)
	}
	for _, k := range []string{opRun, opAlias, opEstimate} {
		if kinds[k] == 0 {
			t.Errorf("pass sends no %s requests", k)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64((i*37)%100 + 1) // 1..100, shuffled
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %g, want 50.5", got)
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty samples must give 0")
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{10000, 99.9, true}, {9999, 99, true}, {1000, 99, true}, {999, 90, true}, {100, 90, true}, {99, 0, false}, {0, 0, false}} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(set string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s lists %d metrics, program prints %d", set, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, program prints %s %s", set, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/workload"
)

func TestPercentiles(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := s.percentile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(samples(nil).median()) {
		t.Error("empty median is not NaN")
	}
	var big samples
	for i := 1; i <= 1000; i++ {
		big = append(big, float64(i))
	}
	if n := big.beyond(99); n != 10 {
		t.Errorf("beyond(99) of 1..1000 = %d, want 10", n)
	}
	if d := big.describe("ms"); !strings.Contains(d, "n=1000") || !strings.Contains(d, "(10 beyond)") {
		t.Errorf("describe omits the sample counts: %q", d)
	}
}

func TestColdGridStratified(t *testing.T) {
	g := coldGrid()
	if !reflect.DeepEqual(g, coldGrid()) {
		t.Fatal("cold grid is not deterministic")
	}
	suites := map[string]int{}
	families := map[string]bool{}
	for _, w := range workload.Catalog() {
		for _, n := range g {
			if w.Name == n {
				suites[w.Suite]++
			}
		}
		families[w.Suite+"/"+family(w.Name)] = true
	}
	if len(g) != len(families) || len(suites) != 3 {
		t.Fatalf("grid %v: %d workloads over %d families, suites %v", g, len(g), len(families), suites)
	}
}

func TestSeededInputsRepeat(t *testing.T) {
	if !reflect.DeepEqual(warmGrid(7), warmGrid(7)) || reflect.DeepEqual(warmGrid(7), warmGrid(8)) {
		t.Error("warm grid order is not a function of the seed")
	}
	if len(warmGrid(1)) != 15 {
		t.Errorf("warm grid has %d workloads, want the 15 hpc-micro", len(warmGrid(1)))
	}
	grid := cells(warmGrid(3))
	a, b := simSequence(grid, 3, 0, 200), simSequence(grid, 3, 0, 200)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed and client gave different request sequences")
	}
	if reflect.DeepEqual(a, simSequence(grid, 3, 1, 200)) || reflect.DeepEqual(a, simSequence(grid, 4, 0, 200)) {
		t.Error("clients or seeds share a request sequence")
	}
}

func TestTraceGenerator(t *testing.T) {
	var a, b, c bytes.Buffer
	if err := writeTrace(&a, 5, 0); err != nil {
		t.Fatal(err)
	}
	_ = writeTrace(&b, 5, 0)
	_ = writeTrace(&c, 5, 1)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same seed and iteration gave different blobs")
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("successive iterations share a blob (and so a digest)")
	}
	idx, err := gpusim.IndexTraceStream(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumSMs != traceSMs || idx.TotalOps != traceSMs*traceOps {
		t.Errorf("index: %d SMs, %d ops", idx.NumSMs, idx.TotalOps)
	}
}

const pprofTop = `File: e2ebench.bin
Type: cpu
Duration: 10.2s, Total samples = 9.50s (93.14%)
Showing nodes accounting for 9.50s, 100% of 9.50s total
      flat  flat%   sum%        cum   cum%
     3.80s 40.00% 40.00%      4.00s 42.11%  repro/internal/gpusim/sim.go
     1.90s 20.00% 60.00%      1.90s 20.00%  repro/internal/gpusim/cache.go
     0.95s 10.00% 70.00%      0.95s 10.00%  repro/internal/gpusim/ring.go
     0.95s 10.00% 80.00%      0.95s 10.00%  encoding/json/encode.go
     0.95s 10.00% 90.00%      0.95s 10.00%  runtime/mgcmark.go
     0.48s  5.00% 95.00%      0.48s  5.00%  internal/runtime/syscall/asm_linux_amd64.s
     0.47s  5.00%   100%      0.47s  5.00%  runtime/proc.go
     0.00s  0.00%   100%      0.47s  5.00%  e2ebench.bin
`

func TestGroupTop(t *testing.T) {
	got, err := groupTop(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"gpusim_sim": 40, "gpusim_cache": 20, "gpusim_pool_ring": 10, "encoding_json": 10, "gc": 10, "syscall": 5, "runtime": 5}
	total := 0.0
	for g, v := range got {
		total += v
		if v != want[g] {
			t.Errorf("%s = %v, want %v", g, v, want[g])
		}
	}
	if total != 100 {
		t.Errorf("shares sum to %v", total)
	}
	if _, err := groupTop("no header here"); err == nil {
		t.Error("output without a header was accepted")
	}
}

func TestSpanAccounting(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	kids := []span{{Start: at(10), End: at(40)}, {Start: at(30), End: at(60)}, {Start: at(90), End: at(120)}}
	if got := self(parent, kids); got != 40*time.Millisecond {
		t.Errorf("self = %v, want 40ms", got)
	}
	m := newMatcher([]span{
		{Cell: "a", Start: at(5), End: at(50)},
		{Cell: "b", Start: at(6), End: at(50)},
		{Cell: "a", Start: at(7), End: at(50)},
	})
	first := m.children(span{Cell: "a", Start: at(0), End: at(100)}, false)
	second := m.children(span{Cell: "a", Start: at(0), End: at(100)}, false)
	if len(first) != 1 || len(second) != 1 || first[0].Start != at(5) || second[0].Start != at(7) {
		t.Errorf("matcher gave %v then %v", first, second)
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the metric
// definitions in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d defined, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: defined %v, BENCHMARK.json has %v", kind, i, d, got[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, %d implemented", len(spec.Workloads), len(workloads))
	}
}

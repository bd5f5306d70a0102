// Command e2ebench is the repository's end-to-end benchmark. It
// assembles the serving stack in-process from its public constructors
// (imtd shards and the imtgw gateway on loopback httptest servers, the
// client library, the experiment calls imtrepro -quick makes), drives
// one seeded workload against it, checks every output, and prints the
// result as one JSON line on stdout.
//
// Usage (from the repository root, via the build wrapper):
//
//	bash e2ebench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics. With --trace 1 the same work runs twice, untraced and then
// traced: the traced pass records spans around every layer's entry
// point and a CPU profile, and the run reports the per-layer metrics,
// writing a Perfetto-loadable span file and the profile under -out.
// See README.md for the workloads, the metrics and what moves them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// pass is what one execution of a workload measured.
type pass struct {
	// e2e and layer are the end-to-end and per-layer metrics by name.
	e2e   map[string]float64
	layer map[string]float64
	// exact are the simulated counts and result digests that must
	// repeat exactly for a given seed and run length.
	exact map[string]string
	// wall is the timed region's wall time, for the tracing overhead.
	wall time.Duration
	// report lines print to stderr after the run.
	report []string
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}, exact: map[string]string{}}
}

func (p *pass) reportf(format string, args ...any) {
	p.report = append(p.report, fmt.Sprintf(format, args...))
}

// bench carries one invocation's settings and its output checks.
type bench struct {
	workload string
	seed     int64
	seconds  int
	out      string
	work     string

	mu        sync.Mutex // guards the tallies below
	attempted int
	failed    int
	failures  []string
}

// op counts one attempted operation; a non-nil err counts it failed.
func (b *bench) op(err error) {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	if err != nil {
		b.fail(err.Error())
	}
}

// fail records a failed operation that was already counted attempted.
func (b *bench) fail(msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
}

// rounds sizes a run: as many rounds of nominal length as fit in the
// requested seconds, at least min. The round count depends only on the
// arguments, so every run of a seed does the same work and its exact
// counts repeat.
func (b *bench) rounds(nominal time.Duration, min int) int {
	n := int(math.Round(float64(b.seconds) * float64(time.Second) / float64(nominal)))
	if n < min {
		n = min
	}
	return n
}

type workloadFunc func(b *bench, spans *spanLog) (*pass, error)

var workloads = map[string]workloadFunc{
	"repro-quick": runReproQuick,
	"sweep-cold":  runSweepCold,
	"serve-warm":  runServeWarm,
	"ingest":      runIngest,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run; every workload reports
// each of them (README.md gives each workload's definition).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cells_per_s", "cells/s"},
	{"latency_ms_p50", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of the traced run. Every workload reports
// each of them; a layer that does no work in a workload reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"client.latency_ms_p99", "ms"},
		{"cluster.self_ms_per_req", "ms"},
		{"cluster.self_us_per_cell", "us"},
		{"cluster.shard_imbalance", "ratio"},
		{"cluster.rerouted", "count"},
		{"serve.self_ms_per_req", "ms"},
		{"serve.self_us_per_cell", "us"},
		{"serve.queue_wait_ms_mean", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.coalesce_hits", "count"},
		{"runner.sim_runs", "count"},
		{"runner.cell_ms_p50", "ms"},
		{"runner.cell_ms_p99", "ms"},
		{"runner.busy_us_per_cell", "us"},
		{"gpusim.warp_ops", "count"},
		{"gpusim.sim_cycles", "count"},
		{"gpusim.dram_tag_reads", "count"},
		{"gpusim.host_ns_per_warp_op", "ns"},
		{"gpusim.trace_decode_mb_per_s", "MB/s"},
		{"tracestore.put_ms_p50", "ms"},
		{"tracestore.bytes_written", "bytes"},
		{"jobs.submit_ms_p50", "ms"},
		{"jobs.first_frame_ms", "ms"},
		{"jobs.wal_bytes_per_cell", "bytes"},
	}
	for _, c := range reproCalls {
		defs = append(defs, metricDef{"experiments." + c.id + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"reliability.inj_per_s", "1/s"},
		metricDef{"obs.trace_events", "count"},
		metricDef{"obs.manifest_cells", "count"},
	)
	for _, g := range cpuGroups {
		defs = append(defs, metricDef{"cpu_share." + g.group, "%"})
	}
	return append(defs,
		metricDef{"cpu_share.other", "%"},
		metricDef{"span.unattributed_pct", "%"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

func main() {
	var (
		name    = flag.String("workload", "", "workload: repro-quick, sweep-cold, serve-warm or ingest")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed generates the same requests")
		seconds = flag.Int("seconds", 10, "approximate length of the timed region")
		trace   = flag.Int("trace", 0, "1 = also run traced and report per-layer metrics")
		out     = flag.String("out", ".bench_build/e2ebench", "directory for span files, profiles and the exact-count ledger")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{workload: *name, seed: *seed, seconds: *seconds, out: *out}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(b.out, "work-")
	if err != nil {
		fatal(err)
	}
	b.work = work
	defer os.RemoveAll(work)

	plain, err := run(b, nil)
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	exact := plain.exact
	metrics := map[string]any{}
	if *trace == 0 {
		b.fill(metrics, endToEnd, plain.e2e)
	} else {
		traced, err := b.traced(run)
		if err != nil {
			os.RemoveAll(work)
			fatal(err)
		}
		if diff := diffExact(plain.exact, traced.exact); diff != "" {
			b.fail("exact counts differ between the untraced and the traced pass: " + diff)
		}
		traced.layer["trace.overhead_pct"] = 100 * (traced.wall.Seconds()/plain.wall.Seconds() - 1)
		b.fill(metrics, perLayer, traced.layer)
		plain.report = append(plain.report, traced.report...)
	}
	if diff := b.checkLedger(exact); diff != "" {
		b.fail("exact counts differ from an earlier run of this seed: " + diff)
	}

	for _, line := range plain.report {
		fmt.Fprintln(os.Stderr, line)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED:", f)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d operations, %d failed (failed_ratio %.4g)\n",
		b.workload, b.seed, b.attempted, b.failed, ratio(float64(b.failed), float64(b.attempted)))
	line, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fill puts every defined metric into out, 0 where the pass measured
// nothing. A measured value the definitions lack, or a non-finite one,
// is a defect of the benchmark and fails the run.
func (b *bench) fill(out map[string]any, defs []metricDef, got map[string]float64) {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v := got[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail(fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for name := range got {
		if !known[name] {
			b.fail("metric " + name + " is not defined")
		}
	}
}

// traced runs the workload's traced pass: spans around every layer
// entry point, and a CPU profile over the same region.
func (b *bench) traced(run workloadFunc) (*pass, error) {
	prof := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.cpu.pprof", b.workload, b.seed))
	spans := &spanLog{profPath: prof}
	p, err := run(b, spans)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.trace.json", b.workload, b.seed))
	if err := spans.writePerfetto(tracePath); err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	for g, v := range shares {
		p.layer["cpu_share."+g] = v
	}
	p.reportf("traced pass: spans in %s (load in ui.perfetto.dev), CPU profile in %s", tracePath, prof)
	return p, nil
}

// heapLiveMB forces a collection and reports the live heap in MB. The
// second collection empties the sync.Pool victim caches the first one
// kept, so pooled buffers (HTTP, JSON) do not count as live.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// checkLedger compares this run's exact counts with the first run of the
// same workload, seed and length in this checkout (recorded under -out),
// and records them when there is none. It returns a description of the
// first difference, or "".
func (b *bench) checkLedger(exact map[string]string) string {
	dir := filepath.Join(b.out, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err.Error()
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds.json", b.workload, b.seed, b.seconds))
	if blob, err := os.ReadFile(path); err == nil {
		var prev map[string]string
		if err := json.Unmarshal(blob, &prev); err != nil {
			return "unreadable ledger " + path
		}
		return diffExact(prev, exact)
	}
	blob, err := json.MarshalIndent(exact, "", "  ")
	if err != nil {
		return err.Error()
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err.Error()
	}
	return ""
}

func diffExact(want, got map[string]string) string {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			return fmt.Sprintf("%s: %q then %q", k, want[k], got[k])
		}
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

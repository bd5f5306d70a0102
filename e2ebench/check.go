package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/workload"
)

// oracle runs cells in-process on a runner.Engine with no cache and
// returns each cell's simulated statistics: the ground truth every
// served result must equal.
func oracle(refs []apitypes.CellRef) (map[apitypes.CellRef]gpusim.Stats, error) {
	byName := map[string]workload.Workload{}
	for _, w := range workload.Catalog() {
		byName[w.Name] = w
	}
	jobs := make([]runner.Job, len(refs))
	for i, ref := range refs {
		w, ok := byName[ref.Workload]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown workload %q", ref.Workload)
		}
		mode, carve, err := gpusim.ParseTagMode(ref.Mode)
		if err != nil {
			return nil, err
		}
		jobs[i] = runner.Job{Workload: w, Mode: mode, Carve: carve}
	}
	return runOracle(jobs, refs)
}

// runOracle runs jobs on both cores and keys their statistics by refs.
func runOracle(jobs []runner.Job, refs []apitypes.CellRef) (map[apitypes.CellRef]gpusim.Stats, error) {
	results, err := runner.New(gpusim.DefaultConfig(), runner.Options{Workers: 2}).Run(context.Background(), jobs)
	if err == nil {
		err = runner.FirstError(results)
	}
	if err != nil {
		return nil, err
	}
	out := make(map[apitypes.CellRef]gpusim.Stats, len(refs))
	for i, ref := range refs {
		out[ref] = simulated(results[i].Stats)
	}
	return out, nil
}

// simulated is the part of Stats that canonical JSON encodes: host-side
// telemetry zeroed, and no samples as nil (encoded alike, omitted).
// Two values are equal field for field exactly when their canonical
// JSON encodings are byte-identical.
func simulated(st gpusim.Stats) gpusim.Stats {
	st = st.WithoutHost()
	if len(st.Samples) == 0 {
		st.Samples = nil
	}
	return st
}

// cellErr checks one served cell against the oracle.
func cellErr(c apitypes.CellResult, want map[apitypes.CellRef]gpusim.Stats) error {
	exp, ok := want[apitypes.CellRef{Workload: c.Workload, Mode: c.Mode}]
	switch {
	case c.Error != "":
		return fmt.Errorf("%s/%s: error line: %s", c.Workload, c.Mode, c.Error)
	case !ok:
		return fmt.Errorf("%s/%s: cell was not requested", c.Workload, c.Mode)
	case c.Stats == nil || !reflect.DeepEqual(simulated(*c.Stats), exp):
		return fmt.Errorf("%s/%s: served stats differ from the in-process run", c.Workload, c.Mode)
	}
	return nil
}

// verifier checks served cells as they arrive, so a run keeps no
// results in memory, and adds up what they simulated. Safe for
// concurrent clients.
type verifier struct {
	b    *bench
	want map[apitypes.CellRef]gpusim.Stats

	mu        sync.Mutex
	tot       simTotals
	delivered int
}

// cell counts one served cell as an operation, failed unless its
// statistics equal the oracle's.
func (v *verifier) cell(c apitypes.CellResult) {
	v.b.op(cellErr(c, v.want))
	v.mu.Lock()
	defer v.mu.Unlock()
	v.delivered++
	if !c.Cached {
		v.tot.add(c.Stats)
	}
}

// simTotals adds up the simulated counts of the cells a run actually
// simulated (cache hits excluded): exact for a given seed and length.
type simTotals struct {
	warpOps, cycles, tagReads uint64
}

func (t *simTotals) add(st *gpusim.Stats) {
	if st == nil {
		return
	}
	t.warpOps += st.WarpOps
	t.cycles += st.Cycles
	t.tagReads += st.DRAMTagReads
}

func (t simTotals) record(p *pass) {
	p.exact["gpusim.warp_ops"] = fmt.Sprint(t.warpOps)
	p.exact["gpusim.sim_cycles"] = fmt.Sprint(t.cycles)
	p.exact["gpusim.dram_tag_reads"] = fmt.Sprint(t.tagReads)
	p.layer["gpusim.warp_ops"] = float64(t.warpOps)
	p.layer["gpusim.sim_cycles"] = float64(t.cycles)
	p.layer["gpusim.dram_tag_reads"] = float64(t.tagReads)
}

// hubTotals reads the retained telemetry and runner counters of a set
// of obs hubs.
type hubTotals struct {
	simRuns       uint64
	traceEvents   int
	manifestCells int
	cells         [][]obs.Cell // per hub
	// queueWait sums serve_queue_wait_seconds. Its buckets start at
	// 1 ms, coarser than a warm wait, so the mean is reported.
	queueWaitSum   float64
	queueWaitCount uint64
}

func readHubs(hubs ...*obs.Hub) hubTotals {
	var t hubTotals
	for _, h := range hubs {
		snap := h.Metrics.Snapshot()
		t.simRuns += snap.Counters["runner_sim_runs_total"]
		t.traceEvents += h.Trace.Len()
		cells := h.Cells()
		t.manifestCells += len(cells)
		t.cells = append(t.cells, cells)
		qw := snap.Histograms["serve_queue_wait_seconds"]
		t.queueWaitSum += qw.Sum
		t.queueWaitCount += qw.Count
	}
	return t
}

// recordHubs reports what a timed region did to the hubs: simulator
// runs and per-cell runner timings between before and after, and the
// retained telemetry at the end.
func recordHubs(p *pass, before, after hubTotals) {
	simRuns := after.simRuns - before.simRuns
	p.exact["runner.sim_runs"] = fmt.Sprint(simRuns)
	p.exact["obs.trace_events"] = fmt.Sprint(after.traceEvents)
	p.exact["obs.manifest_cells"] = fmt.Sprint(after.manifestCells)
	p.layer["runner.sim_runs"] = float64(simRuns)
	p.layer["obs.trace_events"] = float64(after.traceEvents)
	p.layer["obs.manifest_cells"] = float64(after.manifestCells)

	var cellMs, nsPerOp samples
	for i, hubCells := range after.cells {
		for _, c := range hubCells[len(before.cells[i]):] {
			if c.Cached || c.Failed {
				continue
			}
			cellMs = append(cellMs, c.Millis)
			if c.NsPerOp > 0 {
				nsPerOp = append(nsPerOp, c.NsPerOp)
			}
		}
	}
	p.layer["runner.cell_ms_p50"] = zeroIfEmpty(cellMs, 50)
	p.layer["runner.cell_ms_p99"] = zeroIfEmpty(cellMs, 99)
	p.layer["gpusim.host_ns_per_warp_op"] = zeroIfEmpty(nsPerOp, 50)
	p.layer["serve.queue_wait_ms_mean"] = 1000 * ratio(after.queueWaitSum-before.queueWaitSum, float64(after.queueWaitCount-before.queueWaitCount))
}

func zeroIfEmpty(s samples, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s.percentile(p)
}

// digest hashes rendered results in order, for checks that a
// deterministic computation repeats.
func digest(parts ...string) string {
	h := sha256.New()
	for _, s := range parts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// setupN sets a system up repeatedly in fresh directories, keeping the
// last one and tearing the others down (directories included), and
// returns the median set-up time. It sets up at least nine times and
// for at least setupMin in total, so a set-up of a few milliseconds gets
// a steady median, but at most maxSetups times, and stops at three once
// setupMax is spent.
func setupN[T any](dir func(i int) string, start func(dir string) (T, error), stop func(T)) (T, float64, error) {
	const (
		setupMin  = 500 * time.Millisecond
		setupMax  = 2 * time.Second
		maxSetups = 500
	)
	var keep T
	var times samples
	for i := 0; ; i++ {
		t0 := time.Now()
		v, err := start(dir(i))
		if err != nil {
			return keep, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		n, spent := len(times), times.sum()
		if n >= maxSetups || (n >= 9 && spent >= setupMin.Seconds()) || (n >= 3 && spent >= setupMax.Seconds()) {
			return v, times.median(), nil
		}
		stop(v)
		if err := os.RemoveAll(dir(i)); err != nil {
			return keep, 0, err
		}
	}
}

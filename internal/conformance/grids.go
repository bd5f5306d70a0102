package conformance

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// simModesNamed returns the simModes with the given labels, in order.
func simModesNamed(labels ...string) []simMode {
	var out []simMode
	for _, l := range labels {
		for _, m := range simModes() {
			if m.Label == l {
				out = append(out, m)
			}
		}
	}
	return out
}

// reproQuickGrid is the workload axis of `imtrepro -quick`'s fig8 and
// bounds experiments: every 16th catalog workload (13 of 193).
func reproQuickGrid() []string {
	cat := workload.Catalog()
	var out []string
	for i := 0; i < len(cat); i += 16 {
		out = append(out, cat[i].Name)
	}
	return out
}

// sweepColdGrid is the end-to-end benchmark's sweep-cold grid: the
// middle catalog member of every (suite, family) stratum.
func sweepColdGrid() []string {
	return []string{
		"stream-copy-48MB", "stream-scale-48MB", "stream-add-48MB", "stream-triad-48MB",
		"mlperf-resnet50-l3", "mlperf-bert-l3", "mlperf-dlrm-l3", "mlperf-ssd-l3", "mlperf-rnnt-l3",
		"mlperf-unet3d-l3", "mlperf-gpt-l3", "mlperf-maskrcnn-l3", "mlperf-transformer-l3", "mlperf-minigo-l3",
		"hpc-stencil15", "sla-spmv17", "md-neigh12", "graph-bfs10", "hpc-micro7",
	}
}

// gridCell pins a grid's simulated results: for every workload × mode
// it records the SHA-256 of the canonical JSON of the cell's
// Stats.WithoutHost(), keyed "workload/mode". It runs the cells on the
// experiment engine, as the experiments and the shards do, with one
// worker per processor and no cache. A digest is all-or-nothing by
// design: the sim-* cells name the metric that moved, these name the
// cell.
func gridCell(name, about string, workloads []string, modes []simMode) Cell {
	return Cell{
		Name:  name,
		About: about,
		Run: func() (any, error) {
			var jobs []runner.Job
			var labels []string
			for _, wname := range workloads {
				w, err := workloadByName(wname)
				if err != nil {
					return nil, err
				}
				for _, m := range modes {
					jobs = append(jobs, runner.Job{Workload: w, Mode: m.Mode, Carve: m.Carve})
					labels = append(labels, wname+"/"+m.Label)
				}
			}
			results, err := runner.New(gpusim.DefaultConfig(), runner.Options{}).Run(context.Background(), jobs)
			if err == nil {
				err = runner.FirstError(results)
			}
			if err != nil {
				return nil, err
			}
			out := make(map[string]string, len(results))
			for i, r := range results {
				b, err := CanonicalJSON(r.Stats.WithoutHost())
				if err != nil {
					return nil, fmt.Errorf("%s: %w", labels[i], err)
				}
				sum := sha256.Sum256(b)
				out[labels[i]] = hex.EncodeToString(sum[:])
			}
			return out, nil
		},
	}
}

// reproQuickGridCell pins the simulations behind repro-quick's fig8 and
// bounds tables.
func reproQuickGridCell() Cell {
	return gridCell("grid-repro-quick", "per-cell Stats digests of repro-quick's fig8+bounds grid (13 stride-16 workloads × none, carve-low, carve-high, bounds-table)",
		reproQuickGrid(), simModesNamed("none", "carve-low", "carve-high", "bounds-table"))
}

// sweepColdGridCell pins the simulations the end-to-end benchmark's
// sweep-cold workload serves, one cell per Canonical mode class (imt
// simulates as none).
func sweepColdGridCell() Cell {
	return gridCell("grid-sweep-cold", "per-cell Stats digests of e2ebench's sweep-cold grid (19 strata × none, carve-low, carve-high)",
		sweepColdGrid(), simModesNamed("none", "carve-low", "carve-high"))
}

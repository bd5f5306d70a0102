package experiments

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/workload"
)

// SweepMode is one named tagging configuration of a Sweep.
type SweepMode struct {
	Name  string
	Mode  gpusim.TagMode
	Carve gpusim.CarveOut
}

// ParseSweepModes resolves mode names (see gpusim.ParseTagMode) into
// sweep configurations, rejecting duplicates.
func ParseSweepModes(names []string) ([]SweepMode, error) {
	var out []SweepMode
	seen := map[string]bool{}
	for _, name := range names {
		mode, carve, err := gpusim.ParseTagMode(name)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate sweep mode %q", name)
		}
		seen[name] = true
		out = append(out, SweepMode{Name: name, Mode: mode, Carve: carve})
	}
	return out, nil
}

// SweepPerf is one workload's measurements across a sweep's modes.
type SweepPerf struct {
	W    workload.Workload
	Base gpusim.Stats
	// Stats and Slowdowns are index-aligned with the sweep's modes.
	Stats     []gpusim.Stats
	Slowdowns []float64
}

// SweepResult generalizes Fig8 to an arbitrary mode set: every selected
// catalog workload simulated under the untagged baseline plus each
// requested mode, on the parallel experiment engine.
type SweepResult struct {
	Modes  []SweepMode
	Per    []SweepPerf
	GPU    gpusim.Config
	Runner runner.Counters
}

// Sweep runs the (workload × mode) matrix. Slowdowns are measured
// against the untagged baseline. When a requested mode simulates as
// that baseline (none, imt, ecc-steal: gpusim.Config.Canonical), its
// column is the baseline; otherwise the baseline is one extra cell per
// workload.
func Sweep(opts Options, modes []SweepMode) (SweepResult, error) {
	opts = opts.fill()
	if len(modes) == 0 {
		return SweepResult{}, fmt.Errorf("sweep: no modes requested")
	}
	// Indices among a workload's jobs: first is the first requested
	// mode's, baseCol the baseline's.
	first, baseCol := 1, 0
	for m, mode := range modes {
		if (gpusim.Config{Mode: mode.Mode, Carve: mode.Carve}).Canonical().Mode == gpusim.ModeNone {
			first, baseCol = 0, m
			break
		}
	}
	selected := strideSelect(opts.WorkloadStride)
	width := first + len(modes)
	jobs := make([]runner.Job, 0, width*len(selected))
	for _, w := range selected {
		if first == 1 {
			jobs = append(jobs, runner.Job{Workload: w, Mode: gpusim.ModeNone})
		}
		for _, m := range modes {
			jobs = append(jobs, runner.Job{Workload: w, Mode: m.Mode, Carve: m.Carve})
		}
	}
	res := SweepResult{Modes: modes, GPU: opts.GPU, Per: make([]SweepPerf, len(selected))}
	results, counters, err := runSweep(opts, jobs)
	res.Runner = counters
	if err != nil {
		return res, err
	}
	for i, w := range selected {
		row := results[width*i : width*(i+1)]
		p := SweepPerf{
			W:         w,
			Base:      row[baseCol].Stats.WithoutHost(),
			Stats:     make([]gpusim.Stats, len(modes)),
			Slowdowns: make([]float64, len(modes)),
		}
		for m := range modes {
			p.Stats[m] = row[first+m].Stats.WithoutHost()
			p.Slowdowns[m] = gpusim.Slowdown(p.Base, p.Stats[m])
		}
		res.Per[i] = p
	}
	return res, nil
}

// Table renders per-suite hmean/max slowdowns, one row per (suite, mode).
func (r SweepResult) Table() report.Table {
	t := report.Table{
		Title:  "custom sweep: slowdown vs untagged baseline by suite and mode",
		Header: []string{"suite", "n", "mode", "hmean slowdown", "max slowdown"},
	}
	perSuite := map[string][]SweepPerf{}
	for _, p := range r.Per {
		perSuite[p.W.Suite] = append(perSuite[p.W.Suite], p)
	}
	for _, suite := range workload.Suites() {
		ps := perSuite[suite]
		if len(ps) == 0 {
			continue
		}
		for m, mode := range r.Modes {
			var slows []float64
			for _, p := range ps {
				slows = append(slows, p.Slowdowns[m])
			}
			t.AddRow(suite, fmt.Sprint(len(ps)), mode.Name,
				report.Pct(report.HMeanSlowdown(slows), 2), report.Pct(report.Max(slows), 1))
		}
	}
	return t
}

// PerWorkloadTable renders one row per workload with every mode's slowdown.
func (r SweepResult) PerWorkloadTable() report.Table {
	header := []string{"#", "workload", "suite"}
	for _, m := range r.Modes {
		header = append(header, m.Name)
	}
	t := report.Table{Title: "custom sweep: per-workload slowdowns", Header: header}
	for i, p := range r.Per {
		row := []string{fmt.Sprint(i + 1), p.W.Name, p.W.Suite}
		for m := range r.Modes {
			row = append(row, report.Pct(p.Slowdowns[m], 1))
		}
		t.AddRow(row...)
	}
	return t
}

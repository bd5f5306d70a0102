package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// reproCall is one experiment call of `imtrepro -quick`, in the order
// the command makes them; run returns the rendered tables.
type reproCall struct {
	id  string
	run func(opts experiments.Options, st *reproState) (string, error)
}

// reproState carries what one sequence's calls hand to each other and
// to the metrics.
type reproState struct {
	fig8      *experiments.Fig8Result
	simCells  uint64
	injTrials uint64
	tot       *simTotals
}

func render(tables ...report.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.Render())
	}
	return sb.String()
}

func countTrials(r experiments.Fig9Result) uint64 {
	var n uint64
	for _, pt := range r.Points {
		n += pt.RandomTrials
	}
	return n
}

var reproCalls = []reproCall{
	{"fig1", func(experiments.Options, *reproState) (string, error) {
		r, err := experiments.Fig1()
		return render(r.Table()), err
	}},
	{"fig5", func(experiments.Options, *reproState) (string, error) {
		r, err := experiments.Fig5()
		return render(r.Table()), err
	}},
	{"fig9", func(o experiments.Options, st *reproState) (string, error) {
		r, err := experiments.Fig9(o)
		st.injTrials += countTrials(r)
		return render(r.Table()), err
	}},
	{"fig9ci", func(o experiments.Options, st *reproState) (string, error) {
		r, err := experiments.Fig9CI(o)
		st.injTrials += countTrials(r)
		return render(r.CITable()), err
	}},
	{"table2", func(o experiments.Options, _ *reproState) (string, error) {
		r, err := experiments.Table2(o)
		return render(r.Tables()...), err
	}},
	{"table3", func(experiments.Options, *reproState) (string, error) {
		r, err := experiments.Table3()
		return render(r.Table()), err
	}},
	{"bloat", func(experiments.Options, *reproState) (string, error) {
		return render(experiments.Bloat().Table()), nil
	}},
	{"security", func(o experiments.Options, _ *reproState) (string, error) {
		r, err := experiments.Security(o)
		return render(r.Table()), err
	}},
	{"stealing", func(o experiments.Options, _ *reproState) (string, error) {
		rows, err := experiments.StealingRisk(o)
		return fmt.Sprint(rows), err
	}},
	{"extsymbol", func(o experiments.Options, _ *reproState) (string, error) {
		r, err := experiments.ExtSymbol(o)
		return render(r.Table()), err
	}},
	{"extalloc", func(o experiments.Options, _ *reproState) (string, error) {
		r, err := experiments.ExtAlloc(o)
		return render(r.Table()), err
	}},
	{"extva57", func(o experiments.Options, _ *reproState) (string, error) {
		r, err := experiments.ExtVA57(o)
		return render(r.Table()), err
	}},
	{"extcpu", func(o experiments.Options, _ *reproState) (string, error) {
		r, err := experiments.ExtCPU(o)
		return render(r.Table()), err
	}},
	{"fig8", func(o experiments.Options, st *reproState) (string, error) {
		r, err := experiments.Fig8(o)
		st.fig8 = &r
		st.simCells += r.Runner.SimRuns
		for i := range r.Per {
			st.tot.add(&r.Per[i].Base)
			st.tot.add(&r.Per[i].Low)
			st.tot.add(&r.Per[i].High)
		}
		return render(r.SuiteTable(), r.PerWorkloadTable(), r.AnalysisTable()), err
	}},
	{"table1", func(o experiments.Options, st *reproState) (string, error) {
		r, err := experiments.Table1(o, st.fig8)
		return render(r.Table()), err
	}},
	{"bounds", func(o experiments.Options, st *reproState) (string, error) {
		r, err := experiments.Bounds(o)
		st.simCells += r.Runner.SimRuns
		return render(r.Table()), err
	}},
}

// reproOptions are the options `imtrepro -quick` runs with, on nproc
// workers, reporting into hub. The seed drives the Monte-Carlo
// campaigns.
func reproOptions(seed int64, hub *obs.Hub) experiments.Options {
	opts := experiments.Quick()
	opts.Parallelism = runtime.NumCPU()
	opts.Seed = seed
	opts.Obs = hub
	return opts
}

// runReproQuick runs the experiment sequence of `imtrepro -quick`
// in-process, whole, once per round. It has no HTTP: it is the only
// workload in which reliability and ecc/bitslice do work.
func runReproQuick(b *bench, spans *spanLog) (*pass, error) {
	p := newPass()
	// Set-up is what imtrepro does in-process before its first
	// experiment: options, telemetry hub, and the workload catalog the
	// sweeps select from.
	_, setup, err := setupN(
		func(i int) string { return filepath.Join(b.work, fmt.Sprintf("%s-setup%d", passTag(spans), i)) },
		func(string) (int, error) {
			_ = reproOptions(b.seed, obs.NewHub())
			return len(workload.Catalog()), nil
		},
		func(int) {})
	if err != nil {
		return nil, err
	}
	p.e2e["setup_s"] = setup

	rounds := b.rounds(5*time.Second, 3)
	callTimes := map[string]samples{}
	var walls, cellRates, callMean, calls samples
	var inj samples
	var hashes []string
	var last *obs.Hub
	var tot simTotals
	var simRuns uint64
	stop, err := spans.profile()
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		hub := obs.NewHub()
		spans.addHub(layerExperiments, hub, time.Now())
		opts := reproOptions(b.seed, hub)
		st := &reproState{tot: &tot}
		var outputs []string
		var simTime, injTime time.Duration
		t0 := time.Now()
		for _, c := range reproCalls {
			tc := time.Now()
			var text string
			err := spans.time(layerExperiments, c.id, "", func() error {
				var err error
				text, err = c.run(opts, st)
				return err
			})
			el := time.Since(tc)
			b.op(err)
			outputs = append(outputs, c.id, text)
			callTimes[c.id] = append(callTimes[c.id], el.Seconds())
			calls = append(calls, ms(el))
			switch c.id {
			case "fig8", "bounds":
				simTime += el
			case "fig9", "fig9ci":
				injTime += el
			}
		}
		wall := time.Since(t0)
		p.wall += wall
		walls = append(walls, wall.Seconds())
		callMean = append(callMean, ms(wall)/float64(len(reproCalls)))
		cellRates = append(cellRates, float64(st.simCells)/simTime.Seconds())
		inj = append(inj, float64(st.injTrials)/injTime.Seconds())
		hashes = append(hashes, digest(outputs...))
		simRuns += readHubs(hub).simRuns
		last = hub
	}
	stop()

	for i, h := range hashes {
		if h != hashes[0] {
			b.fail(fmt.Sprintf("repro-quick round %d results hash %s, round 0 hashed %s", i, h, hashes[0]))
		}
	}
	p.exact["experiments.results_digest"] = hashes[0]
	tot.record(p)
	recordHubs(p, hubTotals{cells: [][]obs.Cell{nil}}, readHubs(last))
	p.exact["runner.sim_runs"] = fmt.Sprint(simRuns)
	p.layer["runner.sim_runs"] = float64(simRuns)
	for id, ts := range callTimes {
		p.layer["experiments."+id+"_s"] = ts.median()
	}
	p.layer["reliability.inj_per_s"] = inj.median()
	p.e2e["wall_s"] = walls.median()
	p.e2e["cells_per_s"] = cellRates.median()
	// The per-call median falls between extcpu (~45 ms) and security
	// (~70 ms) and flips between them from run to run, so the reported
	// latency is the mean call of each sequence, median over rounds.
	p.e2e["latency_ms_p50"] = callMean.median()
	p.layer["client.latency_ms_p99"] = calls.percentile(99)
	p.e2e["heap_live_mb"] = heapLiveMB()
	p.reportf("repro-quick: %d rounds: repro_quick_s %.4g s (median; per round %v), results digest %s",
		len(walls), walls.median(), roundAll(walls), hashes[0])
	p.reportf("repro-quick: experiment calls %s", calls.describe("ms"))
	return p, nil
}

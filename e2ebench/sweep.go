package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve/apitypes"
)

// setupRepeats is how many times each run sets its system up; setup_s
// is the median.
const setupRepeats = 5

// gatewayFleet sets up fleets of two shards behind a gateway (see
// setupN), running warm (when non-nil) against each, and keeps the last.
func (b *bench) gatewayFleet(spans *spanLog, tag string, warm func(*fleet) error) (*fleet, float64, error) {
	return setupN(
		func(i int) string { return filepath.Join(b.work, fmt.Sprintf("%s-setup%d", tag, i)) },
		func(dir string) (*fleet, error) {
			f, err := startFleet(dir, fleetOpts{shards: 2, gateway: true}, spans)
			if err != nil || warm == nil {
				return f, err
			}
			if err := warm(f); err != nil {
				f.close()
				return nil, err
			}
			return f, nil
		},
		(*fleet).close)
}

// sweepRound is one streamed sweep as the client saw it.
type sweepRound struct {
	wall  time.Duration
	cells int
	// arrivals are the times from the request to each cell's line.
	arrivals []float64
}

// streamSweep runs one /v1/sweep through the fleet's client inside a
// client span, checking each cell as it arrives.
func (v *verifier) streamSweep(f *fleet, spans *spanLog, req apitypes.SweepRequest) sweepRound {
	var r sweepRound
	t0 := time.Now()
	err := spans.time(layerClient, "sweep", "", func() error {
		_, err := f.client.Sweep(context.Background(), req, func(c apitypes.CellResult) error {
			r.arrivals = append(r.arrivals, ms(time.Since(t0)))
			r.cells++
			v.cell(c)
			return nil
		})
		return err
	})
	r.wall = time.Since(t0)
	v.b.op(err)
	if r.cells != len(v.want) {
		v.b.fail(fmt.Sprintf("sweep delivered %d cells, want %d", r.cells, len(v.want)))
	}
	return r
}

// runSweepCold streams cold sweeps of a seeded, stratified grid through
// the gateway. Every shard cache is emptied before each sweep, outside
// the timed region, so every cell is simulated and its result written.
func runSweepCold(b *bench, spans *spanLog) (*pass, error) {
	p := newPass()
	names := coldGrid()
	req := apitypes.SweepRequest{Workloads: names, Modes: gridModes}
	f, setup, err := b.gatewayFleet(spans, passTag(spans), nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	p.e2e["setup_s"] = setup

	want, err := oracle(cells(names))
	if err != nil {
		return nil, err
	}
	v := &verifier{b: b, want: want}
	rounds := b.rounds(4500*time.Millisecond, 3)
	before := readHubs(f.hubs()...)
	statsBefore := f.shardStats()
	stop, err := spans.profile()
	if err != nil {
		return nil, err
	}
	var walls, rates, arrivals samples
	for i := 0; i < rounds; i++ {
		if err := f.emptyCaches(); err != nil {
			stop()
			return nil, err
		}
		r := v.streamSweep(f, spans, req)
		p.wall += r.wall
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.cells)/r.wall.Seconds())
		arrivals = append(arrivals, r.arrivals...)
	}
	stop()
	after := readHubs(f.hubs()...)
	statsAfter := f.shardStats()

	v.tot.record(p)
	recordHubs(p, before, after)
	recordServe(p, f, statsBefore, statsAfter, v.delivered)
	if spans != nil {
		sweepAccounting(p, spans, f, v.delivered)
	}
	p.e2e["wall_s"] = walls.median()
	p.e2e["cells_per_s"] = rates.median()
	p.e2e["latency_ms_p50"] = arrivals.median()
	p.layer["client.latency_ms_p99"] = arrivals.percentile(99)
	p.e2e["heap_live_mb"] = heapLiveMB()
	p.reportf("sweep-cold: %d sweeps of %d cells (%d workloads × %d modes): sweep_cells_per_s %.4g cells/s (median; per sweep %v)",
		len(walls), len(want), len(names), len(gridModes), rates.median(), roundAll(rates))
	p.reportf("sweep-cold: per-cell delivery latency %s", arrivals.describe("ms"))
	return p, nil
}

// warmSimsPerSecond is the number of /v1/sim requests the two
// closed-loop clients send per second of run length, and
// warmSweepsPerSecond the number of warm sweeps streamed. The timed
// region alternates warmBlocks blocks of each, so both medians sample
// the whole run rather than one end of it.
const (
	warmSimsPerSecond   = 2000
	warmSweepsPerSecond = 80
	warmBlocks          = 15
)

// runServeWarm serves cached cells only. Set-up warms every shard cache
// with the grid; the timed region alternates two closed-loop clients
// sending /v1/sim for seeded-random grid cells with one client
// streaming warm sweeps of the same grid.
//
// The timed region runs Go code on one processor (GOMAXPROCS 1). Nothing
// is simulated, so the cost is the CPU time each request takes in the
// client, the gateway and the shards; with two processors a warm sweep
// also measured how much of the shared host's second vCPU the scheduler
// happened to grant, which moved the sweep rate by 13-28% between runs.
func runServeWarm(b *bench, spans *spanLog) (*pass, error) {
	p := newPass()
	names := warmGrid(b.seed)
	grid := cells(names)
	req := apitypes.SweepRequest{Workloads: names, Modes: gridModes}
	f, setup, err := b.gatewayFleet(spans, passTag(spans), func(f *fleet) error {
		_, err := f.client.Sweep(context.Background(), req, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	p.e2e["setup_s"] = setup

	want, err := oracle(grid)
	if err != nil {
		return nil, err
	}
	v := &verifier{b: b, want: want}
	perClient := warmSimsPerSecond * b.seconds / 2
	nSweeps := warmSweepsPerSecond * b.seconds
	const clients = 2
	seqs := make([][]apitypes.CellRef, clients)
	latencies := make([]samples, clients)
	for c := range seqs {
		seqs[c] = simSequence(grid, b.seed, c, perClient)
		latencies[c] = make(samples, 0, perClient)
	}
	// block returns the [lo, hi) share of n items that block i runs.
	block := func(i, n int) (int, int) { return i * n / warmBlocks, (i + 1) * n / warmBlocks }
	sims := func(i int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lo, hi := block(i, perClient)
				for _, ref := range seqs[c][lo:hi] {
					ts := time.Now()
					var res apitypes.CellResult
					err := spans.time(layerClient, "sim", ref.Workload+"/"+ref.Mode, func() error {
						var err error
						res, err = f.client.Sim(context.Background(), apitypes.SimRequest{Workload: ref.Workload, Mode: ref.Mode})
						return err
					})
					if err != nil {
						b.op(err)
						continue
					}
					latencies[c] = append(latencies[c], ms(time.Since(ts)))
					v.cell(res)
				}
			}(c)
		}
		wg.Wait()
	}

	before := readHubs(f.hubs()...)
	statsBefore := f.shardStats()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stop, err := spans.profile()
	if err != nil {
		return nil, err
	}
	var simWall time.Duration
	var walls, rates samples
	t0 := time.Now()
	for i := 0; i < warmBlocks; i++ {
		ts := time.Now()
		sims(i)
		simWall += time.Since(ts)
		lo, hi := block(i, nSweeps)
		for j := lo; j < hi; j++ {
			r := v.streamSweep(f, spans, req)
			walls = append(walls, r.wall.Seconds())
			rates = append(rates, float64(r.cells)/r.wall.Seconds())
		}
	}
	p.wall = time.Since(t0)
	stop()
	after := readHubs(f.hubs()...)
	statsAfter := f.shardStats()

	latency := append(latencies[0], latencies[1]...)
	v.tot.record(p)
	recordHubs(p, before, after)
	recordServe(p, f, statsBefore, statsAfter, v.delivered)
	if spans != nil {
		sweepAccounting(p, spans, f, v.delivered)
	}
	reqPerS := float64(len(latency)) / simWall.Seconds()
	p.e2e["wall_s"] = walls.median()
	p.e2e["cells_per_s"] = rates.median()
	p.e2e["latency_ms_p50"] = latency.median()
	p.layer["client.latency_ms_p99"] = latency.percentile(99)
	p.e2e["heap_live_mb"] = heapLiveMB()
	p.reportf("serve-warm: sim_latency_ms %s; sim_req_per_s %.5g req/s with %d closed-loop clients",
		latency.describe("ms"), reqPerS, clients)
	p.reportf("serve-warm: %d warm sweeps of %d cells: sweep_cells_per_s %.5g cells/s (median)", len(walls), len(grid), rates.median())
	return p, nil
}

// shardStats sums the shards' activity counters.
func (f *fleet) shardStats() apitypes.StatsSnapshot {
	var t apitypes.StatsSnapshot
	for _, sh := range f.shards {
		s := sh.srv.Stats()
		t.CacheHits += s.CacheHits
		t.CoalesceHits += s.CoalesceHits
	}
	return t
}

// recordServe reports the serve- and cluster-layer counters of a timed
// region that delivered cells.
func recordServe(p *pass, f *fleet, before, after apitypes.StatsSnapshot, delivered int) {
	p.layer["serve.coalesce_hits"] = float64(after.CoalesceHits - before.CoalesceHits)
	p.layer["serve.cache_hit_ratio"] = ratio(float64(after.CacheHits-before.CacheHits), float64(delivered))
	if f.gw != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		gs := f.gw.Stats(ctx)
		cancel()
		if gs.Gateway != nil {
			p.layer["cluster.rerouted"] = float64(gs.Gateway.Rerouted)
		}
	}
}

// sweepAccounting splits client-observed time into layer self times
// from the traced pass's spans: client → gateway handler → shard
// handlers → runner cells. Each span's self time is its duration minus
// the part of its interval its children cover; what the client saw
// outside any server-side span is reported as unattributed.
func sweepAccounting(p *pass, spans *spanLog, f *fleet, delivered int) {
	// Only API calls are matched: the gateway's background health
	// probes also reach the shards, but no client caused them.
	gw := newMatcher(spans.of(layerGateway, "POST "))
	shardM := make([]*matcher, len(f.shards))
	runnerM := make([]*matcher, len(f.shards))
	for i, sh := range f.shards {
		shardM[i] = newMatcher(spans.of(sh.name, "POST "))
		runnerM[i] = newMatcher(spans.runnerSpans(sh.name))
	}
	var clientT, clientSelf, gwSelfSweep, shardSelfSweep, runnerT time.Duration
	var gwSelfSim, shardSelfSim time.Duration
	var sims int
	var imbalance samples
	for _, c := range spans.of(layerClient, "") {
		clientT += c.dur()
		gs := gw.children(c, false)
		clientSelf += self(c, gs)
		for _, g := range gs {
			var shardSpans []span
			var shardDur []float64
			var shardSelf time.Duration
			for i := range f.shards {
				for _, s := range shardM[i].children(g, c.Cell == "") {
					rs := runnerM[i].children(s, true)
					for _, r := range rs {
						runnerT += r.dur()
					}
					shardSelf += self(s, rs)
					shardSpans = append(shardSpans, s)
					shardDur = append(shardDur, s.dur().Seconds())
				}
			}
			if c.Cell != "" {
				sims++
				gwSelfSim += self(g, shardSpans)
				shardSelfSim += shardSelf
				continue
			}
			gwSelfSweep += self(g, shardSpans)
			shardSelfSweep += shardSelf
			if len(shardDur) > 1 {
				s := samples(shardDur)
				imbalance = append(imbalance, s.percentile(100)/s.mean())
			}
		}
	}
	sweepCells := delivered - sims
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/float64(time.Microsecond), float64(n)) }
	p.layer["cluster.self_ms_per_req"] = ratio(ms(gwSelfSim), float64(sims))
	p.layer["serve.self_ms_per_req"] = ratio(ms(shardSelfSim), float64(sims))
	p.layer["cluster.self_us_per_cell"] = us(gwSelfSweep, sweepCells)
	p.layer["serve.self_us_per_cell"] = us(shardSelfSweep, sweepCells)
	p.layer["runner.busy_us_per_cell"] = us(runnerT, delivered)
	p.layer["cluster.shard_imbalance"] = zeroIfEmpty(imbalance, 50)
	p.layer["span.unattributed_pct"] = 100 * ratio(float64(clientSelf), float64(clientT))
	p.reportf("span accounting: of %.4gs client-observed time, %.2f%% lies outside every server-side span (client library, HTTP transport); gateway self %.4gs, shard self %.4gs, runner %.4gs",
		clientT.Seconds(), p.layer["span.unattributed_pct"], (gwSelfSim + gwSelfSweep).Seconds(), (shardSelfSim + shardSelfSweep).Seconds(), runnerT.Seconds())
}

// passTag names a pass's working directories.
func passTag(spans *spanLog) string {
	if spans == nil {
		return "plain"
	}
	return "traced"
}

func roundAll(s samples) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = fmt.Sprintf("%.4g", v)
	}
	return out
}

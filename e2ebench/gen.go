package main

import (
	"io"
	"math/rand"
	"strings"

	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
	"repro/internal/workload"
)

// gridModes is the mode axis of every served grid: the untagged
// baseline, the paper's IMT and the two carve-out geometries it is
// compared against.
var gridModes = []string{"none", "imt", "carve-low", "carve-high"}

// family strips a catalog name's instance suffix ("sla-spmv28" →
// "sla-spmv", "mlperf-ssd-l4" → "mlperf-ssd", "stream-add-16MB" →
// "stream-add"). Members of one family share an access pattern and cost
// within about ±20%; across families cell cost differs up to 20×.
func family(name string) string {
	f := strings.TrimRight(name, "0123456789MB")
	f = strings.TrimSuffix(f, "-l")
	return strings.TrimSuffix(f, "-")
}

// coldGrid is sweep-cold's grid: one workload per (suite, family)
// stratum (the middle member of each family), so it spans STREAM,
// MLPerf and HPC+SLA in catalog proportion at a fixed simulation cost.
// It takes no seed. The gateway places cells by hashing their cache
// keys, and with two shards a seed-chosen membership or order swings the
// slowest shard's load, sweep time and per-cell arrival times by ±20%
// from seed to seed, which would swamp any regression bound.
func coldGrid() []string {
	strata := map[string][]string{}
	var keys []string
	for _, w := range workload.Catalog() {
		k := w.Suite + "/" + family(w.Name)
		if strata[k] == nil {
			keys = append(keys, k)
		}
		strata[k] = append(strata[k], w.Name)
	}
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		members := strata[k]
		out = append(out, members[len(members)/2])
	}
	return out
}

// warmGrid is serve-warm's grid: the hpc-micro family, the cheapest
// cells in the catalog, in seed order. A cached cell costs the same to
// serve whatever it simulated, so cheap cells keep the warm-up short
// without changing what is measured.
func warmGrid(seed int64) []string {
	var micro []string
	for _, w := range workload.Catalog() {
		if family(w.Name) == "hpc-micro" {
			micro = append(micro, w.Name)
		}
	}
	return shuffled(micro, seed)
}

func shuffled(names []string, seed int64) []string {
	out := append([]string(nil), names...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// cells expands a workload list over gridModes in grid order.
func cells(names []string) []apitypes.CellRef {
	out := make([]apitypes.CellRef, 0, len(names)*len(gridModes))
	for _, n := range names {
		for _, m := range gridModes {
			out = append(out, apitypes.CellRef{Workload: n, Mode: m})
		}
	}
	return out
}

// simSequence is one closed-loop client's request order: n cells drawn
// uniformly from the grid by a per-client stream of the seed.
func simSequence(grid []apitypes.CellRef, seed int64, clientID, n int) []apitypes.CellRef {
	rng := rand.New(rand.NewSource(seed*7919 + int64(clientID)))
	out := make([]apitypes.CellRef, n)
	for i := range out {
		out[i] = grid[rng.Intn(len(grid))]
	}
	return out
}

// Ingest traces: traceSMs SMs of traceOps warp ops each, every op a
// 4-sector warp access inside a 16 KiB per-SM window, so the working
// set stays resident in L1 and replay cost is dominated by decoding
// the blob rather than by the memory system.
const (
	traceSMs    = 4
	traceOps    = 12000
	traceWindow = 16 << 10
)

// writeTrace encodes ingest iteration iter of a seed as an IMTTRC
// stream. Each (seed, iter) pair gives a distinct blob, so every upload
// has a new digest and every tracestore Put writes.
func writeTrace(w io.Writer, seed int64, iter int) error {
	enc, err := gpusim.NewTraceEncoder(w, traceSMs)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(iter)))
	addrs := make([]uint64, 4)
	for sm := 0; sm < traceSMs; sm++ {
		if err := enc.BeginSM(traceOps); err != nil {
			return err
		}
		base := uint64(sm+1) << 24
		for i := 0; i < traceOps; i++ {
			off := uint64(rng.Intn(traceWindow/128)) * 128
			for t := range addrs {
				addrs[t] = base + off + uint64(t)*32
			}
			op := gpusim.WarpOp{Addrs: addrs, Compute: 1 + rng.Intn(4), Store: rng.Intn(4) == 0}
			if err := enc.WriteOp(op); err != nil {
				return err
			}
		}
	}
	return enc.Close()
}

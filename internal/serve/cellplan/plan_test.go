package cellplan

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

func newPlan(maxCells int) *Plan {
	return New(Options{Config: gpusim.DefaultConfig(), MaxCells: maxCells})
}

// TestSampledCellKeysPinned pins the cache keys of sampled cells to
// fixed bytes. A change to them turns every warm cache entry for a
// sampled cell cold and routes those cells to different shards. imt
// and ecc-steal simulate exactly as none does, so they carry none's key
// (gpusim.Config.Canonical); every other mode's key is the one it had
// before keys were canonicalised.
func TestSampledCellKeysPinned(t *testing.T) {
	p := newPlan(16)
	trace := "trace:ab" + strings.Repeat("0", 62)
	const (
		catalogNone = "cd0cc27c2c37aa2325df033548685085fd9c48a02177d6264a7647ee1337b365"
		traceNone   = "5eded3d4540af5185afacbabff6da0df253c95e7eb2723a4d0ce4569270085d9"
	)
	for _, tc := range []struct {
		name, mode          string
		maxCycles, interval uint64
		want                string
	}{
		{"stream-copy-16MB", "none", 0, 50000, catalogNone},
		{"stream-copy-16MB", "imt", 0, 50000, catalogNone},
		{"stream-copy-16MB", "ecc-steal", 0, 50000, catalogNone},
		{"stream-copy-16MB", "carve-low", 0, 50000, "51aa7cf3efd63b18c6a30e940646c96dc1e6cb7f53111cccf728013c1fedf6f5"},
		{"stream-copy-16MB", "carve-high", 0, 50000, "28fd93e866fe6f3cbf11fcc94adef27061fc8de5476c04f3260c78e20fa41707"},
		{"stream-copy-16MB", "bounds-table", 0, 50000, "050555f41872f35ef318e38eb453a442562ea75a1e771484fd2bcfe8d6c47c16"},
		{trace, "none", 100000, 50000, traceNone},
		{trace, "imt", 100000, 50000, traceNone},
		{trace, "carve-low", 100000, 50000, "7ca9e761d57af8313755bc76fed28fe23e4c7730cd708187106ca3b9468294cd"},
		{trace, "carve-high", 100000, 50000, "77dda87050e71999ec37cd52901d02c5893e78d36e90858f577b8d661aec86f9"},
		{trace, "bounds-table", 100000, 50000, "6d1501141c3459d64200d931448c3d8e7dcd3229dc8d9ce6f2ea94eddd82ea95"},
	} {
		cell, err := p.ResolveCell(tc.name, tc.mode, tc.maxCycles, tc.interval)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Key != tc.want {
			t.Errorf("%s/%s sampled every %d: key %s, want %s", tc.name, tc.mode, tc.interval, cell.Key, tc.want)
		}
	}
}

func refsOf(t *testing.T, p *Plan, body apitypes.SweepRequest) []string {
	t.Helper()
	cells, err := p.ExpandSweep(body)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range Refs(cells) {
		out = append(out, c.Workload+"/"+c.Mode)
	}
	return out
}

// TestExpandSweepDeduplicates: every (workload, mode) pair is planned
// once, whether it repeats in the modes, the workload axis, the suite
// or the explicit cells; order is first appearance, product first.
func TestExpandSweepDeduplicates(t *testing.T) {
	p := newPlan(64)
	ref := func(w, m string) apitypes.CellRef { return apitypes.CellRef{Workload: w, Mode: m} }
	for _, tc := range []struct {
		name string
		req  apitypes.SweepRequest
		want []string
	}{
		{"repeated modes",
			apitypes.SweepRequest{Workloads: []string{"stream-copy-16MB"}, Modes: []string{"none", "none", "imt", "none"}},
			[]string{"stream-copy-16MB/none", "stream-copy-16MB/imt"}},
		{"repeated workloads",
			apitypes.SweepRequest{Workloads: []string{"stream-copy-16MB", "stream-copy-16MB"}, Modes: []string{"imt"}},
			[]string{"stream-copy-16MB/imt"}},
		{"explicit cells overlap the product",
			apitypes.SweepRequest{
				Workloads: []string{"stream-copy-16MB"}, Modes: []string{"imt"},
				Cells: []apitypes.CellRef{ref("stream-add-16MB", "none"), ref("stream-copy-16MB", "imt"), ref("stream-add-16MB", "none")},
			},
			[]string{"stream-copy-16MB/imt", "stream-add-16MB/none"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := refsOf(t, p, tc.req); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("cells %v, want %v", got, tc.want)
			}
		})
	}

	member := workload.BySuite("STREAM")[2].Name
	suite := refsOf(t, p, apitypes.SweepRequest{Suite: "STREAM", Modes: []string{"imt"}})
	both := refsOf(t, p, apitypes.SweepRequest{Workloads: []string{member}, Suite: "STREAM", Modes: []string{"imt"}})
	if len(both) != len(suite) || both[0] != member+"/imt" {
		t.Errorf("suite plus a named member: %v; suite alone: %v", both, suite)
	}
}

// TestExpandSweepCap: the cap applies to the deduplicated grid, so a
// request whose raw product exceeds it but whose distinct cells fit is
// accepted.
func TestExpandSweepCap(t *testing.T) {
	p := newPlan(2)
	if _, err := p.ExpandSweep(apitypes.SweepRequest{
		Workloads: []string{"stream-copy-16MB"}, Modes: []string{"none", "imt", "none", "imt"},
	}); err != nil {
		t.Fatalf("two distinct cells under a cap of 2: %v", err)
	}
	_, err := p.ExpandSweep(apitypes.SweepRequest{
		Workloads: []string{"stream-copy-16MB", "stream-add-16MB"}, Modes: []string{"none", "imt"},
	})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("four cells under a cap of 2: err = %v", err)
	}
}

// TestResolveCellErrors covers the planning failures clients see.
func TestResolveCellErrors(t *testing.T) {
	p := newPlan(8)
	for _, tc := range []struct{ name, mode, want string }{
		{"no-such-workload", "imt", "unknown workload"},
		{"stream-copy-16MB", "quantum", "unknown tagging mode"},
		{"trace:XYZ", "imt", "malformed trace workload"},
	} {
		if _, err := p.ResolveCell(tc.name, tc.mode, 0, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ResolveCell(%q, %q) = %v, want an error mentioning %q", tc.name, tc.mode, err, tc.want)
		}
	}
}

// TestCheckTraceHook: a shard's trace check runs for well-formed
// digests only, and its error comes back unchanged so the typed 404
// survives planning.
func TestCheckTraceHook(t *testing.T) {
	digest := strings.Repeat("cd", 32)
	var checked []string
	p := New(Options{Config: gpusim.DefaultConfig(), MaxCells: 8, CheckTrace: func(d string) error {
		checked = append(checked, d)
		return fmt.Errorf("%w: not here", tracestore.ErrNotFound)
	}})
	_, err := p.ExpandSweep(apitypes.SweepRequest{Workloads: []string{"trace:" + digest}, Modes: []string{"imt"}})
	if !errors.Is(err, tracestore.ErrNotFound) {
		t.Fatalf("err = %v, want tracestore.ErrNotFound", err)
	}
	if _, err := p.ResolveCell("trace:nothex", "imt", 0, 0); err == nil {
		t.Fatal("malformed digest accepted")
	}
	if !reflect.DeepEqual(checked, []string{digest}) {
		t.Errorf("CheckTrace saw %v, want just the well-formed digest", checked)
	}

	// A gateway plans without the hook: the cell is keyed by its trace
	// identity alone.
	cell, err := newPlan(8).ResolveCell("trace:"+digest, "imt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Digest != digest || cell.Job.Key != "trace:"+digest || cell.Key == "" {
		t.Errorf("trace cell = %+v", cell)
	}
}

// memoLen reports how many cache keys p has memoised.
func memoLen(p *Plan) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.keys)
}

// TestKeyMemoMatchesCacheKeyFor: for every catalog workload under every
// mode spelling, the key is runner.CacheKeyFor's on the first call and
// on the memoised repeat, with resolvers racing to fill the memo.
func TestKeyMemoMatchesCacheKeyFor(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	p := New(Options{Config: cfg})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for _, w := range workload.Catalog() {
					for _, mode := range gpusim.TagModeNames() {
						cell, err := p.ResolveCell(w.Name, mode, 0, 0)
						if err != nil {
							t.Error(err)
							return
						}
						tm, carve, _ := gpusim.ParseTagMode(mode)
						want, _ := runner.CacheKeyFor(cfg, runner.Job{Workload: w, Mode: tm, Carve: carve})
						if cell.Key != want {
							t.Errorf("round %d %s/%s: key %s, want %s", round, w.Name, mode, cell.Key, want)
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	// Aliases share an entry: one per (workload, parsed mode and carve).
	modes := make(map[string]bool)
	for _, mode := range gpusim.TagModeNames() {
		tm, carve, _ := gpusim.ParseTagMode(mode)
		modes[fmt.Sprint(tm, carve)] = true
	}
	if got, want := memoLen(p), len(workload.Catalog())*len(modes); got != want {
		t.Errorf("memo holds %d keys, want %d (catalog × distinct modes)", got, want)
	}
}

// TestKeyMemoBounded: trace cells, capped cells and sampled cells are
// keyed directly and never enter the memo, so a long-running daemon's
// stream of digests or caps cannot grow it.
func TestKeyMemoBounded(t *testing.T) {
	p := newPlan(4096)
	if _, err := p.ResolveCell("stream-copy-16MB", "imt", 0, 0); err != nil {
		t.Fatal(err)
	}
	before := memoLen(p)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				digest := fmt.Sprintf("%02x%062x", g, i)
				if _, err := p.ResolveCell("trace:"+digest, "imt", 0, 0); err != nil {
					t.Error(err)
				}
				if _, err := p.ResolveCell("stream-copy-16MB", "imt", uint64(1000+i), 0); err != nil {
					t.Error(err)
				}
				if _, err := p.ResolveCell("stream-copy-16MB", "carve-low", 0, uint64(1000+i)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	// A watched sweep is a sampled one: the front end sets its interval
	// before planning.
	if _, err := p.ExpandSweep(apitypes.SweepRequest{Suite: "STREAM", Modes: []string{"imt", "carve-high"}, SampleInterval: 50000}); err != nil {
		t.Fatal(err)
	}
	if got := memoLen(p); got != before {
		t.Errorf("memo grew from %d to %d keys on trace, capped and sampled cells", before, got)
	}
}

package cellplan

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

func newPlan(maxCells int) *Plan {
	return New(Options{Config: gpusim.DefaultConfig(), MaxCells: maxCells})
}

// TestSampledCellKeysPinned pins the cache keys of sampled cells to
// fixed bytes. A change to them turns every warm cache entry for a
// sampled cell cold and routes those cells to different shards.
func TestSampledCellKeysPinned(t *testing.T) {
	p := newPlan(16)
	trace := "trace:ab" + strings.Repeat("0", 62)
	for _, tc := range []struct {
		name, mode          string
		maxCycles, interval uint64
		want                string
	}{
		{"stream-copy-16MB", "imt", 0, 50000, "417adaab8f9ecacae01239cfed3d2954294002917aefc78f23c940505ba51355"},
		{"stream-copy-16MB", "carve-low", 0, 50000, "51aa7cf3efd63b18c6a30e940646c96dc1e6cb7f53111cccf728013c1fedf6f5"},
		{trace, "imt", 100000, 50000, "73e92a77004dfcbcbc22340ee34691261b228becfa1e9541a299ac6789b71e8d"},
		{trace, "carve-low", 100000, 50000, "7ca9e761d57af8313755bc76fed28fe23e4c7730cd708187106ca3b9468294cd"},
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

package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/serve/apitypes"
)

func sweepCells(t *testing.T, h http.Handler, body string) ([]apitypes.CellResult, apitypes.SweepSummary) {
	t.Helper()
	rec := post(t, h, "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
	}
	var cells []apitypes.CellResult
	var summary apitypes.SweepSummary
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Done != nil {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var cell apitypes.CellResult
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell)
	}
	if !summary.Done {
		t.Fatal("no summary line")
	}
	return cells, summary
}

// TestSweepExplicitCells: a sweep may be a bare cell list — the shape
// the imtgw gateway scatters to shards, where a shard's share of a
// grid is never a clean workloads × modes product.
func TestSweepExplicitCells(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir()})
	h := s.Handler()
	cells, summary := sweepCells(t, h,
		`{"cells":[{"workload":"stream-copy-16MB","mode":"imt"},{"workload":"stream-scale-16MB","mode":"none"}]}`)
	if len(cells) != 2 || summary.Cells != 2 || summary.Failed != 0 {
		t.Fatalf("got %d cells, summary %+v; want 2 clean cells", len(cells), summary)
	}
	want := map[apitypes.CellRef]bool{
		{Workload: "stream-copy-16MB", Mode: "imt"}:   true,
		{Workload: "stream-scale-16MB", Mode: "none"}: true,
	}
	for _, c := range cells {
		if !want[apitypes.CellRef{Workload: c.Workload, Mode: c.Mode}] {
			t.Errorf("unexpected cell %s|%s", c.Workload, c.Mode)
		}
		if c.Stats == nil {
			t.Errorf("cell %s|%s missing stats", c.Workload, c.Mode)
		}
	}
}

// TestSweepCellsDeduplicatedAgainstProduct: explicit cells already in
// the workloads × modes product must not run twice.
func TestSweepCellsDeduplicatedAgainstProduct(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir()})
	cells, summary := sweepCells(t, s.Handler(),
		`{"workloads":["stream-copy-16MB"],"modes":["imt"],"cells":[{"workload":"stream-copy-16MB","mode":"imt"},{"workload":"stream-copy-16MB","mode":"none"}]}`)
	if len(cells) != 2 || summary.Cells != 2 {
		t.Fatalf("got %d cells, summary.Cells %d; want 2 after dedup", len(cells), summary.Cells)
	}
}

// TestSweepCellsBadRequests: invalid explicit cells fail the whole
// request up front with 400, exactly like an invalid grid.
func TestSweepCellsBadRequests(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	h := s.Handler()
	for name, body := range map[string]string{
		"unknown cell workload":      `{"cells":[{"workload":"nope","mode":"imt"}]}`,
		"unknown cell mode":          `{"cells":[{"workload":"stream-copy-16MB","mode":"quantum"}]}`,
		"cells with no mode product": `{"workloads":["stream-copy-16MB"],"cells":[{"workload":"stream-copy-16MB","mode":"imt"}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			rec := post(t, h, "/v1/sweep", body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body.String())
			}
		})
	}
}

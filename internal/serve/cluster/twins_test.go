package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve"
)

// TestGatewayRoutesTwinsTogether: none, imt and ecc-steal share one
// cache key (gpusim.Config.Canonical), which is also the routing key, so
// a gateway sweep sends all three to one shard, where they cost one
// simulation. Each still arrives once, under its own mode, with the
// stats of an in-process imt run; carve-low keeps a key and a
// simulation of its own.
func TestGatewayRoutesTwinsTogether(t *testing.T) {
	var shards []*serve.Server
	var urls []string
	for i := 0; i < 3; i++ {
		s, err := serve.New(serve.Options{Workers: 2, CacheDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		shards = append(shards, s)
		urls = append(urls, ts.URL)
	}
	gw, err := New(Options{Shards: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	rec := gwPost(t, gw.Handler(), "/v1/sweep", `{"workloads":["hpc-micro0"],"modes":["none","imt","ecc-steal","carve-low"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d: %s", rec.Code, rec.Body.String())
	}
	cells, summary := parseSweep(t, rec.Body)
	got := canonical(t, cells) // fails on a duplicate
	if len(got) != 4 || summary.Cells != 4 || summary.Failed != 0 {
		t.Fatalf("delivered %d cells, summary %+v; want 4, none failed", len(got), summary)
	}

	var jobs []runner.Job
	for _, mode := range []string{"imt", "carve-low"} {
		cell, err := gw.plan.ResolveCell("hpc-micro0", mode, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, cell.Job)
	}
	ref, err := runner.New(gpusim.DefaultConfig(), runner.Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]gpusim.Stats{"imt": ref[0].Stats.WithoutHost(), "carve-low": ref[1].Stats.WithoutHost()}
	want["none"], want["ecc-steal"] = want["imt"], want["imt"]
	twinShard := ""
	for _, c := range cells {
		if c.Error != "" || c.Stats == nil {
			t.Fatalf("%s failed: %s", c.Mode, c.Error)
		}
		gotJSON, _ := json.Marshal(c.Stats)
		wantJSON, _ := json.Marshal(want[c.Mode])
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s stats differ from the in-process run:\n got  %s\n want %s", c.Mode, gotJSON, wantJSON)
		}
		if c.Mode == "carve-low" {
			continue
		}
		if twinShard == "" {
			twinShard = c.Shard
		} else if c.Shard != twinShard {
			t.Errorf("%s served by %s, its twins by %s", c.Mode, c.Shard, twinShard)
		}
	}

	var simRuns uint64
	for _, s := range shards {
		simRuns += s.Hub().Metrics.Snapshot().Counters["runner_sim_runs_total"]
	}
	if simRuns != 2 {
		t.Errorf("runner_sim_runs_total across the fleet = %d, want 2 (one per canonical config)", simRuns)
	}
}

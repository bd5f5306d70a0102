package serve_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/cellplan"
	"repro/internal/serve/client"
	"repro/internal/serve/cluster"
)

// TestSweepStreamsFirstCellBeforeTheRest: the sweep stream flushes per
// drained burst, never holding a line back while nothing else is
// ready. With every cell but the first held in the simulator, the
// client must receive the first cell line before the rest are released,
// from a shard and through a gateway (the same merge loop on both hops).
func TestSweepStreamsFirstCellBeforeTheRest(t *testing.T) {
	newShard := func(t *testing.T, release <-chan struct{}) string {
		s, err := serve.New(serve.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		serve.SetSimHook(s, func(ctx context.Context, cell cellplan.Cell) (gpusim.Stats, error) {
			if cell.Ref.Mode != "none" {
				select {
				case <-release:
				case <-ctx.Done():
					return gpusim.Stats{}, ctx.Err()
				}
			}
			return gpusim.Stats{Cycles: 42, WarpOps: 1}, nil
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	for _, tc := range []struct {
		name  string
		front func(t *testing.T, shard string) string
	}{
		{"shard", func(_ *testing.T, shard string) string { return shard }},
		{"gateway", func(t *testing.T, shard string) string {
			gw, err := cluster.New(cluster.Options{Shards: []string{shard}, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			ts := httptest.NewServer(gw.Handler())
			t.Cleanup(ts.Close)
			return ts.URL
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			url := tc.front(t, newShard(t, release))
			// Canceled before the servers close, so a failed test does
			// not leave the held cells waiting.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			first := make(chan apitypes.CellResult, 1)
			type outcome struct {
				cells   int
				summary apitypes.SweepSummary
				err     error
			}
			done := make(chan outcome, 1)
			go func() {
				var o outcome
				o.summary, o.err = client.New(url).Sweep(ctx, apitypes.SweepRequest{
					Workloads: []string{"stream-copy-16MB"},
					// Three distinct cache keys: an imt cell would share
					// none's key and coalesce onto the unblocked run.
					Modes: []string{"none", "carve-low", "carve-high"},
				}, func(c apitypes.CellResult) error {
					o.cells++
					if o.cells == 1 {
						first <- c
					}
					return nil
				})
				done <- o
			}()

			select {
			case c := <-first:
				if c.Mode != "none" || c.Error != "" {
					t.Errorf("first cell = %+v, want the unblocked none cell", c)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("first cell line never reached the client while the rest were held")
			}
			close(release)
			o := <-done
			if o.err != nil || o.cells != 3 || !o.summary.Done || o.summary.Cells != 3 || o.summary.Failed != 0 {
				t.Errorf("sweep: %d cells, summary %+v, err %v", o.cells, o.summary, o.err)
			}
		})
	}
}

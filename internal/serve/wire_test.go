package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/cellplan"
	"repro/internal/serve/client"
	"repro/internal/serve/cluster"
)

// Workloads the line-shape shards treat specially: every cell of
// failWorkload fails with an error text that needs JSON escaping, and
// every cell of slowWorkload lingers so a concurrent duplicate coalesces
// onto it.
const (
	failWorkload = "hpc-micro1"
	slowWorkload = "hpc-micro2"
)

// lineShard starts an imtd shard that simulates for real (through an
// engine over its own cache directory, as the server's would) except
// for the two special workloads above.
func lineShard(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := serve.New(serve.Options{Workers: 4, CacheDir: dir, WatchSampleInterval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(gpusim.DefaultConfig(), runner.Options{Workers: 1, CacheDir: dir})
	serve.SetSimHook(s, func(ctx context.Context, cell cellplan.Cell) (gpusim.Stats, error) {
		switch cell.Ref.Workload {
		case failWorkload:
			return gpusim.Stats{}, errors.New(`simulator: "bad" <config> & more`)
		case slowWorkload:
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
				return gpusim.Stats{}, ctx.Err()
			}
		}
		res, err := eng.Run(ctx, []runner.Job{cell.Job})
		if err == nil {
			err = res[0].Err
		}
		return res[0].Stats.WithoutHost(), err
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// lineKinds records which kinds of CellResult line a front end wrote.
type lineKinds map[string]int

func (k lineKinds) add(r apitypes.CellResult) {
	switch {
	case r.Error != "":
		k["failed"]++
	case r.Coalesced:
		k["coalesced"]++
	case r.Cached:
		k["cached"]++
	default:
		k["simulated"]++
	}
	if r.Rerouted {
		k["rerouted"]++
	}
	if r.Stats != nil && len(r.Stats.Samples) > 0 {
		k["sampled"]++
	}
	if r.WatchRoom != "" {
		k["watched"]++
	}
}

// TestFrontendLinesTakeStrictPath measures the share of the system's own
// result traffic the strict CellResult parser reads without handing it
// to encoding/json. Every kind of line a Frontend writes — simulated,
// cached, coalesced, failed (error text with quotes and <), rerouted,
// sampled and watched, from a shard and through a gateway, in sweep
// streams and /v1/sim bodies — must parse directly: the share is 100%,
// which is what the warm-path codec's speed rests on.
func TestFrontendLinesTakeStrictPath(t *testing.T) {
	for _, tc := range []struct {
		name  string
		front func(t *testing.T) string
		want  []string
	}{
		// Watch rooms are shard-scoped: a gateway refuses watch:true.
		{"shard", lineShard, []string{"simulated", "cached", "coalesced", "failed", "sampled", "watched"}},
		{"gateway", func(t *testing.T) string {
			// A third shard passes its health probes but severs every
			// sweep and sim, so its share of the ring is rerouted to the
			// other two.
			severing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					panic(http.ErrAbortHandler)
				}
				w.Write([]byte(`{"status":"ok"}`))
			}))
			t.Cleanup(severing.Close)
			gw, err := cluster.New(cluster.Options{Shards: []string{lineShard(t), lineShard(t), severing.URL}, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			ts := httptest.NewServer(gw.Handler())
			t.Cleanup(ts.Close)
			return ts.URL
		}, []string{"simulated", "cached", "coalesced", "failed", "rerouted", "sampled"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url := tc.front(t)
			kinds := lineKinds{}
			post := func(path, body string) []byte {
				t.Helper()
				resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				blob, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("POST %s %s: %d %s %v", path, body, resp.StatusCode, blob, err)
				}
				return blob
			}
			parse := func(line []byte) {
				t.Helper()
				var r apitypes.CellResult
				if !r.ParseJSON(line) {
					t.Fatalf("strict parser declined a line the front end wrote: %s", line)
				}
				kinds.add(r)
			}
			sweep := func(body string) {
				t.Helper()
				lines := bytes.SplitAfter(post("/v1/sweep", body), []byte("\n"))
				if len(lines) < 3 || !bytes.Contains(lines[len(lines)-2], []byte(`"done":true`)) {
					t.Fatalf("sweep %s: no summary line in %q", body, lines)
				}
				for _, line := range lines[:len(lines)-2] {
					parse(line)
				}
			}

			var names []string
			for i := 0; i < 15; i++ {
				names = append(names, fmt.Sprintf(`"hpc-micro%d"`, i))
			}
			grid := `{"workloads":[` + strings.Join(names, ",") + `],"modes":["none","carve-low"]}`
			sweep(grid) // simulated and failed (and rerouted) lines
			sweep(grid) // cached ones
			sweep(`{"workloads":["hpc-micro3"],"modes":["imt"],"sample_interval":1000}`)
			parse(post("/v1/sim", `{"workload":"hpc-micro5","mode":"carve-out"}`))
			parse(post("/v1/sim", `{"workload":"hpc-micro5","mode":"carve-out"}`))
			if tc.name == "shard" {
				sweep(`{"workloads":["hpc-micro4"],"modes":["imt"],"watch":true}`)
				parse(post("/v1/sim", `{"workload":"hpc-micro6","mode":"imt","watch":true}`))
			}

			// Coalescing needs a duplicate to arrive while the first is
			// still running; each try uses a fresh cell.
			for _, mode := range gpusim.TagModeNames() {
				if kinds["coalesced"] > 0 {
					break
				}
				var wg sync.WaitGroup
				bodies := make([][]byte, 2)
				for i := range bodies {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						resp, err := http.Post(url+"/v1/sim", "application/json",
							strings.NewReader(`{"workload":"`+slowWorkload+`","mode":"`+mode+`"}`))
						if err == nil {
							bodies[i], _ = io.ReadAll(resp.Body)
							resp.Body.Close()
						}
					}(i)
				}
				wg.Wait()
				for _, b := range bodies {
					parse(b)
				}
			}

			for _, k := range tc.want {
				if kinds[k] == 0 {
					t.Errorf("no %s line was written (kinds seen: %v)", k, kinds)
				}
			}
			t.Logf("lines parsed strictly, by kind: %v", kinds)
		})
	}
}

// BenchmarkWarmSweepCell: the per-cell cost of a warm /v1/sweep, end to
// end in one process: an httptest shard whose cache holds every cell
// (cache read and line encode), HTTP, and client.Sweep's line decode.
// One iteration is one 60-cell warm sweep; ns/cell and allocs/cell
// cover client and server together.
func BenchmarkWarmSweepCell(b *testing.B) {
	s, err := serve.New(serve.Options{Workers: 2, CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var names []string
	for i := 0; i < 15; i++ {
		names = append(names, fmt.Sprintf("hpc-micro%d", i))
	}
	req := apitypes.SweepRequest{Workloads: names, Modes: []string{"none", "imt", "carve-low", "carve-high"}}
	c := client.New(ts.URL)
	sweep := func(warm bool) {
		if _, err := c.Sweep(context.Background(), req, func(r apitypes.CellResult) error {
			if r.Error != "" || (warm && !r.Cached) {
				return fmt.Errorf("cell %s/%s is not a warm hit: %+v", r.Workload, r.Mode, r)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	sweep(false) // simulate once, filling the cache
	cells := float64(len(names) * len(req.Modes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(true)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/cells, "allocs/cell")
}

package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/cellplan"
	"repro/internal/serve/client"
	"repro/internal/serve/cluster"
	"repro/internal/workload"
)

// warmCells stores a result for every cell of req whose mode is in
// modes into each cache directory, under the key a shard plans for it.
// It returns how many cells of req that warms.
func warmCells(t *testing.T, req apitypes.SweepRequest, modes map[string]bool, dirs ...string) int {
	t.Helper()
	cells, err := cellplan.New(cellplan.Options{Config: gpusim.DefaultConfig()}).ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	warmed := 0
	for i, c := range cells {
		if !modes[c.Ref.Mode] {
			continue
		}
		warmed++
		for _, dir := range dirs {
			runner.OpenCache(dir).Store(c.Key, gpusim.Stats{Cycles: uint64(1000 + i), WarpOps: 1})
		}
	}
	return warmed
}

// flushCounter is a ResponseWriter that records, at every Flush, how
// many body lines had been written.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushedLines []int
}

func (f *flushCounter) Flush() {
	f.flushedLines = append(f.flushedLines, bytes.Count(f.Body.Bytes(), []byte("\n")))
	f.ResponseRecorder.Flush()
}

// sweepBody posts req to h's /v1/sweep through w and parses the
// stream into its cell lines and summary.
func sweepBody(t *testing.T, h http.Handler, w *flushCounter, req apitypes.SweepRequest) ([]apitypes.CellResult, apitypes.SweepSummary) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", w.Code, w.Body.String())
	}
	var cells []apitypes.CellResult
	var summary apitypes.SweepSummary
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"done":true`) {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var c apitypes.CellResult
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad cell line %q: %v", sc.Text(), err)
		}
		cells = append(cells, c)
	}
	return cells, summary
}

// TestWarmSweepFlushesTwice: a fully warm sweep of N cells leaves the
// shard as one burst, so the stream is flushed exactly twice: once with
// all N cell lines written, once after the summary.
func TestWarmSweepFlushesTwice(t *testing.T) {
	dir := t.TempDir()
	req := apitypes.SweepRequest{
		Workloads: []string{"hpc-micro0", "hpc-micro1", "hpc-micro2", "hpc-micro3", "hpc-micro4", "hpc-micro5"},
		Modes:     []string{"none", "imt", "carve-low", "carve-high"},
	}
	n := warmCells(t, req, map[string]bool{"none": true, "imt": true, "carve-low": true, "carve-high": true}, dir)
	s, err := serve.New(serve.Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	cells, summary := sweepBody(t, s.Handler(), w, req)
	if len(cells) != n || summary.Cells != n || summary.Cached != n || summary.Failed != 0 {
		t.Fatalf("got %d cells, summary %+v; want %d cached cells", len(cells), summary, n)
	}
	if want := []int{n, n + 1}; len(w.flushedLines) != 2 || w.flushedLines[0] != n || w.flushedLines[1] != n+1 {
		t.Errorf("flushes at line counts %v, want %v", w.flushedLines, want)
	}
}

// TestPartlyWarmSweepSendsCachedCellsFirst: every cached cell of a
// partly warm sweep reaches the client while the misses are still held
// in the simulator, from a shard and through a gateway over two
// shards; the gateway then delivers every cell exactly once with the
// cached ones counted in its summary.
func TestPartlyWarmSweepSendsCachedCellsFirst(t *testing.T) {
	req := apitypes.SweepRequest{
		Workloads: []string{"hpc-micro0", "hpc-micro1", "hpc-micro2"},
		// none and imt share a cache key and are warmed; the carve-low
		// misses are held.
		Modes: []string{"none", "imt", "carve-low"},
	}
	newShard := func(t *testing.T, dir string, release <-chan struct{}) string {
		s, err := serve.New(serve.Options{Workers: 2, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		serve.SetSimHook(s, func(ctx context.Context, cell cellplan.Cell) (gpusim.Stats, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return gpusim.Stats{}, ctx.Err()
			}
			return gpusim.Stats{Cycles: 42, WarpOps: 1}, nil
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"shard", 1}, {"gateway", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			var dirs, urls []string
			for i := 0; i < tc.shards; i++ {
				dirs = append(dirs, t.TempDir())
				urls = append(urls, newShard(t, dirs[i], release))
			}
			warm := warmCells(t, req, map[string]bool{"none": true, "imt": true}, dirs...)
			url := urls[0]
			if tc.name == "gateway" {
				gw, err := cluster.New(cluster.Options{Shards: urls, ProbeInterval: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(gw.Close)
				ts := httptest.NewServer(gw.Handler())
				t.Cleanup(ts.Close)
				url = ts.URL
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			allCached := make(chan struct{})
			var cached, missesEarly int
			seen := map[apitypes.CellRef]int{}
			type outcome struct {
				summary apitypes.SweepSummary
				err     error
			}
			done := make(chan outcome, 1)
			go func() {
				var o outcome
				o.summary, o.err = client.New(url).Sweep(ctx, req, func(c apitypes.CellResult) error {
					seen[apitypes.CellRef{Workload: c.Workload, Mode: c.Mode}]++
					if !c.Cached {
						select {
						case <-release:
						default:
							missesEarly++
						}
						return nil
					}
					if cached++; cached == warm {
						close(allCached)
					}
					return nil
				})
				done <- o
			}()
			select {
			case <-allCached:
			case <-time.After(10 * time.Second):
				t.Fatalf("the %d cached cells never all reached the client while the misses were held", warm)
			}
			close(release)
			o := <-done
			want := len(req.Workloads) * len(req.Modes)
			if o.err != nil || !o.summary.Done || o.summary.Cells != want || o.summary.Cached != warm ||
				o.summary.Failed != 0 || len(seen) != want || missesEarly != 0 {
				t.Fatalf("summary %+v, err %v, %d distinct cells, %d misses before release; want %d cells, %d cached",
					o.summary, o.err, len(seen), missesEarly, want, warm)
			}
			for ref, n := range seen {
				if n != 1 {
					t.Errorf("%v delivered %d times", ref, n)
				}
			}
		})
	}
}

// TestEmptiedCacheResimulates is the cold-sweep contract with the memo
// in place: after a cold and a warm sweep, emptying the cache directory
// makes the same sweep simulate every cell again and report none as
// cached.
func TestEmptiedCacheResimulates(t *testing.T) {
	dir := t.TempDir()
	s, err := serve.New(serve.Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	simRuns := s.Hub().Metrics.Counter("runner_sim_runs_total", "")
	req := apitypes.SweepRequest{Workloads: []string{"hpc-micro0"}, Modes: []string{"none", "carve-low", "carve-high"}}
	const n = 3
	for i, want := range []struct {
		cached   int
		simRuns  uint64
		emptyDir bool
	}{{0, n, false}, {n, n, false}, {0, 2 * n, true}} {
		if want.emptyDir {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}
		cells, summary := sweepBody(t, s.Handler(), &flushCounter{ResponseRecorder: httptest.NewRecorder()}, req)
		if len(cells) != n || summary.Failed != 0 || summary.Cached != want.cached || simRuns.Value() != want.simRuns {
			t.Fatalf("sweep %d: %d cells, summary %+v, %d sim runs; want %d cached, %d sim runs",
				i, len(cells), summary, simRuns.Value(), want.cached, want.simRuns)
		}
		for _, c := range cells {
			if c.Cached != (want.cached > 0) {
				t.Errorf("sweep %d: cell %s/%s cached = %v", i, c.Workload, c.Mode, c.Cached)
			}
		}
	}
}

// TestSweepGoroutinesBounded: a held 1,000-cell sweep runs on Workers
// goroutines, not one per cell.
func TestSweepGoroutinesBounded(t *testing.T) {
	const workers = 4
	s, err := serve.New(serve.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var entered atomic.Int64
	serve.SetSimHook(s, func(ctx context.Context, _ cellplan.Cell) (gpusim.Stats, error) {
		entered.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return gpusim.Stats{}, ctx.Err()
		}
		return gpusim.Stats{Cycles: 42, WarpOps: 1}, nil
	})
	// Five modes with keys of their own give 965 cells; ecc-steal cells,
	// which coalesce onto their none twins, fill the grid to 1,000 at the
	// end of the plan, so the first cells the workers take all simulate.
	var req apitypes.SweepRequest
	for _, m := range []string{"none", "carve-low", "carve-high", "carve-mte", "bounds-table", "ecc-steal"} {
		for _, w := range workload.Catalog() {
			if len(req.Cells) < 1000 {
				req.Cells = append(req.Cells, apitypes.CellRef{Workload: w.Name, Mode: m})
			}
		}
	}
	if len(req.Cells) != 1000 {
		t.Fatalf("built %d cells, want 1000", len(req.Cells))
	}

	idle := runtime.NumGoroutine()
	type outcome struct {
		cells   []apitypes.CellResult
		summary apitypes.SweepSummary
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		o.cells, o.summary = sweepBody(t, s.Handler(), &flushCounter{ResponseRecorder: httptest.NewRecorder()}, req)
		done <- o
	}()
	deadline := time.Now().Add(10 * time.Second)
	for entered.Load() < workers {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d of %d workers entered the simulator", entered.Load(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	held := runtime.NumGoroutine()
	close(release)
	o := <-done
	// The handler, the executor's sweep goroutine and its workers.
	if limit := idle + workers + 8; held > limit {
		t.Errorf("%d goroutines while the sweep was held (idle %d), want at most %d", held, idle, limit)
	}
	if len(o.cells) != 1000 || o.summary.Cells != 1000 || o.summary.Failed != 0 {
		t.Errorf("sweep: %d cells, summary %+v", len(o.cells), o.summary)
	}
}

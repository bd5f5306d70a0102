package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/serve/apitypes"
)

// none, imt and ecc-steal simulate identically, so they share one cache
// key (gpusim.Config.Canonical) and the serving layer treats them as one
// simulation: whichever twin comes second is coalesced onto the first's
// run or answered from the cache it wrote. The tests below pin that on
// a real engine.

// TestSimTwinsShareOneSimulation: concurrent /v1/sim for none and imt
// cost one simulation; the other request is coalesced or cached, and
// both carry the same key and stats under their own mode.
func TestSimTwinsShareOneSimulation(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir()})
	h := s.Handler()
	modes := []string{"none", "imt"}
	recs := make([]*httptest.ResponseRecorder, len(modes))
	var start, wg sync.WaitGroup
	start.Add(1)
	for i, mode := range modes {
		wg.Add(1)
		go func(i int, mode string) {
			defer wg.Done()
			start.Wait()
			recs[i] = post(t, h, "/v1/sim", `{"workload":"hpc-micro0","mode":"`+mode+`"}`)
		}(i, mode)
	}
	start.Done()
	wg.Wait()
	results := make([]apitypes.CellResult, len(modes))
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", modes[i], rec.Code, rec.Body.String())
		}
		results[i] = decodeBody[apitypes.CellResult](t, rec)
	}
	if runs := s.eng.Counters().SimRuns; runs != 1 {
		t.Errorf("simulations = %d, want 1", runs)
	}
	shared := 0
	for i, r := range results {
		if r.Mode != modes[i] {
			t.Errorf("result %d answers mode %q, want %q", i, r.Mode, modes[i])
		}
		if r.Cached || r.Coalesced {
			shared++
		}
	}
	if shared != 1 {
		t.Errorf("%d of the twins were coalesced or cached, want exactly 1: %+v", shared, results)
	}
	if results[0].CacheKey != results[1].CacheKey {
		t.Errorf("cache keys differ: none %s, imt %s", results[0].CacheKey, results[1].CacheKey)
	}
	if !reflect.DeepEqual(results[0].Stats, results[1].Stats) {
		t.Errorf("twin stats differ:\n none %+v\n imt  %+v", results[0].Stats, results[1].Stats)
	}
}

// TestJobTraceTwinsSimulateOnce: a durable job over one stored trace ×
// [none, imt] simulates once and still delivers both cells.
func TestJobTraceTwinsSimulateOnce(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir(), TraceDir: t.TempDir(), JobsDir: t.TempDir()})
	defer s.KillJobs()
	h := s.Handler()
	blob, digest := testTraceBlob(t, 9, 2, 64)
	if rec := uploadBlob(t, h, blob); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	rec := post(t, h, "/v1/jobs", fmt.Sprintf(`{"workloads":["trace:%s"],"modes":["none","imt"]}`, digest))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	info := decodeBody[apitypes.JobInfo](t, rec)
	if final := waitJobState(t, h, info.ID, apitypes.JobDone); final.DoneCells != 2 || final.FailedCells != 0 {
		t.Fatalf("final = %+v", final)
	}
	frames, _ := streamJob(t, h, info.ID, 0)
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}
	if runs := s.eng.Counters().SimRuns; runs != 1 {
		t.Errorf("simulations = %d, want 1", runs)
	}
	a, b := frames[0].Cell, frames[1].Cell
	if a.Mode == b.Mode || a.Stats == nil || !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("twin cells differ or repeat a mode:\n %+v\n %+v", a, b)
	}
}

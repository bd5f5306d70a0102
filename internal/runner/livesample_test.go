package runner

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gpusim"
)

// TestOnSampleLiveForwarding: the engine forwards every recorded
// sample of every simulated cell, live, tagged with the cell's name
// and cache key, with a dense per-cell sequence — and the observer
// changes no results.
func TestOnSampleLiveForwarding(t *testing.T) {
	// Distinct workload names: live samples are demultiplexed by cell
	// name, so the test cells must not collide.
	jobs := []Job{
		{Workload: tinyWorkload(100, "live-a"), Mode: gpusim.ModeNone},
		{Workload: tinyWorkload(101, "live-b"), Mode: gpusim.ModeIMT},
		{Workload: tinyWorkload(102, "live-c"), Mode: gpusim.ModeCarveOut, Carve: gpusim.CarveOutLow},
	}
	cfg := gpusim.DefaultConfig()
	cfg.SampleInterval = 500

	base, err := New(cfg, Options{Workers: 2}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	byCell := map[string][]LiveSample{}
	sink := func(ls LiveSample) {
		mu.Lock()
		byCell[ls.Cell] = append(byCell[ls.Cell], ls)
		mu.Unlock()
	}
	watched := append([]Job(nil), jobs...)
	for i := range watched {
		watched[i].OnSample = sink
	}
	observed, err := New(cfg, Options{Workers: 2}).Run(context.Background(), watched)
	if err != nil {
		t.Fatal(err)
	}

	for i, res := range observed {
		name := jobs[i].Name()
		got := byCell[name]
		if len(got) == 0 {
			t.Fatalf("cell %q emitted no live samples", name)
		}
		if len(got) != len(res.Stats.Samples) {
			t.Fatalf("cell %q: %d live samples, %d recorded", name, len(got), len(res.Stats.Samples))
		}
		wantKey, ok := CacheKeyFor(cfg, jobs[i])
		if !ok {
			t.Fatalf("cell %q unexpectedly uncacheable", name)
		}
		for j, ls := range got {
			if ls.Seq != j {
				t.Fatalf("cell %q sample %d carries seq %d (gap or reorder)", name, j, ls.Seq)
			}
			if ls.Sample != res.Stats.Samples[j] {
				t.Fatalf("cell %q live sample %d differs from the recorded series", name, j)
			}
			if ls.Key != wantKey {
				t.Fatalf("cell %q sample key %q, want %q", name, ls.Key, wantKey)
			}
		}
	}
	if !reflect.DeepEqual(statsOf(t, base), statsOf(t, observed)) {
		t.Error("an OnSample observer changed simulation results")
	}
}

// TestOnSampleCachedCellsSilent: cache hits resolve without simulating
// and must emit nothing.
func TestOnSampleCachedCellsSilent(t *testing.T) {
	jobs := tinyJobs(1)
	cfg := gpusim.DefaultConfig()
	cfg.SampleInterval = 500
	dir := t.TempDir()

	if _, err := New(cfg, Options{Workers: 1, CacheDir: dir}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := range jobs {
		jobs[i].OnSample = func(LiveSample) { fired++ }
	}
	res, err := New(cfg, Options{Workers: 1, CacheDir: dir}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Cached {
			t.Fatalf("warm run did not hit the cache: %+v", r)
		}
	}
	if fired != 0 {
		t.Fatalf("cached cells fired OnSample %d times, want 0", fired)
	}
}

// TestJobSampleInterval: a job's own SampleInterval is the same cell as
// the engine configured with that interval — same cache key, same
// stats, same sample series — so one engine can serve sampled and
// unsampled cells alike.
func TestJobSampleInterval(t *testing.T) {
	job := tinyJobs(1)[1]
	base := gpusim.DefaultConfig()
	sampled := base
	sampled.SampleInterval = 500

	want, _ := CacheKeyFor(sampled, job)
	perJob := job
	perJob.SampleInterval = 500
	if got, _ := CacheKeyFor(base, perJob); got != want {
		t.Fatalf("per-job interval keys as %s, engine-level interval as %s", got, want)
	}
	unsampled, _ := CacheKeyFor(base, job)
	if unsampled == want {
		t.Fatal("the sampling interval did not enter the cache key")
	}

	a, err := New(sampled, Options{Workers: 1}).Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(base, Options{Workers: 1}).Run(context.Background(), []Job{perJob})
	if err != nil {
		t.Fatal(err)
	}
	if len(b[0].Stats.Samples) == 0 {
		t.Fatal("per-job interval recorded no samples")
	}
	if !reflect.DeepEqual(statsOf(t, a), statsOf(t, b)) {
		t.Error("per-job interval simulated differently from the engine-level interval")
	}
}

package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/gpusim"
)

// TestCacheKeyMatchesEngineCache is the exported-key contract: a key
// computed by CacheKey without an Engine must address exactly the entry
// a real engine run stored, and Lookup through a standalone Cache must
// be a hit with the engine's stats.
func TestCacheKeyMatchesEngineCache(t *testing.T) {
	w := tinyWorkload(11, "keyed")
	cfg := gpusim.DefaultConfig()
	dir := t.TempDir()

	jobs := []Job{
		{Workload: w, Mode: gpusim.ModeNone},
		{Workload: w, Mode: gpusim.ModeCarveOut, Carve: gpusim.CarveOutLow},
	}
	eng := New(cfg, Options{CacheDir: dir})
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}

	cache := OpenCache(dir)
	for i, job := range jobs {
		key := CacheKey(cfg, job.Workload, job.Mode, job.Carve)
		keyFor, ok := CacheKeyFor(cfg, job)
		if !ok || keyFor != key {
			t.Fatalf("CacheKeyFor = (%q, %v), want (%q, true)", keyFor, ok, key)
		}
		st, ok := cache.Lookup(key)
		if !ok {
			t.Fatalf("cell %d: exported key missed the entry the engine stored", i)
		}
		if !reflect.DeepEqual(st, results[i].Stats.WithoutHost()) {
			t.Errorf("cell %d: cached stats differ from the engine's result", i)
		}
	}

	// The engine must hit entries stored through the standalone handle:
	// same key space in both directions.
	w2 := tinyWorkload(12, "stored-externally")
	cache.Store(CacheKey(cfg, w2, gpusim.ModeIMT, gpusim.CarveOut{}), results[0].Stats.WithoutHost())
	eng2 := New(cfg, Options{CacheDir: dir})
	res2, err := eng2.Run(context.Background(), []Job{{Workload: w2, Mode: gpusim.ModeIMT}})
	if err != nil {
		t.Fatal(err)
	}
	if c := eng2.Counters(); c.CacheHits != 1 || c.SimRuns != 0 {
		t.Fatalf("engine missed an externally stored entry: %+v", c)
	}
	if !res2[0].Cached {
		t.Error("result not marked cached")
	}
}

// TestCacheKeySensitivity: the key must move with anything that changes
// simulated behavior, and only with that.
func TestCacheKeySensitivity(t *testing.T) {
	w := tinyWorkload(21, "sense")
	cfg := gpusim.DefaultConfig()
	base := CacheKey(cfg, w, gpusim.ModeNone, gpusim.CarveOut{})

	if k := CacheKey(cfg, w, gpusim.ModeNone, gpusim.CarveOut{}); k != base {
		t.Error("identical cell produced a different key")
	}
	if k := CacheKey(cfg, w, gpusim.ModeIMT, gpusim.CarveOut{}); k == base {
		t.Error("mode change did not change the key")
	}
	if k := CacheKey(cfg, w, gpusim.ModeCarveOut, gpusim.CarveOutLow); k == base {
		t.Error("carve mode did not change the key")
	}
	low := CacheKey(cfg, w, gpusim.ModeCarveOut, gpusim.CarveOutLow)
	if k := CacheKey(cfg, w, gpusim.ModeCarveOut, gpusim.CarveOutHigh); k == low {
		t.Error("carve geometry did not change the key")
	}
	bigger := cfg
	bigger.L2SliceBytes *= 2
	if k := CacheKey(bigger, w, gpusim.ModeNone, gpusim.CarveOut{}); k == base {
		t.Error("machine change did not change the key")
	}
	reseeded := w
	reseeded.Seed++
	if k := CacheKey(cfg, reseeded, gpusim.ModeNone, gpusim.CarveOut{}); k == base {
		t.Error("workload change did not change the key")
	}

	// MaxCycles is part of the identity (a capped run has different stats).
	capped, ok := CacheKeyFor(cfg, Job{Workload: w, MaxCycles: 1000})
	if !ok || capped == base {
		t.Error("cycle cap did not change the key")
	}

	// cfg's own Mode/Carve are ignored, mirroring jobConfig.
	dirty := cfg
	dirty.Mode, dirty.Carve = gpusim.ModeCarveOut, gpusim.CarveOutHigh
	if k := CacheKey(dirty, w, gpusim.ModeNone, gpusim.CarveOut{}); k != base {
		t.Error("cfg.Mode/Carve leaked into the key; the job's tagging must win")
	}
}

func TestCacheKeyForUncacheable(t *testing.T) {
	src := func(numSMs int) []gpusim.Trace { return nil }
	if key, ok := CacheKeyFor(gpusim.DefaultConfig(), Job{Traces: src}); ok || key != "" {
		t.Errorf("unkeyed trace override must be uncacheable, got (%q, %v)", key, ok)
	}
	if _, ok := CacheKeyFor(gpusim.DefaultConfig(), Job{Traces: src, Key: "v1"}); !ok {
		t.Error("keyed trace override must be cacheable")
	}
}

// TestCacheKeyTraceParity is the cluster-routing contract for trace-
// backed cells: a gateway that knows only "trace:<digest>" (no Traces
// func) and a shard holding the open replay (Traces attached) must
// compute identical keys, and the digest — not the blob — is the
// identity.
func TestCacheKeyTraceParity(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	src := func(numSMs int) []gpusim.Trace { return nil }
	name := "trace:" + "ab12" // digest spelling is opaque to the key

	gateway, ok := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeIMT})
	if !ok {
		t.Fatal("keyed job without Traces must be cacheable")
	}
	shard, ok := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeIMT, Traces: src})
	if !ok || shard != gateway {
		t.Fatalf("gateway key %q != shard key %q", gateway, shard)
	}
	// The trace identity replaces the workload in the key material: a
	// stray Workload on a keyed job must not perturb the key.
	stray, _ := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeIMT, Workload: tinyWorkload(31, "stray")})
	if stray != gateway {
		t.Error("workload leaked into a trace-keyed cache key")
	}
	// And the key still moves with everything behavioral.
	if k, _ := CacheKeyFor(cfg, Job{Key: "trace:cd34", Mode: gpusim.ModeIMT}); k == gateway {
		t.Error("digest change did not change the key")
	}
	if k, _ := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeNone}); k == gateway {
		t.Error("mode change did not change the key")
	}
	if k, _ := CacheKeyFor(cfg, Job{Key: name, Mode: gpusim.ModeIMT, MaxCycles: 99}); k == gateway {
		t.Error("cycle cap did not change the key")
	}
	// A trace-keyed job and a catalog job can never collide.
	if k := CacheKey(cfg, tinyWorkload(32, "cat"), gpusim.ModeIMT, gpusim.CarveOut{}); k == gateway {
		t.Error("catalog key collided with a trace key")
	}
}

func TestCacheLookupMissOnAbsentDir(t *testing.T) {
	cache := OpenCache(t.TempDir() + "/never-created")
	if _, ok := cache.Lookup(CacheKey(gpusim.DefaultConfig(), tinyWorkload(1, "x"), gpusim.ModeNone, gpusim.CarveOut{})); ok {
		t.Error("lookup against a nonexistent directory must miss")
	}
}

// TestCacheFileFormat pins the on-disk entry format across binary
// versions sharing one cache directory: Store writes exactly
// json.Marshal(st), with and without a Samples series; a file written
// by plain json.Marshal (an older binary) reads back DeepEqual through
// Lookup; and truncated files or valid JSON of the wrong shape miss.
func TestCacheFileFormat(t *testing.T) {
	dir := t.TempDir()
	cache := OpenCache(dir)
	key := func(i int) string {
		return CacheKey(gpusim.DefaultConfig(), tinyWorkload(int64(i+1), "fmt"), gpusim.ModeCarveOut, gpusim.CarveOut{})
	}
	counters := gpusim.Stats{Cycles: 182394, WarpOps: 65536, Loads: 49152, Stores: 16384, L1Hits: 30211,
		L1Misses: 18941, DRAMDataReads: 36260, DRAMTagReads: 4533, TagL2Hits: 4532, TagL2Misses: 4533}
	sampled := counters
	sampled.Samples = []gpusim.Sample{
		{Cycle: 50000, Cycles: 50000, BandwidthUtil: 0.8125, L1HitRate: 0.6, L2HitRate: 1e-7, QueueDepth: 3.25},
		{Cycle: 182394, Cycles: 132394, TagHitRate: 0.5, MSHROccupancy: 1, DRAMQueueDepth: 1e21},
	}
	for i, st := range []gpusim.Stats{counters, sampled} {
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		st.HostNsPerOp = 12.5 // host telemetry never reaches the file
		cache.Store(key(i), st)
		got, err := os.ReadFile(cache.c.path(key(i)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("stored entry %d:\n got %s (%v)\nwant %s", i, got, err, want)
		}

		// What an older binary's json.Marshal wrote reads back, and so
		// does a spelling only json.Unmarshal accepts.
		legacy := bytes.ReplaceAll(want, []byte(`,"`), []byte(`, "`))
		for _, blob := range [][]byte{want, legacy} {
			if err := os.WriteFile(cache.c.path(key(i)), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			back, ok := cache.Lookup(key(i))
			if !ok || !reflect.DeepEqual(back, st.WithoutHost()) {
				t.Fatalf("Lookup of %s = %+v, %v; want %+v", blob, back, ok, st.WithoutHost())
			}
		}
		for _, bad := range [][]byte{want[:len(want)-1], want[:len(want)/2], []byte(`[1,2]`),
			[]byte(`{"Cycles":"many"}`), []byte(`{"Samples":{}}`), nil} {
			if err := os.WriteFile(cache.c.path(key(i)), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if back, ok := cache.Lookup(key(i)); ok {
				t.Errorf("Lookup of %q hit with %+v, want a miss", bad, back)
			}
		}
	}
}

package runner

import (
	"context"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/gpusim"
)

// sampledStats is a cache payload whose entry file is about n×200 bytes.
func sampledStats(cycles uint64, n int) gpusim.Stats {
	st := gpusim.Stats{Cycles: cycles, WarpOps: 4096, Loads: 3000, DRAMDataReads: 1234}
	for i := 0; i < n; i++ {
		st.Samples = append(st.Samples, gpusim.Sample{
			Cycle: uint64(i+1) * 1000, Cycles: 1000, BandwidthUtil: 0.8125, L1HitRate: 0.6,
			L2HitRate: 0.25, TagHitRate: 0.5, MSHROccupancy: 0.125, QueueDepth: 3.25, DRAMQueueDepth: 1.5,
		})
	}
	return st
}

// memoKey is the cache key of a distinct tiny cell per i.
func memoKey(i int) string {
	return CacheKey(gpusim.DefaultConfig(), tinyWorkload(int64(1000+i), "memo"), gpusim.ModeNone, gpusim.CarveOut{})
}

func memoLen(c *Cache) int {
	c.c.mu.Lock()
	defer c.c.mu.Unlock()
	return len(c.c.memo)
}

// TestMemoDeletedEntryMisses: deleting an entry costs recomputation even
// after the memo has served it, and drops it from the memo.
func TestMemoDeletedEntryMisses(t *testing.T) {
	dir := t.TempDir()
	cfg := gpusim.DefaultConfig()
	jobs := tinyJobs(1)
	if _, err := New(cfg, Options{CacheDir: dir}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	cache := OpenCache(dir)
	key, _ := CacheKeyFor(cfg, jobs[0])
	for i := 0; i < 2; i++ { // a read that fills the memo, then a memo hit
		if _, ok := cache.Lookup(key); !ok {
			t.Fatalf("lookup %d of a stored entry missed", i)
		}
	}
	if memoLen(cache) != 1 {
		t.Fatalf("memo holds %d entries after a hit, want 1", memoLen(cache))
	}
	if err := os.Remove(cache.c.path(key)); err != nil {
		t.Fatal(err)
	}
	if st, ok := cache.Lookup(key); ok {
		t.Fatalf("lookup of a deleted entry hit with %+v", st)
	}
	if memoLen(cache) != 0 {
		t.Errorf("deleted entry still memoised")
	}

	// The engine's own handle behaves the same: a warm run fills its
	// memo, and emptying the directory makes the next run simulate.
	eng := New(cfg, Options{CacheDir: dir})
	for round, want := range []uint64{1, 1, 1 + uint64(len(jobs))} {
		if round == 2 {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		if got := eng.Counters().SimRuns; got != want {
			t.Fatalf("round %d: SimRuns = %d, want %d", round, got, want)
		}
	}
}

// TestMemoRewrittenEntryMisses: an entry rewritten in place (same file)
// with corrupt bytes is a miss, whether the rewrite changed its size or
// only its mtime; an entry replaced by a fresh Store reads back the new
// stats.
func TestMemoRewrittenEntryMisses(t *testing.T) {
	cache := OpenCache(t.TempDir())
	key := memoKey(0)
	path := cache.c.path(key)
	fill := func(st gpusim.Stats) {
		t.Helper()
		cache.Store(key, st)
		for i := 0; i < 2; i++ {
			if got, ok := cache.Lookup(key); !ok || !reflect.DeepEqual(got, st) {
				t.Fatalf("lookup %d = %+v, %v; want %+v", i, got, ok, st)
			}
		}
	}
	fill(sampledStats(7, 2))
	if err := os.WriteFile(path, []byte(`{"Cycles":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Lookup(key); ok {
		t.Fatalf("truncated in-place rewrite hit with %+v", got)
	}

	fill(sampledStats(8, 2))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = '#'
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Pin a distinct mtime: a same-size rewrite inside one filesystem
	// timestamp tick is indistinguishable by design (the cache itself
	// only ever replaces entries by rename).
	later := fi.ModTime().Add(time.Second)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Lookup(key); ok {
		t.Fatalf("same-size corrupt rewrite hit with %+v", got)
	}

	fill(sampledStats(9, 2))
	fill(sampledStats(10, 3)) // Store renames a new file over the memoised one
}

// TestMemoSamplesAreCallersOwn: a caller mutating the Samples it got
// back, from a file read or from the memo, never changes the next
// lookup.
func TestMemoSamplesAreCallersOwn(t *testing.T) {
	cache := OpenCache(t.TempDir())
	key := memoKey(1)
	want := sampledStats(11, 4)
	cache.Store(key, want)
	for i := 0; i < 3; i++ {
		got, ok := cache.Lookup(key)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("lookup %d = %+v, %v; want %+v", i, got, ok, want)
		}
		got.Samples[0].Cycle = 999
		got.Samples[3] = gpusim.Sample{}
	}
}

// TestMemoByteBudget: filling the memo well past its budget keeps its
// accounted bytes within the budget and exact, every lookup still
// answers the stored stats, and an entry larger than the whole budget
// is served without being memoised. The budget is shrunk so the fill
// stays small; the accounting is the same at memoBudget.
func TestMemoByteBudget(t *testing.T) {
	cache := OpenCache(t.TempDir())
	cache.c.budget = 64 << 10
	want := make([]gpusim.Stats, 24)
	for i := range want {
		want[i] = sampledStats(uint64(100+i), 40) // ≈7 KB per entry file
		cache.Store(memoKey(i), want[i])
	}
	fi, err := os.Stat(cache.c.path(memoKey(0)))
	if err != nil {
		t.Fatal(err)
	}
	if total := fi.Size() * int64(len(want)); total < 2*cache.c.budget {
		t.Fatalf("fill of %d bytes does not exceed the %d-byte budget twice over", total, cache.c.budget)
	}
	for round := 0; round < 2; round++ {
		for i := range want {
			got, ok := cache.Lookup(memoKey(i))
			if !ok || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("round %d: lookup %d missed or differs", round, i)
			}
			cache.c.mu.Lock()
			var sum int64
			for _, m := range cache.c.memo {
				sum += m.file.Size() + memoOverhead
			}
			bytes, n := cache.c.memoBytes, len(cache.c.memo)
			cache.c.mu.Unlock()
			if bytes > cache.c.budget || bytes != sum || n == 0 {
				t.Fatalf("round %d, lookup %d: memo accounts %d bytes (entries sum %d) in %d entries, budget %d",
					round, i, bytes, sum, n, cache.c.budget)
			}
		}
	}

	big := sampledStats(1, 600) // ≈100 KB, past the whole budget
	cache.Store(memoKey(99), big)
	if got, ok := cache.Lookup(memoKey(99)); !ok || !reflect.DeepEqual(got, big) {
		t.Fatal("an entry larger than the memo budget must still be served")
	}
	cache.c.mu.Lock()
	_, kept := cache.c.memo[memoKey(99)]
	cache.c.mu.Unlock()
	if kept {
		t.Error("an entry larger than the memo budget was memoised")
	}
}

// TestMemoConcurrentLookups: lookups, stores and deletions of the same
// keys from many goroutines, under a budget that forces eviction, only
// ever return a version that was stored, never a mix.
func TestMemoConcurrentLookups(t *testing.T) {
	cache := OpenCache(t.TempDir())
	cache.c.budget = 16 << 10
	const keys, versions = 6, 3
	valid := map[uint64]int{} // Cycles → len(Samples) of every stored version
	for k := 0; k < keys; k++ {
		for v := 0; v < versions; v++ {
			valid[uint64(100*k+v)] = 4 + v
		}
		cache.Store(memoKey(k), sampledStats(uint64(100*k), 4))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % keys
				switch {
				case i%17 == g:
					os.Remove(cache.c.path(memoKey(k)))
				case i%5 == 0:
					v := (g + i) % versions
					cache.Store(memoKey(k), sampledStats(uint64(100*k+v), 4+v))
				default:
					st, ok := cache.Lookup(memoKey(k))
					if !ok {
						continue
					}
					if n, known := valid[st.Cycles]; !known || len(st.Samples) != n || st.Cycles/100 != uint64(k) {
						t.Errorf("key %d: lookup returned a version never stored: Cycles %d, %d samples", k, st.Cycles, len(st.Samples))
						return
					}
					st.Samples[0].Cycle = 0
				}
			}
		}(g)
	}
	wg.Wait()
	cache.c.mu.Lock()
	defer cache.c.mu.Unlock()
	if cache.c.memoBytes > cache.c.budget {
		t.Errorf("memo accounts %d bytes over its %d-byte budget", cache.c.memoBytes, cache.c.budget)
	}
}

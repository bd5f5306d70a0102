package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/gpusim"
	"repro/internal/workload"
)

// cacheVersion invalidates every entry when the cached payload or the
// simulator's observable behavior changes shape.
//
// v2: gpusim.Stats gained the phase-telemetry Samples series and
// gpusim.Config gained SampleInterval.
const cacheVersion = 2

// diskCache is a content-addressed result store: the key is SHA-256 over
// a canonical JSON encoding of (cache version, the canonical form of the
// machine config with the cell's mode and carve applied, the workload's
// complete parameter set, the cycle cap, and any replay-trace identity).
// Any change to what the simulator reads — machine, workload, a
// traffic-bearing tagging mode or carve geometry — therefore changes
// the address and misses, while none, imt and ecc-steal, which simulate
// identically (gpusim.Config.Canonical), share one address. Entries are
// the json.Marshal bytes of gpusim.Stats (written and read by its
// reflection-free codec, which keeps exactly that format) stored at
// <dir>/<key[:2]>/<key>.json; writes go through a temp file + rename so
// concurrent sweeps sharing a directory never observe torn entries.
//
// A lookup costs one stat of the entry file while the memo holds the
// entry's decoded Stats, and one read plus decode otherwise. The memo
// is bounded by memoBudget and trusts an entry only while the file on
// disk is the one it was filled from, so a deleted entry still misses
// (and leaves the memo), and a replaced or rewritten one is read again.
type diskCache struct {
	dir    string
	budget int64 // memoBudget; tests shrink it

	mu        sync.Mutex
	memo      map[string]memoEntry
	memoBytes int64
}

// memoBudget bounds the entry-file bytes whose decoded Stats one cache
// handle keeps. An entry's Stats occupy about as many bytes decoded as
// encoded (a Sample's JSON outweighs its 72-byte struct), so this is
// also roughly the memo's heap.
const memoBudget = 8 << 20

// memoOverhead is charged per memo entry on top of its file size: the
// key string, the FileInfo and the map slot.
const memoOverhead = 256

func newDiskCache(dir string) *diskCache {
	return &diskCache{dir: filepath.Clean(dir), budget: memoBudget}
}

// memoEntry is one decoded entry and the identity of the file it was
// decoded from.
type memoEntry struct {
	file  os.FileInfo
	stats gpusim.Stats
}

// sameFile reports whether the entry file at stat time is the one the
// memo entry was filled from: the same file object, size and mtime.
func (m memoEntry) sameFile(fi os.FileInfo) bool {
	return os.SameFile(m.file, fi) && m.file.Size() == fi.Size() && m.file.ModTime().Equal(fi.ModTime())
}

// cacheID is the canonical key material. encoding/json emits struct
// fields in declaration order, so the encoding is deterministic.
type cacheID struct {
	Version   int
	Config    gpusim.Config
	Workload  workload.Workload
	MaxCycles uint64
	TraceKey  string
}

// cacheKeyFor hashes the canonical key material for a cell. cfg must
// already carry the cell's Mode, Carve and sampling interval (see
// jobConfig); only its Canonical form enters the key, while the
// simulation itself still runs cfg as given. It is the single key
// implementation shared by the engine and the exported
// CacheKey/CacheKeyFor helpers, so key equality is cache-hit behavior
// by construction.
func cacheKeyFor(cfg gpusim.Config, job Job) string {
	id := cacheID{
		Version:   cacheVersion,
		Config:    cfg.Canonical(),
		MaxCycles: job.MaxCycles,
	}
	// A non-empty Key is a trace identity (e.g. "trace:<digest>" from
	// the trace store) and replaces the workload parameter set in the
	// key material whether or not a Traces override is attached: a
	// gateway that knows only the digest and a shard holding the open
	// replay must derive the same key, or routing-by-cache-affinity
	// breaks for trace-backed cells.
	if job.Traces != nil || job.Key != "" {
		id.TraceKey = job.Key
	} else {
		id.Workload = job.Workload
	}
	blob, err := json.Marshal(id)
	if err != nil {
		// Config and Workload are plain exported scalars and slices;
		// marshalling cannot fail for well-formed jobs.
		panic(fmt.Sprintf("runner: cache key encoding: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// path is filepath.Join(dir, key[:2], key+".json"), concatenated: dir
// is clean and a key is hex, so there is nothing left to clean.
func (c *diskCache) path(key string) string {
	const sep = string(filepath.Separator)
	return c.dir + sep + key[:2] + sep + key + ".json"
}

// load returns the cached stats for key, reporting a miss for absent or
// unreadable entries (a corrupt file is simply re-simulated). The
// caller owns the returned Samples.
func (c *diskCache) load(key string) (gpusim.Stats, bool) {
	path := c.path(key)
	fi, err := os.Stat(path)
	if err != nil {
		c.forget(key)
		return gpusim.Stats{}, false
	}
	c.mu.Lock()
	m, ok := c.memo[key]
	c.mu.Unlock()
	if ok && m.sameFile(fi) {
		return withOwnSamples(m.stats), true
	}
	st, fi, err := readEntry(path)
	if err != nil {
		c.forget(key)
		return gpusim.Stats{}, false
	}
	c.remember(key, memoEntry{file: fi, stats: st})
	return withOwnSamples(st), true
}

// readEntry decodes the entry file at path, returning the FileInfo of
// the file it actually read.
func readEntry(path string) (gpusim.Stats, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return gpusim.Stats{}, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return gpusim.Stats{}, nil, err
	}
	// A file that changes size under the read fails ReadFull or the
	// decode: a miss, never a torn hit.
	blob := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, blob); err != nil {
		return gpusim.Stats{}, nil, err
	}
	var st gpusim.Stats
	if err := st.DecodeJSON(blob); err != nil {
		return gpusim.Stats{}, nil, err
	}
	return st, fi, nil
}

// withOwnSamples returns st with a private copy of its Samples, so no
// caller can reach into the memo.
func withOwnSamples(st gpusim.Stats) gpusim.Stats {
	st.Samples = slices.Clone(st.Samples)
	return st
}

// remember memoises m under key, evicting arbitrary entries until it
// fits the budget; an entry larger than the whole budget is not kept.
func (c *diskCache) remember(key string, m memoEntry) {
	cost := m.file.Size() + memoOverhead
	if cost > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(key)
	for k := range c.memo {
		if c.memoBytes+cost <= c.budget {
			break
		}
		c.dropLocked(k)
	}
	if c.memo == nil {
		c.memo = make(map[string]memoEntry)
	}
	c.memo[key] = m
	c.memoBytes += cost
}

// forget drops key from the memo.
func (c *diskCache) forget(key string) {
	c.mu.Lock()
	c.dropLocked(key)
	c.mu.Unlock()
}

func (c *diskCache) dropLocked(key string) {
	if m, ok := c.memo[key]; ok {
		c.memoBytes -= m.file.Size() + memoOverhead
		delete(c.memo, key)
	}
}

// store writes the stats under key, atomically. Cache write failures are
// deliberately swallowed: a sweep on a read-only or full disk still
// produces results, it just stops being cached.
func (c *diskCache) store(key string, st gpusim.Stats) {
	blob, err := st.AppendJSON(nil)
	if err != nil {
		return
	}
	dir := filepath.Dir(c.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}

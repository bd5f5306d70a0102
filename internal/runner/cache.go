package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

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
type diskCache struct {
	dir string
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

func (c *diskCache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// load returns the cached stats for key, reporting a miss for absent or
// unreadable entries (a corrupt file is simply re-simulated).
func (c *diskCache) load(key string) (gpusim.Stats, bool) {
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		return gpusim.Stats{}, false
	}
	var st gpusim.Stats
	if err := st.DecodeJSON(blob); err != nil {
		return gpusim.Stats{}, false
	}
	return st, true
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

package runner

import (
	"repro/internal/gpusim"
	"repro/internal/workload"
)

// CacheKeyFor returns the content-addressed cache identity of job under
// the machine configuration cfg — exactly the key the engine uses for
// its on-disk result cache, so a serving layer can coalesce identical
// in-flight requests and consult the cache without constructing an
// Engine. The boolean reports whether the job is cacheable at all: a
// Traces override without a Key has no content identity (see Job.Key)
// and returns ("", false).
//
// A job with a non-empty Key is keyed by that trace identity even when
// Traces is nil: callers that know a stored trace's digest but do not
// hold its blob (the cluster gateway computing routing keys) get the
// exact key a shard with the open replay computes.
//
// cfg's Mode and Carve are ignored, mirroring Engine semantics: the
// job's own Mode, Carve and non-zero SampleInterval are applied on top
// of cfg before hashing.
func CacheKeyFor(cfg gpusim.Config, job Job) (string, bool) {
	if job.Traces != nil && job.Key == "" {
		return "", false
	}
	return cacheKeyFor(jobConfig(cfg, job), job), true
}

// CacheKey is the common-case CacheKeyFor: the cache identity of a
// catalog workload under one tagging configuration with the default
// cycle cap. Equal keys imply identical simulations (same canonical
// machine, workload parameters, carve geometry and cache schema
// version). Keys follow gpusim.Config.Canonical, so none, imt and
// ecc-steal, which simulate identically, share one key, and the cache,
// the shard singleflight and gateway routing all treat them as one
// cell; every other mode keeps a key of its own.
func CacheKey(cfg gpusim.Config, w workload.Workload, mode gpusim.TagMode, carve gpusim.CarveOut) string {
	key, _ := CacheKeyFor(cfg, Job{Workload: w, Mode: mode, Carve: carve})
	return key
}

// Cache is a read/write handle on an engine result-cache directory for
// callers that need cache access without a full Engine (the serving
// layer's fast path). Keys come from CacheKey/CacheKeyFor, so entries
// are shared bidirectionally with engines pointed at the same
// directory.
type Cache struct {
	c *diskCache
}

// OpenCache returns a handle on the cache rooted at dir. The directory
// is created lazily on first Store; a Lookup against a nonexistent
// directory is simply a miss.
func OpenCache(dir string) *Cache {
	return &Cache{c: newDiskCache(dir)}
}

// Lookup returns the cached stats for key, reporting a miss for absent
// or unreadable entries (same contract as the engine's own lookup: a
// corrupt entry is a miss, never an error). Each handle memoises the
// entries it decodes, bounded and checked against the file on every
// lookup (see diskCache); the returned Samples are the caller's own.
func (c *Cache) Lookup(key string) (gpusim.Stats, bool) {
	return c.c.load(key)
}

// Store writes stats under key atomically. Write failures are
// swallowed, matching the engine: a full or read-only disk degrades to
// an uncached store, not a failure.
func (c *Cache) Store(key string, st gpusim.Stats) {
	c.c.store(key, st)
}

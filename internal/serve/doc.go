// Package serve is the networked front end of the reproduction: an
// HTTP JSON API (stdlib-only) that exposes IMT/AFT-ECC simulation cells
// and server-side design-space sweeps as queries over the parallel
// experiment engine, the way the paper's Figure 8 frames tagging
// evaluation — a repeatable function of (workload, tag mode, carve
// geometry) — rather than a one-shot batch run.
//
// On top of internal/runner it adds the production-shape layers the
// batch CLIs never needed:
//
//   - admission control: a bounded wait queue in front of a fixed
//     worker pool; when the queue is full, interactive requests are
//     rejected immediately with 429 + Retry-After instead of piling up
//     (sweeps opt into patient admission and self-throttle instead).
//   - request coalescing: identical in-flight cells — identified by the
//     engine's content-addressed cache key (runner.CacheKeyFor) — are
//     collapsed into one simulation whose result every waiter shares,
//     so a thundering herd of the same cell costs one run.
//   - result caching: the runner's on-disk cache is consulted before
//     admission, so a warm cell costs a stat of its entry (or one file
//     read, until the cache's memo holds it) and no queue slot; a
//     sweep sends all its cached cells first, as one burst.
//   - deadlines: per-request timeouts propagate via context into
//     gpusim.RunContext; an exceeded deadline maps to 504.
//   - streaming: sweep grids are expanded server-side and results
//     stream back as NDJSON lines the moment each cell completes.
//   - graceful drain: Daemon.Shutdown stops accepting, finishes
//     in-flight requests, and flushes metrics and the run manifest.
//   - durable jobs: POST /v1/jobs runs a sweep grid as a background job
//     under a write-ahead log (serve/jobs), so work survives a daemon
//     crash and resumes on restart without recomputing finished cells;
//     GET /v1/jobs/{id}/stream re-attaches at any frame sequence.
//
// Everything is instrumented through internal/obs: request, queue
// depth, coalesce-hit and latency metrics on the shared registry, an
// optional pprof/expvar debug mux, and an obs.Manifest per server run.
//
// The request path is written once and shared with the imtgw gateway
// (serve/cluster). A Frontend decodes requests, applies the drain gate
// and the deadline clamp, plans cells with serve/cellplan, writes the
// error envelope (the failure table is in frontend.go), and serves
// /v1/sim, /v1/sweep and /v1/workloads over an Executor. Server is the
// local executor: cache, coalescing, admission, engine. The gateway's
// executor routes the same cells to shards instead.
//
// The versioned wire types live in serve/apitypes; the durable job
// store and scheduler are serve/jobs; the client library (typed
// errors, retry with jittered backoff honoring Retry-After, job
// following across restarts) is serve/client; cmd/imtd is the daemon
// and cmd/imtload the load generator / job driver.
package serve

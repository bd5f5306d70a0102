// Package cluster is the multi-node layer of the serving stack: a
// stateless imtgw gateway that shards work across a fleet of imtd
// servers.
//
// # Routing
//
// Every cell has a content-addressed cache key (runner.CacheKeyFor):
// the hash of the simulated machine, the workload's parameters, and
// the tagging configuration. The gateway consistent-hashes that key
// onto a ring of virtual nodes (Ring), so
//
//   - a cell always routes to the shard whose on-disk result cache
//     already holds it — cache affinity with zero shard-local state;
//   - two gateways configured with the same fleet route identically,
//     so gateways scale horizontally behind a dumb TCP balancer;
//   - growing the fleet from N to N+1 shards moves only ~1/(N+1) of
//     the keys (the share the new shard takes over).
//
// # Scatter and merge
//
// The gateway's request path is the shard's own: a serve.Frontend
// decodes, validates and expands requests with serve/cellplan, so a
// sweep expands to exactly the cells a shard would run. Underneath it
// the gateway's executor (remote) groups the cells by owning shard and
// scatters one POST /v1/sweep per shard carrying an explicit cell list
// (SweepRequest.Cells — a shard's subset of a grid is never a clean
// workloads × modes product). The front end merges the per-shard
// NDJSON streams in completion order into a single client stream,
// ending in one done:true summary, and deduplicates by cell identity,
// so the client sees every cell exactly once regardless of shard
// failures.
//
// # Failure handling
//
// Each shard has a circuit breaker (closed → open on any failure;
// open → half-open on a probe success; half-open → closed on a second
// success) driven by both request outcomes and a background /v1/healthz
// prober. Transport failures and shard drains reroute the affected
// cells to the next shard in the key's ring order; semantic failures
// (4xx, 500, 504) never reroute — cells are deterministic, so another
// shard would answer identically, and a 4xx must never be retried.
// Rerouted cells arrive flagged rerouted:true with their serving
// shard in shard:, and the summary counts them.
//
// Jobs and telemetry rooms are shard-scoped resources (a WAL and an
// in-memory broadcast live on exactly one shard); the gateway answers
// their routes with 404 and a hint to address a shard directly.
//
// See OPERATIONS.md at the repository root for the operator's
// handbook: topologies, flag reference, failure modes, and drain
// ordering.
package cluster

package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/cellplan"
	"repro/internal/serve/client"
)

// Options configures a Gateway.
type Options struct {
	// Shards is the fleet of imtd base URLs (e.g.
	// "http://127.0.0.1:8866"). At least one is required.
	Shards []string
	// Replicas is the virtual-node count per shard on the hash ring
	// (0 = DefaultReplicas).
	Replicas int
	// ProbeInterval is the background health-probe period (0 = 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /v1/healthz probe (0 = 2s).
	ProbeTimeout time.Duration
	// DefaultTimeout applies to /v1/sim requests without timeout_ms
	// (0 = 30s); MaxTimeout clamps per-request deadlines and bounds
	// whole sweeps (0 = 5m). They should match the shards' settings:
	// the gateway's deadline is the outer bound, the shard's the inner.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSweepCells caps the gateway-side grid expansion (0 = 4096).
	MaxSweepCells int
	// StatszTimeout bounds each shard's statsz fetch during aggregation
	// (0 = 2s).
	StatszTimeout time.Duration
	// Debug mounts the obs debug mux on the handler.
	Debug bool
	// Obs receives gateway telemetry (nil = a fresh hub).
	Obs *obs.Hub
	// Config is the simulated machine the shards run (zero NumSMs =
	// gpusim.DefaultConfig). It must match the fleet's config: cache
	// keys — and therefore routing — are computed from it.
	Config gpusim.Config
	// Pool supplies per-shard clients (nil = a fresh Pool). Tests
	// inject one to tune retry policy.
	Pool *client.Pool
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = DefaultReplicas
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.StatszTimeout <= 0 {
		o.StatszTimeout = 2 * time.Second
	}
	if o.Obs == nil {
		o.Obs = obs.NewHub()
	}
	if o.Config.NumSMs == 0 {
		o.Config = gpusim.DefaultConfig()
	}
	if o.Pool == nil {
		o.Pool = client.NewPool()
	}
	return o
}

// Gateway is a stateless sharding front for a fleet of imtd shards: it
// consistent-hashes cells across the fleet on their runner cache keys,
// scatters sweep grids as per-shard POST /v1/sweep cell lists, merges
// the shards' NDJSON streams in completion order into one client
// stream, and reroutes cells off shards that fail mid-flight. The /v1
// request path itself is the shard's serve.Frontend over a remote
// executor, so a gateway accepts, plans and streams exactly as a shard
// does. Construct with New, mount Handler, stop with Close.
type Gateway struct {
	opts     Options
	hub      *obs.Hub
	fe       *serve.Frontend
	plan     *cellplan.Plan
	ring     *Ring
	pool     *client.Pool
	shards   []*shardState
	byURL    map[string]*shardState
	started  time.Time
	manifest obs.Manifest

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once

	mTracePushes   *obs.Counter
	mRerouted      *obs.Counter
	mShardErrors   *obs.Counter
	mBreakerOpens  *obs.Counter
	mProbes        *obs.Counter
	mProbeFailures *obs.Counter
	mShardsUp      *obs.Gauge
}

// New builds a gateway over opts.Shards and starts its background
// health prober (one immediate synchronous round, so routing state is
// populated before the first request).
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(opts.Shards, opts.Replicas)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		opts:      opts,
		hub:       opts.Obs,
		ring:      ring,
		pool:      opts.Pool,
		byURL:     make(map[string]*shardState),
		started:   time.Now(),
		stopProbe: make(chan struct{}),
	}
	// Cache keys, and therefore routing, are computed under the fleet's
	// machine config. Trace residency is the shards' concern: a missing
	// blob surfaces as trace_not_found and is pushed over (ensureTrace).
	g.plan = cellplan.New(cellplan.Options{Config: opts.Config, MaxCells: opts.MaxSweepCells})
	for _, url := range ring.Shards() {
		ss := &shardState{url: url, br: newBreaker()}
		g.shards = append(g.shards, ss)
		g.byURL[url] = ss
	}
	reg := g.hub.Metrics
	if reg == nil {
		reg = obs.NewRegistry() // the counters behind Stats, unexported
	}
	g.mTracePushes = reg.Counter("serve_gw_trace_pushes_total", "trace blobs pushed shard-to-shard after a trace_not_found miss")
	g.mRerouted = reg.Counter("serve_gw_rerouted_total", "cells rerouted to another shard after a shard failure")
	g.mShardErrors = reg.Counter("serve_gw_shard_errors_total", "shard request/stream failures observed by the gateway")
	g.mBreakerOpens = reg.Counter("serve_gw_breaker_opens_total", "shard breaker transitions to open")
	g.mProbes = reg.Counter("serve_gw_probes_total", "shard health probes sent")
	g.mProbeFailures = reg.Counter("serve_gw_probe_failures_total", "shard health probes that failed")
	g.mShardsUp = reg.Gauge("serve_gw_shards_up", "shards currently routable (breaker not open)")
	g.fe = serve.NewFrontend(serve.FrontendOptions{
		Exec:           remote{g},
		Plan:           g.plan,
		DefaultTimeout: opts.DefaultTimeout,
		MaxTimeout:     opts.MaxTimeout,
		Metrics:        reg,
		Prefix:         "serve_gw",
	})
	g.manifest = obs.NewManifest("imtgw", struct {
		Shards   []string
		Replicas int
	}{ring.Shards(), opts.Replicas})
	g.probeAll(context.Background())
	g.probeWG.Add(1)
	go g.prober()
	return g, nil
}

// Hub returns the gateway's observability hub.
func (g *Gateway) Hub() *obs.Hub { return g.hub }

// Ring returns the gateway's hash ring (read-only).
func (g *Gateway) Ring() *Ring { return g.ring }

// SetDraining flips the gateway into (or out of) drain mode: new work
// is refused with 503 + Retry-After while in-flight streams complete.
func (g *Gateway) SetDraining(v bool) { g.fe.SetDraining(v) }

// Close stops the background prober and drops idle shard connections.
// Idempotent.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stopProbe)
		g.probeWG.Wait()
		g.pool.CloseIdle()
	})
}

// Handler returns the gateway's HTTP handler:
//
//	POST /v1/sim        route one cell to its shard (reroute on failure)
//	POST /v1/sweep      scatter the grid, merge shard NDJSON streams
//	POST /v1/traces     stream the blob to the first routable shard
//	GET  /v1/traces     digest-deduplicated union across the fleet
//	GET  /v1/traces/{d} stat (or ?raw=1 stream) from whichever shard holds it
//	DELETE /v1/traces/{d} fan-out delete (409 if any shard holds it in use)
//	GET  /v1/workloads  catalog listing (served locally; same binary)
//	GET  /v1/statsz     GatewaySnapshot: aggregate + per-shard breakdown
//	GET  /v1/healthz    200 while ≥1 shard is routable and not draining
//
// plus the obs debug mux when Options.Debug is set. Jobs and telemetry
// rooms are shard-scoped resources (a WAL and a broadcast live on one
// shard); their routes answer 404 with a hint to address a shard
// directly.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	g.fe.Mount(mux)
	api := g.fe.Route
	mux.HandleFunc("POST /v1/traces", api("traces", g.handleTraceUpload))
	mux.HandleFunc("GET /v1/traces", api("traces", g.handleTraceList))
	mux.HandleFunc("GET /v1/traces/{digest}", api("traces", g.handleTraceGet))
	mux.HandleFunc("DELETE /v1/traces/{digest}", api("traces", g.handleTraceDelete))
	mux.HandleFunc("GET /v1/statsz", api("statsz", g.handleStatsz))
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	shardScoped := g.fe.Refuse(http.StatusNotFound, apitypes.CodeNotFound,
		"cluster: jobs and watch rooms are shard-scoped; address an imtd shard directly")
	mux.HandleFunc("/v1/jobs", shardScoped)
	mux.HandleFunc("/v1/jobs/", shardScoped)
	mux.HandleFunc("/v1/watch/", shardScoped)
	if g.opts.Debug {
		dbg := obs.DebugMux(g.hub.Metrics)
		mux.Handle("/debug/", dbg)
		mux.Handle("GET /metrics", dbg)
		mux.Handle("GET /metrics.json", dbg)
	}
	return mux
}

// assign groups cells by their first routable shard in ring order.
// Cells with no routable shard at all land in the second return value.
func (g *Gateway) assign(cells []cellplan.Cell) (map[string][]cellplan.Cell, []cellplan.Cell) {
	groups := make(map[string][]cellplan.Cell)
	var unroutable []cellplan.Cell
	for _, c := range cells {
		placed := false
		for _, url := range g.ring.Order(c.Key) {
			if g.byURL[url].br.routable() {
				groups[url] = append(groups[url], c)
				placed = true
				break
			}
		}
		if !placed {
			unroutable = append(unroutable, c)
		}
	}
	return groups, unroutable
}

// errNoShard is the gateway's verdict when every shard is open or has
// failed the request: 503 draining, the backpressure shape clients
// already retry.
var errNoShard = &client.APIError{
	StatusCode: http.StatusServiceUnavailable,
	Code:       apitypes.CodeDraining,
	Message:    "cluster: no healthy shard available",
	RetryAfter: time.Second,
}

// remote is the gateway's serve.Executor: cells run on the shard that
// owns their cache key, with reroute on shard failure and a trace push
// when the owner lacks a trace blob. Watched requests never reach it —
// the front end refuses them, since rooms are shard-scoped.
type remote struct{ *Gateway }

// Sim walks the cell's ring order until a routable shard answers.
func (g remote) Sim(ctx context.Context, req apitypes.SimRequest, cell cellplan.Cell, _ func(runner.LiveSample)) (apitypes.CellResult, error) {
	hops := 0
	ensured := false
	order := g.ring.Order(cell.Key)
	for i := 0; i < len(order); i++ {
		url := order[i]
		ss := g.byURL[url]
		if !ss.br.routable() {
			continue
		}
		res, err := g.pool.For(url).Sim(ctx, req)
		if err == nil {
			ss.br.onSuccess(false)
			res.Shard = url
			res.Rerouted = hops > 0
			if hops > 0 {
				g.mRerouted.Inc()
			}
			return res, nil
		}
		if cell.Digest != "" && !ensured && errors.Is(err, client.ErrTraceNotFound) {
			// The ring-preferred shard does not hold the blob (evicted,
			// fresh shard, or the trace was uploaded elsewhere). Push it
			// from whichever shard has it and retry the same shard once.
			if pushErr := g.ensureTrace(ctx, url, cell.Digest); pushErr == nil {
				ensured = true
				i--
				continue
			}
			// No shard holds the blob: the shard's 404 stands — the
			// client must re-upload.
		}
		if !reroutable(err) {
			// Semantic failure (4xx, 504, 500): the shard answered; its
			// verdict stands. Cells are deterministic, so another shard
			// would fail identically — and a 4xx must never be retried.
			return apitypes.CellResult{}, err
		}
		g.shardFailed(ss)
		ss.rerouted.Add(1)
		hops++
	}
	return apitypes.CellResult{}, errNoShard
}

// reroutable: transport failures and shard drains move a cell to
// another shard; anything the shard actually answered (including 429
// after the per-shard client exhausted its backpressure retries) does
// not — never retry a 4xx on another shard. Context expiry is the
// caller's budget, not the shard's failure.
func reroutable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return errors.Is(apiErr, client.ErrDraining)
	}
	return true // transport error: refused, reset, shard died mid-body
}

// shardFailed records a request-path failure on ss: breaker opens,
// counters bump.
func (g *Gateway) shardFailed(ss *shardState) {
	g.mShardErrors.Inc()
	if ss.br.onFailure() {
		g.mBreakerOpens.Inc()
	}
	g.gaugeShardsUp()
}

// Sweep scatters the grid: one NDJSON sweep stream per shard carrying
// exactly that shard's cells. A failed stream's undelivered cells are
// reassigned to the surviving shards (their lines arrive flagged
// rerouted); the front end's merge deduplicates by cell identity, so a
// client sees every cell exactly once however many times a shard died
// mid-flight.
func (g remote) Sweep(ctx context.Context, req apitypes.SweepRequest, cells []cellplan.Cell,
	_ func(cellplan.Cell) func(runner.LiveSample), emitCells func(...serve.CellReport)) {
	emit := func(res apitypes.CellResult) {
		if res.Rerouted {
			g.mRerouted.Inc()
		}
		emitCells(serve.CellReport{Result: res})
	}
	var wg sync.WaitGroup
	groups, unroutable := g.assign(cells)
	for url, group := range groups {
		wg.Add(1)
		go g.sweepShard(ctx, &wg, emit, url, group, req, 0, false)
	}
	g.failCells(emit, unroutable, 0, errNoShard.Message)
	wg.Wait()
}

// sweepShard streams one shard's share of a sweep, forwarding each
// line annotated with the shard and reroute status. When the stream
// fails, the undelivered remainder is reassigned across the surviving
// fleet and streamed by freshly spawned workers; after maxHops (one
// per shard) the remainder is reported failed instead, bounding the
// reroute cascade even if breakers heal mid-sweep. A trace_not_found
// verdict gets one push-and-retry on the same shard (ensured bounds
// it): the gateway copies the missing blobs over from whichever shard
// holds them, then resubmits the same cell list.
func (g *Gateway) sweepShard(ctx context.Context, wg *sync.WaitGroup, emit func(apitypes.CellResult), url string, cells []cellplan.Cell, req apitypes.SweepRequest, hops int, ensured bool) {
	defer wg.Done()
	shardReq := apitypes.SweepRequest{
		Cells:          cellplan.Refs(cells),
		MaxCycles:      req.MaxCycles,
		SampleInterval: req.SampleInterval,
		TimeoutMs:      req.TimeoutMs,
	}
	seen := make(map[apitypes.CellRef]bool, len(cells))
	ss := g.byURL[url]
	_, err := g.pool.Raw(url).Sweep(ctx, shardReq, func(res apitypes.CellResult) error {
		res.Shard = url
		res.Rerouted = hops > 0
		seen[apitypes.CellRef{Workload: res.Workload, Mode: res.Mode}] = true
		emit(res)
		return nil
	})
	if err == nil {
		ss.br.onSuccess(false)
		return
	}
	remaining := remainder(cells, seen)
	if ctx.Err() != nil {
		// The sweep's own deadline expired; report the remainder as
		// timed out rather than rerouting against a spent budget.
		g.failCells(emit, remaining, hops+1, "cluster: sweep deadline exceeded")
		return
	}
	if !ensured && errors.Is(err, client.ErrTraceNotFound) {
		// The shard rejected the whole cell list because a trace blob is
		// missing there. Push every trace the group references, then
		// retry the same shard exactly once.
		pushed := true
		for _, digest := range traceDigests(remaining) {
			if pushErr := g.ensureTrace(ctx, url, digest); pushErr != nil {
				pushed = false
				break
			}
		}
		if pushed {
			wg.Add(1)
			go g.sweepShard(ctx, wg, emit, url, remaining, req, hops, true)
			return
		}
	}
	if !reroutable(err) {
		// The shard answered with a semantic failure (e.g. it rejected
		// the cell list). Surfacing it per cell keeps the merge exact.
		g.failCells(emit, remaining, hops, fmt.Sprintf("cluster: shard %s: %v", url, err))
		return
	}
	g.shardFailed(ss)
	ss.rerouted.Add(uint64(len(remaining)))
	if hops+1 >= len(g.shards) {
		g.failCells(emit, remaining, hops+1, fmt.Sprintf("cluster: shard %s: %v (reroute budget exhausted)", url, err))
		return
	}
	groups, unroutable := g.assign(remaining)
	for nextURL, group := range groups {
		wg.Add(1)
		// ensured resets: the replacement shard may be missing the blob
		// too, and deserves its own push-and-retry.
		go g.sweepShard(ctx, wg, emit, nextURL, group, req, hops+1, false)
	}
	g.failCells(emit, unroutable, hops+1, errNoShard.Message)
}

// traceDigests returns the distinct trace digests the cells reference,
// in first-appearance order.
func traceDigests(cells []cellplan.Cell) []string {
	var out []string
	seen := make(map[string]bool)
	for _, c := range cells {
		if c.Digest != "" && !seen[c.Digest] {
			seen[c.Digest] = true
			out = append(out, c.Digest)
		}
	}
	return out
}

// failCells reports cells that no shard will deliver.
func (g *Gateway) failCells(emit func(apitypes.CellResult), cells []cellplan.Cell, hops int, msg string) {
	for _, c := range cells {
		emit(apitypes.CellResult{
			Workload: c.Ref.Workload,
			Mode:     c.Ref.Mode,
			Error:    msg,
			Rerouted: hops > 0,
		})
	}
}

func remainder(cells []cellplan.Cell, seen map[apitypes.CellRef]bool) []cellplan.Cell {
	var rest []cellplan.Cell
	for _, c := range cells {
		if !seen[c.Ref] {
			rest = append(rest, c)
		}
	}
	return rest
}

// Stats assembles the gateway snapshot: every shard's /v1/statsz
// fetched concurrently (bounded by StatszTimeout each), summed into
// the aggregate, with the per-shard breakdown carrying breaker states
// and reroute counts. Unreachable shards stay in the breakdown with an
// error and are excluded from the aggregate.
func (g *Gateway) Stats(ctx context.Context) apitypes.GatewaySnapshot {
	up := time.Since(g.started)
	snap := apitypes.GatewaySnapshot{
		StatsSnapshot: apitypes.StatsSnapshot{
			Draining:      g.fe.Draining(),
			UptimeMs:      float64(up) / float64(time.Millisecond),
			UptimeSeconds: up.Seconds(),
			ConfigHash:    g.manifest.ConfigHash,
			GoVersion:     g.manifest.GoVersion,
			VCSRevision:   g.manifest.VCSRevision,
			VCSModified:   g.manifest.VCSModified,
		},
		Shards: make([]apitypes.ShardSnapshot, len(g.shards)),
	}
	var wg sync.WaitGroup
	for i, ss := range g.shards {
		wg.Add(1)
		go func(i int, ss *shardState) {
			defer wg.Done()
			row := apitypes.ShardSnapshot{
				Shard:    ss.url,
				Breaker:  ss.br.State(),
				Rerouted: ss.rerouted.Load(),
			}
			sctx, cancel := context.WithTimeout(ctx, g.opts.StatszTimeout)
			defer cancel()
			st, err := g.pool.Raw(ss.url).Stats(sctx)
			if err != nil {
				row.Error = err.Error()
			} else {
				row.Stats = &st
			}
			snap.Shards[i] = row
		}(i, ss)
	}
	wg.Wait()
	gw := apitypes.GatewayStats{ShardsTotal: len(g.shards)}
	for _, row := range snap.Shards {
		if row.Breaker != apitypes.BreakerOpen {
			gw.ShardsUp++
		}
		if row.Stats == nil {
			continue
		}
		st := row.Stats
		snap.Requests += st.Requests
		snap.Cells += st.Cells
		snap.CacheHits += st.CacheHits
		snap.CoalesceHits += st.CoalesceHits
		snap.Rejected += st.Rejected
		snap.Timeouts += st.Timeouts
		snap.Errors += st.Errors
		snap.Inflight += st.Inflight
		snap.QueueDepth += st.QueueDepth
		if st.Traces != nil {
			if snap.Traces == nil {
				snap.Traces = &apitypes.TraceStoreStats{}
			}
			snap.Traces.Blobs += st.Traces.Blobs
			snap.Traces.Bytes += st.Traces.Bytes
			snap.Traces.QuotaBytes += st.Traces.QuotaBytes
			snap.Traces.Puts += st.Traces.Puts
			snap.Traces.PutHits += st.Traces.PutHits
			snap.Traces.Rejected += st.Traces.Rejected
			snap.Traces.Evictions += st.Traces.Evictions
			snap.Traces.Deletes += st.Traces.Deletes
		}
	}
	gw.Requests = g.fe.Requests()
	gw.Cells = g.fe.Cells()
	gw.Rerouted = g.mRerouted.Value()
	gw.ShardErrors = g.mShardErrors.Value()
	gw.BreakerOpens = g.mBreakerOpens.Value()
	snap.Gateway = &gw
	return snap
}

func (g *Gateway) handleStatsz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, g.Stats(r.Context()))
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	routable := 0
	for _, ss := range g.shards {
		if ss.br.routable() {
			routable++
		}
	}
	if g.fe.Draining() || routable == 0 {
		status := "draining"
		if routable == 0 {
			status = "no healthy shards"
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": status, "shards_up": routable})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards_up": routable})
}

// Manifest pins this gateway run: fleet identity plus current routing
// counters and the metrics snapshot. Call at drain time.
func (g *Gateway) Manifest() obs.Manifest {
	m := g.manifest
	m.WallSeconds = time.Since(g.started).Seconds()
	m.Counters = map[string]uint64{
		"requests":      g.fe.Requests(),
		"cells":         g.fe.Cells(),
		"rerouted":      g.mRerouted.Value(),
		"shard_errors":  g.mShardErrors.Value(),
		"breaker_opens": g.mBreakerOpens.Value(),
	}
	if g.hub.Metrics != nil {
		snap := g.hub.Metrics.Snapshot()
		m.Metrics = &snap
	}
	return m
}

// retryAfterSeconds mirrors the shard-side backpressure hint.
const retryAfterSeconds = 1

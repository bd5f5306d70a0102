package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/cellplan"
	"repro/internal/serve/jobs"
	"repro/internal/serve/rooms"
	"repro/internal/tracestore"
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently executing simulations (0 = GOMAXPROCS).
	Workers int
	// Queue bounds interactive requests waiting for a worker; beyond it
	// new requests get 429 + Retry-After (0 = 4×Workers).
	Queue int
	// CacheDir enables the shared on-disk result cache ("" disables it).
	CacheDir string
	// DefaultTimeout applies to requests without timeout_ms (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request deadlines and bounds whole sweeps
	// (0 = 5m).
	MaxTimeout time.Duration
	// MaxSweepCells caps the server-side grid expansion (0 = 4096).
	MaxSweepCells int
	// JobsDir enables the durable async job queue (POST /v1/jobs …),
	// persisting the job WAL under this directory ("" disables jobs; the
	// job endpoints then answer 404 not_found).
	JobsDir string
	// JobTTL is how long finished jobs are retained before GC
	// (0 = 1h).
	JobTTL time.Duration
	// JobWorkers bounds concurrently running jobs (0 = 2). Cells inside
	// a job still pass through admission control, so total simulation
	// concurrency never exceeds Workers.
	JobWorkers int
	// WatchSampleInterval is the sampling interval forced onto watch:true
	// requests that did not set one — live telemetry requires sampling
	// (0 = 50000 cycles).
	WatchSampleInterval uint64
	// RoomBuffer is the per-watcher frame buffer; a watcher this far
	// behind a room's broadcast is evicted (0 = the rooms default, 256).
	RoomBuffer int
	// RoomHistory bounds each room's replay history in frames
	// (0 = 65536).
	RoomHistory int
	// RoomTTL is how long a closed room stays replayable (0 = 2m).
	RoomTTL time.Duration
	// TraceDir enables the content-addressed trace store (POST /v1/traces
	// and trace:<digest> workloads; "" disables them — the trace routes
	// then answer 404).
	TraceDir string
	// TraceQuotaBytes caps the store's total blob bytes; over the cap the
	// least-recently-used unreferenced trace is evicted to make room
	// (0 = unbounded).
	TraceQuotaBytes int64
	// TraceTTL expires traces unused for this long (0 = keep forever).
	TraceTTL time.Duration
	// Debug mounts the obs debug mux (pprof, expvar, /metrics) on the
	// handler.
	Debug bool
	// Obs receives server telemetry (nil = a fresh hub).
	Obs *obs.Hub
	// Config is the simulated machine (zero NumSMs = gpusim.DefaultConfig).
	Config gpusim.Config
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 4 * o.Workers
	}
	if o.WatchSampleInterval == 0 {
		o.WatchSampleInterval = 50000
	}
	if o.Obs == nil {
		o.Obs = obs.NewHub()
	}
	if o.Config.NumSMs == 0 {
		o.Config = gpusim.DefaultConfig()
	}
	return o
}

// Server serves simulation cells over HTTP. Construct with New, obtain
// the handler with Handler (httptest-friendly), or bind a socket with
// Listen for the daemon shape. The shared /v1 request path is its
// Frontend; the Server is the Frontend's local Executor plus the
// shard-scoped resources: jobs, watch rooms and the trace store.
type Server struct {
	opts     Options
	hub      *obs.Hub
	fe       *Frontend
	plan     *cellplan.Plan
	eng      *runner.Engine
	cache    *runner.Cache
	adm      *admission
	flights  flightGroup
	started  time.Time
	manifest obs.Manifest
	jobStore *jobs.Store
	jobs     *jobs.Manager
	rooms    *rooms.Registry
	traces   *tracestore.Store

	// jobRooms maps job ID → telemetry room for watch:true jobs. The
	// mapping is in-memory like the rooms themselves: resumed jobs get a
	// fresh room on their first post-restart cell.
	jobRoomsMu sync.Mutex
	jobRooms   map[string]*rooms.Room

	mCacheHits *obs.Counter
	mCoalesce  *obs.Counter
	mQueueWait *obs.Histogram

	// simHook, when non-nil, replaces the engine run inside execute —
	// admission and coalescing still apply. Test seam: lets the suite
	// hold a slot open or fail deterministically without timing a real
	// simulation.
	simHook func(ctx context.Context, cell cellplan.Cell) outcome
}

// New builds a server. The engine, admission controller and metrics are
// shared across every request the server will handle. With
// Options.JobsDir set, the job WAL is replayed and crash-interrupted
// jobs resume immediately; a corrupt WAL is the only error path.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		hub:     opts.Obs,
		started: time.Now(),
	}
	// One engine serves every cell: each runs as a one-job Run under
	// serve's own admission control (1 job = 1 worker), and a cell's
	// sampling interval and live sink ride on its runner.Job.
	s.eng = runner.New(opts.Config, runner.Options{Workers: 1, CacheDir: opts.CacheDir, Obs: s.hub})
	if opts.CacheDir != "" {
		s.cache = runner.OpenCache(opts.CacheDir)
	}
	s.plan = cellplan.New(cellplan.Options{
		Config:     opts.Config,
		MaxCells:   opts.MaxSweepCells,
		CheckTrace: s.checkTrace,
	})
	reg := s.hub.Metrics
	if reg == nil {
		reg = obs.NewRegistry() // the counters behind Stats, unexported
	}
	s.adm = newAdmission(opts.Workers, opts.Queue, reg)
	s.mCacheHits = reg.Counter("serve_cache_hits_total", "cells answered from the result cache")
	s.mCoalesce = reg.Counter("serve_coalesce_hits_total", "requests that shared another request's in-flight simulation")
	s.mQueueWait = reg.Histogram("serve_queue_wait_seconds", "time spent waiting for an execution slot", obs.DurationBuckets)
	s.rooms = rooms.NewRegistry(reg, rooms.Options{
		Buffer:  opts.RoomBuffer,
		History: opts.RoomHistory,
		TTL:     opts.RoomTTL,
	})
	s.jobRooms = make(map[string]*rooms.Room)
	s.fe = NewFrontend(FrontendOptions{
		Exec:                local{s},
		Plan:                s.plan,
		Rooms:               s.rooms,
		WatchSampleInterval: opts.WatchSampleInterval,
		DefaultTimeout:      opts.DefaultTimeout,
		MaxTimeout:          opts.MaxTimeout,
		Metrics:             reg,
		Prefix:              "serve",
	})
	s.manifest = obs.NewManifest("imtd", struct {
		Workers, Queue int
		CacheDir       string
		JobsDir        string
		Config         gpusim.Config
	}{opts.Workers, opts.Queue, opts.CacheDir, opts.JobsDir, opts.Config})
	if opts.JobsDir != "" {
		st, err := jobs.Open(opts.JobsDir)
		if err != nil {
			return nil, err
		}
		s.jobStore = st
		s.jobs = jobs.NewManager(st, jobs.ManagerOptions{
			Run:          s.runJobCell,
			JobWorkers:   opts.JobWorkers,
			CellParallel: opts.Workers,
			TTL:          opts.JobTTL,
			Registry:     reg,
		})
		if err := s.jobs.Start(); err != nil {
			return nil, err
		}
	}
	if opts.TraceDir != "" {
		// Opened after the job store so the InUse guard can see resumed
		// jobs: a trace referenced by a queued or running job is never
		// evicted or deleted out from under it.
		ts, err := tracestore.Open(tracestore.Options{
			Dir:        opts.TraceDir,
			QuotaBytes: opts.TraceQuotaBytes,
			TTL:        opts.TraceTTL,
			InUse:      s.traceInUse,
			Registry:   reg,
		})
		if err != nil {
			return nil, err
		}
		s.traces = ts
	}
	return s, nil
}

// traceInUse reports whether any non-terminal job references the trace:
// the store's eviction/delete guard. Jobs name trace cells as
// "trace:<digest>" in their sweep's Workloads or expanded Cells.
func (s *Server) traceInUse(digest string) bool {
	if s.jobStore == nil {
		return false
	}
	name := "trace:" + digest
	for _, info := range s.jobStore.List("") {
		if info.State.Terminal() {
			continue
		}
		for _, w := range info.Sweep.Workloads {
			if w == name {
				return true
			}
		}
		for _, ref := range info.Sweep.Cells {
			if ref.Workload == name {
				return true
			}
		}
	}
	return false
}

// checkTrace is the shard's half of planning a trace:<digest> cell: the
// store must hold the blob (a wrapped tracestore.ErrNotFound otherwise,
// the typed 404 a gateway re-uploads on) and its SM streams must fit
// the machine.
func (s *Server) checkTrace(digest string) error {
	if s.traces == nil {
		return fmt.Errorf("%w: trace store disabled (start the daemon with -trace-dir)", tracestore.ErrNotFound)
	}
	info, err := s.traces.Stat(digest)
	if err != nil {
		return err
	}
	if info.NumSMs > s.opts.Config.NumSMs {
		return fmt.Errorf("serve: trace %s… carries %d SM streams, machine has %d SMs",
			digest[:12], info.NumSMs, s.opts.Config.NumSMs)
	}
	return nil
}

// Hub returns the server's observability hub (metrics registry, trace
// recorder, cell log).
func (s *Server) Hub() *obs.Hub { return s.hub }

// Handler returns the server's HTTP handler:
//
//	POST   /v1/sim              one cell → CellResult JSON
//	POST   /v1/sweep            grid → NDJSON CellResult stream + SweepSummary
//	POST   /v1/jobs             durable job submit → JobInfo (202)
//	GET    /v1/jobs             job listing (?tenant= filters)
//	GET    /v1/jobs/{id}        job poll → JobInfo
//	GET    /v1/jobs/{id}/stream NDJSON JobFrame stream (?from=N resumes)
//	DELETE /v1/jobs/{id}        cancel → JobInfo
//	GET    /v1/watch/{room}     SSE telemetry stream (?from=N resumes)
//	GET    /v1/workloads        catalog listing
//	GET    /v1/statsz           StatsSnapshot (activity counters)
//	GET    /v1/healthz          200 ok / 503 draining
//
// plus, when Options.Debug is set, the obs debug mux (/metrics,
// /metrics.json, /debug/vars, /debug/pprof/).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.fe.Mount(mux)
	api := s.fe.Route
	if s.jobs != nil {
		mux.HandleFunc("POST /v1/jobs", api("jobs", s.handleJobSubmit))
		mux.HandleFunc("GET /v1/jobs", api("", s.handleJobList))
		mux.HandleFunc("GET /v1/jobs/{id}", api("", s.handleJobGet))
		mux.HandleFunc("GET /v1/jobs/{id}/stream", api("jobs", s.handleJobStream))
		mux.HandleFunc("DELETE /v1/jobs/{id}", api("", s.handleJobCancel))
	} else {
		// A 404 that says why, so a client pointed at the wrong daemon is
		// not left guessing.
		off := api("", s.fe.Refuse(http.StatusNotFound, apitypes.CodeNotFound,
			"serve: job queue disabled (start the daemon with -jobs-dir)"))
		mux.HandleFunc("/v1/jobs", off)
		mux.HandleFunc("/v1/jobs/", off)
	}
	if s.traces != nil {
		mux.HandleFunc("POST /v1/traces", api("traces", s.handleTraceUpload))
		mux.HandleFunc("GET /v1/traces", api("", s.handleTraceList))
		mux.HandleFunc("GET /v1/traces/{digest}", api("", s.handleTraceGet))
		mux.HandleFunc("DELETE /v1/traces/{digest}", api("", s.handleTraceDelete))
	} else {
		// The typed trace_not_found: clients see one code for "this shard
		// cannot serve this trace" whether the store is absent or the blob.
		off := api("", s.fe.Refuse(http.StatusNotFound, apitypes.CodeTraceNotFound,
			"serve: trace store disabled (start the daemon with -trace-dir)"))
		mux.HandleFunc("/v1/traces", off)
		mux.HandleFunc("/v1/traces/", off)
	}
	mux.HandleFunc("GET /v1/watch/{room}", api("watch", s.handleWatch))
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	if s.opts.Debug {
		dbg := obs.DebugMux(s.hub.Metrics)
		mux.Handle("/debug/", dbg)
		mux.Handle("GET /metrics", dbg)
		mux.Handle("GET /metrics.json", dbg)
	}
	return mux
}

// local is the shard's Executor: every cell runs on this server.
type local struct{ *Server }

func (l local) Sim(ctx context.Context, _ apitypes.SimRequest, cell cellplan.Cell, sink func(runner.LiveSample)) (apitypes.CellResult, error) {
	return l.runCell(ctx, cell, false, sink)
}

// Sweep answers every cached cell first, inline and as one burst, so
// the front end writes them with a single flush. The misses then run
// through the same path as a /v1/sim request on at most Workers
// goroutines, which take them in plan order, with patient admission:
// the sweep's concurrency is its flow control, so its cells wait for
// slots instead of tripping the interactive queue bound.
func (l local) Sweep(ctx context.Context, _ apitypes.SweepRequest, cells []cellplan.Cell,
	sinks func(cellplan.Cell) func(runner.LiveSample), emit func(...CellReport)) {
	var hits []CellReport
	misses := make(chan cellplan.Cell, len(cells)) // never blocks: one send per cell at most
	for _, cell := range cells {
		if res, ok := l.cached(cell, time.Now()); ok {
			hits = append(hits, CellReport{Result: res})
		} else {
			misses <- cell
		}
	}
	close(misses)
	if len(hits) > 0 {
		emit(hits...)
	}
	var wg sync.WaitGroup
	for w := min(l.opts.Workers, len(misses)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range misses {
				res, err := l.runCell(ctx, cell, true, sinks(cell))
				emit(CellReport{Result: res, Err: err})
			}
		}()
	}
	wg.Wait()
}

// runCell executes one cell through the full serving path: cache fast
// path, then singleflight coalescing on the cell's content key, then
// admission, then the engine. It never writes HTTP — the front end maps
// the returned error onto the failure table. sink, when non-nil,
// receives the run's live telemetry samples; cached and
// coalesced-follower cells emit none (nothing is re-simulated — the
// watcher sees their cell-done frame only).
func (s *Server) runCell(ctx context.Context, cell cellplan.Cell, patient bool, sink func(runner.LiveSample)) (apitypes.CellResult, error) {
	t0 := time.Now()
	if res, ok := s.cached(cell, t0); ok {
		return res, nil
	}
	res := newCellResult(cell)
	out, shared, err := s.flights.do(ctx, cell.Key, func() outcome {
		return s.execute(ctx, cell, patient, sink)
	})
	res.Coalesced = shared
	if shared {
		s.mCoalesce.Inc()
	}
	res.ElapsedMs = millisSince(t0)
	if err != nil {
		// The follower's own deadline expired while waiting on the
		// leader; the leader keeps running for everyone else.
		return res, err
	}
	if out.err != nil {
		return res, out.err
	}
	res.Cached = out.cached
	if out.cached {
		s.mCacheHits.Inc()
	}
	st := out.stats
	res.Stats = &st
	return res, nil
}

// cached answers cell from the result cache, reporting false on a miss;
// t0 is when the cell's service began. It is the one cache-hit path, of
// /v1/sim, jobs and a sweep's burst alike: no queue slot, and a stat of
// the entry file while the cache's memo holds it, one file read
// otherwise.
func (s *Server) cached(cell cellplan.Cell, t0 time.Time) (apitypes.CellResult, bool) {
	if s.cache == nil {
		return apitypes.CellResult{}, false
	}
	st, ok := s.cache.Lookup(cell.Key)
	if !ok {
		return apitypes.CellResult{}, false
	}
	s.mCacheHits.Inc()
	res := newCellResult(cell)
	res.Cached = true
	res.Stats = &st
	res.ElapsedMs = millisSince(t0)
	return res, true
}

// newCellResult is the identity part of cell's result line.
func newCellResult(cell cellplan.Cell) apitypes.CellResult {
	return apitypes.CellResult{Workload: cell.Ref.Workload, Mode: cell.Ref.Mode, CacheKey: shortKey(cell.Key)}
}

// execute is the singleflight leader's body: acquire an execution slot
// under the request's context, run the engine, and normalize the
// result.
func (s *Server) execute(ctx context.Context, cell cellplan.Cell, patient bool, sink func(runner.LiveSample)) outcome {
	tQueue := time.Now()
	release, err := s.adm.acquire(ctx, patient)
	s.mQueueWait.Observe(time.Since(tQueue).Seconds())
	if err != nil {
		return outcome{err: err}
	}
	defer release()

	if s.simHook != nil {
		return s.simHook(ctx, cell)
	}
	job := cell.Job
	job.OnSample = sink
	if cell.Digest != "" {
		// Pin the blob for exactly the duration of the run. A digest that
		// was planned but is gone now was evicted in between; the typed
		// not-found propagates so a gateway can re-upload and retry.
		rep, err := s.traces.OpenReplay(cell.Digest)
		if err != nil {
			return outcome{err: err}
		}
		defer rep.Close()
		job.Traces = rep.Traces
	}
	results, runErr := s.eng.Run(ctx, []runner.Job{job})
	r := results[0]
	if r.Err == nil && runErr != nil {
		r.Err = runErr
	}
	if r.Err != nil {
		return outcome{err: r.Err}
	}
	// WithoutHost: responses are deterministic functions of the cell,
	// identical whether served fresh, coalesced or from cache.
	return outcome{stats: r.Stats.WithoutHost(), cached: r.Cached}
}

// Stats returns the server's activity snapshot (the /v1/statsz body).
func (s *Server) Stats() apitypes.StatsSnapshot {
	up := time.Since(s.started)
	snap := apitypes.StatsSnapshot{
		Draining:      s.fe.Draining(),
		UptimeMs:      float64(up) / float64(time.Millisecond),
		UptimeSeconds: up.Seconds(),
		// Build identity, so a watcher can tell which binary and machine
		// configuration it is observing.
		ConfigHash:   s.manifest.ConfigHash,
		GoVersion:    s.manifest.GoVersion,
		VCSRevision:  s.manifest.VCSRevision,
		VCSModified:  s.manifest.VCSModified,
		Requests:     s.fe.Requests(),
		Cells:        s.fe.Cells(),
		Rejected:     s.fe.mRejected.Value(),
		Timeouts:     s.fe.mTimeouts.Value(),
		Errors:       s.fe.mErrors.Value(),
		CacheHits:    s.mCacheHits.Value(),
		CoalesceHits: s.mCoalesce.Value(),
		Inflight:     int64(s.adm.inflight.Value()),
		QueueDepth:   s.adm.waiting.Load(),
	}
	if s.jobs != nil {
		js := s.jobs.Stats()
		snap.Jobs = &js
	}
	if s.rooms != nil {
		rs := s.rooms.Stats()
		snap.Rooms = &rs
	}
	if s.traces != nil {
		ts := s.traces.Stats()
		snap.Traces = &apitypes.TraceStoreStats{
			Blobs:      ts.Blobs,
			Bytes:      ts.Bytes,
			QuotaBytes: ts.QuotaBytes,
			Puts:       ts.Puts,
			PutHits:    ts.PutHits,
			Rejected:   ts.Rejected,
			Evictions:  ts.Evictions,
			Deletes:    ts.Deletes,
		}
	}
	return snap
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.fe.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SetDraining flips the server into (or out of) drain mode: new work is
// refused with 503 + Retry-After while in-flight requests run to
// completion. Daemon.Shutdown sets it before closing the listener.
func (s *Server) SetDraining(v bool) { s.fe.SetDraining(v) }

// Manifest pins this server run: the construction-time identity plus
// current wall time, activity counters, metrics snapshot and the
// per-cell log. Call at drain time for the run manifest.
func (s *Server) Manifest() obs.Manifest {
	m := s.manifest
	m.WallSeconds = time.Since(s.started).Seconds()
	stats := s.Stats()
	m.Counters = map[string]uint64{
		"requests":      stats.Requests,
		"cells":         stats.Cells,
		"cache_hits":    stats.CacheHits,
		"coalesce_hits": stats.CoalesceHits,
		"rejected":      stats.Rejected,
		"timeouts":      stats.Timeouts,
		"errors":        stats.Errors,
	}
	if stats.Jobs != nil {
		m.Counters["jobs_submitted"] = stats.Jobs.Submitted
		m.Counters["jobs_done"] = stats.Jobs.Done
		m.Counters["jobs_failed"] = stats.Jobs.Failed
		m.Counters["jobs_canceled"] = stats.Jobs.Canceled
		m.Counters["jobs_resumed"] = stats.Jobs.ResumedJobs
		m.Counters["jobs_cells"] = stats.Jobs.Cells
		m.Counters["jobs_cells_resumed"] = stats.Jobs.CellsResumed
	}
	if s.hub.Metrics != nil {
		snap := s.hub.Metrics.Snapshot()
		m.Metrics = &snap
	}
	m.Cells = s.hub.Cells()
	return m
}

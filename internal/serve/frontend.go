package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/cellplan"
	"repro/internal/serve/client"
	"repro/internal/serve/rooms"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Executor runs planned cells beneath a Frontend. A shard's executor
// simulates them (Server); the gateway's routes them to shards
// (internal/serve/cluster). The front end owns everything either side
// of that call: decoding, planning, deadlines, watch rooms, error
// envelopes and the response stream.
type Executor interface {
	// Sim runs the one cell of a /v1/sim request. sink, when non-nil,
	// receives the cell's live telemetry samples. A returned error is
	// answered by Frontend.Fail.
	Sim(ctx context.Context, req apitypes.SimRequest, cell cellplan.Cell, sink func(runner.LiveSample)) (apitypes.CellResult, error)
	// Sweep runs a /v1/sweep grid and reports every cell through emit
	// (safe for concurrent use) as it completes. One call may report
	// several cells: a burst, which the front end writes with one
	// flush; emit keeps the slice it is given. It returns once every
	// cell has been reported. sinks gives each cell's live-sample sink
	// (nil for an unwatched sweep).
	Sweep(ctx context.Context, req apitypes.SweepRequest, cells []cellplan.Cell,
		sinks func(cellplan.Cell) func(runner.LiveSample), emit func(...CellReport))
}

// CellReport is one cell an Executor's Sweep reports: its result, and
// the error that failed it, if any (a result may also carry Error
// itself).
type CellReport struct {
	Result apitypes.CellResult
	Err    error
}

// FrontendOptions configures a Frontend.
type FrontendOptions struct {
	Exec Executor
	Plan *cellplan.Plan
	// Rooms hosts watch:true requests; nil refuses them with 400 (the
	// gateway: rooms are shard-scoped).
	Rooms *rooms.Registry
	// WatchSampleInterval is forced onto watch:true requests that set no
	// sampling interval: live telemetry requires sampling.
	WatchSampleInterval uint64
	// DefaultTimeout applies to /v1/sim requests without timeout_ms
	// (0 = 30s); MaxTimeout clamps every request deadline and bounds
	// whole sweeps (0 = 5m).
	DefaultTimeout, MaxTimeout time.Duration
	// Metrics receives the request metrics, named Prefix+"_requests_total"
	// and so on.
	Metrics *obs.Registry
	Prefix  string
}

// Frontend is the HTTP request pipeline imtd and imtgw share: request
// decoding, the drain gate, deadline clamping, the error envelope,
// request metrics, and the /v1/sim, /v1/sweep and /v1/workloads routes
// over an Executor. Both binaries therefore accept, expand, reject and
// stream exactly the same way.
type Frontend struct {
	opts     FrontendOptions
	draining atomic.Bool

	mRequests *obs.Counter
	mCells    *obs.Counter
	mRejected *obs.Counter
	mTimeouts *obs.Counter
	mErrors   *obs.Counter
	mLatency  *obs.HistogramVec
}

// NewFrontend builds a front end over opts.Exec.
func NewFrontend(opts FrontendOptions) *Frontend {
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = 30 * time.Second
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 5 * time.Minute
	}
	reg, p := opts.Metrics, opts.Prefix
	return &Frontend{
		opts:      opts,
		mRequests: reg.Counter(p+"_requests_total", "API requests received"),
		mCells:    reg.Counter(p+"_cells_total", "cells served successfully"),
		mRejected: reg.Counter(p+"_rejected_total", "requests rejected with 429 (queue full)"),
		mTimeouts: reg.Counter(p+"_timeouts_total", "requests that exceeded their deadline (504)"),
		mErrors:   reg.Counter(p+"_errors_total", "requests that failed with 500"),
		mLatency:  reg.HistogramVec(p+"_request_seconds", "route", "end-to-end request latency by route", obs.DurationBuckets),
	}
}

// Mount registers the shared routes: POST /v1/sim, POST /v1/sweep and
// GET /v1/workloads.
func (f *Frontend) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sim", f.Route("sim", f.handleSim))
	mux.HandleFunc("POST /v1/sweep", f.Route("sweep", f.handleSweep))
	mux.HandleFunc("GET /v1/workloads", f.handleWorkloads)
}

// Route wraps h as an API route: the request is counted and, when route
// is non-empty, its latency is observed under that label.
func (f *Frontend) Route(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f.mRequests.Inc()
		if route != "" {
			defer f.observeLatency(time.Now(), route)
		}
		h(w, r)
	}
}

// SetDraining flips the front end into (or out of) drain mode: new work
// is refused with 503 + Retry-After while in-flight requests complete.
func (f *Frontend) SetDraining(v bool) { f.draining.Store(v) }

// Draining reports whether the front end is draining.
func (f *Frontend) Draining() bool { return f.draining.Load() }

// Requests counts the API requests received.
func (f *Frontend) Requests() uint64 { return f.mRequests.Value() }

// Cells counts the cells delivered successfully.
func (f *Frontend) Cells() uint64 { return f.mCells.Value() }

func (f *Frontend) handleSim(w http.ResponseWriter, r *http.Request) {
	if f.RejectDraining(w) {
		return
	}
	req, err := decodeRequest[apitypes.SimRequest](r.Body)
	if err == nil {
		err = f.prepareWatch(req.Watch, &req.SampleInterval)
	}
	if err != nil {
		f.WriteError(w, http.StatusBadRequest, apitypes.CodeBadRequest, err)
		return
	}
	cell, err := f.opts.Plan.ResolveCell(req.Workload, req.Mode, req.MaxCycles, req.SampleInterval)
	if err != nil {
		f.writePlanError(w, err)
		return
	}
	ctx, cancel := f.requestContext(r.Context(), req.TimeoutMs, f.opts.DefaultTimeout)
	defer cancel()
	room := f.openRoom(w, req.Watch)
	res, err := f.opts.Exec.Sim(ctx, req, cell, roomSink(room, cell))
	if room != nil {
		publishCellDone(room, res, err)
		room.Close(apitypes.WatchSummary{Done: true})
		res.WatchRoom = room.Code()
	}
	if err != nil {
		f.Fail(w, err)
		return
	}
	f.mCells.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if line, err := appendLine(nil, &res); err == nil {
		_, _ = w.Write(line)
	}
}

func (f *Frontend) handleSweep(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if f.RejectDraining(w) {
		return
	}
	req, err := decodeRequest[apitypes.SweepRequest](r.Body)
	if err == nil {
		err = f.prepareWatch(req.Watch, &req.SampleInterval)
	}
	if err != nil {
		f.WriteError(w, http.StatusBadRequest, apitypes.CodeBadRequest, err)
		return
	}
	cells, err := f.opts.Plan.ExpandSweep(req)
	if err != nil {
		f.writePlanError(w, err)
		return
	}
	ctx, cancel := f.requestContext(r.Context(), req.TimeoutMs, f.opts.MaxTimeout)
	defer cancel()
	room := f.openRoom(w, req.Watch)
	sinks := func(c cellplan.Cell) func(runner.LiveSample) { return roomSink(room, c) }

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var line []byte // one line buffer, reused for every cell

	// A little slack, so a shard stream or a finished simulation rarely
	// waits on a client write; the merge below is the only reader.
	results := make(chan []CellReport, 64)
	go func() {
		f.opts.Exec.Sweep(ctx, req, cells, sinks, func(burst ...CellReport) { results <- burst })
		close(results)
	}()

	// Merge in completion order. The dedup map makes delivery exactly
	// once even when an executor reports a cell twice (a gateway
	// rerouting work off a shard that died mid-stream).
	summary := apitypes.SweepSummary{Cells: len(cells)}
	delivered := make(map[apitypes.CellRef]bool, len(cells))
	shards := make(map[string]bool)
	clientGone := false
	for burst := range results {
		for _, n := range burst {
			res := n.Result
			ref := apitypes.CellRef{Workload: res.Workload, Mode: res.Mode}
			if delivered[ref] {
				continue
			}
			delivered[ref] = true
			if n.Err != nil {
				res.Error = n.Err.Error()
				res.Stats = nil
				f.countError(n.Err)
			}
			if res.Error != "" {
				summary.Failed++
			} else {
				f.mCells.Inc()
			}
			if room != nil {
				publishCellDone(room, res, nil)
				res.WatchRoom = room.Code()
			}
			if res.Cached {
				summary.Cached++
			}
			if res.Coalesced {
				summary.Coalesced++
			}
			if res.Rerouted {
				summary.Rerouted++
			}
			if res.Shard != "" {
				shards[res.Shard] = true
			}
			if clientGone {
				continue // keep draining so the executor can finish
			}
			var err error
			if line, err = appendLine(line[:0], &res); err == nil {
				_, err = w.Write(line)
			}
			if err != nil {
				clientGone = true
			}
		}
		// Flush once per drained burst: lines wait only while another
		// burst is already ready, so a cold sweep still streams cell by
		// cell, and a shard's cached cells, reported as one burst, cost
		// one flush together.
		if !clientGone && flusher != nil && len(results) == 0 {
			flusher.Flush()
		}
	}
	if room != nil {
		room.Close(apitypes.WatchSummary{Done: true})
		summary.WatchRoom = room.Code()
	}
	summary.Done = true
	summary.Shards = len(shards)
	summary.ElapsedMs = millisSince(t0)
	_ = json.NewEncoder(w).Encode(summary)
	if flusher != nil {
		flusher.Flush()
	}
}

// handleWorkloads: GET /v1/workloads, the catalog sorted by name.
func (f *Frontend) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	cat := workload.Catalog()
	resp := apitypes.CatalogResponse{
		Workloads: make([]apitypes.WorkloadInfo, 0, len(cat)),
		Suites:    workload.Suites(),
		Modes:     gpusim.TagModeNames(),
	}
	for _, wl := range cat {
		resp.Workloads = append(resp.Workloads, apitypes.WorkloadInfo{
			Name:           wl.Name,
			Suite:          wl.Suite,
			Pattern:        wl.Pattern.String(),
			FootprintBytes: wl.FootprintBytes,
		})
	}
	sort.Slice(resp.Workloads, func(i, j int) bool { return resp.Workloads[i].Name < resp.Workloads[j].Name })
	WriteJSON(w, http.StatusOK, resp)
}

// prepareWatch vets a watch:true request before it is planned: the
// front end must host rooms, and an unset sampling interval gets the
// watch default (the interval is part of the cell, so this precedes
// the cache key).
func (f *Frontend) prepareWatch(watch bool, sampleInterval *uint64) error {
	if !watch {
		return nil
	}
	if f.opts.Rooms == nil {
		return errors.New("serve: watch rooms are shard-scoped; submit the watched request to an imtd shard directly")
	}
	if *sampleInterval == 0 {
		*sampleInterval = f.opts.WatchSampleInterval
	}
	return nil
}

// openRoom opens a watched request's telemetry room and advertises its
// join code in the X-Watch-Room header, ahead of any body; nil when the
// request is not watched.
func (f *Frontend) openRoom(w http.ResponseWriter, watch bool) *rooms.Room {
	if !watch {
		return nil
	}
	room := f.opts.Rooms.Open()
	w.Header().Set("X-Watch-Room", room.Code())
	return room
}

// roomSink adapts a telemetry room into a live-sample sink for one
// cell (nil without a room). Frames carry the request's own
// workload/mode spelling, so watchers demultiplex on the strings they
// asked for.
func roomSink(room *rooms.Room, cell cellplan.Cell) func(runner.LiveSample) {
	if room == nil {
		return nil
	}
	name := cell.Ref.Workload + "/" + cell.Ref.Mode
	return func(ls runner.LiveSample) {
		smp := ls.Sample
		room.Publish(apitypes.WatchFrame{
			Cell:    name,
			Key:     shortKey(ls.Key),
			CellSeq: ls.Seq,
			Sample:  &smp,
		})
	}
}

// publishCellDone emits the lifecycle frame that ends a cell's series
// (the only frame a cached or coalesced cell produces).
func publishCellDone(room *rooms.Room, res apitypes.CellResult, err error) {
	f := apitypes.WatchFrame{
		Cell:    res.Workload + "/" + res.Mode,
		Key:     res.CacheKey,
		CellSeq: -1,
		Event:   apitypes.WatchEventCellDone,
		Cached:  res.Cached,
		Error:   res.Error,
	}
	if err != nil {
		f.Error = err.Error()
	}
	room.Publish(f)
}

// Refuse returns a handler answering every request with one fixed
// error: the routes a binary does not serve (a disabled store, a
// shard-scoped resource behind the gateway).
func (f *Frontend) Refuse(status int, code, msg string) http.HandlerFunc {
	err := errors.New(msg)
	return func(w http.ResponseWriter, _ *http.Request) { f.WriteError(w, status, code, err) }
}

// RejectDraining refuses new work during drain, reporting whether it
// did.
func (f *Frontend) RejectDraining(w http.ResponseWriter) bool {
	if !f.draining.Load() {
		return false
	}
	f.WriteError(w, http.StatusServiceUnavailable, apitypes.CodeDraining, errors.New("serve: draining"))
	return true
}

// requestContext derives a request's execution context: its timeout_ms
// clamped to MaxTimeout, or fallback when unset.
func (f *Frontend) requestContext(parent context.Context, timeoutMs int64, fallback time.Duration) (context.Context, context.CancelFunc) {
	d := fallback
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > f.opts.MaxTimeout {
		d = f.opts.MaxTimeout
	}
	return context.WithTimeout(parent, d)
}

// decodeRequest decodes one JSON request body with the hostile-input
// posture of the trace-file parser: the read is capped at
// apitypes.MaxRequestBytes, unknown fields are rejected (a misspelled
// parameter is a client bug, not a silent default), and trailing
// non-whitespace after the value is an error.
func decodeRequest[T any](r io.Reader) (T, error) {
	var v T
	dec := json.NewDecoder(io.LimitReader(r, apitypes.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, fmt.Errorf("serve: decoding request: %w", err)
	}
	if dec.More() {
		return v, errors.New("serve: trailing data after request body")
	}
	return v, nil
}

// failure maps an execution error onto the API's failure table: the
// HTTP status plus the envelope code clients dispatch on.
func failure(err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, apitypes.CodeBackpressure
	case errors.Is(err, tracestore.ErrNotFound):
		// The trace was evicted between planning and execution; the typed
		// 404 tells a gateway to re-upload the blob and retry.
		return http.StatusNotFound, apitypes.CodeTraceNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, apitypes.CodeTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is never read but keeps logs
		// honest (499 is the de-facto client-closed-request code).
		return 499, apitypes.CodeCanceled
	default:
		return http.StatusInternalServerError, apitypes.CodeInternal
	}
}

// writePlanError answers a request whose cells could not be planned: a
// trace the shard does not hold is the typed 404 a gateway reacts to by
// re-uploading the blob; anything else is the client's 400.
func (f *Frontend) writePlanError(w http.ResponseWriter, err error) {
	if errors.Is(err, tracestore.ErrNotFound) {
		f.WriteError(w, http.StatusNotFound, apitypes.CodeTraceNotFound, err)
		return
	}
	f.WriteError(w, http.StatusBadRequest, apitypes.CodeBadRequest, err)
}

// Fail answers a failed execution with its row of the failure table.
// An upstream *client.APIError (a shard's verdict relayed by the
// gateway) passes through with its own status, code, message and
// backoff hint, so a client cannot tell a gateway-fronted 429 or 504
// from a direct one.
func (f *Frontend) Fail(w http.ResponseWriter, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		code := apiErr.Code
		if code == "" {
			code = apitypes.CodeInternal
		}
		f.writeEnvelope(w, apiErr.StatusCode, apitypes.ErrorBody{
			Code:         code,
			Message:      apiErr.Message,
			RetryAfterMs: apiErr.RetryAfter.Milliseconds(),
		})
		return
	}
	status, code := failure(err)
	f.WriteError(w, status, code, err)
}

// WriteError emits the uniform error envelope
// {"error":{"code","message","retry_after_ms"}} for status.
func (f *Frontend) WriteError(w http.ResponseWriter, status int, code string, err error) {
	f.writeEnvelope(w, status, apitypes.ErrorBody{Code: code, Message: err.Error()})
}

// writeEnvelope writes an error body, bumping the counter matching the
// status and attaching Retry-After (header and JSON twin) to
// backpressure statuses.
func (f *Frontend) writeEnvelope(w http.ResponseWriter, status int, body apitypes.ErrorBody) {
	f.countStatus(status)
	if body.RetryAfterMs == 0 && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) {
		body.RetryAfterMs = retryAfterSeconds * 1000
	}
	if body.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((body.RetryAfterMs+999)/1000, 10))
	}
	WriteJSON(w, status, apitypes.ErrorResponse{Error: body})
}

// countError bumps the counter matching err's failure class (the
// per-cell accounting inside a sweep stream, where no status is
// written).
func (f *Frontend) countError(err error) {
	status, _ := failure(err)
	f.countStatus(status)
}

func (f *Frontend) countStatus(status int) {
	switch status {
	case http.StatusTooManyRequests:
		f.mRejected.Inc()
	case http.StatusGatewayTimeout:
		f.mTimeouts.Inc()
	case http.StatusBadRequest, http.StatusNotFound, 499, http.StatusConflict,
		http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		// Client mistakes, hangups, over-quota uploads, in-use deletes
		// and drains are not server failures.
	default:
		f.mErrors.Inc()
	}
}

func (f *Frontend) observeLatency(t0 time.Time, route string) {
	f.mLatency.With(route).Observe(time.Since(t0).Seconds())
}

// appendLine appends res as json.Encoder would write it (json.Marshal's
// bytes and a newline), through the CellResult codec.
func appendLine(b []byte, res *apitypes.CellResult) ([]byte, error) {
	b, err := res.AppendJSON(b)
	if err != nil {
		return b, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes v as a JSON response with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func shortKey(key string) string {
	if len(key) > 16 {
		return key[:16]
	}
	return key
}

func millisSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

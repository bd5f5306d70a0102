package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve/apitypes"
	"repro/internal/serve/cellplan"
	"repro/internal/serve/jobs"
	"repro/internal/serve/rooms"
)

// drainPollInterval bounds how long a job stream keeps writing after
// the daemon starts draining: between frames the handler re-checks the
// drain flag at this cadence and ends the stream with a resumable
// summary once it flips.
const drainPollInterval = 250 * time.Millisecond

// handleJobSubmit: POST /v1/jobs. The grid is expanded and validated
// synchronously (a bad sweep fails fast with 400); the job itself is
// durably recorded and picked up by the scheduler, so the 202 response
// is the JobInfo still in state queued.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.fe.RejectDraining(w) {
		return
	}
	req, err := decodeRequest[apitypes.JobRequest](r.Body)
	if err == nil {
		// The watch default is persisted with the job, so cells resumed
		// after a restart sample at the same interval.
		err = s.fe.prepareWatch(req.Watch, &req.SampleInterval)
	}
	if err != nil {
		s.fe.WriteError(w, http.StatusBadRequest, apitypes.CodeBadRequest, err)
		return
	}
	cells, err := s.plan.ExpandSweep(req.SweepRequest)
	if err != nil {
		s.fe.writePlanError(w, err)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	info, err := s.jobs.Submit(tenant, req.SweepRequest, cellplan.Refs(cells))
	if err != nil {
		s.fe.WriteError(w, http.StatusInternalServerError, apitypes.CodeInternal, err)
		return
	}
	if req.Watch {
		info.WatchRoom = s.roomForJob(info.ID).Code()
	}
	WriteJSON(w, http.StatusAccepted, info)
}

// handleJobList: GET /v1/jobs[?tenant=], submission order.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.jobStore.List(r.URL.Query().Get("tenant"))
	for i := range list {
		s.watchRoomForJob(&list[i])
	}
	WriteJSON(w, http.StatusOK, apitypes.JobListResponse{Jobs: list})
}

// handleJobGet: GET /v1/jobs/{id} — the polling half of submit/poll.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.jobStore.Get(r.PathValue("id"))
	if !ok {
		s.fe.WriteError(w, http.StatusNotFound, apitypes.CodeNotFound, jobs.ErrNotFound)
		return
	}
	s.watchRoomForJob(&info)
	WriteJSON(w, http.StatusOK, info)
}

// handleJobCancel: DELETE /v1/jobs/{id}. Canceling a finished job is a
// no-op that returns its terminal snapshot.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, jobs.ErrNotFound) {
			s.fe.WriteError(w, http.StatusNotFound, apitypes.CodeNotFound, err)
			return
		}
		s.fe.WriteError(w, http.StatusInternalServerError, apitypes.CodeInternal, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleJobStream: GET /v1/jobs/{id}/stream?from=N — NDJSON JobFrames
// from sequence N (default 0), then a JobStreamSummary. The stream
// tails a running job until it finishes; when the daemon drains the
// summary comes early with Done=false, Draining=true and NextSeq as the
// resume point for the next attach.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from, ok := s.fromParam(w, r)
	if !ok {
		return
	}
	if _, ok := s.jobStore.Get(id); !ok {
		s.fe.WriteError(w, http.StatusNotFound, apitypes.CodeNotFound, jobs.ErrNotFound)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := from
	for {
		// Grab the watch channel before reading frames: a mutation between
		// the read and the select then leaves the channel already closed,
		// so no update can slip through unobserved.
		change, _ := s.jobStore.Watch(id)
		frames, info, ok := s.jobStore.Frames(id, next)
		if !ok {
			return // GC'd mid-stream; the client re-polls and gets 404
		}
		for _, f := range frames {
			if err := enc.Encode(f); err != nil {
				return // client hung up
			}
			next = f.Seq + 1
		}
		if len(frames) > 0 && flusher != nil {
			flusher.Flush()
		}
		if info.State.Terminal() {
			s.writeStreamSummary(enc, flusher, info, next, false)
			return
		}
		if s.fe.Draining() {
			s.writeStreamSummary(enc, flusher, info, next, true)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-change:
		case <-time.After(drainPollInterval):
			// Re-check the drain flag; there is no drain channel because
			// SetDraining(false) must stay possible.
		}
	}
}

// fromParam parses a stream's ?from=N resume point (default 0),
// answering 400 for anything but a non-negative integer.
func (s *Server) fromParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("from")
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		s.fe.WriteError(w, http.StatusBadRequest, apitypes.CodeBadRequest,
			errors.New("serve: from must be a non-negative integer"))
		return 0, false
	}
	return n, true
}

func (s *Server) writeStreamSummary(enc *json.Encoder, flusher http.Flusher, info apitypes.JobInfo, next int, draining bool) {
	_ = enc.Encode(apitypes.JobStreamSummary{
		Done:     info.State.Terminal(),
		State:    info.State,
		Cells:    info.Cells,
		Failed:   info.FailedCells,
		Resumed:  info.ResumedCells,
		NextSeq:  next,
		Draining: draining,
	})
	if flusher != nil {
		flusher.Flush()
	}
}

// runJobCell is the jobs.RunCell the manager drives: one grid cell
// through the same resolve → cache → coalesce → admission → engine path
// as an interactive request, under a per-cell deadline. Simulation
// failures become failed frames (nil error, CellResult.Error set); a
// non-nil error is reserved for abandonment — the manager is stopping
// or the job was canceled — which leaves the cell pending for resume.
func (s *Server) runJobCell(ctx context.Context, info apitypes.JobInfo, ref apitypes.CellRef) (apitypes.CellResult, error) {
	cell, err := s.plan.ResolveCell(ref.Workload, ref.Mode, info.Sweep.MaxCycles, info.Sweep.SampleInterval)
	if err != nil {
		// The grid was validated at submit, so this means the catalog
		// changed across a restart: a permanent, per-cell failure.
		return apitypes.CellResult{Workload: ref.Workload, Mode: ref.Mode, Error: err.Error()}, nil
	}
	cctx, cancel := s.fe.requestContext(ctx, info.Sweep.TimeoutMs, s.fe.opts.MaxTimeout)
	defer cancel()
	var room *rooms.Room
	if info.Sweep.Watch {
		room = s.roomForJob(info.ID)
	}
	res, err := s.runCell(cctx, cell, true, roomSink(room, cell))
	if room != nil {
		publishCellDone(room, res, err)
	}
	if err != nil {
		if ctx.Err() != nil {
			return apitypes.CellResult{}, ctx.Err()
		}
		s.fe.countError(err)
		res.Error = err.Error()
		res.Stats = nil
		return res, nil
	}
	s.fe.mCells.Inc()
	return res, nil
}

// DrainJobs stops the job scheduler, waits (bounded by ctx) for
// in-flight cells, and closes the WAL. Queued and running jobs stay in
// the log and resume on the next daemon start.
func (s *Server) DrainJobs(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Drain(ctx)
}

// KillJobs is the SIGKILL-equivalent test seam: stop the job subsystem
// with no final state writes, leaving the WAL exactly as a dead process
// would. Production shutdown uses DrainJobs.
func (s *Server) KillJobs() {
	if s.jobs != nil {
		s.jobs.Kill()
	}
}

package serve

import (
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/serve/apitypes"
	"repro/internal/tracestore"
)

// traceInfoAPI converts a store Info into its wire shape.
func traceInfoAPI(info tracestore.Info) apitypes.TraceInfo {
	return apitypes.TraceInfo{
		Digest:         info.Digest,
		Bytes:          info.Bytes,
		NumSMs:         info.NumSMs,
		TotalOps:       info.TotalOps,
		CreatedUnixMs:  info.Created.UnixMilli(),
		LastUsedUnixMs: info.LastUsed.UnixMilli(),
	}
}

// traceStatus maps a store error onto the failure table.
func traceStatus(err error) (int, string) {
	switch {
	case errors.Is(err, tracestore.ErrNotFound):
		return http.StatusNotFound, apitypes.CodeTraceNotFound
	case errors.Is(err, tracestore.ErrOverQuota):
		return http.StatusRequestEntityTooLarge, apitypes.CodeTraceQuota
	case errors.Is(err, tracestore.ErrInUse):
		return http.StatusConflict, apitypes.CodeTraceInUse
	case errors.Is(err, tracestore.ErrBadTrace):
		return http.StatusBadRequest, apitypes.CodeBadRequest
	default:
		return http.StatusInternalServerError, apitypes.CodeInternal
	}
}

// handleTraceUpload: POST /v1/traces. The body is a raw IMTTRC blob,
// streamed: it is validated, hashed and spilled chunk by chunk, so a
// multi-GB trace never resides in memory (the one route exempt from
// MaxRequestBytes — the store quota is its size bound). 201 with the
// digest on a fresh commit, 200 on a content-address hit.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.fe.RejectDraining(w) {
		return
	}
	info, created, err := s.traces.Put(r.Body)
	if err != nil {
		status, code := traceStatus(err)
		s.fe.WriteError(w, status, code, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	WriteJSON(w, status, apitypes.TraceUploadResponse{TraceInfo: traceInfoAPI(info), Created: created})
}

// handleTraceList: GET /v1/traces, sorted by digest.
func (s *Server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	list := s.traces.List()
	resp := apitypes.TraceListResponse{Traces: make([]apitypes.TraceInfo, 0, len(list))}
	for _, info := range list {
		resp.Traces = append(resp.Traces, traceInfoAPI(info))
		resp.TotalBytes += info.Bytes
	}
	resp.QuotaBytes = s.traces.Stats().QuotaBytes
	WriteJSON(w, http.StatusOK, resp)
}

// handleTraceGet: GET /v1/traces/{digest} — the TraceInfo, or with
// ?raw=1 the raw IMTTRC bytes streamed from disk (the transfer a
// gateway uses to push a blob from one shard to another).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if r.URL.Query().Get("raw") == "" {
		info, err := s.traces.Stat(digest)
		if err != nil {
			status, code := traceStatus(err)
			s.fe.WriteError(w, status, code, err)
			return
		}
		WriteJSON(w, http.StatusOK, traceInfoAPI(info))
		return
	}
	rep, err := s.traces.OpenReplay(digest)
	if err != nil {
		status, code := traceStatus(err)
		s.fe.WriteError(w, status, code, err)
		return
	}
	defer rep.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(rep.Info().Bytes, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, rep.Blob())
}

// handleTraceDelete: DELETE /v1/traces/{digest} → the deleted trace's
// info; 409 while a replay or queued job holds it, 404 if absent.
func (s *Server) handleTraceDelete(w http.ResponseWriter, r *http.Request) {
	info, err := s.traces.Delete(r.PathValue("digest"))
	if err != nil {
		status, code := traceStatus(err)
		s.fe.WriteError(w, status, code, err)
		return
	}
	WriteJSON(w, http.StatusOK, traceInfoAPI(info))
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
)

// Trace blobs are shard-scoped (each shard has its own -trace-dir), but
// the gateway keeps the single-endpoint illusion: uploads land on the
// first routable shard (deterministic, so re-uploading the same blob
// through the gateway is a content-address hit), reads find whichever
// shard holds the digest, and trace-backed cells that route to a shard
// missing the blob trigger a shard-to-shard push (ensureTrace) instead
// of a client-visible failure.

// handleTraceUpload: POST /v1/traces, streamed through to the first
// routable shard. The body is consumed by the first attempt, so a
// transport failure mid-upload cannot be retried here — the client
// re-sends (its own UploadTraceFile does this).
func (g *Gateway) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if g.fe.RejectDraining(w) {
		return
	}
	for _, ss := range g.shards {
		if !ss.br.routable() {
			continue
		}
		up, err := g.pool.Raw(ss.url).UploadTrace(r.Context(), r.Body)
		if err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) {
				g.fe.Fail(w, err) // the shard's own verdict
				return
			}
			g.shardFailed(ss)
			g.fe.WriteError(w, http.StatusBadGateway, apitypes.CodeInternal,
				fmt.Errorf("cluster: upload to shard %s failed mid-stream: %v (re-send the upload)", ss.url, err))
			return
		}
		status := http.StatusOK
		if up.Created {
			status = http.StatusCreated
		}
		serve.WriteJSON(w, status, up)
		return
	}
	g.fe.Fail(w, errNoShard)
}

// handleTraceList: GET /v1/traces — the digest-deduplicated union of
// every routable shard's listing. TotalBytes counts each distinct blob
// once; QuotaBytes sums the per-shard quotas (the fleet's capacity).
func (g *Gateway) handleTraceList(w http.ResponseWriter, r *http.Request) {
	type shardList struct {
		url  string
		resp apitypes.TraceListResponse
		err  error
	}
	rows := make([]shardList, len(g.shards))
	var wg sync.WaitGroup
	for i, ss := range g.shards {
		if !ss.br.routable() {
			rows[i].err = errors.New("unroutable")
			continue
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(r.Context(), g.opts.StatszTimeout)
			defer cancel()
			rows[i].url = url
			rows[i].resp, rows[i].err = g.pool.Raw(url).Traces(sctx)
		}(i, ss.url)
	}
	wg.Wait()
	merged := apitypes.TraceListResponse{Traces: []apitypes.TraceInfo{}}
	seen := make(map[string]bool)
	for _, row := range rows {
		if row.err != nil {
			// Shards without -trace-dir answer 404; unreachable shards
			// fail. Either way they hold no traces to merge.
			continue
		}
		merged.QuotaBytes += row.resp.QuotaBytes
		for _, info := range row.resp.Traces {
			if seen[info.Digest] {
				continue
			}
			seen[info.Digest] = true
			merged.Traces = append(merged.Traces, info)
			merged.TotalBytes += info.Bytes
		}
	}
	serve.WriteJSON(w, http.StatusOK, merged)
}

// handleTraceGet: GET /v1/traces/{digest} — stat (or with ?raw=1
// stream) the blob from the first shard that holds it.
func (g *Gateway) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	url, info, err := g.findTrace(r.Context(), digest)
	if err != nil {
		g.fe.Fail(w, err)
		return
	}
	if r.URL.Query().Get("raw") == "" {
		serve.WriteJSON(w, http.StatusOK, info)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = g.pool.Raw(url).DownloadTrace(r.Context(), digest, w)
}

// handleTraceDelete: DELETE /v1/traces/{digest}, fanned out to every
// routable shard (the blob may be resident on several after pushes).
// Any shard's in-use refusal wins with 409 — the trace still exists;
// otherwise 200 if at least one shard deleted it, 404 if none held it.
func (g *Gateway) handleTraceDelete(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	var deleted *apitypes.TraceInfo
	var inUseErr error
	for _, ss := range g.shards {
		if !ss.br.routable() {
			continue
		}
		info, err := g.pool.Raw(ss.url).DeleteTrace(r.Context(), digest)
		switch {
		case err == nil:
			deleted = &info
		case errors.Is(err, client.ErrTraceInUse):
			inUseErr = fmt.Errorf("cluster: shard %s: %w", ss.url, err)
		}
	}
	switch {
	case inUseErr != nil:
		g.fe.WriteError(w, http.StatusConflict, apitypes.CodeTraceInUse, inUseErr)
	case deleted != nil:
		serve.WriteJSON(w, http.StatusOK, *deleted)
	default:
		g.fe.WriteError(w, http.StatusNotFound, apitypes.CodeTraceNotFound,
			fmt.Errorf("cluster: trace %s not found on any shard", digest))
	}
}

// findTrace locates the first routable shard holding digest.
func (g *Gateway) findTrace(ctx context.Context, digest string) (string, apitypes.TraceInfo, error) {
	var lastErr error
	for _, ss := range g.shards {
		if !ss.br.routable() {
			continue
		}
		info, err := g.pool.Raw(ss.url).TraceStat(ctx, digest)
		if err == nil {
			return ss.url, info, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errNoShard
	}
	return "", apitypes.TraceInfo{}, lastErr
}

// ensureTrace makes digest resident on the target shard, copying the
// blob over from whichever shard holds it (the gateway never spools the
// bytes — a pipe couples the source's download stream to the target's
// upload). Returns nil when the target already holds the blob. The
// upload's returned digest must round-trip exactly: content addressing
// makes corruption in transit a hard failure, not a silent cache entry.
func (g *Gateway) ensureTrace(ctx context.Context, target, digest string) error {
	tc := g.pool.Raw(target)
	if _, err := tc.TraceStat(ctx, digest); err == nil {
		return nil
	} else if !errors.Is(err, client.ErrTraceNotFound) {
		return err
	}
	for _, ss := range g.shards {
		if ss.url == target || !ss.br.routable() {
			continue
		}
		sc := g.pool.Raw(ss.url)
		if _, err := sc.TraceStat(ctx, digest); err != nil {
			continue
		}
		pr, pw := io.Pipe()
		go func() {
			_, err := sc.DownloadTrace(ctx, digest, pw)
			pw.CloseWithError(err)
		}()
		up, err := tc.UploadTrace(ctx, pr)
		pr.Close()
		if err != nil {
			return fmt.Errorf("cluster: pushing trace %.12s… from %s to %s: %w", digest, ss.url, target, err)
		}
		if up.Digest != digest {
			return fmt.Errorf("cluster: trace push digest mismatch: want %s, shard stored %s", digest, up.Digest)
		}
		g.mTracePushes.Inc()
		return nil
	}
	return fmt.Errorf("cluster: trace %.12s… resident on no shard: %w", digest, client.ErrTraceNotFound)
}

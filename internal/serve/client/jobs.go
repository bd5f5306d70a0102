package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/serve/apitypes"
)

// SubmitJob submits a durable background job and returns its queued
// JobInfo. The submit is retried on backpressure like any request; the
// job itself survives server restarts once accepted.
func (c *Client) SubmitJob(ctx context.Context, req apitypes.JobRequest) (apitypes.JobInfo, error) {
	var info apitypes.JobInfo
	err := c.retry(ctx, func() error {
		resp, err := c.post(ctx, "/v1/jobs", req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return apiError(resp)
		}
		return json.NewDecoder(io.LimitReader(resp.Body, apitypes.MaxRequestBytes)).Decode(&info)
	})
	return info, err
}

// Job polls one job's current snapshot.
func (c *Client) Job(ctx context.Context, id string) (apitypes.JobInfo, error) {
	var info apitypes.JobInfo
	err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id), &info)
	return info, err
}

// Jobs lists jobs in submission order; tenant "" lists every tenant.
func (c *Client) Jobs(ctx context.Context, tenant string) ([]apitypes.JobInfo, error) {
	path := "/v1/jobs"
	if tenant != "" {
		path += "?tenant=" + url.QueryEscape(tenant)
	}
	var list apitypes.JobListResponse
	err := c.getJSON(ctx, path, &list)
	return list.Jobs, err
}

// CancelJob cancels a job, interrupting its in-flight cells. Canceling
// a finished job is a no-op returning its terminal snapshot.
func (c *Client) CancelJob(ctx context.Context, id string) (apitypes.JobInfo, error) {
	var info apitypes.JobInfo
	err := c.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v1/jobs/"+url.PathEscape(id), nil)
		if err != nil {
			return err
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return apiError(resp)
		}
		return json.NewDecoder(io.LimitReader(resp.Body, apitypes.MaxRequestBytes)).Decode(&info)
	})
	return info, err
}

// stateKey marks a job stream's summary line: JobStreamSummary always
// writes it and JobFrame has no such field.
var stateKey = []byte(`"state":`)

// StreamJob attaches to a job's frame stream at sequence from, calling
// fn for every frame (a non-nil fn error aborts the attach) and
// returning the stream's final summary — Done=true when the job
// finished, or Done=false with NextSeq when the server ended the
// stream early (drain). One attach is one HTTP request; FollowJob
// layers reconnection on top.
func (c *Client) StreamJob(ctx context.Context, id string, from int, fn func(apitypes.JobFrame) error) (apitypes.JobStreamSummary, error) {
	var summary apitypes.JobStreamSummary
	err := c.retry(ctx, func() error {
		path := fmt.Sprintf("/v1/jobs/%s/stream?from=%d", url.PathEscape(id), from)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return err
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return apiError(resp)
		}
		summary = apitypes.JobStreamSummary{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), apitypes.MaxRequestBytes)
		sawSummary := false
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			// The summary is the only line with a "state" key, and JSON
			// escaping keeps those bytes out of any string value (a
			// frame's cell error included), so a byte match picks it out
			// without a probe decode.
			if bytes.Contains(line, stateKey) {
				if err := json.Unmarshal(line, &summary); err != nil {
					return fmt.Errorf("client: bad job summary line: %w", err)
				}
				sawSummary = true
				break
			}
			var frame apitypes.JobFrame
			if err := json.Unmarshal(line, &frame); err != nil {
				return fmt.Errorf("client: bad job frame line: %w", err)
			}
			if fn != nil {
				if err := fn(frame); err != nil {
					return err
				}
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		if !sawSummary {
			return errors.New("client: job stream ended without a summary line")
		}
		return nil
	})
	return summary, err
}

// FollowJob streams a job to completion, transparently re-attaching
// from the last delivered sequence across server drains and restarts:
// every frame is delivered exactly once, in sequence order, no matter
// how many times the daemon bounces underneath. Transport errors and
// not-yet-restarted gaps are retried with the client's backoff for as
// long as ctx allows. from is the first sequence wanted (0 for the
// whole job).
func (c *Client) FollowJob(ctx context.Context, id string, from int, fn func(apitypes.JobFrame) error) (apitypes.JobStreamSummary, error) {
	next := from
	backoff := c.BaseBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	for {
		summary, err := c.StreamJob(ctx, id, next, func(f apitypes.JobFrame) error {
			if err := fn(f); err != nil {
				return err
			}
			next = f.Seq + 1
			return nil
		})
		switch {
		case err == nil && summary.Done:
			return summary, nil
		case err == nil:
			// Drain summary: the server is going away. Resume from its
			// NextSeq (≥ our own high-water mark) after a pause.
			if summary.NextSeq > next {
				next = summary.NextSeq
			}
		case ctx.Err() != nil:
			return summary, ctx.Err()
		case !followRetryable(err):
			return summary, err
		}
		select {
		case <-time.After(c.jitter(backoff)):
		case <-ctx.Done():
			return apitypes.JobStreamSummary{}, ctx.Err()
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// followRetryable: everything a daemon bounce can look like. Transport
// errors (refused while the new process binds), draining and
// backpressure are all worth another attach; a 404 is not — the job is
// unknown or GC'd — and neither are semantic failures.
func followRetryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Retryable()
	}
	return true
}

// WaitJob polls until the job reaches a terminal state (or ctx ends),
// returning the final snapshot. Poll-based alternative to FollowJob
// for callers that only want the outcome, not the frames.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (apitypes.JobInfo, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		info, err := c.Job(ctx, id)
		if err == nil && info.State.Terminal() {
			return info, nil
		}
		if err != nil && !followRetryable(err) {
			return info, err
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return apitypes.JobInfo{}, ctx.Err()
		}
	}
}

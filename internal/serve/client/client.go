package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/apitypes"
)

// Client talks to an imtd server. The zero value is not usable; use New.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8866".
	BaseURL string
	// HTTPClient defaults to a client with no overall timeout (requests
	// carry their own deadlines via context).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (default 4).
	// Only backpressure (429, 503 with Retry-After) and transport errors
	// are retried; semantic failures (400, 500, 504) are not.
	MaxRetries int
	// BaseBackoff seeds the jittered exponential backoff (default
	// 100ms); a server Retry-After overrides it as a floor.
	BaseBackoff time.Duration
	// MaxBackoff caps one sleep (default 5s).
	MaxBackoff time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a client for the server at baseURL with default retry
// policy.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:     strings.TrimRight(baseURL, "/"),
		HTTPClient:  &http.Client{},
		MaxRetries:  4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  5 * time.Second,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Sim runs one cell and returns its result. Backpressure responses are
// retried under ctx with jittered exponential backoff honoring
// Retry-After.
func (c *Client) Sim(ctx context.Context, req apitypes.SimRequest) (apitypes.CellResult, error) {
	var res apitypes.CellResult
	err := c.retry(ctx, func() error {
		resp, err := c.post(ctx, "/v1/sim", req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return apiError(resp)
		}
		body, readErr := io.ReadAll(io.LimitReader(resp.Body, apitypes.MaxRequestBytes))
		if res.ParseJSON(body) {
			return nil
		}
		// Not the server's own spelling: decode the first value, as a
		// json.Decoder over the stream would, and report a failed read
		// rather than the truncation it caused.
		res = apitypes.CellResult{}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&res); err != nil {
			if readErr != nil {
				return readErr
			}
			return err
		}
		return nil
	})
	return res, err
}

// Sweep streams a sweep, calling fn for every cell line as it arrives
// (a non-nil fn error aborts the stream) and returning the final
// summary. The initial request is retried on backpressure; once the
// stream is open there is nothing to retry — per-cell failures arrive
// as CellResult.Error lines.
func (c *Client) Sweep(ctx context.Context, req apitypes.SweepRequest, fn func(apitypes.CellResult) error) (apitypes.SweepSummary, error) {
	return c.sweep(ctx, req, nil, fn)
}

// SweepWatch is Sweep for a watched run (req.Watch true): onRoom is
// called with the telemetry room's join code as soon as the response
// headers arrive — before any cell finishes — so watchers can attach
// to the live broadcast while the sweep is still running.
func (c *Client) SweepWatch(ctx context.Context, req apitypes.SweepRequest, onRoom func(room string), fn func(apitypes.CellResult) error) (apitypes.SweepSummary, error) {
	req.Watch = true
	return c.sweep(ctx, req, onRoom, fn)
}

// summaryKey marks a sweep stream's summary line: SweepSummary always
// writes it and CellResult has no such field.
var summaryKey = []byte(`"done":`)

func (c *Client) sweep(ctx context.Context, req apitypes.SweepRequest, onRoom func(string), fn func(apitypes.CellResult) error) (apitypes.SweepSummary, error) {
	var summary apitypes.SweepSummary
	err := c.retry(ctx, func() error {
		resp, err := c.post(ctx, "/v1/sweep", req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return apiError(resp)
		}
		if onRoom != nil {
			if room := resp.Header.Get("X-Watch-Room"); room != "" {
				onRoom(room)
			}
		}
		summary = apitypes.SweepSummary{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), apitypes.MaxRequestBytes)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			// The summary is the only line with a "done" key, and JSON
			// escaping keeps those bytes out of any string value, so a
			// byte match picks it out without a second decode.
			if bytes.Contains(line, summaryKey) {
				return json.Unmarshal(line, &summary)
			}
			var cell apitypes.CellResult
			if err := cell.DecodeJSON(line); err != nil {
				return fmt.Errorf("client: bad sweep line: %w", err)
			}
			if fn != nil {
				if err := fn(cell); err != nil {
					return err
				}
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return errors.New("client: sweep stream ended without a summary line")
	})
	return summary, err
}

// Stats fetches the server's activity counters. Against an imtgw
// gateway the counters are the fleet-wide aggregate; GatewayStats
// additionally exposes the per-shard breakdown.
func (c *Client) Stats(ctx context.Context) (apitypes.StatsSnapshot, error) {
	var snap apitypes.StatsSnapshot
	err := c.getJSON(ctx, "/v1/statsz", &snap)
	return snap, err
}

// GatewayStats fetches /v1/statsz decoded as a gateway snapshot: the
// aggregate counters plus the gateway section and per-shard breakdown.
// Against a plain imtd shard, Gateway is nil and Shards empty.
func (c *Client) GatewayStats(ctx context.Context) (apitypes.GatewaySnapshot, error) {
	var snap apitypes.GatewaySnapshot
	err := c.getJSON(ctx, "/v1/statsz", &snap)
	return snap, err
}

// Workloads fetches the catalog listing.
func (c *Client) Workloads(ctx context.Context) (apitypes.CatalogResponse, error) {
	var cat apitypes.CatalogResponse
	err := c.getJSON(ctx, "/v1/workloads", &cat)
	return cat, err
}

// Health returns nil when the server answers healthy, an *APIError
// when it is draining, and a transport error when it is unreachable.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/healthz", nil)
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
	return nil
}

// retry runs attempt until it succeeds, fails non-retryably, exhausts
// MaxRetries, or ctx ends. Backoff doubles per attempt with full
// jitter; a server Retry-After acts as the floor for that sleep.
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	maxRetries := c.MaxRetries
	backoff := c.BaseBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	var err error
	for try := 0; ; try++ {
		err = attempt()
		if err == nil {
			return nil
		}
		if try >= maxRetries || !retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			// The caller's context ended, not the server's patience:
			// report the cancellation, keeping the attempt's error.
			return errors.Join(ctx.Err(), err)
		}
		sleep := c.jitter(backoff)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > sleep {
			sleep = apiErr.RetryAfter
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// retryable: backpressure statuses and transport-level failures. A
// context error is never retryable (the caller's budget is spent), and
// neither are semantic failures — a 400 will fail identically forever
// and a 504 means the server already spent the request's deadline.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Retryable()
	}
	// Anything else from Do is a transport error (refused, reset, …).
	return true
}

// jitter draws uniformly from [d/2, d): "equal jitter", decorrelating
// a herd of clients that all got the same 429 at the same instant.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.httpClient().Do(req)
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
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
	return json.NewDecoder(io.LimitReader(resp.Body, apitypes.MaxRequestBytes)).Decode(v)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/serve/apitypes"
)

// fastClient returns a client whose backoff is test-sized.
func fastClient(baseURL string) *Client {
	c := New(baseURL)
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	return c
}

// TestSimRetriesBackpressure: two 429s then success must cost exactly
// three attempts and return the final result.
func TestSimRetriesBackpressure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{Code: apitypes.CodeBackpressure, Message: "queue full"}})
			return
		}
		json.NewEncoder(w).Encode(apitypes.CellResult{
			Workload: "stream-copy-16MB", Mode: "imt",
			Stats: &gpusim.Stats{Cycles: 7},
		})
	}))
	defer srv.Close()

	res, err := fastClient(srv.URL).Sim(context.Background(),
		apitypes.SimRequest{Workload: "stream-copy-16MB", Mode: "imt"})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if res.Stats == nil || res.Stats.Cycles != 7 {
		t.Errorf("result = %+v", res)
	}
}

// TestSimNoRetryOnSemanticFailure: 400 and 504 fail the first attempt
// — retrying a malformed request or a spent deadline is waste.
func TestSimNoRetryOnSemanticFailure(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusInternalServerError, http.StatusGatewayTimeout} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.WriteHeader(status)
				json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{Message: "nope"}})
			}))
			defer srv.Close()

			_, err := fastClient(srv.URL).Sim(context.Background(), apitypes.SimRequest{Workload: "x", Mode: "imt"})
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != status {
				t.Fatalf("err = %v, want APIError %d", err, status)
			}
			if apiErr.Retryable() {
				t.Errorf("%d must not be retryable", status)
			}
			if got := calls.Load(); got != 1 {
				t.Errorf("attempts = %d, want 1", got)
			}
		})
	}
}

// TestRetryAfterParsed: the header's seconds form surfaces on APIError
// and acts as the backoff floor.
func TestRetryAfterParsed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{Code: apitypes.CodeDraining, Message: "draining"}})
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.MaxRetries = 0 // observe the raw error, no sleeping
	_, err := c.Sim(context.Background(), apitypes.SimRequest{Workload: "x", Mode: "imt"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.RetryAfter != 2*time.Second {
		t.Errorf("APIError = %+v, want 503 with RetryAfter=2s", apiErr)
	}
	if !apiErr.Retryable() {
		t.Error("503 must be retryable")
	}
}

// TestRetryStopsWhenContextEnds: a canceled context ends the retry
// loop instead of sleeping through it.
func TestRetryStopsWhenContextEnds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30") // would be a long sleep
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := fastClient(srv.URL).Sim(ctx, apitypes.SimRequest{Workload: "x", Mode: "imt"})
		done <- err
	}()
	// Let the first attempt land, then cancel during the backoff sleep.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first attempt never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored cancellation")
	}
}

// inProcess is a transport that runs a handler on the calling
// goroutine and returns whatever it wrote, even when the handler has
// canceled the request's context: the order of events a network
// transport exposes only by chance.
type inProcess struct{ h http.HandlerFunc }

func (p inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.h(rec, r)
	return rec.Result(), nil
}

// TestRetryReportsCancellationOverBackpressure: when the caller's
// context ends while a 429 is on its way back, the caller sees its own
// cancellation (the 429 stays visible in the chain), not backpressure
// alone.
func TestRetryReportsCancellationOverBackpressure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := fastClient("http://in-process")
	c.HTTPClient = &http.Client{Transport: inProcess{func(w http.ResponseWriter, r *http.Request) {
		cancel()
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(apitypes.ErrorResponse{Error: apitypes.ErrorBody{Code: apitypes.CodeBackpressure, Message: "queue full"}})
	}}}
	_, err := c.Sim(ctx, apitypes.SimRequest{Workload: "x", Mode: "imt"})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrBackpressure) {
		t.Errorf("err = %v, want the 429 kept in the chain", err)
	}
}

// TestSweepStreamParsing: the client must hand every cell line to fn
// in order and return the summary line.
func TestSweepStreamParsing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(apitypes.CellResult{Workload: "a", Mode: "none", Stats: &gpusim.Stats{Cycles: 1}})
		enc.Encode(apitypes.CellResult{Workload: "a", Mode: "imt", Error: "boom"})
		enc.Encode(apitypes.SweepSummary{Done: true, Cells: 2, Failed: 1})
	}))
	defer srv.Close()

	var cells []apitypes.CellResult
	summary, err := New(srv.URL).Sweep(context.Background(), apitypes.SweepRequest{}, func(c apitypes.CellResult) error {
		cells = append(cells, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Mode != "none" || cells[1].Error != "boom" {
		t.Fatalf("cells = %+v", cells)
	}
	if !summary.Done || summary.Cells != 2 || summary.Failed != 1 {
		t.Fatalf("summary = %+v", summary)
	}
}

// TestSweepDoneInsideStrings: a cell line whose error text mentions
// done, even as a quoted key or a whole summary object, is a cell; the
// real summary line still ends the stream.
func TestSweepDoneInsideStrings(t *testing.T) {
	errs := []string{`done`, `"done"`, `{"done":true}`, `"done": true`}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		for _, e := range errs {
			enc.Encode(apitypes.CellResult{Workload: "a", Mode: "imt", Error: e})
		}
		enc.Encode(apitypes.SweepSummary{Done: true, Cells: len(errs), Failed: len(errs)})
	}))
	defer srv.Close()

	var got []string
	summary, err := New(srv.URL).Sweep(context.Background(), apitypes.SweepRequest{}, func(c apitypes.CellResult) error {
		got = append(got, c.Error)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(errs) {
		t.Errorf("cells' errors = %q, want %q", got, errs)
	}
	if !summary.Done || summary.Cells != len(errs) || summary.Failed != len(errs) {
		t.Errorf("summary = %+v", summary)
	}
}

// TestSimDecodesFirstValue: a /v1/sim body in the server's own spelling
// takes the strict parser; any other spelling still decodes its first
// JSON value, as json.Decoder does.
func TestSimDecodesFirstValue(t *testing.T) {
	for _, tc := range []struct {
		body string
		want apitypes.CellResult
	}{
		{`{"workload":"a","mode":"imt","cached":true,"elapsed_ms":0.5,"stats":{"Cycles":7,"WarpOps":1,"Loads":0,"Stores":0,"Atomics":0,"L1Hits":0,"L1Misses":0,"L2Hits":0,"L2Misses":0,"DRAMDataReads":0,"DRAMTagReads":0,"DRAMWrites":0,"TagL2Hits":0,"TagL2Misses":0}}` + "\n",
			apitypes.CellResult{Workload: "a", Mode: "imt", Cached: true, ElapsedMs: 0.5, Stats: &gpusim.Stats{Cycles: 7, WarpOps: 1}}},
		{` {"mode": "imt", "workload": "a", "cached": false, "stats": {"cycles": 7}}` + "\n{trailing",
			apitypes.CellResult{Workload: "a", Mode: "imt", Stats: &gpusim.Stats{Cycles: 7}}},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, tc.body)
		}))
		got, err := New(srv.URL).Sim(context.Background(), apitypes.SimRequest{})
		srv.Close()
		if err != nil {
			t.Fatalf("%q: %v", tc.body, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.body, got, tc.want)
		}
	}
}

// TestSweepTruncatedStream: a stream that ends without a summary line
// (server died mid-sweep) is an error, not silent success.
func TestSweepTruncatedStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(apitypes.CellResult{Workload: "a", Mode: "none"})
	}))
	defer srv.Close()

	c := New(srv.URL)
	c.MaxRetries = 0
	_, err := c.Sweep(context.Background(), apitypes.SweepRequest{}, nil)
	if err == nil {
		t.Fatal("truncated stream must fail")
	}
}

// TestJitterBounds: equal jitter stays in [d/2, d).
func TestJitterBounds(t *testing.T) {
	c := New("http://unused")
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		got := c.jitter(d)
		if got < d/2 || got > d {
			t.Fatalf("jitter(%v) = %v, outside [%v, %v]", d, got, d/2, d)
		}
	}
	if c.jitter(0) != 0 {
		t.Error("jitter(0) != 0")
	}
}

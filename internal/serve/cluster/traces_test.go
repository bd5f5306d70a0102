package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
)

// newTraceFleet starts n imtd shards with per-shard trace stores plus a
// gateway over them.
func newTraceFleet(t *testing.T, n int) (*Gateway, []string) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		s, err := serve.New(serve.Options{Workers: 2, CacheDir: t.TempDir(), TraceDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	gw, err := New(Options{Shards: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw, urls
}

func gwTraceBlob(t *testing.T, seed int) ([]byte, string) {
	t.Helper()
	traces := make([]gpusim.Trace, 2)
	for sm := range traces {
		ops := make([]gpusim.WarpOp, 8)
		for i := range ops {
			ops[i] = gpusim.WarpOp{
				Store:   i%3 == 2,
				Addrs:   []uint64{uint64(0x40000 + seed*8192 + sm*1024 + i*32)},
				Compute: 2,
			}
		}
		traces[sm] = &gpusim.SliceTrace{Ops: ops}
	}
	var buf bytes.Buffer
	if err := gpusim.WriteTracesClone(&buf, traces); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:])
}

// TestGatewayTraceProxy: uploads through the gateway land on a
// deterministic shard (so re-uploads hit), the list is the fleet
// union, stat and raw download find the holder, and delete fans out.
func TestGatewayTraceProxy(t *testing.T) {
	gw, urls := newTraceFleet(t, 2)
	h := gw.Handler()
	blob, digest := gwTraceBlob(t, 1)

	req := httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(blob))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("re-upload through the gateway must content-address hit: %d %s", rec.Code, rec.Body)
	}

	rec = gwGet(t, h, "/v1/traces")
	var list apitypes.TraceListResponse
	mustDecode(t, rec, &list)
	if len(list.Traces) != 1 || list.Traces[0].Digest != digest {
		t.Fatalf("gateway list = %+v", list)
	}

	if rec := gwGet(t, h, "/v1/traces/"+digest); rec.Code != http.StatusOK {
		t.Fatalf("gateway stat: %d %s", rec.Code, rec.Body)
	}
	rec = gwGet(t, h, "/v1/traces/"+digest+"?raw=1")
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), blob) {
		t.Fatalf("gateway raw download: code %d, %d bytes, want %d", rec.Code, rec.Body.Len(), len(blob))
	}

	req = httptest.NewRequest(http.MethodDelete, "/v1/traces/"+digest, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("gateway delete: %d %s", rec.Code, rec.Body)
	}
	for _, url := range urls {
		if _, err := client.New(url).TraceStat(t.Context(), digest); err == nil {
			t.Errorf("shard %s still holds the deleted trace", url)
		}
	}
	if rec := gwGet(t, h, "/v1/traces/"+digest); rec.Code != http.StatusNotFound {
		t.Errorf("stat after fan-out delete: %d", rec.Code)
	}
}

// TestGatewayTracePushOnMiss is the re-upload-on-miss contract: a blob
// resident only on the ring-non-preferred shard is pushed shard-to-
// shard by the gateway when a trace cell routes to the preferred shard,
// and the cell then succeeds there — no client-visible 404.
func TestGatewayTracePushOnMiss(t *testing.T) {
	gw, urls := newTraceFleet(t, 2)
	h := gw.Handler()
	blob, digest := gwTraceBlob(t, 2)

	cell, err := gw.plan.ResolveCell("trace:"+digest, "imt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	preferred := gw.ring.Order(cell.Key)[0]
	var source string
	for _, url := range urls {
		if url != preferred {
			source = url
		}
	}
	if _, err := client.New(source).UploadTrace(t.Context(), bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"workload":"trace:%s","mode":"imt"}`, digest)
	rec := gwPost(t, h, "/v1/sim", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace sim through gateway: %d %s", rec.Code, rec.Body)
	}
	var res apitypes.CellResult
	mustDecode(t, rec, &res)
	if res.Shard != preferred {
		t.Errorf("cell served by %s, want ring-preferred %s", res.Shard, preferred)
	}
	if got := gw.mTracePushes.Value(); got != 1 {
		t.Errorf("trace pushes = %d, want 1", got)
	}
	if _, err := client.New(preferred).TraceStat(t.Context(), digest); err != nil {
		t.Errorf("preferred shard still missing the blob after push: %v", err)
	}

	// A sweep routed the same way reuses the now-resident blob — no
	// second push — and every cell arrives exactly once.
	sweepBody := fmt.Sprintf(`{"workloads":["trace:%s"],"modes":["none","imt"]}`, digest)
	rec = gwPost(t, h, "/v1/sweep", sweepBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace sweep: %d %s", rec.Code, rec.Body)
	}
	cells, summary := parseSweep(t, rec.Body)
	if len(cells) != 2 || summary.Failed != 0 {
		t.Fatalf("sweep cells=%d failed=%d: %+v", len(cells), summary.Failed, cells)
	}

	// Unknown digest: no shard holds it, push impossible → the shard's
	// typed 404 passes through.
	ghost := "00" + digest[2:]
	rec = gwPost(t, h, "/v1/sim", fmt.Sprintf(`{"workload":"trace:%s","mode":"imt"}`, ghost))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("ghost digest: %d %s", rec.Code, rec.Body)
	}
	var env apitypes.ErrorResponse
	mustDecode(t, rec, &env)
	if env.Error.Code != apitypes.CodeTraceNotFound {
		t.Errorf("ghost digest code = %q", env.Error.Code)
	}
}

// TestGatewayTraceSweepPushOnMiss drives the sweep-path fallback
// specifically: the whole shard request fails with trace_not_found, the
// gateway pushes the blob, retries the same shard once, and the merged
// stream still delivers every cell exactly once with no errors.
func TestGatewayTraceSweepPushOnMiss(t *testing.T) {
	gw, urls := newTraceFleet(t, 2)
	h := gw.Handler()
	blob, digest := gwTraceBlob(t, 3)

	cell, err := gw.plan.ResolveCell("trace:"+digest, "imt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	preferred := gw.ring.Order(cell.Key)[0]
	var source string
	for _, url := range urls {
		if url != preferred {
			source = url
		}
	}
	if _, err := client.New(source).UploadTrace(t.Context(), bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}

	rec := gwPost(t, h, "/v1/sweep", fmt.Sprintf(`{"workloads":["trace:%s"],"modes":["imt"]}`, digest))
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", rec.Code, rec.Body)
	}
	cells, summary := parseSweep(t, rec.Body)
	if len(cells) != 1 || summary.Failed != 0 || cells[0].Error != "" {
		t.Fatalf("sweep after push: cells=%+v summary=%+v", cells, summary)
	}
	if got := gw.mTracePushes.Value(); got != 1 {
		t.Errorf("trace pushes = %d, want 1", got)
	}
}

func mustDecode(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
}

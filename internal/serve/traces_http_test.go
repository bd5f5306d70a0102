package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
)

// testTraceBlob builds a small valid IMTTRC blob (numSMs streams, ops
// ops on each) and returns it with its content digest. seed varies the
// addresses so different seeds give different digests.
func testTraceBlob(t *testing.T, seed, numSMs, ops int) ([]byte, string) {
	t.Helper()
	traces := make([]gpusim.Trace, numSMs)
	for sm := 0; sm < numSMs; sm++ {
		warpOps := make([]gpusim.WarpOp, ops)
		for i := range warpOps {
			warpOps[i] = gpusim.WarpOp{
				Store:   i%2 == 1,
				Addrs:   []uint64{uint64(0x10000 + seed*4096 + sm*512 + i*32), uint64(0x20000 + i*64)},
				Compute: 3,
			}
		}
		traces[sm] = &gpusim.SliceTrace{Ops: warpOps}
	}
	var buf bytes.Buffer
	if err := gpusim.WriteTracesClone(&buf, traces); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:])
}

func uploadBlob(t *testing.T, h http.Handler, blob []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func errCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	return decodeBody[apitypes.ErrorResponse](t, rec).Error.Code
}

// TestTraceUploadStatListDelete walks the trace resource lifecycle over
// HTTP: fresh upload (201), idempotent re-upload (200 content-address
// hit), stat, list, raw download byte-identical to the upload, delete,
// and the typed 404s afterwards.
func TestTraceUploadStatListDelete(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, TraceDir: t.TempDir()})
	h := s.Handler()
	blob, digest := testTraceBlob(t, 1, 3, 16)

	rec := uploadBlob(t, h, blob)
	if rec.Code != http.StatusCreated {
		t.Fatalf("first upload: %d %s", rec.Code, rec.Body)
	}
	up := decodeBody[apitypes.TraceUploadResponse](t, rec)
	if up.Digest != digest || !up.Created {
		t.Fatalf("upload response %+v, want digest %s created", up, digest)
	}
	if up.NumSMs != 3 || up.TotalOps != 48 || up.Bytes != int64(len(blob)) {
		t.Errorf("index mismatch: %+v", up)
	}

	rec = uploadBlob(t, h, blob)
	if rec.Code != http.StatusOK {
		t.Fatalf("re-upload: %d %s", rec.Code, rec.Body)
	}
	if up := decodeBody[apitypes.TraceUploadResponse](t, rec); up.Created {
		t.Error("re-upload must be a content-address hit, not a fresh commit")
	}

	if rec := get(t, h, "/v1/traces/"+digest); rec.Code != http.StatusOK {
		t.Fatalf("stat: %d %s", rec.Code, rec.Body)
	}
	rec = get(t, h, "/v1/traces")
	list := decodeBody[apitypes.TraceListResponse](t, rec)
	if len(list.Traces) != 1 || list.Traces[0].Digest != digest || list.TotalBytes != int64(len(blob)) {
		t.Fatalf("list = %+v", list)
	}

	rec = get(t, h, "/v1/traces/"+digest+"?raw=1")
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), blob) {
		t.Fatalf("raw download: code %d, %d bytes, want the %d uploaded bytes", rec.Code, rec.Body.Len(), len(blob))
	}

	req := httptest.NewRequest(http.MethodDelete, "/v1/traces/"+digest, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	rec = get(t, h, "/v1/traces/"+digest)
	if rec.Code != http.StatusNotFound || errCode(t, rec) != apitypes.CodeTraceNotFound {
		t.Fatalf("stat after delete: %d code %q", rec.Code, errCode(t, rec))
	}

	// Stats carries the tracestore section.
	snap := s.Stats()
	if snap.Traces == nil || snap.Traces.Puts != 2 || snap.Traces.PutHits != 1 || snap.Traces.Deletes != 1 {
		t.Errorf("stats traces section = %+v", snap.Traces)
	}
}

// TestTraceUploadRejections: garbage is a 400, an over-quota blob a
// 413 trace_quota, and a disabled store answers every route with the
// typed trace_not_found plus a -trace-dir hint.
func TestTraceUploadRejections(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, TraceDir: t.TempDir(), TraceQuotaBytes: 64})
	h := s.Handler()

	rec := uploadBlob(t, h, []byte("not a trace"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d %s", rec.Code, rec.Body)
	}
	blob, _ := testTraceBlob(t, 2, 3, 64)
	if len(blob) <= 64 {
		t.Fatalf("test blob too small (%d bytes) to exceed the 64-byte quota", len(blob))
	}
	rec = uploadBlob(t, h, blob)
	if rec.Code != http.StatusRequestEntityTooLarge || errCode(t, rec) != apitypes.CodeTraceQuota {
		t.Fatalf("over-quota upload: %d code %q", rec.Code, errCode(t, rec))
	}

	disabled := mustNew(t, Options{Workers: 2}).Handler()
	for _, path := range []string{"/v1/traces", "/v1/traces/" + "ab"} {
		rec := get(t, disabled, path)
		if rec.Code != http.StatusNotFound || errCode(t, rec) != apitypes.CodeTraceNotFound {
			t.Errorf("disabled store %s: %d code %q", path, rec.Code, errCode(t, rec))
		}
	}
}

// TestSimTraceWorkload is the replay-fidelity contract over HTTP: a
// trace:<digest> cell served by the daemon must produce exactly the
// stats an in-process engine computes replaying the same blob, the
// second request must be a cache hit, and the 404/400 table must hold.
func TestSimTraceWorkload(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir(), TraceDir: t.TempDir()})
	h := s.Handler()
	blob, digest := testTraceBlob(t, 3, 3, 32)
	if rec := uploadBlob(t, h, blob); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}

	simBody := fmt.Sprintf(`{"workload":"trace:%s","mode":"imt"}`, digest)
	rec := post(t, h, "/v1/sim", simBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace sim: %d %s", rec.Code, rec.Body)
	}
	res := decodeBody[apitypes.CellResult](t, rec)
	if res.Workload != "trace:"+digest || res.Stats == nil {
		t.Fatalf("result %+v", res)
	}

	// In-process baseline: same machine, same blob, same key.
	eng := runner.New(gpusim.DefaultConfig(), runner.Options{})
	baseline, err := eng.Run(context.Background(), []runner.Job{{
		Key:  "trace:" + digest,
		Mode: gpusim.ModeIMT,
		Traces: func(numSMs int) []gpusim.Trace {
			traces, err := gpusim.ReadTraces(bytes.NewReader(blob))
			if err != nil {
				t.Errorf("re-reading blob: %v", err)
				return make([]gpusim.Trace, numSMs)
			}
			out := make([]gpusim.Trace, numSMs)
			copy(out, traces)
			return out
		},
	}})
	if err != nil || baseline[0].Err != nil {
		t.Fatal(err, baseline[0].Err)
	}
	if want := baseline[0].Stats.WithoutHost(); !reflect.DeepEqual(*res.Stats, want) {
		t.Errorf("served stats diverge from in-process replay:\n got %+v\nwant %+v", *res.Stats, want)
	}

	// Same cell again: the engine already cached it under the digest key.
	rec = post(t, h, "/v1/sim", simBody)
	if res2 := decodeBody[apitypes.CellResult](t, rec); !res2.Cached || !reflect.DeepEqual(res2.Stats, res.Stats) {
		t.Errorf("second trace sim: cached=%v, stats equal=%v", res2.Cached, reflect.DeepEqual(res2.Stats, res.Stats))
	}

	// Failure table: absent digest → typed 404; malformed digest → 400;
	// more SM streams than the machine has → 400.
	ghost := "00" + digest[2:]
	rec = post(t, h, "/v1/sim", fmt.Sprintf(`{"workload":"trace:%s","mode":"imt"}`, ghost))
	if rec.Code != http.StatusNotFound || errCode(t, rec) != apitypes.CodeTraceNotFound {
		t.Errorf("absent digest: %d code %q", rec.Code, errCode(t, rec))
	}
	rec = post(t, h, "/v1/sim", `{"workload":"trace:xyz","mode":"imt"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed digest: %d", rec.Code)
	}
	wide, wideDigest := testTraceBlob(t, 4, 5, 4)
	if rec := uploadBlob(t, h, wide); rec.Code != http.StatusCreated {
		t.Fatalf("wide upload: %d", rec.Code)
	}
	rec = post(t, h, "/v1/sim", fmt.Sprintf(`{"workload":"trace:%s","mode":"imt"}`, wideDigest))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("trace wider than the machine: %d %s", rec.Code, rec.Body)
	}
}

// TestSweepMixesTraceAndCatalogCells: a sweep grid may put trace
// references and catalog workloads on the same workload axis.
func TestSweepMixesTraceAndCatalogCells(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, CacheDir: t.TempDir(), TraceDir: t.TempDir()})
	h := s.Handler()
	blob, digest := testTraceBlob(t, 5, 2, 8)
	if rec := uploadBlob(t, h, blob); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d", rec.Code)
	}
	body := fmt.Sprintf(`{"workloads":["stream-copy-16MB","trace:%s"],"modes":["none","imt"]}`, digest)
	rec := post(t, h, "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", rec.Code, rec.Body)
	}
	var found int
	for _, line := range bytes.Split(rec.Body.Bytes(), []byte("\n")) {
		if bytes.Contains(line, []byte(`"trace:`)) && !bytes.Contains(line, []byte(`"done"`)) {
			found++
			if bytes.Contains(line, []byte(`"error"`)) {
				t.Errorf("trace cell failed: %s", line)
			}
		}
	}
	if found != 2 {
		t.Errorf("saw %d trace cell lines, want 2", found)
	}
}

// TestTraceDeleteInUseByJob: a queued/running job naming a trace
// workload blocks DELETE with 409 trace_in_use until it finishes.
func TestTraceDeleteInUseByJob(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, TraceDir: t.TempDir(), JobsDir: t.TempDir(), JobWorkers: 1})
	b := newBlockingHook()
	s.simHook = b.hook
	h := s.Handler()
	blob, digest := testTraceBlob(t, 6, 2, 8)
	if rec := uploadBlob(t, h, blob); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d", rec.Code)
	}

	body := fmt.Sprintf(`{"workloads":["trace:%s"],"modes":["imt"]}`, digest)
	rec := post(t, h, "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", rec.Code, rec.Body)
	}
	waitEntered(t, b)

	req := httptest.NewRequest(http.MethodDelete, "/v1/traces/"+digest, nil)
	del := httptest.NewRecorder()
	h.ServeHTTP(del, req)
	if del.Code != http.StatusConflict || errCode(t, del) != apitypes.CodeTraceInUse {
		t.Fatalf("delete under a live job: %d code %q", del.Code, errCode(t, del))
	}

	close(b.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		req := httptest.NewRequest(http.MethodDelete, "/v1/traces/"+digest, nil)
		del := httptest.NewRecorder()
		h.ServeHTTP(del, req)
		if del.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delete still refused after job finished: %d %s", del.Code, del.Body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.DrainJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
}

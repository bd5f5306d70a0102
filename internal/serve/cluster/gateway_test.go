package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/apitypes"
)

// chaosShard wraps a real imtd handler with fault injection: armKill
// makes the next /v1/sweep record its cell list, emit `emit` fake
// lines, and abort the connection mid-stream (a shard dying with work
// in flight); armSimFail makes every /v1/sim abort (a shard that is
// probe-healthy but fails requests).
type chaosShard struct {
	inner      http.Handler
	armKill    atomic.Bool
	armSimFail atomic.Bool
	emit       int

	mu  sync.Mutex
	got []apitypes.CellRef
}

func (c *chaosShard) cells() []apitypes.CellRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]apitypes.CellRef(nil), c.got...)
}

func (c *chaosShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/sim" && c.armSimFail.Load() {
		panic(http.ErrAbortHandler)
	}
	if r.URL.Path == "/v1/sweep" && c.armKill.CompareAndSwap(true, false) {
		var req apitypes.SweepRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		c.mu.Lock()
		c.got = append(c.got, req.Cells...)
		c.mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		for i := 0; i < c.emit && i < len(req.Cells); i++ {
			_ = enc.Encode(apitypes.CellResult{
				Workload: req.Cells[i].Workload,
				Mode:     req.Cells[i].Mode,
				Cached:   true,
				Stats:    nil,
			})
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // sever the stream mid-flight
	}
	c.inner.ServeHTTP(w, r)
}

// newFleet starts n real imtd shards (each behind a chaosShard) and a
// gateway over them with background probing effectively disabled —
// tests drive breaker transitions with ProbeNow for determinism.
func newFleet(t *testing.T, n int) (*Gateway, []*chaosShard, []string) {
	t.Helper()
	var chaoses []*chaosShard
	var urls []string
	for i := 0; i < n; i++ {
		s, err := serve.New(serve.Options{Workers: 2, CacheDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ch := &chaosShard{inner: s.Handler(), emit: 1}
		ts := httptest.NewServer(ch)
		t.Cleanup(ts.Close)
		chaoses = append(chaoses, ch)
		urls = append(urls, ts.URL)
	}
	gw, err := New(Options{Shards: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw, chaoses, urls
}

func gwPost(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func gwGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// parseSweep splits an NDJSON sweep response into cell lines and the
// final summary, failing if the summary is missing or not last.
func parseSweep(t *testing.T, body *bytes.Buffer) ([]apitypes.CellResult, apitypes.SweepSummary) {
	t.Helper()
	var cells []apitypes.CellResult
	var summary apitypes.SweepSummary
	sawSummary := false
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if sawSummary {
			t.Fatalf("line after the summary: %s", line)
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Done != nil {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatalf("bad summary line %s: %v", line, err)
			}
			sawSummary = true
			continue
		}
		var cell apitypes.CellResult
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatalf("bad cell line %s: %v", line, err)
		}
		cells = append(cells, cell)
	}
	if !sawSummary {
		t.Fatal("sweep stream ended without a done:true summary")
	}
	return cells, summary
}

const sweepBody = `{"suite":"STREAM","modes":["none","imt"]}`

// canonical reduces a cell to the fields that must be identical no
// matter which shard served it (or whether a gateway was involved at
// all): identity, stats, error. Provenance — shard, reroute, cache and
// coalesce flags, timings — is allowed to differ.
func canonical(t *testing.T, cells []apitypes.CellResult) map[string]string {
	t.Helper()
	m := make(map[string]string, len(cells))
	for _, c := range cells {
		key := c.Workload + "|" + c.Mode
		if _, dup := m[key]; dup {
			t.Fatalf("cell %s delivered twice", key)
		}
		blob, err := json.Marshal(struct {
			Stats any    `json:"stats"`
			Error string `json:"error,omitempty"`
		}{c.Stats, c.Error})
		if err != nil {
			t.Fatal(err)
		}
		m[key] = string(blob)
	}
	return m
}

// TestGatewaySweepMatchesSingleNode: the gateway is a transparent
// scatter/merge — the canonical result set of a sweep through a
// 2-shard fleet must equal the same sweep on one imtd.
func TestGatewaySweepMatchesSingleNode(t *testing.T) {
	single, err := serve.New(serve.Options{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rec := gwPost(t, single.Handler(), "/v1/sweep", sweepBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("single-node sweep: %d: %s", rec.Code, rec.Body.String())
	}
	wantCells, wantSummary := parseSweep(t, rec.Body)
	want := canonical(t, wantCells)

	gw, _, _ := newFleet(t, 2)
	rec = gwPost(t, gw.Handler(), "/v1/sweep", sweepBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("gateway sweep: %d: %s", rec.Code, rec.Body.String())
	}
	gotCells, gotSummary := parseSweep(t, rec.Body)
	got := canonical(t, gotCells)

	if len(got) != len(want) {
		t.Fatalf("gateway delivered %d cells, single node %d", len(got), len(want))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("cell %s differs:\n  gateway: %s\n  single:  %s", key, got[key], w)
		}
	}
	if gotSummary.Cells != wantSummary.Cells || gotSummary.Failed != 0 {
		t.Errorf("summary mismatch: gateway %+v vs single %+v", gotSummary, wantSummary)
	}
	for _, c := range gotCells {
		if c.Shard == "" {
			t.Errorf("cell %s|%s missing shard annotation", c.Workload, c.Mode)
		}
		if c.Rerouted {
			t.Errorf("cell %s|%s flagged rerouted on a healthy fleet", c.Workload, c.Mode)
		}
	}
	if gotSummary.Rerouted != 0 {
		t.Errorf("summary.Rerouted = %d on a healthy fleet", gotSummary.Rerouted)
	}
}

// TestGatewaySweepExactlyOnceAcrossShardKill: a shard dies mid-stream
// after delivering part of its share; the gateway must reroute the
// undelivered remainder and still deliver every cell exactly once.
// The victim is chosen from the actual ring assignment, so the test is
// deterministic regardless of which ephemeral ports the fleet got.
func TestGatewaySweepExactlyOnceAcrossShardKill(t *testing.T) {
	gw, chaoses, urls := newFleet(t, 3)

	var req apitypes.SweepRequest
	if err := json.Unmarshal([]byte(sweepBody), &req); err != nil {
		t.Fatal(err)
	}
	cells, err := gw.plan.ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	groups, unroutable := gw.assign(cells)
	if len(unroutable) != 0 {
		t.Fatalf("healthy fleet left cells unroutable: %v", unroutable)
	}
	victim, victimShare := "", 0
	for url, group := range groups {
		if len(group) > victimShare {
			victim, victimShare = url, len(group)
		}
	}
	if victimShare < 2 {
		t.Fatalf("largest shard share is %d cells; need ≥2 for a meaningful mid-stream kill", victimShare)
	}
	for i, url := range urls {
		if url == victim {
			chaoses[i].armKill.Store(true)
		}
	}

	rec := gwPost(t, gw.Handler(), "/v1/sweep", sweepBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d: %s", rec.Code, rec.Body.String())
	}
	gotCells, summary := parseSweep(t, rec.Body)

	got := canonical(t, gotCells) // fails on any duplicate
	if len(got) != len(cells) {
		t.Fatalf("delivered %d distinct cells, want %d", len(got), len(cells))
	}
	for _, c := range gotCells {
		if c.Error != "" {
			t.Errorf("cell %s|%s failed: %s", c.Workload, c.Mode, c.Error)
		}
	}

	var victimGot int
	for i, url := range urls {
		if url == victim {
			victimGot = len(chaoses[i].cells())
		}
	}
	if victimGot != victimShare {
		t.Fatalf("victim received %d cells, assignment predicted %d", victimGot, victimShare)
	}
	// The victim emitted at most 1 line before dying (and an abort can
	// race the flush, losing even that one), so the rest of its share
	// must have been rerouted.
	if summary.Rerouted < victimGot-1 || summary.Rerouted > victimGot {
		t.Errorf("summary.Rerouted = %d, want %d or %d (victim share %d, ≤1 line delivered before the kill)",
			summary.Rerouted, victimGot-1, victimGot, victimGot)
	}
	reroutedSeen := 0
	for _, c := range gotCells {
		if c.Rerouted {
			reroutedSeen++
			if c.Shard == victim {
				t.Errorf("cell %s|%s rerouted back onto the dead victim", c.Workload, c.Mode)
			}
		}
	}
	if reroutedSeen != summary.Rerouted {
		t.Errorf("rerouted flags on lines (%d) disagree with summary (%d)", reroutedSeen, summary.Rerouted)
	}

	// The kill must have tripped the victim's breaker.
	snap := gw.Stats(context.Background())
	for _, row := range snap.Shards {
		if row.Shard == victim && row.Breaker != apitypes.BreakerOpen {
			t.Errorf("victim breaker = %q after mid-stream kill, want open", row.Breaker)
		}
	}
}

// flakyHealth is a minimal shard that only answers health checks,
// toggled between healthy and failing.
type flakyHealth struct{ healthy atomic.Bool }

func (f *flakyHealth) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/healthz" && f.healthy.Load() {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
		return
	}
	http.Error(w, `{"error":{"code":"draining","message":"down"}}`, http.StatusServiceUnavailable)
}

// TestGatewayBreakerProbeLifecycle walks a shard's breaker through the
// full cycle using health probes only: closed → (probe failure) open →
// (probe success) half-open → (second success) closed, with the
// gateway's own healthz reflecting fleet routability throughout.
func TestGatewayBreakerProbeLifecycle(t *testing.T) {
	fh := &flakyHealth{}
	fh.healthy.Store(true)
	ts := httptest.NewServer(fh)
	t.Cleanup(ts.Close)
	gw, err := New(Options{Shards: []string{ts.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	h := gw.Handler()

	stateOf := func() string {
		t.Helper()
		rec := gwGet(t, h, "/v1/statsz")
		var snap apitypes.GatewaySnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Shards) != 1 {
			t.Fatalf("statsz breakdown has %d shards, want 1", len(snap.Shards))
		}
		return snap.Shards[0].Breaker
	}

	if got := stateOf(); got != apitypes.BreakerClosed {
		t.Fatalf("initial breaker = %q, want closed", got)
	}
	if rec := gwGet(t, h, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz with healthy fleet = %d", rec.Code)
	}

	fh.healthy.Store(false)
	gw.ProbeNow(context.Background())
	if got := stateOf(); got != apitypes.BreakerOpen {
		t.Fatalf("breaker after failed probe = %q, want open", got)
	}
	if rec := gwGet(t, h, "/v1/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no routable shard = %d, want 503", rec.Code)
	}

	fh.healthy.Store(true)
	gw.ProbeNow(context.Background())
	if got := stateOf(); got != apitypes.BreakerHalfOpen {
		t.Fatalf("breaker after one recovery probe = %q, want half-open", got)
	}
	if rec := gwGet(t, h, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz with half-open shard = %d, want 200 (half-open is routable)", rec.Code)
	}

	gw.ProbeNow(context.Background())
	if got := stateOf(); got != apitypes.BreakerClosed {
		t.Fatalf("breaker after two recovery probes = %q, want closed", got)
	}
}

// TestGatewaySimReroute: a shard that passes probes but fails requests
// must not lose the cell — the gateway walks the ring to the next
// shard and flags the result rerouted.
func TestGatewaySimReroute(t *testing.T) {
	gw, chaoses, urls := newFleet(t, 2)

	// Find a cell owned by shard 0 — deterministic for whatever ports
	// the fleet got.
	var victimCell apitypes.CellRef
	found := false
	var req apitypes.SweepRequest
	if err := json.Unmarshal([]byte(sweepBody), &req); err != nil {
		t.Fatal(err)
	}
	cells, err := gw.plan.ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if gw.ring.Owner(c.Key) == urls[0] {
			victimCell, found = c.Ref, true
			break
		}
	}
	if !found {
		t.Fatal("shard 0 owns none of the 16-cell grid; ring is degenerate")
	}
	chaoses[0].armSimFail.Store(true)

	body := fmt.Sprintf(`{"workload":%q,"mode":%q}`, victimCell.Workload, victimCell.Mode)
	rec := gwPost(t, gw.Handler(), "/v1/sim", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("sim = %d: %s", rec.Code, rec.Body.String())
	}
	var res apitypes.CellResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Rerouted {
		t.Error("result not flagged rerouted")
	}
	if res.Shard != urls[1] {
		t.Errorf("served by %q, want the surviving shard %q", res.Shard, urls[1])
	}
	if res.Stats == nil || res.Stats.Cycles == 0 {
		t.Errorf("rerouted cell came back without stats: %+v", res)
	}

	// With every shard failing, the gateway reports the fleet down.
	chaoses[1].armSimFail.Store(true)
	rec = gwPost(t, gw.Handler(), "/v1/sim", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("sim with all shards failing = %d, want 503", rec.Code)
	}
	var e apitypes.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != apitypes.CodeDraining {
		t.Errorf("code = %q, want draining", e.Error.Code)
	}
}

// TestGatewayStatszAggregation: the aggregate section must equal the
// arithmetic sum of what the shards themselves report.
func TestGatewayStatszAggregation(t *testing.T) {
	gw, _, urls := newFleet(t, 2)
	h := gw.Handler()

	grid := []string{"stream-copy-16MB", "stream-scale-16MB", "stream-add-16MB"}
	for _, wl := range grid {
		rec := gwPost(t, h, "/v1/sim", fmt.Sprintf(`{"workload":%q,"mode":"imt"}`, wl))
		if rec.Code != http.StatusOK {
			t.Fatalf("sim %s = %d: %s", wl, rec.Code, rec.Body.String())
		}
	}

	rec := gwGet(t, h, "/v1/statsz")
	var snap apitypes.GatewaySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gateway == nil {
		t.Fatal("gateway section missing from statsz")
	}
	if snap.Gateway.ShardsTotal != 2 || snap.Gateway.ShardsUp != 2 {
		t.Errorf("shards up/total = %d/%d, want 2/2", snap.Gateway.ShardsUp, snap.Gateway.ShardsTotal)
	}
	if snap.Gateway.Cells != uint64(len(grid)) {
		t.Errorf("gateway cells = %d, want %d", snap.Gateway.Cells, len(grid))
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("breakdown has %d shards, want 2", len(snap.Shards))
	}

	// Independently fetch each shard's statsz and check the sums.
	var wantCells, wantRequests uint64
	for _, url := range urls {
		resp, err := http.Get(url + "/v1/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var st apitypes.StatsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantCells += st.Cells
		wantRequests += st.Requests
	}
	if snap.Cells != wantCells {
		t.Errorf("aggregate cells = %d, shard sum = %d", snap.Cells, wantCells)
	}
	if snap.Requests != wantRequests {
		t.Errorf("aggregate requests = %d, shard sum = %d", snap.Requests, wantRequests)
	}
	if wantCells != uint64(len(grid)) {
		t.Errorf("fleet ran %d cells, want %d", wantCells, len(grid))
	}
}

// TestGatewayRejections pins the gateway's own 4xx/503 surface: bad
// bodies, shard-scoped routes, watch requests, and drain mode.
func TestGatewayRejections(t *testing.T) {
	gw, _, _ := newFleet(t, 1)
	h := gw.Handler()

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"sim unknown workload", "POST", "/v1/sim", `{"workload":"nope","mode":"imt"}`, 400, "bad_request"},
		{"sim unknown mode", "POST", "/v1/sim", `{"workload":"stream-copy-16MB","mode":"quantum"}`, 400, "bad_request"},
		{"sim watch", "POST", "/v1/sim", `{"workload":"stream-copy-16MB","mode":"imt","watch":true}`, 400, "bad_request"},
		{"sweep watch", "POST", "/v1/sweep", `{"suite":"STREAM","modes":["imt"],"watch":true}`, 400, "bad_request"},
		{"sweep empty", "POST", "/v1/sweep", `{}`, 400, "bad_request"},
		{"sweep unknown field", "POST", "/v1/sweep", `{"suit":"STREAM"}`, 400, "bad_request"},
		{"jobs are shard-scoped", "POST", "/v1/jobs", `{"suite":"STREAM","modes":["imt"]}`, 404, "not_found"},
		{"watch rooms are shard-scoped", "GET", "/v1/watch/abc", "", 404, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			var e apitypes.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("non-envelope error body %q: %v", rec.Body.String(), err)
			}
			if e.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Error.Code, tc.wantCode)
			}
		})
	}

	gw.SetDraining(true)
	rec := gwPost(t, h, "/v1/sim", `{"workload":"stream-copy-16MB","mode":"imt"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining sim = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("draining 503 missing Retry-After")
	}
}

// TestGatewayExplicitCells: a sweep of explicit cells (the shape the
// gateway itself sends to shards) round-trips through a gateway too —
// gateways can be chained or pointed at each other's API shape.
func TestGatewayExplicitCells(t *testing.T) {
	gw, _, _ := newFleet(t, 2)
	body := `{"cells":[{"workload":"stream-copy-16MB","mode":"imt"},{"workload":"stream-copy-16MB","mode":"none"}]}`
	rec := gwPost(t, gw.Handler(), "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
	}
	cells, summary := parseSweep(t, rec.Body)
	if len(cells) != 2 || summary.Cells != 2 || summary.Failed != 0 {
		t.Fatalf("got %d cells, summary %+v, want 2 clean cells", len(cells), summary)
	}
}

package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/apitypes"
)

// parityFleet is one imtd shard plus a gateway in front of it, both
// with the same sweep cap, so any difference between asking the shard
// and asking the gateway is the gateway's doing.
func parityFleet(t *testing.T, maxCells int) (shard, gateway http.Handler) {
	t.Helper()
	s, err := serve.New(serve.Options{Workers: 2, CacheDir: t.TempDir(), MaxSweepCells: maxCells})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	gw, err := New(Options{Shards: []string{ts.URL}, ProbeInterval: time.Hour, MaxSweepCells: maxCells})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return s.Handler(), gw.Handler()
}

// sweepOutcome is what must match between a shard and a gateway: the
// status, the error code, the delivered cells (completion order
// aside) and the summary's cell and failure counts.
type sweepOutcome struct {
	Status       int
	Code         string
	Cells        []string
	SummaryCells int
	Failed       int
}

func runSweep(t *testing.T, h http.Handler, body string) sweepOutcome {
	t.Helper()
	rec := gwPost(t, h, "/v1/sweep", body)
	out := sweepOutcome{Status: rec.Code}
	if rec.Code != http.StatusOK {
		var e apitypes.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("non-envelope error body %q: %v", rec.Body.String(), err)
		}
		out.Code = e.Error.Code
		return out
	}
	cells, summary := parseSweep(t, rec.Body)
	for _, c := range cells {
		out.Cells = append(out.Cells, c.Workload+"/"+c.Mode)
	}
	sort.Strings(out.Cells)
	out.SummaryCells, out.Failed = summary.Cells, summary.Failed
	return out
}

// TestGatewayPlansLikeShard: a sweep sent to a gateway expands to
// exactly the cells the same sweep sent to a shard runs — repeated
// modes, explicit cells overlapping the product, a suite plus one of
// its members, and the cell cap included.
func TestGatewayPlansLikeShard(t *testing.T) {
	shard, gateway := parityFleet(t, 8)
	for _, tc := range []struct {
		name, body string
		wantCells  int // 0: a 400
	}{
		{"repeated modes", `{"workloads":["stream-copy-16MB"],"modes":["none","none"]}`, 1},
		{"cells overlap the product",
			`{"workloads":["stream-copy-16MB"],"modes":["imt"],"cells":[{"workload":"stream-copy-16MB","mode":"imt"},{"workload":"stream-add-16MB","mode":"none"},{"workload":"stream-add-16MB","mode":"none"}]}`, 2},
		{"suite plus a member", `{"workloads":["stream-add-16MB"],"suite":"STREAM","modes":["imt","imt"]}`, 8},
		{"at the cap", `{"suite":"STREAM","modes":["imt"],"cells":[{"workload":"stream-copy-16MB","mode":"imt"}]}`, 8},
		{"over the cap", `{"suite":"STREAM","modes":["imt","none"]}`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct := runSweep(t, shard, tc.body)
			routed := runSweep(t, gateway, tc.body)
			if !reflect.DeepEqual(direct, routed) {
				t.Fatalf("shard and gateway disagree:\n  shard:   %+v\n  gateway: %+v", direct, routed)
			}
			if tc.wantCells == 0 {
				if direct.Status != http.StatusBadRequest || direct.Code != apitypes.CodeBadRequest {
					t.Fatalf("over-cap sweep = %d %s, want 400 bad_request", direct.Status, direct.Code)
				}
				return
			}
			if len(direct.Cells) != tc.wantCells || direct.SummaryCells != tc.wantCells || direct.Failed != 0 {
				t.Fatalf("got %+v, want %d clean cells", direct, tc.wantCells)
			}
		})
	}
}

// TestGatewayWorkloadsMatchShard: the catalog listing is byte-identical
// from a shard and from a gateway.
func TestGatewayWorkloadsMatchShard(t *testing.T) {
	shard, gateway := parityFleet(t, 8)
	direct := gwGet(t, shard, "/v1/workloads")
	routed := gwGet(t, gateway, "/v1/workloads")
	if direct.Code != http.StatusOK || routed.Code != http.StatusOK {
		t.Fatalf("status: shard %d, gateway %d", direct.Code, routed.Code)
	}
	if direct.Body.String() != routed.Body.String() {
		t.Fatalf("/v1/workloads differs:\n  shard:   %s\n  gateway: %s", direct.Body, routed.Body)
	}
}

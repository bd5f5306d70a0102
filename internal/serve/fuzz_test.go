package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/serve/apitypes"
)

// sweepEqual compares requests treating nil and empty slices as the
// same: omitempty drops an empty workloads list on re-marshal, and the
// server's grid expansion cannot tell the two apart either.
func sweepEqual(a, b apitypes.SweepRequest) bool {
	if a.Suite != b.Suite || a.MaxCycles != b.MaxCycles ||
		a.SampleInterval != b.SampleInterval || a.TimeoutMs != b.TimeoutMs {
		return false
	}
	eq := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(a.Workloads, b.Workloads) && eq(a.Modes, b.Modes)
}

// FuzzServeRequestDecode throws arbitrary bytes at both request
// decoders. The contract under fuzz:
//
//   - never panic, whatever the bytes;
//   - never allocate beyond the apitypes.MaxRequestBytes read cap (a hostile
//     Content-Length or endless body cannot balloon the server);
//   - accepted inputs round-trip: re-marshaling the decoded struct and
//     decoding again yields the same value, so what the server acts on
//     is exactly what it would echo.
func FuzzServeRequestDecode(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{}`),
		[]byte(`{"workload":"stream-triad-48MB","mode":"carve-low"}`),
		[]byte(`{"workload":"stream-copy-16MB","mode":"imt","max_cycles":100000,"timeout_ms":5000}`),
		[]byte(`{"workloads":["stream-copy-16MB"],"suite":"STREAM","modes":["none","imt"]}`),
		[]byte(`{"suite":"MLPerf","modes":["carve-low"],"sample_interval":4096}`),
		[]byte(`{"tenant":"alice","suite":"STREAM","modes":["imt"],"timeout_ms":1000}`),
		[]byte(`{"workload":"x","mode":"imt"} trailing`),
		[]byte(`{"workload":42}`),
		[]byte(`{"wrokload":"typo"}`),
		[]byte(`[1,2,3]`),
		[]byte(`null`),
		[]byte(``),
		[]byte(`{"modes":[`),
		[]byte("{\"workload\":\"\\u0000\"}"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > apitypes.MaxRequestBytes {
			data = data[:apitypes.MaxRequestBytes]
		}
		if sim, err := decodeRequest[apitypes.SimRequest](bytes.NewReader(data)); err == nil {
			blob, err := json.Marshal(sim)
			if err != nil {
				t.Fatalf("accepted apitypes.SimRequest does not re-marshal: %v", err)
			}
			again, err := decodeRequest[apitypes.SimRequest](bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("re-marshaled apitypes.SimRequest rejected: %v (%s)", err, blob)
			}
			if sim != again {
				t.Fatalf("apitypes.SimRequest round-trip drift: %+v vs %+v", sim, again)
			}
		}
		if sw, err := decodeRequest[apitypes.SweepRequest](bytes.NewReader(data)); err == nil {
			// Decoding can only have read capped input; its slices are
			// bounded by the bytes that produced them.
			if len(sw.Workloads) > apitypes.MaxRequestBytes || len(sw.Modes) > apitypes.MaxRequestBytes {
				t.Fatalf("decoded slices exceed the input cap: %d workloads, %d modes",
					len(sw.Workloads), len(sw.Modes))
			}
			blob, err := json.Marshal(sw)
			if err != nil {
				t.Fatalf("accepted apitypes.SweepRequest does not re-marshal: %v", err)
			}
			again, err := decodeRequest[apitypes.SweepRequest](bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("re-marshaled apitypes.SweepRequest rejected: %v (%s)", err, blob)
			}
			if !sweepEqual(sw, again) {
				t.Fatalf("apitypes.SweepRequest round-trip drift: %+v vs %+v", sw, again)
			}
		}
		if jr, err := decodeRequest[apitypes.JobRequest](bytes.NewReader(data)); err == nil {
			blob, err := json.Marshal(jr)
			if err != nil {
				t.Fatalf("accepted apitypes.JobRequest does not re-marshal: %v", err)
			}
			again, err := decodeRequest[apitypes.JobRequest](bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("re-marshaled apitypes.JobRequest rejected: %v (%s)", err, blob)
			}
			if jr.Tenant != again.Tenant || !sweepEqual(jr.SweepRequest, again.SweepRequest) {
				t.Fatalf("apitypes.JobRequest round-trip drift: %+v vs %+v", jr, again)
			}
		}
	})
}

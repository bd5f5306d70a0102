package apitypes

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gpusim"
)

// warmLine is a real warm sweep line, as a shard behind a gateway
// writes it for an hpc-micro cell.
var warmLine = []byte(`{"workload":"hpc-micro-00","mode":"carve-low","cached":true,"cache_key":"0c1f3e6a9b2d4c58","elapsed_ms":0.041237,"stats":{"Cycles":182394,"WarpOps":65536,"Loads":49152,"Stores":16384,"Atomics":0,"L1Hits":30211,"L1Misses":18941,"L2Hits":9876,"L2Misses":9065,"DRAMDataReads":36260,"DRAMTagReads":4533,"DRAMWrites":16384,"TagL2Hits":4532,"TagL2Misses":4533},"shard":"shard-1"}`)

var testStrings = []string{"", "stream-copy-16MB", "imt", "carve-low", "shard-0", "0123456789abcdef",
	`simulator: "bad" <config> & more`, "naïve ✓", "line\nbreak\ttab", "\x00\x1f", "bad \xff utf8", " "}

func randResult(rng *rand.Rand) CellResult {
	str := func() string { return testStrings[rng.Intn(len(testStrings))] }
	r := CellResult{
		Workload: str(), Mode: str(), CacheKey: str(), Error: str(), WatchRoom: str(), Shard: str(),
		Cached: rng.Intn(2) == 0, Coalesced: rng.Intn(2) == 0, Rerouted: rng.Intn(2) == 0,
	}
	switch rng.Intn(4) {
	case 0:
		r.ElapsedMs = rng.ExpFloat64()
	case 1:
		r.ElapsedMs = math.Float64frombits(rng.Uint64()) // NaN and ±Inf included
	case 2:
		r.ElapsedMs = float64(rng.Intn(10))
	}
	if rng.Intn(4) != 0 {
		st := &gpusim.Stats{Cycles: rng.Uint64(), WarpOps: uint64(rng.Intn(1 << 20)), DRAMTagReads: uint64(rng.Intn(3))}
		for i := rng.Intn(3); i > 0; i-- {
			st.Samples = append(st.Samples, gpusim.Sample{Cycle: uint64(i) * 50000, Cycles: 50000,
				BandwidthUtil: rng.Float64(), MSHROccupancy: rng.Float64() * 1e-7, QueueDepth: float64(rng.Intn(40))})
		}
		r.Stats = st
	}
	return r
}

// TestCellResultJSONMatchesEncodingJSON is the differential test of the
// line codec: for 20k random results (escaped, HTML, non-ASCII and
// invalid-UTF-8 text, NaN and ±Inf included), AppendJSON equals
// json.Marshal byte for byte, errors included, and DecodeJSON of the
// marshalled line equals json.Unmarshal into a zero CellResult. Values
// whose strings marshal canonically must take the strict path.
func TestCellResultJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		r := randResult(rng)
		want, wantErr := json.Marshal(r)
		got, err := r.AppendJSON([]byte("pre"))
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || string(got) != "pre" {
				t.Fatalf("value %d: got %q, %v; want error %v", i, got, err, wantErr)
			}
			continue
		}
		if err != nil || string(got[3:]) != string(want) {
			t.Fatalf("value %d: AppendJSON\n got %s (%v)\nwant %s", i, got[3:], err, want)
		}
		checkCellDecode(t, want)
		var direct CellResult
		if !bytes.Contains(want, []byte(`\ufffd`)) && !direct.ParseJSON(append(want, '\n')) {
			t.Fatalf("value %d: strict parser declined json.Marshal's line %s", i, want)
		}
	}
}

// checkCellDecode asserts the codec's decode contract on one input:
// DecodeJSON equals json.Unmarshal into a zero CellResult, value and
// error, from a dirty destination; and a strict accept implies
// json.Unmarshal succeeds with the same value.
func checkCellDecode(t *testing.T, data []byte) {
	t.Helper()
	var want CellResult
	wantErr := json.Unmarshal(data, &want)
	got := CellResult{Workload: "stale", Cached: true, Stats: &gpusim.Stats{Cycles: 1}}
	err := got.DecodeJSON(data)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%q: DecodeJSON error %v, json.Unmarshal %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: DecodeJSON\n got %+v\nwant %+v", data, got, want)
	}
	var strict CellResult
	if strict.ParseJSON(data) && (wantErr != nil || !reflect.DeepEqual(strict, want)) {
		t.Fatalf("%q: strict parser accepted %+v, json.Unmarshal gives %+v (%v)", data, strict, want, wantErr)
	}
	if wantErr == nil {
		// Whatever encoding/json produced, the appender spells it as
		// json.Marshal does.
		m, merr := json.Marshal(want)
		a, aerr := want.AppendJSON(nil)
		if (merr == nil) != (aerr == nil) || !bytes.Equal(m, a) {
			t.Fatalf("%q: re-encode\n got %s (%v)\nwant %s (%v)", data, a, aerr, m, merr)
		}
	}
}

// FuzzCellResultDecode holds the codec to encoding/json on arbitrary
// input: a strict accept implies json.Unmarshal succeeds with a
// DeepEqual value, DecodeJSON always equals json.Unmarshal, and the
// appender re-encodes whatever json.Unmarshal produced exactly as
// json.Marshal does.
func FuzzCellResultDecode(f *testing.F) {
	sampled, _ := json.Marshal(CellResult{Workload: "stream-copy-16MB", Mode: "imt", CacheKey: "abcdef0123456789",
		ElapsedMs: 51.5, WatchRoom: "ABCD-1234", Stats: &gpusim.Stats{Cycles: 100000, WarpOps: 7,
			Samples: []gpusim.Sample{{Cycle: 50000, Cycles: 50000, BandwidthUtil: 0.75, L1HitRate: 1e-7},
				{Cycle: 100000, Cycles: 50000, QueueDepth: 12}}}})
	failed, _ := json.Marshal(CellResult{Workload: "w", Mode: "carve-low", ElapsedMs: 2,
		Error: `simulator: "bad" <config> & naïve ✓`, Shard: "s1", Rerouted: true})
	f.Add(warmLine)
	f.Add(append(append([]byte(nil), warmLine...), '\n'))
	f.Add(sampled)
	f.Add(failed)
	for _, s := range []string{
		`{"mode":"imt","workload":"w","elapsed_ms":1}`, // reordered keys
		`{"workload":"w", "mode":"imt","elapsed_ms":1}`,
		`{"workload":"w","mode":"imt","elapsed_ms":1,"stats":null}`,
		`{"workload":"w","mode":"imt","cached":false,"elapsed_ms":1}`,
		`{"workload":"w","mode":"imt","elapsed_ms":-0}`,
		`{"workload":"w","mode":"imt","elapsed_ms":1e400}`,
		`{"workload":"w","mode":"imt","elapsed_ms":1,"stats":{"Cycles":18446744073709551616}}`,
		`{"workload":"w","mode":"imt","elapsed_ms":1,"stats":{"Cycles":007}}`,
		`{"workload":"w","mode":"imt","elapsed_ms":1,"error":"<\"x\">"}`,
		`{"workload":"w","mode":"imt","elapsed_ms":1,"error":"<raw>"}`,
		`{"workload":"w","mode":"imt","elapsed_ms":1,"stats":{"Cycles":1,"Samples":[]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Add(warmLine[:len(warmLine)/2])
	f.Add(warmLine[:len(warmLine)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCellDecode(t, data)
	})
}

// BenchmarkCellResultCodec: the per-line cost of a warm sweep line,
// encoded and decoded by this codec and by encoding/json.
func BenchmarkCellResultCodec(b *testing.B) {
	var line CellResult
	if !line.ParseJSON(warmLine) {
		b.Fatal("warm line not in json.Marshal's spelling")
	}
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = line.AppendJSON(buf[:0])
		}
	})
	b.Run("encode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(&line)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r CellResult
			_ = r.DecodeJSON(warmLine)
		}
	})
	b.Run("decode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r CellResult
			_ = json.Unmarshal(warmLine, &r)
		}
	})
}

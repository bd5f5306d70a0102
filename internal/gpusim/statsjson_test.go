package gpusim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/wirejson"
)

// TestStatsJSONFieldTable pins the codec's field tables to the structs:
// a field added to Stats or Sample without a codec entry fails here
// (and in the differential test below) rather than silently dropping
// out of the cache and the wire.
func TestStatsJSONFieldTable(t *testing.T) {
	var want []string
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		switch {
		case f.Tag.Get("json") == "-":
		case f.Type.Kind() == reflect.Uint64:
			want = append(want, f.Name)
		case f.Name != "Samples":
			t.Errorf("Stats.%s (%s) has no codec entry", f.Name, f.Type)
		}
	}
	if len(want) != len(statsCounterKeys) {
		t.Fatalf("%d uint64 Stats fields, %d codec keys", len(want), len(statsCounterKeys))
	}
	for i, name := range want {
		if k := statsCounterKeys[i]; k[2:len(k)-2] != name {
			t.Errorf("codec key %d is %s, field is %s", i, k, name)
		}
	}
	sp := reflect.TypeOf(Sample{})
	if sp.NumField() != 2+len(sampleFloatKeys) {
		t.Fatalf("Sample has %d fields, codec covers %d", sp.NumField(), 2+len(sampleFloatKeys))
	}
	for i, k := range sampleFloatKeys {
		if f := sp.Field(2 + i); f.Type.Kind() != reflect.Float64 || k[2:len(k)-2] != f.Name {
			t.Errorf("codec key %s for Sample field %s (%s)", k, f.Name, f.Type)
		}
	}
}

func randCount(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Uint64()
	default:
		return uint64(rng.Int63n(1 << uint(rng.Intn(40)+1)))
	}
}

func randRate(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(100))
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	case 3:
		return math.Float64frombits(rng.Uint64()) // NaN and ±Inf included
	default:
		return rng.Float64()
	}
}

func randStats(rng *rand.Rand) Stats {
	var s Stats
	for _, p := range s.counters() {
		*p = randCount(rng)
	}
	if rng.Intn(3) == 0 {
		s.Samples = make([]Sample, rng.Intn(4))
		for i := range s.Samples {
			smp := &s.Samples[i]
			smp.Cycle, smp.Cycles = randCount(rng), randCount(rng)
			for _, p := range smp.floats() {
				*p = randRate(rng)
			}
		}
	}
	s.HostNsPerOp = rng.Float64() // json:"-": never on the wire
	return s
}

// mutate returns a copy of blob with one random edit: the spellings
// json.Unmarshal may accept but json.Marshal never writes, and plain
// corruption.
func mutate(rng *rand.Rand, blob []byte) []byte {
	b := append([]byte(nil), blob...)
	i := rng.Intn(len(b))
	switch rng.Intn(6) {
	case 0:
		return b[:i] // truncated
	case 1:
		return append(b[:i], b[i+1:]...)
	case 2:
		return append(b[:i], append([]byte{" \n\t"[rng.Intn(3)]}, b[i:]...)...)
	case 3:
		b[i] = "0123456789-.eE,:{}[]\"n"[rng.Intn(22)]
		return b
	case 4:
		return append(b, " \n"[rng.Intn(2)])
	default:
		for _, r := range []struct{ from, to string }{{`"Cycles":`, `"cycles":`}, {`1`, `01`}, {`0`, `-0`},
			{`"Samples":[`, `"Samples":null,"X":[`}, {`,"Loads":`, `,"Loads":1,"Loads":`}} {
			if j := bytes.Index(b, []byte(r.from)); j >= 0 {
				return append(append(append([]byte(nil), b[:j]...), r.to...), b[j+len(r.from):]...)
			}
		}
		return b
	}
}

// TestStatsJSONMatchesEncodingJSON is the codec's differential test:
// for 20k random Stats, AppendJSON equals json.Marshal byte for byte
// (errors included), the strict reader accepts exactly those bytes,
// and DecodeJSON equals json.Unmarshal into a zero Stats on the
// marshalled bytes and on mutations of them.
func TestStatsJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		s := randStats(rng)
		want, wantErr := json.Marshal(s)
		got, err := s.AppendJSON([]byte("pre"))
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || string(got) != "pre" {
				t.Fatalf("value %d: got %q, %v; want error %v", i, got, err, wantErr)
			}
			continue
		}
		if err != nil || string(got[3:]) != string(want) {
			t.Fatalf("value %d: AppendJSON\n got %s (%v)\nwant %s", i, got[3:], err, want)
		}
		var direct Stats
		c := wirejson.NewCursor(want)
		if direct.ReadJSON(&c); !c.Done() {
			t.Fatalf("value %d: strict reader declined json.Marshal's bytes %s", i, want)
		}
		checkDecode(t, want)
		for k := 0; k < 3; k++ {
			checkDecode(t, mutate(rng, want))
		}
	}
}

// checkDecode asserts DecodeJSON(data) == json.Unmarshal(data, &zero),
// value and error, starting from a non-zero destination.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var want Stats
	wantErr := json.Unmarshal(data, &want)
	got := Stats{Cycles: 99, Samples: []Sample{{Cycle: 1}}}
	err := got.DecodeJSON(data)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%q: DecodeJSON error %v, json.Unmarshal %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: DecodeJSON\n got %+v\nwant %+v", data, got, want)
	}
}

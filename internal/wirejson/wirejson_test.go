package wirejson

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"
)

// RandFloat draws the float shapes json.Marshal spells differently:
// zeros of both signs, integers, the 1e-6 and 1e21 exponent-form
// cutoffs and their neighbours, subnormals, extremes and plain ratios.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, 1e21, math.Nextafter(1e-6, 0),
			math.Nextafter(1e21, 0), 5e-324, math.MaxFloat64, -math.MaxFloat64, 1e-7, 123456789}[rng.Intn(13)]
	case 1:
		return float64(rng.Int63n(1 << 53))
	case 2:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and Inf included
	case 3:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		return rng.Float64()
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		f := randFloat(rng)
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || string(got) != "x" {
				t.Fatalf("%v: got %q, %v; want error %v", f, got, err, wantErr)
			}
			continue
		}
		if err != nil || string(got[1:]) != string(want) {
			t.Fatalf("%v: got %q, %v; want %q", f, got[1:], err, want)
		}
		c := NewCursor(want)
		if back := c.Float(); !c.Done() || math.Float64bits(back) != math.Float64bits(f) {
			t.Fatalf("%q: cursor read %v (done %v), want %v", want, back, c.Done(), f)
		}
	}
}

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "plain text", `quo"te`, `back\slash`, "<b>&amp;</b>", "tab\there",
		"nl\n", "\x00\x01\x1f\x7f", "naïve ✓", "  ", "bad \xff utf8", "\xc3"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("%q: got %s, want %s", s, got, want)
		}
		c := NewCursor(want)
		back := c.Str()
		// Invalid UTF-8 marshals to \ufffd, which decodes to a string
		// that marshals differently: the cursor leaves that to
		// encoding/json. Every other string reads back as itself.
		if utf8.ValidString(s) && (!c.Done() || back != s) {
			t.Errorf("%s: cursor read %q (done %v), want %q", want, back, c.Done(), s)
		}
	}
}

// TestCursorRejectsOtherSpellings: every literal here is valid JSON that
// json.Unmarshal accepts, but not how json.Marshal writes the value, so
// the strict cursor must refuse it and leave it to encoding/json.
func TestCursorRejectsOtherSpellings(t *testing.T) {
	for _, tc := range []struct {
		lit  string
		read func(*Cursor)
	}{
		{"01", func(c *Cursor) { c.Uint() }},
		{"-0", func(c *Cursor) { c.Uint() }},
		{"18446744073709551616", func(c *Cursor) { c.Uint() }},
		{"1.0", func(c *Cursor) { c.Uint() }},
		{"1e2", func(c *Cursor) { c.Uint() }},
		{"1.50", func(c *Cursor) { c.Float() }},
		{"1E5", func(c *Cursor) { c.Float() }},
		{"1e400", func(c *Cursor) { c.Float() }},
		{"0.0000001", func(c *Cursor) { c.Float() }},
		{"1e21", func(c *Cursor) { c.Float() }},
		{"-", func(c *Cursor) { c.Float() }},
		{`"<"`, func(c *Cursor) { c.Str() }},
		{`"\u0041"`, func(c *Cursor) { c.Str() }},
		{`"\/"`, func(c *Cursor) { c.Str() }},
		{"\"\u2028\"", func(c *Cursor) { c.Str() }},
		{"\"\xff\"", func(c *Cursor) { c.Str() }},
		{`"open`, func(c *Cursor) { c.Str() }},
		{`"esc\"`, func(c *Cursor) { c.Str() }},
		{"false", func(c *Cursor) { c.True() }},
		{"null", func(c *Cursor) { c.True() }},
	} {
		c := NewCursor([]byte(tc.lit))
		if tc.read(&c); c.Done() {
			t.Errorf("%s: accepted a spelling json.Marshal never writes", tc.lit)
		}
	}
}

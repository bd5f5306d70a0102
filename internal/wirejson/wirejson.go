// Package wirejson holds the primitives of the reflection-free JSON
// codecs for the warm-path result types (gpusim.Stats and
// apitypes.CellResult): appenders that emit exactly encoding/json's
// bytes for one scalar, and a strict byte cursor that accepts exactly
// those bytes and nothing else.
//
// The contract the codecs built on it keep:
//
//   - An appender's output equals json.Marshal's. Whatever it does not
//     render itself (strings that need escaping, NaN and ±Inf) it hands
//     to encoding/json, so the bytes and the errors are encoding/json's.
//   - A Cursor accepts only json.Marshal's own spelling: keys in
//     declaration order, no whitespace, canonical numbers. Anything else
//     fails the cursor, and the caller decodes the whole input with
//     encoding/json instead. An accepted input therefore decodes to
//     exactly what json.Unmarshal would have produced.
package wirejson

import (
	"encoding/json"
	"math"
	"strconv"
)

// plain reports whether b stands for itself inside a json.Marshal
// string: printable ASCII other than the quote, the backslash and the
// three characters encoding/json escapes for HTML (<, >, &).
func plain(b byte) bool {
	return b >= 0x20 && b < 0x7f && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// AppendString appends json.Marshal(s). Plain strings are quoted in
// place; any other string is rendered by encoding/json.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			blob, _ := json.Marshal(s) // a string always marshals
			return append(b, blob...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat appends json.Marshal(f) for a float64: the shortest
// round-trip decimal, in exponent form below 1e-6 and from 1e21 on, with
// the exponent's leading zero dropped. NaN and ±Inf return
// encoding/json's own error.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Cursor reads one json.Marshal value strictly, left to right. A
// mismatch fails the cursor; every read after a failure is a no-op that
// returns the zero value, so a decoder is straight-line code checked
// once at the end with Done.
type Cursor struct {
	data   []byte
	pos    int
	failed bool
}

// NewCursor starts a cursor at the beginning of data.
func NewCursor(data []byte) Cursor { return Cursor{data: data} }

// Fail marks the input as not json.Marshal's spelling.
func (c *Cursor) Fail() { c.failed = true }

// Done reports whether the cursor read everything without a failure,
// allowing one trailing newline (the framing json.Encoder adds).
func (c *Cursor) Done() bool {
	if c.failed {
		return false
	}
	rest := c.data[c.pos:]
	return len(rest) == 0 || (len(rest) == 1 && rest[0] == '\n')
}

// Skip consumes lit if the input continues with it. A miss is not a
// failure: it is how optional (omitempty) keys are probed.
func (c *Cursor) Skip(lit string) bool {
	if c.failed || len(c.data)-c.pos < len(lit) || string(c.data[c.pos:c.pos+len(lit)]) != lit {
		return false
	}
	c.pos += len(lit)
	return true
}

// Expect consumes lit or fails.
func (c *Cursor) Expect(lit string) {
	if !c.Skip(lit) {
		c.failed = true
	}
}

// Uint reads a uint64 in canonical decimal: no sign, no leading zero,
// no fraction or exponent, no overflow.
func (c *Cursor) Uint() uint64 {
	if c.failed {
		return 0
	}
	start := c.pos
	var v uint64
	for c.pos < len(c.data) {
		d := c.data[c.pos] - '0'
		if d > 9 {
			break
		}
		if v > math.MaxUint64/10 || (v == math.MaxUint64/10 && d > math.MaxUint64%10) {
			c.failed = true
			return 0
		}
		v = v*10 + uint64(d)
		c.pos++
	}
	if n := c.pos - start; n == 0 || (n > 1 && c.data[start] == '0') {
		c.failed = true
		return 0
	}
	return v
}

// Float reads a float64 only if AppendFloat would spell its value with
// exactly these bytes.
func (c *Cursor) Float() float64 {
	if c.failed {
		return 0
	}
	start := c.pos
	for c.pos < len(c.data) {
		b := c.data[c.pos]
		if (b < '0' || b > '9') && b != '-' && b != '+' && b != '.' && b != 'e' && b != 'E' {
			break
		}
		c.pos++
	}
	lit := c.data[start:c.pos]
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		c.failed = true
		return 0
	}
	var buf [32]byte
	if canon, err := AppendFloat(buf[:0], f); err != nil || string(canon) != string(lit) {
		c.failed = true
		return 0
	}
	return f
}

// True reads the literal true: the only spelling json.Marshal gives an
// omitempty bool that is present at all.
func (c *Cursor) True() bool {
	c.Expect("true")
	return !c.failed
}

// Str reads a string that AppendString would spell with exactly
// these bytes. Plain strings are sliced out directly; one with escapes
// or non-ASCII text is decoded by encoding/json and must re-encode to
// the same bytes.
func (c *Cursor) Str() string {
	c.Expect(`"`)
	if c.failed {
		return ""
	}
	start := c.pos
	for c.pos < len(c.data) && plain(c.data[c.pos]) {
		c.pos++
	}
	if c.pos < len(c.data) && c.data[c.pos] == '"' {
		c.pos++
		return string(c.data[start : c.pos-1])
	}
	// Find the closing quote, stepping over escaped characters.
	for c.pos < len(c.data) && c.data[c.pos] != '"' {
		if c.data[c.pos] == '\\' {
			c.pos++
		}
		c.pos++
	}
	if c.pos >= len(c.data) {
		c.failed = true
		return ""
	}
	c.pos++
	lit := c.data[start-1 : c.pos]
	var s string
	if err := json.Unmarshal(lit, &s); err != nil || string(AppendString(nil, s)) != string(lit) {
		c.failed = true
		return ""
	}
	return s
}

package apitypes

import (
	"encoding/json"

	"repro/internal/gpusim"
	"repro/internal/wirejson"
)

// The CellResult JSON codec: json.Marshal's bytes without reflection,
// for the line in which every warm sweep cell and /v1/sim answer
// crosses each hop. AppendJSON equals json.Marshal and DecodeJSON equals
// json.Unmarshal into a zero CellResult, for every value and every
// input; the Stats inside is gpusim's codec (see package wirejson for
// the contract, and FuzzCellResultDecode for the check).

// AppendJSON appends json.Marshal(r) to b. On error (a NaN or infinite
// sample rate in Stats) it returns encoding/json's error and b
// unextended.
func (r *CellResult) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"workload":`...)
	b = wirejson.AppendString(b, r.Workload)
	b = append(b, `,"mode":`...)
	b = wirejson.AppendString(b, r.Mode)
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	if r.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	if r.CacheKey != "" {
		b = append(b, `,"cache_key":`...)
		b = wirejson.AppendString(b, r.CacheKey)
	}
	b = append(b, `,"elapsed_ms":`...)
	b, err := wirejson.AppendFloat(b, r.ElapsedMs)
	if err != nil {
		return b[:start], err
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = wirejson.AppendString(b, r.Error)
	}
	if r.Stats != nil {
		b = append(b, `,"stats":`...)
		if b, err = r.Stats.AppendJSON(b); err != nil {
			return b[:start], err
		}
	}
	if r.WatchRoom != "" {
		b = append(b, `,"watch_room":`...)
		b = wirejson.AppendString(b, r.WatchRoom)
	}
	if r.Shard != "" {
		b = append(b, `,"shard":`...)
		b = wirejson.AppendString(b, r.Shard)
	}
	if r.Rerouted {
		b = append(b, `,"rerouted":true`...)
	}
	return append(b, '}'), nil
}

// ParseJSON reads data into r if data is exactly json.Marshal(r)'s
// bytes, optionally followed by one newline (json.Encoder's framing),
// and reports whether it was. On false, r holds a partial value.
func (r *CellResult) ParseJSON(data []byte) bool {
	*r = CellResult{}
	c := wirejson.NewCursor(data)
	c.Expect(`{"workload":`)
	r.Workload = c.Str()
	c.Expect(`,"mode":`)
	r.Mode = c.Str()
	if c.Skip(`,"cached":`) {
		r.Cached = c.True()
	}
	if c.Skip(`,"coalesced":`) {
		r.Coalesced = c.True()
	}
	if c.Skip(`,"cache_key":`) {
		r.CacheKey = nonEmpty(&c)
	}
	c.Expect(`,"elapsed_ms":`)
	r.ElapsedMs = c.Float()
	if c.Skip(`,"error":`) {
		r.Error = nonEmpty(&c)
	}
	if c.Skip(`,"stats":`) {
		r.Stats = new(gpusim.Stats)
		r.Stats.ReadJSON(&c)
	}
	if c.Skip(`,"watch_room":`) {
		r.WatchRoom = nonEmpty(&c)
	}
	if c.Skip(`,"shard":`) {
		r.Shard = nonEmpty(&c)
	}
	if c.Skip(`,"rerouted":`) {
		r.Rerouted = c.True()
	}
	c.Expect("}")
	return c.Done()
}

// DecodeJSON sets r to what json.Unmarshal(data, &zero) produces, error
// included: ParseJSON when data is json.Marshal's spelling, otherwise
// encoding/json over a reset r.
func (r *CellResult) DecodeJSON(data []byte) error {
	if r.ParseJSON(data) {
		return nil
	}
	*r = CellResult{}
	return json.Unmarshal(data, r)
}

// nonEmpty reads an omitempty string, which json.Marshal never writes
// empty.
func nonEmpty(c *wirejson.Cursor) string {
	s := c.Str()
	if s == "" {
		c.Fail()
	}
	return s
}

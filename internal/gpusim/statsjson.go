package gpusim

import (
	"encoding/json"
	"strconv"

	"repro/internal/wirejson"
)

// The Stats JSON codec: the bytes of json.Marshal(Stats) without
// reflection. It is what the runner cache writes and reads and what
// every serving hop embeds in a CellResult line, so it must be exact:
// AppendJSON equals json.Marshal, and DecodeJSON equals json.Unmarshal
// into a zero Stats, for every value and every input (see package
// wirejson for the contract; the differential tests in statsjson_test.go
// hold it to encoding/json field by field).

// statsCounterKeys are the scalar Stats fields in declaration order,
// each with the separator json.Marshal puts before it. counters lists
// the same fields; TestStatsJSONFieldTable pins both to the struct.
var statsCounterKeys = [...]string{
	`{"Cycles":`, `,"WarpOps":`, `,"Loads":`, `,"Stores":`, `,"Atomics":`,
	`,"L1Hits":`, `,"L1Misses":`, `,"L2Hits":`, `,"L2Misses":`,
	`,"DRAMDataReads":`, `,"DRAMTagReads":`, `,"DRAMWrites":`,
	`,"TagL2Hits":`, `,"TagL2Misses":`,
}

func (s *Stats) counters() [len(statsCounterKeys)]*uint64 {
	return [...]*uint64{
		&s.Cycles, &s.WarpOps, &s.Loads, &s.Stores, &s.Atomics,
		&s.L1Hits, &s.L1Misses, &s.L2Hits, &s.L2Misses,
		&s.DRAMDataReads, &s.DRAMTagReads, &s.DRAMWrites,
		&s.TagL2Hits, &s.TagL2Misses,
	}
}

// sampleFloatKeys are Sample's float fields in declaration order, after
// its two cycle counters.
var sampleFloatKeys = [...]string{
	`,"BandwidthUtil":`, `,"L1HitRate":`, `,"L2HitRate":`, `,"TagHitRate":`,
	`,"MSHROccupancy":`, `,"QueueDepth":`, `,"DRAMQueueDepth":`,
}

func (smp *Sample) floats() [len(sampleFloatKeys)]*float64 {
	return [...]*float64{
		&smp.BandwidthUtil, &smp.L1HitRate, &smp.L2HitRate, &smp.TagHitRate,
		&smp.MSHROccupancy, &smp.QueueDepth, &smp.DRAMQueueDepth,
	}
}

// AppendJSON appends json.Marshal(s) to b. A NaN or infinite sample
// rate returns encoding/json's error and b unextended.
func (s *Stats) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	for i, p := range s.counters() {
		b = append(b, statsCounterKeys[i]...)
		b = strconv.AppendUint(b, *p, 10)
	}
	if len(s.Samples) > 0 {
		b = append(b, `,"Samples":[`...)
		for i := range s.Samples {
			smp := &s.Samples[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Cycle":`...)
			b = strconv.AppendUint(b, smp.Cycle, 10)
			b = append(b, `,"Cycles":`...)
			b = strconv.AppendUint(b, smp.Cycles, 10)
			for j, p := range smp.floats() {
				b = append(b, sampleFloatKeys[j]...)
				var err error
				if b, err = wirejson.AppendFloat(b, *p); err != nil {
					return b[:start], err
				}
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// ReadJSON reads a json.Marshal(Stats) object at c into s, which must
// be zero. Any other spelling fails c.
func (s *Stats) ReadJSON(c *wirejson.Cursor) {
	for i, p := range s.counters() {
		c.Expect(statsCounterKeys[i])
		*p = c.Uint()
	}
	if c.Skip(`,"Samples":[`) {
		// omitempty: a present series is never empty.
		for first := true; first || c.Skip(","); first = false {
			var smp Sample
			c.Expect(`{"Cycle":`)
			smp.Cycle = c.Uint()
			c.Expect(`,"Cycles":`)
			smp.Cycles = c.Uint()
			for j, p := range smp.floats() {
				c.Expect(sampleFloatKeys[j])
				*p = c.Float()
			}
			c.Expect("}")
			s.Samples = append(s.Samples, smp)
		}
		c.Expect("]")
	}
	c.Expect("}")
}

// DecodeJSON sets s to what json.Unmarshal(data, &zero) produces,
// error included: json.Marshal's own bytes are read directly, anything
// else by encoding/json over a reset s.
func (s *Stats) DecodeJSON(data []byte) error {
	*s = Stats{}
	c := wirejson.NewCursor(data)
	if s.ReadJSON(&c); c.Done() {
		return nil
	}
	*s = Stats{}
	return json.Unmarshal(data, s)
}

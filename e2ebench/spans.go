package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Layer names used for spans; each becomes one process row in the
// Perfetto view.
const (
	layerClient      = "client"
	layerGateway     = "cluster"
	layerExperiments = "experiments"
	layerGPUSim      = "gpusim"
	layerRunner      = "runner"
)

// span is one timed call into a layer's public entry point. Cell
// identifies the cell a /v1/sim request was about, so the spans one
// interactive request causes across layers can be matched up.
type span struct {
	Layer string
	Name  string
	Cell  string
	Start time.Time
	End   time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced run: every method is then a no-op and wrap returns the
// handler unchanged, so the untraced path carries no tracing code.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	// hubs are obs hubs whose runner cell spans are merged into the
	// written trace, each with the wall time its recorder started.
	hubs []hubRef
	// profPath receives the CPU profile of the timed region.
	profPath string
}

type hubRef struct {
	layer string
	hub   *obs.Hub
	t0    time.Time
}

// profile starts the CPU profile of the timed region; call the returned
// func where the region ends.
func (l *spanLog) profile() (func(), error) {
	if l == nil {
		return func() {}, nil
	}
	return startProfile(l.profPath)
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// time runs fn inside a span.
func (l *spanLog) time(layer, name, cell string, fn func() error) error {
	if l == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	l.add(span{Layer: layer, Name: name, Cell: cell, Start: t0, End: time.Now()})
	return err
}

// wrap records one span per request handled by h. For POST /v1/sim it
// reads the body first to tag the span with the requested cell.
func (l *spanLog) wrap(layer string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		cell := ""
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sim" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req struct{ Workload, Mode string }
			if json.Unmarshal(body, &req) == nil {
				cell = req.Workload + "/" + req.Mode
			}
		}
		h.ServeHTTP(w, r)
		l.add(span{Layer: layer, Name: r.Method + " " + r.URL.Path, Cell: cell, Start: t0, End: time.Now()})
	})
}

// addHub registers a hub created at t0 whose runner cell spans belong to
// layer's row in the written trace.
func (l *spanLog) addHub(layer string, hub *obs.Hub, t0 time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.hubs = append(l.hubs, hubRef{layer, hub, t0})
	l.mu.Unlock()
}

// runnerSpans returns the runner cell spans the registered hubs hold for
// one layer, on the benchmark's clock.
func (l *spanLog) runnerSpans(layer string) []span {
	var out []span
	for _, h := range l.hubs {
		if h.layer != layer {
			continue
		}
		for _, ev := range h.hub.Trace.Events() {
			if ev.Ph != "X" || ev.Cat != "cell" {
				continue
			}
			start := h.t0.Add(time.Duration(ev.TS * float64(time.Microsecond)))
			end := start.Add(time.Duration(ev.Dur * float64(time.Microsecond)))
			out = append(out, span{Layer: layerRunner, Name: ev.Name, Cell: ev.Name, Start: start, End: end})
		}
	}
	return out
}

// of returns the recorded spans of one layer whose names start with
// prefix, in start order.
func (l *spanLog) of(layer, prefix string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.Layer == layer && strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// writePerfetto writes the spans, plus the hubs' runner cell spans, as
// Chrome trace-event JSON (loadable by ui.perfetto.dev). Each layer is
// one process; overlapping spans of a layer are spread over as many
// thread lanes as they need, because Perfetto nests spans on one lane.
func (l *spanLog) writePerfetto(path string) error {
	l.mu.Lock()
	all := append([]span(nil), l.spans...)
	l.mu.Unlock()
	layers := map[string]bool{}
	for _, s := range all {
		layers[s.Layer] = true
	}
	for layer := range layers {
		for _, s := range l.runnerSpans(layer) {
			s.Layer = layer + " runner"
			all = append(all, s)
		}
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start.Before(all[j].Start) })
	t0 := all[0].Start
	pids := map[string]int{}
	lanes := map[string][]time.Time{}
	var events []obs.TraceEvent
	for _, s := range all {
		pid, ok := pids[s.Layer]
		if !ok {
			pid = len(pids) + 1
			pids[s.Layer] = pid
			events = append(events, obs.TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": s.Layer}})
		}
		lane := -1
		for i, free := range lanes[s.Layer] {
			if !s.Start.Before(free) {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(lanes[s.Layer])
			lanes[s.Layer] = append(lanes[s.Layer], time.Time{})
		}
		lanes[s.Layer][lane] = s.End
		ev := obs.TraceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", PID: pid, TID: lane,
			TS:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
		}
		if s.Cell != "" {
			ev.Args = map[string]any{"cell": s.Cell}
		}
		events = append(events, ev)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// self is a span's duration minus the part of its interval that its
// children cover.
func self(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// covered returns how much of [start, end] the union of spans covers.
func covered(start, end time.Time, spans []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// matcher assigns each span of a lower layer to at most one caller. A
// caller's children are the unclaimed spans that start inside its
// interval and, when it names a cell, are about the same cell. Starts,
// not ends, decide: a server may record its handler's end after the
// client has already read the last byte.
type matcher struct {
	spans   []span
	claimed []bool
}

func newMatcher(spans []span) *matcher {
	return &matcher{spans: spans, claimed: make([]bool, len(spans))}
}

// children claims every matching span (all = true) or the first one.
func (m *matcher) children(outer span, all bool) []span {
	var out []span
	for i, s := range m.spans {
		if m.claimed[i] || s.Start.Before(outer.Start) || !s.Start.Before(outer.End) {
			continue
		}
		if outer.Cell != "" && s.Cell != outer.Cell {
			continue
		}
		m.claimed[i] = true
		out = append(out, s)
		if !all {
			break
		}
	}
	return out
}

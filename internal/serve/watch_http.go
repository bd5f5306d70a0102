package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve/apitypes"
	"repro/internal/serve/rooms"
)

// watchKeepAliveEvery is how many drain-poll ticks pass between SSE
// comment keep-alives on an idle watch stream (~15s at 250ms/tick):
// often enough to hold intermediaries open, rare enough to cost
// nothing.
const watchKeepAliveEvery = 60

// handleWatch: GET /v1/watch/{room}?from=N — the telemetry room SSE
// stream. Retained frames from sequence N replay immediately, then the
// stream follows the live broadcast. Every event's id: is its frame
// sequence, so both ?from=N and the standard Last-Event-ID reconnect
// resume gaplessly. The stream ends with a "summary" event when the
// room closes or the daemon drains (Draining=true → re-attach at
// next_seq); an eviction for falling behind ends the stream with no
// summary — re-attaching replays the missed frames from history.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	from, ok := s.fromParam(w, r)
	if !ok {
		return
	}
	if last := r.Header.Get("Last-Event-ID"); last != "" && r.URL.Query().Get("from") == "" {
		if n, err := strconv.Atoi(last); err == nil && n >= 0 {
			from = n + 1
		}
	}

	room, err := s.rooms.Get(r.PathValue("room"))
	if err != nil {
		s.fe.WriteError(w, http.StatusNotFound, apitypes.CodeNotFound, err)
		return
	}
	replay, sub, sum, err := room.Subscribe(from, 0)
	if err != nil {
		// Only ErrGone: the resume point fell out of history.
		s.fe.WriteError(w, http.StatusGone, apitypes.CodeGone, err)
		return
	}
	defer room.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // no proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var buf []byte // reused encode buffer: one allocation steady-state
	next := from
	writeFrame := func(f apitypes.WatchFrame) bool {
		blob, err := json.Marshal(f)
		if err != nil {
			return false
		}
		buf = apitypes.AppendSSEEvent(buf[:0], apitypes.SSEEvent{
			ID:    strconv.Itoa(f.Seq),
			Event: apitypes.WatchEventFrame,
			Data:  blob,
		})
		if _, err := w.Write(buf); err != nil {
			return false // client hung up
		}
		next = f.Seq + 1
		return true
	}
	writeSummary := func(sum apitypes.WatchSummary) {
		blob, err := json.Marshal(sum)
		if err != nil {
			return
		}
		buf = apitypes.AppendSSEEvent(buf[:0], apitypes.SSEEvent{
			Event: apitypes.WatchEventSummary,
			Data:  blob,
		})
		_, _ = w.Write(buf)
		if flusher != nil {
			flusher.Flush()
		}
	}

	for _, f := range replay {
		if !writeFrame(f) {
			return
		}
	}
	if len(replay) > 0 && flusher != nil {
		flusher.Flush()
	}
	if sum != nil {
		writeSummary(*sum)
		return
	}
	if flusher != nil {
		flusher.Flush() // commit the headers even with nothing to replay
	}

	ticks := 0
	for {
		select {
		case f, ok := <-sub.Ch():
			if !ok {
				if final := sub.Summary(); final != nil {
					writeSummary(*final)
				}
				// Evicted (no summary): end the stream; the client
				// re-attaches at ?from=next and heals from history.
				return
			}
			if !writeFrame(f) {
				return
			}
			// Flush once per burst, when the backlog is drained.
			if len(sub.Ch()) == 0 && flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-time.After(drainPollInterval):
			if s.fe.Draining() {
				writeSummary(apitypes.WatchSummary{Frames: next, NextSeq: next, Draining: true})
				return
			}
			ticks++
			if ticks%watchKeepAliveEvery == 0 {
				if _, err := w.Write([]byte(": keep-alive\n\n")); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	}
}

// roomForJob returns the job's telemetry room, creating it (and its
// closer goroutine) on first use. Get-or-create keyed on the job ID
// makes the submit-response/scheduler race benign and recreates rooms
// for watch jobs resumed after a restart.
func (s *Server) roomForJob(id string) *rooms.Room {
	s.jobRoomsMu.Lock()
	defer s.jobRoomsMu.Unlock()
	if room, ok := s.jobRooms[id]; ok {
		return room
	}
	room := s.rooms.Open()
	s.jobRooms[id] = room
	go s.closeRoomWhenJobDone(id, room)
	return room
}

// watchRoomForJob decorates a JobInfo with its room code, when a room
// exists and is still attachable (lookup only — a finished job must
// not sprout a room).
func (s *Server) watchRoomForJob(info *apitypes.JobInfo) {
	s.jobRoomsMu.Lock()
	room, ok := s.jobRooms[info.ID]
	s.jobRoomsMu.Unlock()
	if !ok {
		return
	}
	if _, err := s.rooms.Get(room.Code()); err != nil {
		// Expired and collected: drop the stale mapping.
		s.jobRoomsMu.Lock()
		if s.jobRooms[info.ID] == room {
			delete(s.jobRooms, info.ID)
		}
		s.jobRoomsMu.Unlock()
		return
	}
	info.WatchRoom = room.Code()
}

// closeRoomWhenJobDone follows the job store until the job reaches a
// terminal state, then seals its room so watchers get their summary.
// If the daemon shuts down first the room simply dies with the
// process — watch streams end via their own drain checks.
func (s *Server) closeRoomWhenJobDone(id string, room *rooms.Room) {
	for {
		change, ok := s.jobStore.Watch(id)
		info, found := s.jobStore.Get(id)
		if !ok || !found {
			room.Close(apitypes.WatchSummary{Done: false})
			return
		}
		if info.State.Terminal() {
			room.Close(apitypes.WatchSummary{Done: true})
			return
		}
		<-change
	}
}

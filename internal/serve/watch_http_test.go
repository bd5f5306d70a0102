package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/apitypes"
)

// readSSE decodes a whole SSE body: frames in order plus the final
// summary (nil if the stream ended without one).
func readSSE(t *testing.T, r io.Reader) ([]apitypes.WatchFrame, *apitypes.WatchSummary) {
	t.Helper()
	br := bufio.NewReader(r)
	var frames []apitypes.WatchFrame
	for {
		e, err := apitypes.ReadSSEEvent(br)
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			t.Fatalf("reading SSE: %v", err)
		}
		switch e.Event {
		case apitypes.WatchEventFrame:
			var f apitypes.WatchFrame
			if err := json.Unmarshal(e.Data, &f); err != nil {
				t.Fatalf("frame payload %q: %v", e.Data, err)
			}
			frames = append(frames, f)
		case apitypes.WatchEventSummary:
			var sum apitypes.WatchSummary
			if err := json.Unmarshal(e.Data, &sum); err != nil {
				t.Fatalf("summary payload %q: %v", e.Data, err)
			}
			return frames, &sum
		default:
			t.Fatalf("unexpected SSE event %q", e.Event)
		}
	}
}

func checkWatchGapless(t *testing.T, frames []apitypes.WatchFrame, from int) {
	t.Helper()
	for i, f := range frames {
		if f.Seq != from+i {
			t.Fatalf("frame %d: seq %d, want %d", i, f.Seq, from+i)
		}
	}
}

func TestSimWatchReplay(t *testing.T) {
	s := mustNew(t, Options{Workers: 2})
	h := s.Handler()
	rec := post(t, h, "/v1/sim",
		`{"workload":"stream-copy-16MB","mode":"imt","watch":true,"sample_interval":2000,"max_cycles":100000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("sim: %d %s", rec.Code, rec.Body.String())
	}
	res := decodeBody[apitypes.CellResult](t, rec)
	if res.WatchRoom == "" {
		t.Fatal("watch:true must return a room code")
	}
	if rec.Header().Get("X-Watch-Room") != res.WatchRoom {
		t.Errorf("header room %q != body room %q", rec.Header().Get("X-Watch-Room"), res.WatchRoom)
	}

	// The cell is finished; the room replays its whole series.
	wrec := get(t, h, "/v1/watch/"+res.WatchRoom)
	if wrec.Code != http.StatusOK {
		t.Fatalf("watch: %d %s", wrec.Code, wrec.Body.String())
	}
	if ct := wrec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	frames, sum := readSSE(t, wrec.Body)
	if len(frames) < 2 {
		t.Fatalf("want sample frames + cell-done, got %d frames", len(frames))
	}
	checkWatchGapless(t, frames, 0)
	for _, f := range frames[:len(frames)-1] {
		if f.Sample == nil || f.Event != "" || f.Cell != "stream-copy-16MB/imt" {
			t.Fatalf("bad sample frame: %+v", f)
		}
	}
	last := frames[len(frames)-1]
	if last.Event != apitypes.WatchEventCellDone || last.Error != "" {
		t.Fatalf("last frame must be a clean cell-done, got %+v", last)
	}
	if sum == nil || !sum.Done || sum.NextSeq != len(frames) || sum.Frames != len(frames) {
		t.Fatalf("summary = %+v (want done, next_seq = %d)", sum, len(frames))
	}

	// Resume from the middle: the tail, identical.
	mid := len(frames) / 2
	rrec := get(t, h, "/v1/watch/"+res.WatchRoom+"?from="+strconv.Itoa(mid))
	tail, tsum := readSSE(t, rrec.Body)
	if len(tail) != len(frames)-mid {
		t.Fatalf("resume at %d returned %d frames, want %d", mid, len(tail), len(frames)-mid)
	}
	for i, f := range tail {
		a, _ := json.Marshal(f)
		b, _ := json.Marshal(frames[mid+i])
		if string(a) != string(b) {
			t.Fatalf("resumed frame %d differs:\n %s\n %s", mid+i, a, b)
		}
	}
	if tsum == nil || tsum.NextSeq != sum.NextSeq {
		t.Fatalf("resume summary = %+v", tsum)
	}

	// Unknown room: 404 with the closed error code.
	nrec := get(t, h, "/v1/watch/zzzzzz")
	if nrec.Code != http.StatusNotFound {
		t.Fatalf("unknown room: %d", nrec.Code)
	}
	if e := decodeBody[apitypes.ErrorResponse](t, nrec); e.Error.Code != apitypes.CodeNotFound {
		t.Fatalf("code = %q", e.Error.Code)
	}

	// The statsz rooms section and build identity must be live.
	snap := decodeBody[apitypes.StatsSnapshot](t, get(t, h, "/v1/statsz"))
	if snap.Rooms == nil || snap.Rooms.Frames == 0 {
		t.Fatalf("rooms stats = %+v", snap.Rooms)
	}
	if snap.ConfigHash == "" || snap.GoVersion == "" {
		t.Errorf("missing build identity: %+v", snap)
	}
	if snap.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v", snap.UptimeSeconds)
	}
}

func TestSweepWatchLive(t *testing.T) {
	s := mustNew(t, Options{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"workloads":["stream-copy-16MB"],"modes":["none","imt"],"watch":true,"sample_interval":2000,"max_cycles":100000}`
	resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	roomCode := resp.Header.Get("X-Watch-Room")
	if roomCode == "" {
		t.Fatal("sweep watch:true must set X-Watch-Room before the stream")
	}

	// Attach a live watcher while the sweep is (possibly still) running.
	watch, err := http.Get(srv.URL + "/v1/watch/" + roomCode)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	frames, sum := readSSE(t, watch.Body)
	if sum == nil || !sum.Done {
		t.Fatalf("summary = %+v", sum)
	}
	checkWatchGapless(t, frames, 0)
	doneCells := map[string]bool{}
	for _, f := range frames {
		if f.Event == apitypes.WatchEventCellDone {
			doneCells[f.Cell] = true
		}
	}
	if !doneCells["stream-copy-16MB/none"] || !doneCells["stream-copy-16MB/imt"] {
		t.Fatalf("missing cell-done frames: %v", doneCells)
	}

	// The NDJSON sweep stream carries the room code too.
	var lastLine []byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lastLine = append(lastLine[:0], sc.Bytes()...)
		}
	}
	var summary apitypes.SweepSummary
	if err := json.Unmarshal(lastLine, &summary); err != nil {
		t.Fatalf("sweep summary %q: %v", lastLine, err)
	}
	if summary.WatchRoom != roomCode {
		t.Fatalf("sweep summary room %q != header %q", summary.WatchRoom, roomCode)
	}
}

func TestWatchDrainingSummary(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	room := s.rooms.Open()
	watch, err := http.Get(srv.URL + "/v1/watch/" + room.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()

	time.AfterFunc(50*time.Millisecond, func() { s.SetDraining(true) })
	frames, sum := readSSE(t, watch.Body)
	if len(frames) != 0 {
		t.Fatalf("unexpected frames: %v", frames)
	}
	if sum == nil || !sum.Draining || sum.Done {
		t.Fatalf("summary = %+v, want draining", sum)
	}
	s.SetDraining(false)
	room.Close(apitypes.WatchSummary{Done: true})
}

func TestWatchGoneAfterHistoryEviction(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, RoomHistory: 8})
	h := s.Handler()
	room := s.rooms.Open()
	for i := 0; i < 64; i++ {
		room.Publish(apitypes.WatchFrame{Cell: "c", CellSeq: i})
	}
	room.Close(apitypes.WatchSummary{Done: true})

	rec := get(t, h, "/v1/watch/"+room.Code()+"?from=1")
	if rec.Code != http.StatusGone {
		t.Fatalf("evicted resume point: %d %s", rec.Code, rec.Body.String())
	}
	if e := decodeBody[apitypes.ErrorResponse](t, rec); e.Error.Code != apitypes.CodeGone {
		t.Fatalf("code = %q", e.Error.Code)
	}
	// from=0 still works and yields the retained tail.
	rec = get(t, h, "/v1/watch/"+room.Code())
	frames, sum := readSSE(t, rec.Body)
	if len(frames) != 8 || frames[0].Seq != 56 {
		t.Fatalf("retained tail: %d frames starting at %d", len(frames), frames[0].Seq)
	}
	if sum == nil || sum.NextSeq != 64 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestJobWatch(t *testing.T) {
	s := mustNew(t, Options{Workers: 2, JobsDir: t.TempDir()})
	defer s.KillJobs()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"workloads":["stream-copy-16MB"],"modes":["imt"],"watch":true,"sample_interval":2000,"max_cycles":100000}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	info := func() apitypes.JobInfo {
		defer resp.Body.Close()
		var v apitypes.JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}()
	if resp.StatusCode != http.StatusAccepted || info.WatchRoom == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, info)
	}

	watch, err := http.Get(srv.URL + "/v1/watch/" + info.WatchRoom)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	frames, sum := readSSE(t, watch.Body)
	if sum == nil || !sum.Done {
		t.Fatalf("summary = %+v", sum)
	}
	checkWatchGapless(t, frames, 0)
	samples, dones := 0, 0
	for _, f := range frames {
		switch {
		case f.Sample != nil:
			samples++
		case f.Event == apitypes.WatchEventCellDone:
			dones++
		}
	}
	if samples == 0 || dones != 1 {
		t.Fatalf("%d sample frames, %d cell-done frames: %+v", samples, dones, frames)
	}

	// Polling the finished job still reports the room while it is
	// within its retention window.
	jrec, err := http.Get(srv.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var done apitypes.JobInfo
	if err := json.NewDecoder(jrec.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	jrec.Body.Close()
	if done.WatchRoom != info.WatchRoom {
		t.Fatalf("job poll room %q, want %q", done.WatchRoom, info.WatchRoom)
	}
}

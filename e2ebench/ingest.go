package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/gpusim"
	"repro/internal/runner"
	"repro/internal/serve/apitypes"
)

// ingestIter is what the client saw of one upload → job → delete
// iteration.
type ingestIter struct {
	digest     string
	bytes      int
	created    bool
	upload     time.Duration
	firstFrame time.Duration
	job        time.Duration
	wall       time.Duration
	frames     []apitypes.JobFrame
	// errs holds one entry per request made, nil when it succeeded.
	errs []error
}

// ingestOnce uploads blob, runs a job over it in every grid mode,
// follows the job's stream to done and deletes the trace.
func ingestOnce(f *fleet, spans *spanLog, blob []byte) ingestIter {
	ctx := context.Background()
	it := ingestIter{bytes: len(blob)}
	t0 := time.Now()
	var up apitypes.TraceUploadResponse
	err := spans.time(layerClient, "upload", "", func() error {
		var err error
		up, err = f.client.UploadTrace(ctx, bytes.NewReader(blob))
		return err
	})
	it.upload = time.Since(t0)
	it.errs = append(it.errs, err)
	if err != nil {
		return it
	}
	it.digest, it.created = up.Digest, up.Created
	tj := time.Now()
	var info apitypes.JobInfo
	err = spans.time(layerClient, "submit", "", func() error {
		var err error
		info, err = f.client.SubmitJob(ctx, apitypes.JobRequest{SweepRequest: apitypes.SweepRequest{
			Workloads: []string{"trace:" + up.Digest}, Modes: gridModes,
		}})
		return err
	})
	it.errs = append(it.errs, err)
	if err == nil {
		err = spans.time(layerClient, "follow", "", func() error {
			_, err := f.client.FollowJob(ctx, info.ID, 0, func(fr apitypes.JobFrame) error {
				if len(it.frames) == 0 {
					it.firstFrame = time.Since(tj)
				}
				it.frames = append(it.frames, fr)
				return nil
			})
			return err
		})
		it.job = time.Since(tj)
		it.errs = append(it.errs, err)
	}
	err = spans.time(layerClient, "delete", "", func() error {
		_, err := f.client.DeleteTrace(ctx, up.Digest)
		return err
	})
	it.errs = append(it.errs, err)
	it.wall = time.Since(t0)
	return it
}

// runIngest drives the write path on one shard with a trace store and a
// durable job queue (jobs are shard-scoped; the gateway does not route
// them). Set-up starts the shard and runs one warm-up iteration, so
// first-request costs are set-up costs. Each timed iteration uploads a
// freshly generated trace, submits a job over it in every grid mode,
// follows the job's stream to done and deletes the trace.
func runIngest(b *bench, spans *spanLog) (*pass, error) {
	p := newPass()
	var warm bytes.Buffer
	if err := writeTrace(&warm, b.seed, -1); err != nil {
		return nil, err
	}
	f, setup, err := setupN(
		func(i int) string { return filepath.Join(b.work, fmt.Sprintf("%s-setup%d", passTag(spans), i)) },
		func(dir string) (*fleet, error) {
			f, err := startFleet(dir, fleetOpts{shards: 1, ingest: true}, spans)
			if err != nil {
				return nil, err
			}
			for _, err := range ingestOnce(f, nil, warm.Bytes()).errs {
				if err != nil {
					f.close()
					return nil, fmt.Errorf("ingest warm-up: %w", err)
				}
			}
			return f, nil
		},
		(*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	p.e2e["setup_s"] = setup

	iters := b.rounds(200*time.Millisecond, 5)
	before := readHubs(f.hubs()...)
	walBefore := f.shards[0].srv.Stats().Jobs.WALBytes
	stop, err := spans.profile()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var runs []ingestIter
	for i := 0; i < iters; i++ {
		var blob bytes.Buffer
		if err := writeTrace(&blob, b.seed, i); err != nil {
			stop()
			return nil, err
		}
		it := ingestOnce(f, spans, blob.Bytes())
		for _, err := range it.errs {
			b.op(err)
		}
		p.wall += it.wall
		runs = append(runs, it)
	}
	stop()
	after := readHubs(f.hubs()...)
	walAfter := f.shards[0].srv.Stats().Jobs.WALBytes

	// Output checks: every upload is a new content address, and every
	// job cell equals an in-process replay of the same blob.
	v := &verifier{b: b}
	var walls, uploads, mbps, jobRates, firstFrames samples
	var written, jobCells int
	var decodeBytes int
	var decodeTime time.Duration
	for i, it := range runs {
		if it.digest == "" {
			continue // the upload failed and was counted
		}
		var blob bytes.Buffer
		if err := writeTrace(&blob, b.seed, i); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(blob.Bytes())
		if want := hex.EncodeToString(sum[:]); it.digest != want || !it.created {
			b.fail(fmt.Sprintf("upload %d: digest %s created=%v, want a new blob %s", i, it.digest, it.created, want))
		}
		written += it.bytes
		want, dec, err := replay(blob.Bytes(), it.digest, spans)
		if err != nil {
			return nil, err
		}
		decodeBytes += blob.Len()
		decodeTime += dec
		v.want = want
		for _, fr := range it.frames {
			v.cell(fr.Cell)
		}
		if len(it.frames) != len(gridModes) {
			b.fail(fmt.Sprintf("job %d delivered %d frames, want %d", i, len(it.frames), len(gridModes)))
		}
		jobCells += len(it.frames)
		walls = append(walls, it.wall.Seconds())
		uploads = append(uploads, ms(it.upload))
		mbps = append(mbps, float64(it.bytes)/(1<<20)/it.upload.Seconds())
		jobRates = append(jobRates, float64(len(it.frames))/it.job.Seconds())
		firstFrames = append(firstFrames, ms(it.firstFrame))
	}
	runs = nil
	v.tot.record(p)
	recordHubs(p, before, after)
	p.exact["tracestore.bytes_written"] = fmt.Sprint(written)
	p.layer["tracestore.bytes_written"] = float64(written)
	p.layer["jobs.wal_bytes_per_cell"] = ratio(float64(walAfter-walBefore), float64(jobCells))
	p.layer["jobs.first_frame_ms"] = firstFrames.median()
	p.layer["gpusim.trace_decode_mb_per_s"] = float64(decodeBytes) / (1 << 20) / decodeTime.Seconds()
	if spans != nil {
		sh := f.shards[0].name
		p.layer["tracestore.put_ms_p50"] = zeroIfEmpty(durations(spans.of(sh, "POST /v1/traces"), start), 50)
		p.layer["jobs.submit_ms_p50"] = zeroIfEmpty(durations(spans.of(sh, "POST /v1/jobs"), start), 50)
	}
	p.e2e["wall_s"] = walls.median()
	p.e2e["cells_per_s"] = jobRates.median()
	p.e2e["latency_ms_p50"] = uploads.median()
	p.layer["client.latency_ms_p99"] = uploads.percentile(99)
	p.e2e["heap_live_mb"] = heapLiveMB()
	p.reportf("ingest: %d iterations of a %d-byte trace × %d modes: upload_mb_per_s %.4g MB/s, job_cells_per_s %.4g cells/s (medians)",
		len(walls), written/max(1, len(walls)), len(gridModes), mbps.median(), jobRates.median())
	p.reportf("ingest: upload latency %s; WAL grew %d bytes over %d job cells", uploads.describe("ms"), walAfter-walBefore, jobCells)
	return p, nil
}

// replay runs a blob in-process in every grid mode, exactly as a shard
// replays a stored trace, and returns the simulated statistics per cell
// plus the time spent indexing and decoding the blob (IndexTraceStream,
// then OpenTraceAt drained op by op).
func replay(blob []byte, digest string, spans *spanLog) (map[apitypes.CellRef]gpusim.Stats, time.Duration, error) {
	t0 := time.Now()
	var idx gpusim.TraceIndex
	err := spans.time(layerGPUSim, "IndexTraceStream+OpenTraceAt", "", func() error {
		var err error
		idx, err = gpusim.IndexTraceStream(bytes.NewReader(blob))
		if err != nil {
			return err
		}
		for _, t := range gpusim.OpenTraceAt(bytes.NewReader(blob), idx) {
			for {
				if _, ok := t.Next(); !ok {
					break
				}
			}
		}
		return nil
	})
	dec := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	src := func(numSMs int) []gpusim.Trace {
		out := make([]gpusim.Trace, numSMs)
		copy(out, gpusim.OpenTraceAt(bytes.NewReader(blob), idx))
		return out
	}
	name := "trace:" + digest
	jobs := make([]runner.Job, len(gridModes))
	refs := make([]apitypes.CellRef, len(gridModes))
	for i, m := range gridModes {
		mode, carve, err := gpusim.ParseTagMode(m)
		if err != nil {
			return nil, 0, err
		}
		jobs[i] = runner.Job{Key: name, Mode: mode, Carve: carve, Traces: src}
		refs[i] = apitypes.CellRef{Workload: name, Mode: m}
	}
	want, err := runOracle(jobs, refs)
	return want, dec, err
}

func durations(spans []span, since time.Time) samples {
	var out samples
	for _, s := range spans {
		if !s.Start.Before(since) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

# Convenience targets for the IMT/AFT-ECC reproduction.

GO ?= go

.PHONY: all build test race bench bench-json bench-gate repro repro-quick sweep-quick sweep-trace examples fuzz fuzz-short conformance serve-smoke jobs-smoke rooms-smoke cluster-smoke traces-smoke e2ebench-test check-docs check clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/obs ./internal/runner ./internal/gpusim ./internal/serve ./internal/serve/cellplan ./internal/serve/client ./internal/serve/cluster ./internal/serve/jobs ./internal/serve/rooms ./internal/tracestore ./internal/ecc/bitslice ./internal/reliability

race:
	$(GO) test -race ./internal/imt ./internal/tagalloc ./internal/gpusim ./internal/runner ./internal/obs ./internal/serve ./internal/serve/cellplan ./internal/serve/client ./internal/serve/cluster ./internal/serve/jobs ./internal/serve/rooms ./internal/tracestore ./internal/ecc/bitslice ./internal/reliability ./internal/security

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable benchmark results (BENCH_results.json), including the
# per-experiment headline numbers surfaced via b.ReportMetric.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_results.json

# Perf-regression gate over the gpusim hot path and the bitsliced
# fault-injection engine: reruns the steady-state simulator benchmarks
# plus the injections-per-second pairs (bitsliced vs scalar; 6
# repetitions; the gate compares min ns/op on both sides, so transient
# scheduler noise must survive every repetition to trip it) and fails
# if any benchmark regressed beyond tolerance against the committed
# BENCH_results.json baseline. On a pass it refreshes the baseline in
# place, keeping the embedded before/after trajectory.
# Tolerance is 15% rather than benchjson's 10% default: shared runners
# drift ±10% window-to-window even on min-of-6, while the regressions
# this gate exists to catch (reintroducing per-access maps or per-op
# allocations on the hot path, or de-bitslicing an injection loop)
# cost 2x+ and blow far past either bound.
bench-gate:
	$(GO) run ./cmd/benchjson -out BENCH_results.json -gate BENCH_results.json \
		-gate-tolerance 0.15 \
		-bench 'BenchmarkSimSteady|BenchmarkInject|BenchmarkTraceDecodeStream' -benchtime 5x -count 6 \
		-pkg './internal/gpusim ./internal/reliability'

# Regenerate every paper table/figure into results/ (paper scale, ~3 min).
repro:
	$(GO) run ./cmd/imtrepro -out results

repro-quick:
	$(GO) run ./cmd/imtrepro -quick -out results-quick

# Cached quick sweep on the parallel experiment engine: the first run
# simulates, later runs resolve every cell from .sweep-cache.
sweep-quick:
	$(GO) run ./cmd/imtsim -suite STREAM -mode carve-low -cache-dir .sweep-cache

# The same sweep with the observability layer on: engine metrics
# (Prometheus text), a Perfetto-loadable trace of every cell, and phase
# telemetry sampled inside the simulator every 50k cycles.
sweep-trace:
	mkdir -p results
	$(GO) run ./cmd/imtsim -suite STREAM -mode carve-low -sample-interval 50000 \
		-metrics-out results/sweep.prom -trace-out results/sweep.trace.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/overflowdetect
	$(GO) run ./examples/useafterfree
	$(GO) run ./examples/reliabilitystudy
	$(GO) run ./examples/aftecc-extensions
	$(GO) run ./examples/perfstudy

# Short continuous-fuzzing smoke of the two fuzz targets.
fuzz:
	$(GO) test -fuzz=FuzzDecodeInvariants -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzAllocatorScript -fuzztime=30s ./internal/tagalloc

# ~10s per target: quick coverage-guided pass over every fuzz target,
# sized for the pre-merge gate.
fuzz-short:
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeInvariants$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz='^FuzzAllocatorScript$$' -fuzztime=10s ./internal/tagalloc
	$(GO) test -run '^$$' -fuzz='^FuzzECCDecode$$' -fuzztime=10s ./internal/ecc
	$(GO) test -run '^$$' -fuzz='^FuzzParseTraceFile$$' -fuzztime=10s ./internal/gpusim
	$(GO) test -run '^$$' -fuzz='^FuzzTraceChunkDecode$$' -fuzztime=10s ./internal/gpusim
	$(GO) test -run '^$$' -fuzz='^FuzzServeRequestDecode$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz='^FuzzJobWALReplay$$' -fuzztime=10s ./internal/serve/jobs
	$(GO) test -run '^$$' -fuzz='^FuzzWatchFrameDecode$$' -fuzztime=10s ./internal/serve/apitypes
	$(GO) test -run '^$$' -fuzz='^FuzzCellResultDecode$$' -fuzztime=10s ./internal/serve/apitypes
	$(GO) test -run '^$$' -fuzz='^FuzzBitslicedDecode$$' -fuzztime=10s ./internal/ecc/bitslice

# The conformance gate: golden-result regression, differential ECC
# oracles and metamorphic simulator invariants (see DESIGN.md
# "Conformance & testing"). Exits nonzero on any drift.
conformance:
	$(GO) run ./cmd/conformance

# End-to-end gate for the serving layer: imtd on an ephemeral port under
# imtload's thundering herd, streaming sweep and induced overload, then
# a SIGTERM drain. Asserts coalesce hits, cache hits, 429+Retry-After
# backpressure and a clean exit (see scripts/serve-smoke.sh).
serve-smoke:
	sh scripts/serve-smoke.sh

# End-to-end gate for the durable job queue: submit a sweep job, kill -9
# the daemon mid-flight, restart it over the same -jobs-dir, follow the
# job to completion requiring >=1 WAL-recovered cell, and byte-compare
# the merged result set against an uninterrupted baseline (see
# scripts/jobs-smoke.sh).
jobs-smoke:
	sh scripts/jobs-smoke.sh

# End-to-end gate for live telemetry rooms: one watched sweep fanned
# out to 8 concurrent /v1/watch subscribers, one killed and re-attached
# mid-stream and one deliberately stalled until evicted. Asserts
# identical gapless frame sequences across watchers, >=1 slow-consumer
# drop, and room metrics in the flushed registry (see
# scripts/rooms-smoke.sh).
rooms-smoke:
	sh scripts/rooms-smoke.sh

# End-to-end gate for the multi-node layer: three imtd shards behind one
# imtgw gateway, a shard SIGKILLed mid-sweep, every cell still delivered
# exactly once with >=1 reroute, the merged results byte-identical to a
# single-node baseline, and a clean gateway drain with serve_gw_*
# metrics flushed (see scripts/cluster-smoke.sh).
cluster-smoke:
	sh scripts/cluster-smoke.sh

# End-to-end gate for the trace-ingest subsystem: two trace-store
# shards behind a gateway, a recorded trace uploaded through it twice
# (second must content-address hit), a trace:<digest> sweep whose
# streamed results byte-compare against an in-process replay, a ~1GB
# synthetic upload that must leave every process's peak RSS bounded
# (streaming decode, no materialization), and a drain with tracestore_*
# metrics flushed (see scripts/traces-smoke.sh; TRACES_SMOKE_BIG_OPS
# shrinks the big upload for quick local runs).
traces-smoke:
	sh scripts/traces-smoke.sh

# Self-tests of the end-to-end benchmark. e2ebench is a module of its
# own, outside the root ./..., so they run under run.sh's environment.
e2ebench-test:
	cd e2ebench && GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) test ./...

# Documentation drift gate: fails if docs reference flags no binary
# prints, point at paths outside the repo, or miss required sections
# (see scripts/check_docs.sh).
check-docs:
	sh scripts/check_docs.sh

# Pre-merge gate: everything that must be green before a change lands.
# bench-gate runs last: correctness gates first, perf regression after.
check: build test fuzz-short conformance serve-smoke jobs-smoke rooms-smoke cluster-smoke traces-smoke e2ebench-test check-docs bench-gate

clean:
	rm -rf results results-quick .sweep-cache

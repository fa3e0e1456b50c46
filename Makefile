GO ?= go

# The determinism harness (internal/core/contracts_test.go): one test per
# axis, every cell of the method matrix against one reference.
CONTRACTS = TestEngineDeterministic|TestPushFramesMatchesPushFrame|TestPlaneChurnEquivalence|TestParallelMatchesSerial|TestCrashPointSweep|TestPreFilter|TestDeterminismContracts

.PHONY: all build test race bench bench-quick vet vuln fmt experiments fuzz snapshot-fuzz robustness-smoke queryscale-smoke overload-smoke fleet-smoke perf-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository's benchmark (bench/README.md, BENCHMARK.json): four
# workloads, bytes in → matches out, then the traced per-layer replay.
bench:
	sh bench/run.sh

# The same program as a correctness smoke: 2 s phases on a third of the
# stream. Exits non-zero when an operation fails or a match list differs
# from its reference; asserts no timing.
bench-quick:
	$(GO) run ./bench -quick

vet:
	$(GO) vet ./...

# Known-vulnerability scan (network: resolves govulncheck and its DB).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

fmt:
	gofmt -w .

# Regenerate every table and figure of the paper.
experiments:
	$(GO) run ./cmd/vcdbench all

fuzz:
	$(GO) test ./internal/bitio -fuzz FuzzReader -fuzztime 30s
	$(GO) test ./internal/bitio -fuzz FuzzSkipVsReference -fuzztime 30s
	$(GO) test ./internal/bitio -fuzz FuzzDCBlocksVsReference -fuzztime 30s
	$(GO) test ./internal/bitio -fuzz FuzzDCBlocksGroup -fuzztime 30s
	$(GO) test ./internal/mpeg -fuzz FuzzPartialDecoder -fuzztime 30s
	$(GO) test ./internal/mpeg -fuzz FuzzFullDecoder -fuzztime 30s
	$(GO) test ./cmd/vcdeval -fuzz FuzzParseTruth -fuzztime 30s
	$(GO) test ./cmd/vcdeval -fuzz FuzzReadReports -fuzztime 30s
	$(GO) test ./internal/qindex -fuzz FuzzProbeVsScan -fuzztime 30s
	$(GO) test ./internal/bitsig -fuzz FuzzLessMask -fuzztime 30s
	$(GO) test ./internal/minhash -fuzz FuzzSketchRows -fuzztime 30s
	$(GO) test ./internal/snapshot -fuzz FuzzReplayWAL -fuzztime 30s -fuzzminimizetime 200x
	$(GO) test ./internal/core -fuzz FuzzRestoreCheckpoint -fuzztime 30s -fuzzminimizetime 200x
	$(GO) test ./internal/core -fuzz FuzzLoadQuerySet -fuzztime 30s -fuzzminimizetime 200x

# Reduced-scale temporal-attack robustness suite under the race detector:
# attack-transform invariants, per-family evaluation, and the end-to-end
# detection recall floors. Writes per-family P/R reports (JSON + CSV) into
# robustness-report/.
robustness-smoke:
	ROBUSTNESS_REPORT_DIR=$(CURDIR)/robustness-report $(GO) test -race -count=1 \
		-run 'TestRobustnessSmoke|TestTemporal|TestBuildAttack|TestEvaluateByFamily|TestReportGolden' \
		./internal/edit ./internal/workload ./internal/experiments ./cmd/vcdeval

# Reduced-scale query-index gate under the race detector: 10³ queries
# streamed through the index and through the scan — match output must be
# identical, the index's work per window bounded by the related queries —
# plus the exactness harnesses' seeds (FuzzProbeVsScan, FuzzPlaneProbe),
# the signature kernel's oracle (its AVX2 routine and Go twin against the
# 64-bit Compare, key ties included, and FuzzLessMask's seeds), the split
# sketch's round trip, the postings-model, churn and equivalence suites,
# and a bulk subscription — clips decoded and queries derived on every
# core — at GOMAXPROCS 1, 2 and 4, failing clips and clip readers included.
# Writes the measured level as a JSON artifact into queryscale-report/.
queryscale-smoke:
	QUERYSCALE_REPORT_DIR=$(CURDIR)/queryscale-report $(GO) test -race -count=1 \
		-run 'TestQueryScaleSmoke|$(CONTRACTS)|FuzzPlaneProbe|TestPlaneWideWindow|FuzzProbeVsScan|TestInvert|TestSketchWinners|TestCellRowsModel|TestPrefixCollisions|TestProbeShardMasked|TestProbeChurn|TestAddRemoveErrors|TestAddBatch|TestBytesMatchesHeap|TestLessMask|TestLessInto|TestCompareInto|FuzzLessMask|TestSplitSketchRoundTrip|TestWithAnyCoreCount|TestAddBatchAnyCoreCount|TestExportStateAllocs|TestAddQueriesAnyCoreCount|TestAddQueriesFailingClip|TestAddQueriesOneGoroutinePerClip' \
		. ./internal/bitsig ./internal/minhash ./internal/qindex ./internal/core ./internal/experiments

# Overload gate under the race detector: the degrade-layer unit suites plus
# the calibrate → observe → shed sweep at 2× sustainable ingest. The shed
# pass must reach decode shedding and bring the steady p99 back inside the
# budget with recall ≥ 0.5; the sweep report lands in overload-report/.
overload-smoke:
	$(GO) test -race -count=1 ./internal/degrade
	OVERLOAD_REPORT_DIR=$(CURDIR)/overload-report $(GO) test -race -count=1 \
		-run 'TestOverloadSmoke|TestOverload|TestReadyz|TestMonitorContext' \
		./internal/experiments ./internal/server .

# Fleet gate under the race detector: the stream-pool unit suites, the
# query-plane copy-on-write suites, the HTTP fleet endpoints, and the
# 64-stream pooled-vs-isolated checks, with the determinism harness's
# pooled axis (pooling must be output-neutral, per-stream memory O(1) in
# queries). The measured level lands in fleet-report/.
fleet-smoke:
	$(GO) test -race -count=1 ./internal/fleet
	FLEET_REPORT_DIR=$(CURDIR)/fleet-report $(GO) test -race -count=1 \
		-run 'TestFleetScaleSmoke|TestParallelMatchesSerial|TestPlane|TestCloneProbeEquivalence|TestFleet|TestQuerySet' \
		./internal/core ./internal/qindex ./internal/experiments ./internal/server .

# Performance-attribution gate: a 64-stream fleet run at 1% span sampling
# under the race detector — /metrics must parse and lint clean with the
# in-repo exposition parser, /debug/spans and /debug/fleet/top must serve
# schema-stable JSON (the sampled spans land in perf-report/ as the CI
# artifact) — plus the zero-sampling contract: span capture at 0% must add
# no allocations and stay within 2% of the telemetry-off window baseline.
perf-smoke:
	mkdir -p perf-report
	PERF_SMOKE=1 PERF_SMOKE_OUT=$(CURDIR)/perf-report/spans.ndjson \
		$(GO) test -race -count=1 -run 'TestPerfSmoke' ./internal/server
	$(GO) test -race -count=1 ./internal/perfobs
	PERF_SMOKE=1 $(GO) test -count=1 \
		-run 'TestZeroSamplingSpanCaptureAddsNoAllocs|TestZeroSamplingOverheadGate' ./internal/core

# Crash-recovery sweep under the race detector, run twice (-count=2: the
# tests share a process-global metrics registry): snapshot/restore at every
# window boundary of every cell of the method matrix (the determinism
# harness's restored axes, TestCrashPointSweep and
# TestPreFilterSnapshotRoundTrip), every crash image of the
# preallocated log while a subscription change is written (the synced
# prefix plus any subset of the write's 512-byte sectors), a crash at every
# step of a checkpoint, and the version 1 lineage fixture must reproduce
# the uninterrupted run byte for byte; the WAL reader's crash images and
# fuzz seeds (version 1 and 2 logs cut at every byte, version 3 logs
# zeroed from any offset or in any sector of the last record) run as tests.
snapshot-fuzz:
	$(GO) test -race -count=2 -run 'TestCrashPointSweep|TestPreFilterSnapshotRoundTrip|TestExportStateCanonical|TestRestoreRejects' ./internal/core
	$(GO) test -race -count=2 -run 'TestResume|TestQueryChurn|TestCheckpoint|TestWAL|TestHeaderGolden|FuzzReplayWAL' ./...
	$(GO) test -race -count=2 -run 'TestSnapshot|TestMetricsEndToEnd' ./internal/server

clean:
	$(GO) clean ./...

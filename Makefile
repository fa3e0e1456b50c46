GO ?= go

.PHONY: all build test race bench bench-quick bench-json vet vuln fmt experiments fuzz snapshot-fuzz robustness-smoke queryscale-smoke overload-smoke fleet-smoke perf-smoke clean

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

# Machine-readable window-kernel benchmark results (same workload as the
# BenchmarkWindow* suite, via internal/benchkit; includes the span-sampling
# ladder with its per-stage breakdown).
bench-json:
	$(GO) run ./cmd/vcdbench -bench-json BENCH_PR10.json

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
	$(GO) test ./internal/mpeg -fuzz FuzzPartialDecoder -fuzztime 30s
	$(GO) test ./internal/mpeg -fuzz FuzzFullDecoder -fuzztime 30s
	$(GO) test ./cmd/vcdeval -fuzz FuzzParseTruth -fuzztime 30s
	$(GO) test ./cmd/vcdeval -fuzz FuzzReadReports -fuzztime 30s
	$(GO) test ./internal/qindex -fuzz FuzzProbeVsScan -fuzztime 30s
	$(GO) test ./internal/snapshot -fuzz FuzzReplayWAL -fuzztime 30s

# Reduced-scale temporal-attack robustness suite under the race detector:
# attack-transform invariants, per-family evaluation, and the end-to-end
# detection recall floors. Writes per-family P/R reports (JSON + CSV) into
# robustness-report/.
robustness-smoke:
	ROBUSTNESS_REPORT_DIR=$(CURDIR)/robustness-report $(GO) test -race -count=1 \
		-run 'TestRobustnessSmoke|TestTemporal|TestBuildAttack|TestEvaluateByFamily|TestReportGolden' \
		./internal/edit ./internal/workload ./internal/experiments ./cmd/vcdeval

# Reduced-scale pre-filter gate under the race detector: 10³ queries
# streamed with the Bloom tier off and on — match output must be identical,
# ≥90% of per-row probes rejected, bounded false positives — plus the
# filter/churn/equivalence suites. Writes the measured level as a JSON
# artifact into queryscale-report/.
queryscale-smoke:
	$(GO) test -race -count=1 ./internal/prefilter
	QUERYSCALE_REPORT_DIR=$(CURDIR)/queryscale-report $(GO) test -race -count=1 \
		-run 'TestQueryScaleSmoke|TestPreFilter|TestProbeShardMasked|TestProbeChurn|TestAddRemoveErrors|TestAddBatch|TestRowMask' \
		./internal/qindex ./internal/core ./internal/experiments

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
# 64-stream pooled-vs-isolated equivalence checks (pooling must be
# output-neutral, per-stream memory O(1) in queries). The measured level
# lands in fleet-report/.
fleet-smoke:
	$(GO) test -race -count=1 ./internal/fleet
	FLEET_REPORT_DIR=$(CURDIR)/fleet-report $(GO) test -race -count=1 \
		-run 'TestFleetScaleSmoke|TestPlane|TestCloneProbeEquivalence|TestFleet' \
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
		-run 'TestZeroSamplingSpanCaptureAddsNoAllocs|TestZeroSamplingOverheadGate' ./internal/benchkit

# Crash-recovery sweep under the race detector, run twice (-count=2: the
# tests share a process-global metrics registry): snapshot/restore at every
# window boundary and worker-count combination, a crash after every byte
# of a logged subscription change and at every step of a checkpoint, and
# the version 1 lineage fixture must reproduce the uninterrupted run byte
# for byte; the WAL reader's fuzz seeds run as tests.
snapshot-fuzz:
	$(GO) test -race -count=2 -run 'TestCrashPointSweep|TestExportStateCanonical|TestRestoreRejects' ./internal/core
	$(GO) test -race -count=2 -run 'TestResume|TestQueryChurn|TestCheckpoint|TestWAL|TestHeaderGolden|FuzzReplayWAL' ./...
	$(GO) test -race -count=2 -run 'TestSnapshot|TestMetricsEndToEnd' ./internal/server

clean:
	$(GO) clean ./...

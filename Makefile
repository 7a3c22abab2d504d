GO ?= go

.PHONY: build test tier1 vet race fuzz chaos elastic-chaos obs jobs bench perfbench cluster gate stat durable kernels lint-metrics ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1 is the contract every change must keep green.
tier1: build test

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suite alone, repeated to shake out
# scheduling-dependent behaviour.
chaos:
	$(GO) test ./internal/rt/ -run 'TestChaos' -count=3 -v

# elastic-chaos runs the live-membership suite (scripted joins, drains,
# evictions, drain-racing-death) under the race detector, repeated to
# shake out scheduling-dependent behaviour.
elastic-chaos:
	$(GO) test ./internal/rt/ ./internal/elastic/ -run 'TestElastic|TestRetuner|TestController' -race -count=3 -v

# obs runs the telemetry suite under the race detector: the registry
# hammer, the exposition golden file, span propagation, the HTTP
# endpoints, the rt status feed, and the TCP e2e scrape test.
obs:
	$(GO) test ./internal/obs/ -race -count=1 -v
	$(GO) test ./internal/rt/ -race -run 'TestStatus|TestSessionTelemetry|TestTelemetryOff' -v
	$(GO) test ./cmd/felaserver/ -race -run TestServerObservabilityE2E -v

# jobs runs the multi-tenant suite under the race detector: the manager
# unit/integration tests (including the migration chaos tests), the
# felaserver -jobs TCP e2e path, and the multijob example.
jobs:
	$(GO) test ./internal/jobs/ -race -count=1 -v
	$(GO) test ./cmd/felaserver/ -race -run TestServerJobsMode -v
	$(GO) test ./examples/multijob/ -race -count=1

# fuzz runs each wire-codec fuzz target for a short budget on top of the
# committed corpus (which plain `go test` already replays).
fuzz:
	$(GO) test ./internal/transport/ -run xxx -fuzz FuzzBinaryDecode -fuzztime 10s
	$(GO) test ./internal/transport/ -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s

# bench smoke-runs the hot-path benchmarks (wire codecs, matmul
# kernels) at -benchtime 100x: enough to catch a broken benchmark or a
# pathological regression without turning CI into a perf lab.
bench:
	$(GO) test ./internal/transport/ -run xxx -bench 'BenchmarkCodec' -benchtime 100x
	$(GO) test ./internal/tensor/ -run xxx -bench 'BenchmarkMatMul' -benchtime 100x

# perfbench vets and tests the benchmark harness. It is its own module,
# so `go test ./...` never compiles it; this catches a root API change
# that would break the benchmark.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# cluster smoke-runs the cluster-mode experiment (100-job Poisson trace
# against a TokenDelay pool, one pass per scheduling configuration) and
# writes BENCH_cluster.json. The full 1000-job run is `go run
# ./cmd/felabench -experiment cluster` without -quick.
cluster:
	$(GO) run ./cmd/felabench -quick -experiment cluster

# gate runs the serving-gateway suite under the race detector (unit
# tests, the 64-tenant hammer, the felagate binary's serve/drain e2e
# tests) and then smoke-runs the million-request edge benchmark,
# writing BENCH_gate.json.
gate:
	$(GO) test ./internal/gate/ -race -count=1 -v
	$(GO) test ./cmd/felagate/ -race -count=1 -v
	$(GO) run ./cmd/felabench -quick -experiment gate

# stat runs the cluster observability aggregator suite under the race
# detector: felastat -json against a live two-shard gateway (tenant
# burn rates, shard admission ledgers, the worker straggler heatmap).
stat:
	$(GO) test ./cmd/felastat/ -race -count=1 -v

# durable runs the durability-plane suite under the race detector: the
# record/ledger/store unit tests with their golden frames and fuzz
# corpora, the rt kill-at-every-protocol-state chaos matrix, the
# manager crash-recovery tests (multi-job lease state, bit-identical
# resume), and the felaserver restart-and-resume + felaworker
# -reconnect e2e paths.
durable:
	$(GO) test ./internal/durable/ -race -count=1 -v
	$(GO) test ./internal/rt/ -race -run 'TestChaosCoordinatorKillEveryProtocolState|TestChaosKillAtEveryIteration' -count=1 -v
	$(GO) test ./internal/jobs/ -race -run 'TestManagerCrashRecovery|TestManagerRestore|TestManagerSubmitRefused' -count=1 -v
	$(GO) test ./cmd/felaserver/ -race -run TestServerDurableSessionResume -count=1 -v
	$(GO) test ./cmd/felaworker/ -race -run TestReconnect -count=1 -v

# kernels runs the parallel compute-kernel and gradient-compression
# suites under the race detector: bit-identity across fan-out widths,
# the fp16/int8/topk codec properties with their golden v2 frames and
# hostile-header cases, and the negotiated end-to-end TCP sessions.
kernels:
	$(GO) test ./internal/tensor/ -race -count=1 -v
	$(GO) test ./internal/minidnn/ -race -run 'TestConv|TestParallel' -count=1 -v
	$(GO) test ./internal/transport/ -race -run 'TestFP16|TestInt8|TestTopK|TestCompress|TestParamsStayExact' -count=1 -v
	$(GO) test ./internal/rt/ -race -run 'TestCompress' -count=1 -v

# lint-metrics is the exposition-conformance gate: every e2e test that
# scrapes /metrics (felaserver observability, felastat live cluster)
# runs the body through obs.LintExposition, so a malformed sample or
# exemplar line fails here.
lint-metrics:
	$(GO) test ./internal/obs/ -run 'TestLint|TestParse|TestExemplar' -count=1 -v
	$(GO) test ./cmd/felaserver/ -run TestServerObservabilityE2E -count=1
	$(GO) test ./cmd/felastat/ -run TestFelastatLiveTwoShardCluster -count=1

# ci is the full gate: tier-1, static analysis, race detector, the
# multi-tenant suite, the benchmark smoke pass, the benchmark harness,
# the cluster-mode smoke run, the serving-gateway suite, the
# observability aggregator, the durability plane, and the
# compute-kernel/compression suite.
ci: tier1 vet race jobs bench perfbench cluster gate stat durable kernels

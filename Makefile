# Convenience targets; the authoritative tier-1 line lives in ROADMAP.md.

.PHONY: build test race tier1 bench benchcheck loadtest

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -short ./internal/study/... ./internal/faultsim/... ./internal/netsim/... ./internal/results/... ./internal/arena/... ./internal/campaign/...

# tier1 is the full verification gate: build, gofmt, vet, tests, race
# subset (the study wildcard covers internal/study/slotsched and the
# sharded outcome log in internal/results/shardlog; the slot arena and
# the campaign runner have their own entries), the flight-recorder
# ring race suite, the daemon race suite (admission, drain, kill -9
# chaos, panic/stall flight dumps),
# study bench smoke, the alloc-gated fast-path, prototype-patch,
# flow-handle send, streaming-commit, small-campaign, shard-log, and
# one-suite benches,
# the poisoned-arena prototype retention suite and study suites, and
# the world suites and the campaign runner's under the ownerdebug
# single-owner assertion.
tier1: build
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	go vet ./...
	go test ./...
	$(MAKE) race
	go test -race ./internal/flightrec/...
	go test -race ./internal/server/...
	go test -bench Study -benchtime 1x -run '^$$' .
	go test -bench 'Exchange|BuildPacket|Deliver|PrototypePatch|FlowSend' -benchtime 1x -run '^$$' ./internal/netsim
	go test -bench 'CommitStream|SmallCampaign' -benchtime 1x -run '^$$' ./internal/study
	go test -bench 'ShardedOutcomes' -benchtime 1x -run '^$$' ./internal/results/shardlog
	go test -bench 'FullSuiteOneVP' -benchtime 1x -run '^$$' ./internal/vpntest
	go test -tags arenadebug -run 'Prototype' ./internal/netsim
	go test -tags arenadebug -short ./internal/study/...
	go test -tags ownerdebug -short ./internal/netsim/... ./internal/capture/... ./internal/vpn/... ./internal/vpntest/... ./internal/study/... ./internal/server/... ./internal/torsim/... ./internal/dnssim/... ./internal/websim/... ./internal/geodb/... ./internal/faultsim/... ./internal/campaign/...

# bench runs the full-study benchmarks and appends the numbers, each
# stamped with the host's fingerprint, to the BENCH_*.json trajectory
# (override with BENCH_OUT / BENCH_LABEL).
bench:
	sh scripts/bench.sh

# benchcheck compares the two newest BENCH_*.json trajectories and
# fails on any shared benchmark whose latest allocs/op regressed >10%,
# or, between entries measured on hosts with the same fingerprint,
# whose repeated ns/op [min, max] range moved wholly above the old one
# — run it after `make bench` to catch allocation and wall-time
# regressions before committing.
benchcheck:
	go run ./cmd/benchtrend -check

# loadtest drives a real vpnscoped daemon with concurrent clients and
# reports campaigns/sec, p99 time-to-first-result, and the daemon's
# own queue-depth / slot-wall-p99 gauges scraped from
# /metricsz?format=prom (override with LOADTEST_CAMPAIGNS /
# LOADTEST_CLIENTS).
loadtest:
	sh scripts/loadtest.sh

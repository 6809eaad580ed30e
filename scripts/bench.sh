#!/bin/sh
# bench.sh — run the campaign Study benchmarks and append the numbers
# to the BENCH trajectory file (see README.md, "Profiling and
# benchmarks"). One full-study iteration takes a few seconds; the
# scaling sweep repeats the campaign at workers ∈ {1,2,4,8,16}.
#
#   BENCH_OUT   trajectory file (default: next unused BENCH_<n>.json)
#   BENCH_LABEL label for this run (default: short git hash, or "local")
set -eu
cd "$(dirname "$0")/.."

# Default output: one past the highest existing BENCH_<n>.json, so each
# `make bench` run starts a fresh trajectory for `make benchcheck` to
# compare against the previous one.
if [ -n "${BENCH_OUT:-}" ]; then
    out="$BENCH_OUT"
else
    next=0
    for f in BENCH_*.json; do
        [ -e "$f" ] || continue
        n=${f#BENCH_}
        n=${n%.json}
        case $n in
            *[!0-9]*) continue ;;
        esac
        [ "$n" -ge "$next" ] && next=$((n + 1))
    done
    out="BENCH_${next}.json"
fi
label="${BENCH_LABEL:-$(git rev-parse --short HEAD 2>/dev/null || echo local)}"

go test -bench 'BenchmarkFullStudy$|BenchmarkStudySequential$|BenchmarkStudyParallelScaling/' \
    -benchtime 1x -benchmem -run '^$' . |
    go run ./cmd/benchtrend -out "$out" -label "$label"

# Observability tax: the same campaign with no flight recorder (off)
# vs an attached ring (on). Cheap enough to repeat: -benchtime 3x
# -count 3 with best-of recording — BENCH_6 recorded *on* as faster
# than *off* because single 1x iterations on a shared host swing tens
# of percent run to run, and the minimum across repeats is the
# stablest estimator of true cost.
go test -bench 'BenchmarkTelemetryOverhead/(off|on)$' \
    -benchtime 3x -count 3 -benchmem -run '^$' . |
    go run ./cmd/benchtrend -best -out "$out" -label "$label"

# The raw record path — Ring.Record plus every explicit fact method
# (its zero-alloc gate, live and nil ring, lives inside the benchmark
# and fails the run if a record site regresses) — is a sub-µs
# micro-op: it needs thousands of iterations per sample, not the 3x the
# campaign benchmarks above use, or scheduler jitter dominates and the
# trend gate trips on noise.
go test -bench 'BenchmarkTelemetryOverhead/record$' \
    -benchtime 20000x -count 3 -benchmem -run '^$' . |
    go run ./cmd/benchtrend -best -out "$out" -label "$label"

# Streaming-commit cost (the allocs-per-outcome gate lives inside the
# benchmark itself and fails the run on a per-outcome allocation). Also
# cheap: repeat and record the best.
go test -bench 'BenchmarkCommitStream$' \
    -benchtime 100x -count 3 -benchmem -run '^$' ./internal/study |
    go run ./cmd/benchtrend -best -out "$out" -label "$label"

# Ecosystem-scale sweep: the full 200-provider catalog (tested 62 plus
# derived synthetic profiles) streamed into a sharded outcome log and
# merged back — the §6 full-catalog datapoint.
go test -bench 'BenchmarkFullCatalogCampaign$' \
    -benchtime 1x -benchmem -run '^$' . |
    go run ./cmd/benchtrend -out "$out" -label "$label"

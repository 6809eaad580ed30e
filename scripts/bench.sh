#!/bin/sh
# bench.sh — run the campaign Study benchmarks and append the numbers
# to the BENCH trajectory file (see README.md, "Profiling and
# benchmarks"). One full-study iteration takes a few seconds; the
# scaling sweep repeats the campaign at workers ∈ {1,2,4,8,16}. Every
# entry carries the host's fingerprint (cmd/benchtrend).
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

# Single samples: the full study and the worker-scaling curve (its
# workers=1 point is sampled below). Their wall times cannot be ranked
# from one sample, so benchtrend gates only their allocations.
go test -bench 'BenchmarkFullStudy$|BenchmarkStudyParallelScaling/workers=(2|4|8|16)$' \
    -benchtime 1x -benchmem -run '^$' . |
    go run ./cmd/benchtrend -out "$out" -label "$label"

# Interleaved repeats: five rounds, each running the observability
# pair — the same campaign with no flight recorder (off) and with an
# attached ring (on) — and the executor pair — StudySequential and the
# scaling curve's workers=1 — one sample apiece, in alternation. A drift in the host's speed then hits both
# members of a pair alike, and benchtrend records each benchmark's
# median with its [min, max] range, which is what its ns/op gate
# compares.
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go test -c -o "$bin/root.test" .
i=0
while [ "$i" -lt 5 ]; do
    for b in 'BenchmarkTelemetryOverhead/off$' 'BenchmarkTelemetryOverhead/on$' \
        'BenchmarkStudySequential$' 'BenchmarkStudyParallelScaling/workers=1$'; do
        "$bin/root.test" -test.bench "$b" -test.benchtime 1x -test.benchmem -test.run '^$'
    done
    i=$((i + 1))
done | go run ./cmd/benchtrend -out "$out" -label "$label"

# The raw record path — Ring.Record plus every explicit fact method
# (its zero-alloc gate, live and nil ring, lives inside the benchmark
# and fails the run if a record site regresses) — is a sub-µs
# micro-op: it needs thousands of iterations per sample, not the 1x the
# campaign benchmarks above use, or scheduler jitter dominates.
go test -bench 'BenchmarkTelemetryOverhead/record$' \
    -benchtime 20000x -count 5 -benchmem -run '^$' . |
    go run ./cmd/benchtrend -out "$out" -label "$label"

# Streaming-commit cost (the allocs-per-outcome gate lives inside the
# benchmark itself and fails the run on a per-outcome allocation). Also
# cheap: repeat and record the range.
go test -bench 'BenchmarkCommitStream$' \
    -benchtime 100x -count 5 -benchmem -run '^$' ./internal/study |
    go run ./cmd/benchtrend -out "$out" -label "$label"

# Ecosystem-scale sweep: the full 200-provider catalog (tested 62 plus
# derived synthetic profiles) streamed into a sharded outcome log and
# merged back — the §6 full-catalog datapoint.
go test -bench 'BenchmarkFullCatalogCampaign$' \
    -benchtime 1x -benchmem -run '^$' . |
    go run ./cmd/benchtrend -out "$out" -label "$label"

#!/bin/sh
# loadtest.sh — drive a real vpnscoped daemon with concurrent clients
# and report campaigns/sec plus p50/p99 time-to-first-result (submit →
# first committed vantage-point slot). Clients honor backpressure: a
# 429/503 submission is retried after a short pause, so the run also
# smoke-tests the admission contract under load. Mid-run and at the end
# the script scrapes /metricsz?format=prom and reports the daemon's own
# view — queue depth and the slot-wall p99 gauge — next to the
# client-side numbers.
#
#   LOADTEST_CAMPAIGNS total campaigns to run (default 24)
#   LOADTEST_CLIENTS   concurrent submitting clients (default 8)
set -eu
cd "$(dirname "$0")/.."

CAMPAIGNS="${LOADTEST_CAMPAIGNS:-24}"
CLIENTS="${LOADTEST_CLIENTS:-8}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

go build -o "$OUT/vpnscoped" ./cmd/vpnscoped
"$OUT/vpnscoped" -state "$OUT/state" -addr 127.0.0.1:0 -queue 8 \
    2>"$OUT/daemon.log" &
DPID=$!

ADDR=
i=0
while [ $i -lt 100 ]; do
    ADDR="$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$OUT/daemon.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$DPID" 2>/dev/null || { echo "daemon died:"; cat "$OUT/daemon.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "daemon never came up:"; cat "$OUT/daemon.log"; exit 1; }
BASE="http://$ADDR"
echo "loadtest: $CAMPAIGNS campaigns, $CLIENTS clients, daemon at $BASE"

json_field() { sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",]*\).*/\1/p" | head -1; }

# prom_sample extracts one unlabeled sample value from a Prometheus
# text scrape on stdin.
prom_sample() { awk -v m="$1" '$1 == m { print $2; exit }'; }

# scrape_metrics reports the daemon's own operational gauges at a
# moment in time, straight off the text exposition.
scrape_metrics() {
    label=$1
    curl -s "$BASE/metricsz?format=prom" >"$OUT/prom.$label" || return 0
    depth=$(prom_sample vpnscoped_queue_depth <"$OUT/prom.$label")
    free=$(prom_sample vpnscoped_fleet_free <"$OUT/prom.$label")
    p99=$(prom_sample vpnscope_slot_wall_p99_seconds <"$OUT/prom.$label")
    echo "loadtest: [$label] queue_depth=${depth:-?} fleet_free=${free:-?} slot_wall_p99=${p99:-n/a}s"
}

# run_client submits every CLIENTS-th campaign, measures time to first
# committed slot, and waits for completion.
run_client() {
    client=$1
    n=$client
    while [ "$n" -le "$CAMPAIGNS" ]; do
        spec="{\"seed\": $((1000 + n)), \"providers\": [\"Mullvad\"], \"fault_profile\": \"lossy\", \"workers\": 1, \"vps_per_provider\": 2, \"extra_tls_hosts\": 5, \"landmark_count\": 10}"
        t0=$(date +%s%3N)
        while :; do
            code=$(curl -s -o "$OUT/resp.$client" -w '%{http_code}' \
                -X POST "$BASE/campaigns" -d "$spec")
            [ "$code" = 202 ] && break
            case "$code" in
            429 | 503) sleep 0.2 ;; # backpressure: honor and retry
            *) echo "client $client: submit failed with $code"; cat "$OUT/resp.$client"; exit 1 ;;
            esac
        done
        id=$(json_field id <"$OUT/resp.$client")
        first_seen=0
        while :; do
            curl -s "$BASE/campaigns/$id" >"$OUT/status.$client"
            state=$(json_field state <"$OUT/status.$client")
            slots=$(sed -n 's/.*"slots_done": *\([0-9]*\).*/\1/p' "$OUT/status.$client" | head -1)
            if [ "$first_seen" = 0 ] && { [ "${slots:-0}" -ge 1 ] || [ "$state" = done ]; }; then
                echo $(($(date +%s%3N) - t0)) >>"$OUT/ttfr.$client"
                first_seen=1
            fi
            [ "$state" = done ] && break
            [ "$state" = failed ] && { echo "campaign $id failed:"; cat "$OUT/status.$client"; exit 1; }
            sleep 0.02
        done
        n=$((n + CLIENTS))
    done
}

START=$(date +%s%3N)
PIDS=
c=1
while [ "$c" -le "$CLIENTS" ]; do
    run_client "$c" &
    PIDS="$PIDS $!"
    c=$((c + 1))
done
sleep 1
scrape_metrics mid-run
for pid in $PIDS; do
    wait "$pid" || { kill "$DPID" 2>/dev/null || true; exit 1; }
done
ELAPSED=$(($(date +%s%3N) - START))
scrape_metrics final

kill -TERM "$DPID"
wait "$DPID" || { echo "daemon did not exit 0 on SIGTERM"; exit 1; }

cat "$OUT"/ttfr.* | sort -n | awk -v n="$CAMPAIGNS" -v ms="$ELAPSED" '
    { v[NR] = $1 }
    END {
        p50 = v[int((NR - 1) * 0.50) + 1]
        p99 = v[int((NR - 1) * 0.99) + 1]
        printf "loadtest: %d campaigns in %.2fs = %.2f campaigns/sec\n", n, ms / 1000, n * 1000 / ms
        printf "loadtest: time-to-first-result p50 %d ms, p99 %d ms (n=%d)\n", p50, p99, NR
    }'

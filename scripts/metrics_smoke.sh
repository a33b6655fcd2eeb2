#!/bin/sh
# metrics_smoke.sh — smoke of the udcd observability surface.
#
# Boots the daemon on a random port, drives one sweep and one extraction so
# the counters are alive, then asserts: /metrics serves the required metric
# families (including the per-stage duration histograms), two idle scrapes
# are byte-identical, and both corpus-backed routes answer with a
# Server-Timing stage trace and an X-Trace-Id trace identity.
# Run by `make metrics-smoke` and by CI.
set -eu

GO="${GO:-go}"
workdir="$(mktemp -d)"
logfile="$workdir/udcd.log"
pid=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

$GO build -o "$workdir/udcd" ./cmd/udcd

"$workdir/udcd" -addr 127.0.0.1:0 -store "" >"$logfile" 2>&1 &
pid=$!
base=""
for _ in $(seq 1 100); do
    base="$(sed -n 's#^udcd listening on \(http://[0-9.:]*\).*#\1#p' "$logfile")"
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "udcd exited early:"; cat "$logfile"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "udcd never announced its address:"; cat "$logfile"; exit 1; }
echo "daemon up at $base"

curl -sf -D "$workdir/hsweep" "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=4" >/dev/null
curl -sf -D "$workdir/hextract" "$base/v1/extract?extraction=kx-perfect&runs=6" >/dev/null
grep -qi '^server-timing: .*compute;dur=' "$workdir/hsweep" || { echo "sweep lacks Server-Timing:"; cat "$workdir/hsweep"; exit 1; }
grep -qi '^server-timing: .*compute;dur=' "$workdir/hextract" || { echo "extract lacks Server-Timing:"; cat "$workdir/hextract"; exit 1; }
grep -qi '^x-trace-id: [0-9a-f]\{32\}' "$workdir/hsweep" || { echo "sweep lacks X-Trace-Id:"; cat "$workdir/hsweep"; exit 1; }
grep -qi '^x-trace-id: [0-9a-f]\{32\}' "$workdir/hextract" || { echo "extract lacks X-Trace-Id:"; cat "$workdir/hextract"; exit 1; }

curl -sf "$base/metrics" >"$workdir/m1"
for family in \
    udc_http_requests_total \
    udc_http_request_duration_seconds \
    udc_stage_duration_seconds \
    udc_scheduler_requests_total \
    udc_scheduler_requests_served_total \
    udc_scheduler_seeds_requested_total \
    udc_scheduler_seeds_cached_total \
    udc_scheduler_seeds_computed_total \
    udc_scheduler_seeds_coalesced_total \
    udc_scheduler_fleet_jobs_total \
    udc_scheduler_queue_depth \
    udc_store_hits_total \
    udc_store_misses_total \
    udc_store_puts_total \
    udc_fleet_inflight_seeds \
    udc_fleet_busy_workers \
    udc_start_time_seconds \
    udc_info; do
    grep -q "^# TYPE $family " "$workdir/m1" || { echo "/metrics lacks family $family"; exit 1; }
done

# An idle daemon must scrape byte-identically: /metrics is uninstrumented and
# carries no clock-dependent sample.
curl -sf "$base/metrics" >"$workdir/m2"
cmp "$workdir/m1" "$workdir/m2" || { echo "two idle scrapes differ"; exit 1; }

echo "metrics smoke OK: $(grep -c '^# TYPE ' "$workdir/m1") families, deterministic scrape, Server-Timing and X-Trace-Id on both routes"

#!/bin/sh
# daemon_smoke.sh — end-to-end smoke of the udcd serving layer.
#
# Boots the daemon on a random port with a throwaway store and drives the
# seed-granular corpus end to end: a cold seeds=8 sweep, a grown seeds=16
# sweep that must be a partial hit computing exactly 8 new seeds, a repeat
# that must be a byte-identical full hit, and a second cold daemon whose
# from-scratch seeds=16 body must equal the assembled one byte for byte.
# An extraction leg grows kx-perfect from runs=6 to runs=8 (a partial over
# the cached index), restarts the daemon (runs=8 is then a hit from the
# stored request record), and compares that body with the cold daemon's.
# Along the way it scrapes /metrics, validates the exposition grammar line by
# line, and checks the scheduler mirror agrees with /v1/stats.  Two more legs
# cover the wire protocol and admission control: the NDJSON stream must carry
# one record per seed plus a trailer whose aggregate is byte-identical to the
# buffered body minus its outcomes (with the binary body materially smaller),
# a request issued with a W3C traceparent must be retrievable from
# /debug/traces/<id> with the same stage names its Server-Timing header
# carried, and a rate-limited daemon must shed a burst with 429 + Retry-After
# while counting the sheds honestly on /metrics.
# Run by `make daemon-smoke` and by CI.
set -eu

GO="${GO:-go}"
workdir="$(mktemp -d)"
logfile="$workdir/udcd.log"
pid=""
pid2=""
pid3=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid2" ] && kill "$pid2" 2>/dev/null || true
    [ -n "$pid3" ] && kill "$pid3" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

$GO build -o "$workdir/udcd" ./cmd/udcd

# boot_daemon logfile storedir [flags...] — sets $bootpid and the announced
# $base URL.
boot_daemon() {
    bootlog="$1"
    bootstore="$2"
    shift 2
    "$workdir/udcd" -addr 127.0.0.1:0 -store "$bootstore" "$@" >"$bootlog" 2>&1 &
    bootpid=$!
    base=""
    for _ in $(seq 1 100); do
        base="$(sed -n 's#^udcd listening on \(http://[0-9.:]*\).*#\1#p' "$bootlog")"
        [ -n "$base" ] && break
        kill -0 "$bootpid" 2>/dev/null || { echo "udcd exited early:"; cat "$bootlog"; exit 1; }
        sleep 0.1
    done
    [ -n "$base" ] || { echo "udcd never announced its address:"; cat "$bootlog"; exit 1; }
}

boot_daemon "$logfile" "$workdir/store"
pid=$bootpid
echo "daemon up at $base"

curl -sf "$base/healthz" >/dev/null

# Cold prime: 8 seeds.
curl -sf -D "$workdir/h8" -o "$workdir/b8" "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=8"
grep -qi '^x-cache: miss' "$workdir/h8" || { echo "cold seeds=8 was not a miss:"; cat "$workdir/h8"; exit 1; }
curl -sf "$base/v1/stats" | grep -q '"seedsComputed":8,' || { echo "stats after cold seeds=8 disagree:"; curl -sf "$base/v1/stats"; exit 1; }

# Grown window: 16 seeds over the same base must be a partial hit that
# computes exactly the 8 new seeds (16 total across both requests).
curl -sf -D "$workdir/h16" -o "$workdir/b16" "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=16"
grep -qi '^x-cache: partial' "$workdir/h16" || { echo "grown seeds=16 was not a partial hit:"; cat "$workdir/h16"; exit 1; }
curl -sf "$base/v1/stats" | grep -q '"seedsComputed":16,' || { echo "grown sweep did not compute exactly 8 new seeds:"; curl -sf "$base/v1/stats"; exit 1; }
curl -sf "$base/v1/stats" | grep -q '"seedsCached":8,' || { echo "grown sweep did not reuse the 8 primed seeds:"; curl -sf "$base/v1/stats"; exit 1; }

# The identical window again: a byte-identical full hit.
curl -sf -D "$workdir/h16b" -o "$workdir/b16b" "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=16"
grep -qi '^x-cache: hit' "$workdir/h16b" || { echo "repeated seeds=16 was not a hit:"; cat "$workdir/h16b"; exit 1; }
cmp "$workdir/b16" "$workdir/b16b" || { echo "cache hit body differs from assembled body"; exit 1; }

# The daemon's own counter summary agrees (udcd -stats against the live daemon).
"$workdir/udcd" -stats -addr "${base#http://}" | grep -q 'partialHits=1' || { echo "-stats does not report the partial hit"; exit 1; }

# Served responses carry the scheduler's stage trace.
grep -qi '^server-timing: .*total;dur=' "$workdir/h16b" || { echo "sweep response lacks a Server-Timing trace:"; cat "$workdir/h16b"; exit 1; }

# The /metrics exposition: every line must match the v0.0.4 grammar (HELP/TYPE
# comment, sample, or blank), and the scheduler mirror must agree with the
# seed accounting /v1/stats reported above.
curl -sf "$base/metrics" >"$workdir/metrics.txt"
bad="$(grep -vE '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9][0-9eE+.-]*|\+Inf|-Inf|NaN)( [0-9]+)?|)$' "$workdir/metrics.txt" || true)"
[ -z "$bad" ] || { echo "malformed exposition lines:"; echo "$bad"; exit 1; }
grep -q '^udc_scheduler_seeds_computed_total 16$' "$workdir/metrics.txt" || { echo "/metrics seeds_computed disagrees with /v1/stats (want 16):"; grep seeds_computed "$workdir/metrics.txt"; exit 1; }

# Tracing leg: a sweep issued with a client-supplied W3C traceparent must echo
# that trace identity in X-Trace-Id, and /debug/traces/<id> must serve the
# finished trace with exactly the stage names the Server-Timing header carried.
traceid="4bf92f3577b34da6a3ce929d0e0e4736"
curl -sf -H "traceparent: 00-$traceid-00f067aa0ba902b7-01" -D "$workdir/htrace" -o /dev/null \
    "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=8&seedBase=77"
grep -qi "^x-trace-id: $traceid" "$workdir/htrace" || { echo "X-Trace-Id does not echo the supplied traceparent:"; cat "$workdir/htrace"; exit 1; }
curl -sf "$base/debug/traces/$traceid" >"$workdir/trace.json"
tr -d '\r' <"$workdir/htrace" | sed -n 's/^[Ss]erver-[Tt]iming: //p' | tr ',' '\n' \
    | sed -n 's/^ *\([a-z]*\);dur=.*$/\1/p' | grep -v '^total$' | sort -u >"$workdir/stages.header"
grep -o '"name":"[a-z]*"' "$workdir/trace.json" | sed 's/.*"\([a-z]*\)"$/\1/' | sort -u >"$workdir/stages.trace"
[ -s "$workdir/stages.header" ] || { echo "no stages parsed from Server-Timing:"; cat "$workdir/htrace"; exit 1; }
cmp "$workdir/stages.header" "$workdir/stages.trace" || {
    echo "trace stages differ from Server-Timing stages:"
    echo "header:"; cat "$workdir/stages.header"
    echo "trace:"; cat "$workdir/stages.trace"
    exit 1
}

# Streaming leg: the NDJSON stream over the primed window must carry one
# record per seed plus a trailer record, and the trailer's aggregate must be
# byte-identical to the buffered body minus its outcomes array.
curl -sfN -H 'Accept: application/x-ndjson' -D "$workdir/hstream" -o "$workdir/stream16" "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=16"
grep -qi '^content-type: application/x-ndjson' "$workdir/hstream" || { echo "stream lacks the NDJSON content type:"; cat "$workdir/hstream"; exit 1; }
lines="$(wc -l < "$workdir/stream16")"
[ "$lines" -eq 17 ] || { echo "NDJSON stream carried $lines lines, want 16 outcomes + 1 trailer"; exit 1; }
tail -n 1 "$workdir/stream16" | grep -q '^{"trailer":' || { echo "stream did not end in a trailer record:"; tail -n 1 "$workdir/stream16"; exit 1; }
sed 's/,"outcomes":.*$/}/' "$workdir/b16" >"$workdir/agg.want"
tail -n 1 "$workdir/stream16" | sed 's/^{"trailer":{"aggregate"://; s/,"trace":.*$//' >"$workdir/agg.got"
cmp "$workdir/agg.want" "$workdir/agg.got" || { echo "stream trailer aggregate differs from the buffered aggregate:"; cat "$workdir/agg.want" "$workdir/agg.got"; exit 1; }

# Binary leg: the negotiated binary body is the codec container, materially
# smaller than the JSON rendering of the same record.
curl -sf -H 'Accept: application/x-udc-bin' -D "$workdir/hbin" -o "$workdir/bin16" "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=16"
grep -qi '^content-type: application/x-udc-bin' "$workdir/hbin" || { echo "binary sweep lacks its content type:"; cat "$workdir/hbin"; exit 1; }
binsize="$(wc -c < "$workdir/bin16")"
jsonsize="$(wc -c < "$workdir/b16")"
[ "$binsize" -lt "$((jsonsize / 2))" ] || { echo "binary body ($binsize bytes) not materially smaller than JSON ($jsonsize bytes)"; exit 1; }

# Extraction leg: growing a served pipeline's window on the same daemon
# extends its cached index state (a partial); a restarted daemon has no index
# state but serves the identical window from its stored request record.
curl -sf -D "$workdir/hx6" -o /dev/null "$base/v1/extract?extraction=kx-perfect&runs=6"
grep -qi '^x-cache: miss' "$workdir/hx6" || { echo "cold extraction runs=6 was not a miss:"; cat "$workdir/hx6"; exit 1; }
curl -sf -D "$workdir/hx8" -o "$workdir/bx8" "$base/v1/extract?extraction=kx-perfect&runs=8"
grep -qi '^x-cache: partial' "$workdir/hx8" || { echo "grown extraction runs=8 was not a partial:"; cat "$workdir/hx8"; exit 1; }
kill "$pid"
wait "$pid" 2>/dev/null || true
boot_daemon "$workdir/udcd1b.log" "$workdir/store"
pid=$bootpid
echo "daemon restarted at $base"
curl -sf -D "$workdir/hx8b" -o "$workdir/bx8b" "$base/v1/extract?extraction=kx-perfect&runs=8"
grep -qi '^x-cache: hit' "$workdir/hx8b" || { echo "restarted extraction runs=8 was not a hit:"; cat "$workdir/hx8b"; exit 1; }
cmp "$workdir/bx8" "$workdir/bx8b" || { echo "restarted extraction hit body differs from the grown body"; exit 1; }

# A cold daemon over a fresh store must compute the same 16-seed body byte
# for byte — the assembled partial-hit response is indistinguishable from a
# from-scratch computation.
boot_daemon "$workdir/udcd2.log" "$workdir/store2"
pid2=$bootpid
echo "cold reference daemon up at $base"
curl -sf -D "$workdir/h16c" -o "$workdir/b16c" "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=16"
grep -qi '^x-cache: miss' "$workdir/h16c" || { echo "reference seeds=16 was not a miss:"; cat "$workdir/h16c"; exit 1; }
cmp "$workdir/b16" "$workdir/b16c" || { echo "partial-hit body differs from a cold daemon's computation"; exit 1; }
curl -sf -D "$workdir/hx8c" -o "$workdir/bx8c" "$base/v1/extract?extraction=kx-perfect&runs=8"
grep -qi '^x-cache: miss' "$workdir/hx8c" || { echo "reference extraction runs=8 was not a miss:"; cat "$workdir/hx8c"; exit 1; }
cmp "$workdir/bx8b" "$workdir/bx8c" || { echo "restarted extraction body differs from a cold daemon's computation"; exit 1; }

# Admission leg: a rate-limited daemon (1 req/s, burst 2) must shed part of a
# 5-request burst with 429 + Retry-After, count the sheds on /metrics, and
# label the 429s honestly on the HTTP counter.
boot_daemon "$workdir/udcd3.log" "$workdir/store3" -rate-limit 1 -rate-burst 2
pid3=$bootpid
echo "rate-limited daemon up at $base"
shed=0
for i in 1 2 3 4 5; do
    code="$(curl -s -o /dev/null -D "$workdir/hadm$i" -w '%{http_code}' "$base/v1/sweep?scenario=prop3.1-strong-udc&seeds=2")"
    case "$code" in
        200) ;;
        429) shed=$((shed + 1)); grep -qi '^retry-after: [0-9]' "$workdir/hadm$i" || { echo "429 without a Retry-After hint:"; cat "$workdir/hadm$i"; exit 1; } ;;
        *) echo "burst request $i answered HTTP $code"; exit 1 ;;
    esac
done
[ "$shed" -ge 1 ] || { echo "a 5-request burst against burst-2 rate-1/s never shed"; exit 1; }
curl -sf "$base/metrics" >"$workdir/metrics3.txt"
grep -q "^udc_admission_rate_limited_total $shed\$" "$workdir/metrics3.txt" || { echo "/metrics rate-limited counter disagrees (want $shed):"; grep rate_limited "$workdir/metrics3.txt"; exit 1; }
grep -q 'udc_http_requests_total{route="/v1/sweep",code="429"}' "$workdir/metrics3.txt" || { echo "429s missing from the HTTP counter:"; grep udc_http_requests_total "$workdir/metrics3.txt"; exit 1; }

echo "daemon smoke OK: partial-hit assembly byte-identical to cold computation, 8 seeds reused, grown and restarted extractions byte-identical to cold, stream trailer matches buffered aggregate, trace stages match Server-Timing, $shed/5 burst requests shed with 429"

#!/usr/bin/env sh
# Tier-1 verification: offline release build + full test suite
# (including the seeded property suites and their regression cases),
# plus lint gates (clippy warnings are errors, formatting must be
# canonical), a telemetry-overhead guard and a server smoke stage.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --workspace
# The workspace tests include the drift-equivalence tests (all of
# tests/drift.rs, and drift_corpora_indexed_equals_naive_across_rates in
# tests/matcher_props.rs): seeded drift corpora must be byte-stable
# (corpus, snapshot and metrics documents), both matcher engines must
# agree on them tier for tier, and the drift cache-hit rate must sit
# materially below the verbatim-clone ceiling. The benchmark's pipeline_drift
# workload runs the same corpus check at full size.
cargo test -q --workspace
# Full-size engine equivalence: indexed == naive, outcome and tier
# counters included, on every domain of a 100-domain x 20-interface
# drift corpus with the fuzzy tier on (the benchmark pipeline's shape).
# Release mode keeps the naive reference to a few seconds.
cargo test -q --release --test matcher_props -- --ignored
# Full-budget naming-kernel equivalence: the interned Combine*,
# partitioning and best-only group naming equal the String-row oracle
# on 1,500 random group relations, plus larger and state-capped ones.
cargo test -q --release --test naming_kernel_props -- --ignored
# The benchmark's self-tests (statistics, report format, argument
# parsing, input determinism). perfbench/ is a package of its own, so
# the workspace steps above neither build nor lint it.
cargo test -q --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets --all-features -- -D warnings
cargo fmt --check

# Telemetry-overhead guard (tests/telemetry.rs): with telemetry off the
# seven-domain matcher stage, in units of a reference workload timed
# around it, must stay within 5% of its committed ratio, and the full
# observability plane (live registry + flight
# recorder + 100ms time series) within 5% of off; an absolute floor of
# 0.5 ms filters single-core jitter. The guard runs right after the
# clippy/test compiles, whose sustained load can leave a small CPU
# budget throttled for a minute; a miss is retried once after an idle
# cooldown so a throttled box doesn't masquerade as a code regression.
telemetry_guard() {
    cargo test -q --release --test telemetry -- --ignored --test-threads=1 --nocapture
}
if ! telemetry_guard; then
    echo "telemetry-overhead guard missed; cooling down and retrying once"
    sleep 45
    telemetry_guard
fi

# Server smoke stage: build a snapshot, cold-start the server on an
# ephemeral port, probe the read endpoints with the std-only client,
# ingest one interface, reuse one keep-alive socket across requests,
# hot-reload the snapshot under live traffic, and stop it cleanly
# through the admin endpoint. Everything rides the release `qi` binary
# built above — no curl, no network beyond loopback.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/qi snapshot build "$smoke_dir/corpus.snap"
./target/release/qi snapshot info "$smoke_dir/corpus.snap" >/dev/null
./target/release/qi serve --snapshot "$smoke_dir/corpus.snap" \
    --addr 127.0.0.1:0 --port-file "$smoke_dir/port" \
    --history-interval-ms 200 \
    --access-log "$smoke_dir/access.log" &
serve_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
    [ -s "$smoke_dir/port" ] && break
    sleep 0.3
done
[ -s "$smoke_dir/port" ] || { echo "FAIL: server never wrote its port file"; exit 1; }
addr=$(cat "$smoke_dir/port")
./target/release/qi fetch "http://$addr/healthz" | grep -q '"status":"ok"' \
    || { echo "FAIL: /healthz probe"; exit 1; }
./target/release/qi fetch "http://$addr/metrics" | grep -q '"counters"' \
    || { echo "FAIL: /metrics probe"; exit 1; }
# Prometheus scrape: the same endpoint negotiated to exposition format,
# validated with a tiny awk parser — every metric family declares its
# # TYPE exactly once, and every histogram's _count series equals its
# cumulative +Inf bucket.
./target/release/qi fetch --accept text/plain "http://$addr/metrics" \
    > "$smoke_dir/metrics.prom"
grep -q '^# TYPE ' "$smoke_dir/metrics.prom" \
    || { echo "FAIL: Prometheus scrape carries no # TYPE lines"; exit 1; }
awk '
    /^# TYPE / {
        if (seen[$3]++) { printf "FAIL: duplicate # TYPE for family %s\n", $3; bad = 1 }
        if ($4 == "histogram") hist[$3] = 1
        next
    }
    /^#/ { next }
    /_bucket\{le="\+Inf"\}/ {
        family = $1
        sub(/_bucket\{.*/, "", family)
        inf[family] = $2
        next
    }
    /_count / {
        family = $1
        sub(/_count$/, "", family)
        if (family in hist) count[family] = $2
        next
    }
    END {
        families = 0
        for (f in hist) {
            families++
            if (!(f in inf)) { printf "FAIL: histogram %s has no +Inf bucket\n", f; bad = 1 }
            else if (count[f] != inf[f]) {
                printf "FAIL: histogram %s _count %s != +Inf bucket %s\n", \
                    f, count[f], inf[f]
                bad = 1
            }
        }
        if (families == 0) { print "FAIL: no histogram families in scrape"; bad = 1 }
        if (bad) exit 1
        printf "Prometheus scrape well-formed (%d histogram families)\n", families
    }' "$smoke_dir/metrics.prom" || { echo "FAIL: Prometheus scrape validation"; exit 1; }
./target/release/qi fetch "http://$addr/domains/auto/tree" | grep -q 'interface' \
    || { echo "FAIL: /domains/auto/tree probe"; exit 1; }
./target/release/qi fetch "http://$addr/domains/auto/explain" | grep -q '"rule":' \
    || { echo "FAIL: /domains/auto/explain probe"; exit 1; }
# Rendered-response cache: a repeated GET must be served from the cache
# (nonzero serve.cache.hits in /metrics), and revalidating with the
# response's own ETag must come back 304 Not Modified without a body.
./target/release/qi fetch "http://$addr/domains/auto/labels" >/dev/null
etag=$(./target/release/qi fetch --include "http://$addr/domains/auto/labels" \
    | sed -n 's/^etag: *//p' | tr -d '\r')
[ -n "$etag" ] || { echo "FAIL: cached GET carries no etag header"; exit 1; }
./target/release/qi fetch --etag "$etag" "http://$addr/domains/auto/labels" 2>&1 \
    | grep -q '304 Not Modified' \
    || { echo "FAIL: if-none-match revalidation did not answer 304"; exit 1; }
./target/release/qi fetch "http://$addr/metrics" \
    | grep -o '"serve\.cache\.hits":[0-9]*' | grep -qv ':0$' \
    || { echo "FAIL: server smoke probes never hit the response cache"; exit 1; }
book_etag=$(./target/release/qi fetch --include "http://$addr/domains/book/labels" \
    | sed -n 's/^etag: *//p' | tr -d '\r')
[ -n "$book_etag" ] || { echo "FAIL: /domains/book/labels carries no etag header"; exit 1; }
# Query smoke stage: /query over the live server. The happy path rides
# a GET whose spaces qi fetch percent-encodes itself; the POST body
# (--data) carries the text verbatim; typed failures map to their
# statuses (parse error -> 400, starved traversal budget -> 422); a
# limit=1 page cuts a cursor that resumes; and the cursorless page is
# served from the rendered cache with a revalidatable ETag.
./target/release/qi fetch "http://$addr/query?q=find fields&limit=3" \
    | grep -q '"count":3' \
    || { echo "FAIL: /query happy-path probe"; exit 1; }
./target/release/qi fetch --data 'find nodes where unlabeled' "http://$addr/query" \
    | grep -q '"query":"find nodes where unlabeled"' \
    || { echo "FAIL: /query POST-body probe"; exit 1; }
if ./target/release/qi fetch "http://$addr/query?q=find widgets" \
    >/dev/null 2>"$smoke_dir/query.err"; then
    echo "FAIL: /query parse error did not fail the probe"; exit 1
fi
grep -q '400 Bad Request' "$smoke_dir/query.err" \
    || { echo "FAIL: /query parse error did not answer 400"; exit 1; }
if ./target/release/qi fetch "http://$addr/query?q=find fields&budget=1" \
    >/dev/null 2>"$smoke_dir/query.err"; then
    echo "FAIL: /query starved budget did not fail the probe"; exit 1
fi
grep -q '422 Unprocessable Content' "$smoke_dir/query.err" \
    || { echo "FAIL: /query starved budget did not answer 422"; exit 1; }
qcursor=$(./target/release/qi fetch "http://$addr/query?q=find fields in auto&limit=1" \
    | grep -o '"next_cursor":"[0-9a-f]*"' | cut -d'"' -f4)
[ -n "$qcursor" ] || { echo "FAIL: limit=1 query page carries no cursor"; exit 1; }
./target/release/qi fetch \
    "http://$addr/query?q=find fields in auto&limit=1&cursor=$qcursor" \
    | grep -q '"count":1' \
    || { echo "FAIL: /query cursor resume probe"; exit 1; }
qetag=$(./target/release/qi fetch --include "http://$addr/query?q=find fields" \
    | sed -n 's/^etag: *//p' | tr -d '\r')
[ -n "$qetag" ] || { echo "FAIL: cursorless /query carries no etag"; exit 1; }
./target/release/qi fetch --etag "$qetag" "http://$addr/query?q=find fields" 2>&1 \
    | grep -q '304 Not Modified' \
    || { echo "FAIL: /query revalidation did not answer 304"; exit 1; }
# Paginated explain shares the cursor machinery.
./target/release/qi fetch "http://$addr/domains/auto/explain?limit=1" \
    | grep -q '"next_cursor":"' \
    || { echo "FAIL: paginated explain carries no cursor"; exit 1; }
printf 'interface smoke\n- Make\n- Model\n' > "$smoke_dir/smoke.qis"
./target/release/qi fetch --body "$smoke_dir/smoke.qis" \
    "http://$addr/domains/auto/interfaces" | grep -q '"interfaces":21' \
    || { echo "FAIL: ingest probe"; exit 1; }
# The ingest replaced auto's rendered bodies and no other domain's:
# auto's pre-ingest ETag now gets the new body (200 with a new ETag),
# while an untouched domain's ETag still revalidates as 304.
auto_head=$(./target/release/qi fetch --include --etag "$etag" \
    "http://$addr/domains/auto/labels" 2>&1 | tr -d '\r')
printf '%s\n' "$auto_head" | grep -q '^HTTP/1.1 200 ' \
    || { echo "FAIL: pre-ingest etag of the ingested domain did not answer 200"; exit 1; }
auto_etag=$(printf '%s\n' "$auto_head" | sed -n 's/^etag: *//p')
[ -n "$auto_etag" ] && [ "$auto_etag" != "$etag" ] \
    || { echo "FAIL: the ingested domain kept its pre-ingest etag"; exit 1; }
./target/release/qi fetch --etag "$book_etag" "http://$addr/domains/book/labels" 2>&1 \
    | grep -q '304 Not Modified' \
    || { echo "FAIL: an untouched domain's etag did not answer 304 after the ingest"; exit 1; }
# The ingest above replaced auto's artifact, so the outstanding query
# cursor pinned to auto's old version must now answer 410 Gone.
if ./target/release/qi fetch \
    "http://$addr/query?q=find fields in auto&limit=1&cursor=$qcursor" \
    >/dev/null 2>"$smoke_dir/query.err"; then
    echo "FAIL: post-ingest stale query cursor did not fail the probe"; exit 1
fi
grep -q '410 Gone' "$smoke_dir/query.err" \
    || { echo "FAIL: stale query cursor did not answer 410"; exit 1; }
# Keep-alive: two requests over one socket. The client side asserts
# reuse itself (qi fetch --keep-alive fails if any response announces
# connection: close); the server side is asserted through the
# serve.conn.* counters scraped below.
./target/release/qi fetch --keep-alive --repeat 2 "http://$addr/healthz" \
    | grep -c '"status":"ok"' | grep -q '^2$' \
    || { echo "FAIL: keep-alive probe did not answer twice on one socket"; exit 1; }
# Hot reload round trip under live keep-alive traffic: the smoke ingest
# above took auto to 21 interfaces; reloading the startup snapshot must
# take it back to 20 without dropping a single read on a persistent
# connection that spans the swap.
./target/release/qi fetch "http://$addr/domains" | grep -q '"interfaces":21' \
    || { echo "FAIL: pre-reload listing is missing the ingested interface"; exit 1; }
./target/release/qi fetch --keep-alive --repeat 200 "http://$addr/domains/auto/labels" \
    >/dev/null 2>"$smoke_dir/reader.err" &
reader_pid=$!
./target/release/qi fetch --post "http://$addr/admin/reload" \
    | grep -q '"status":"reloaded"' \
    || { echo "FAIL: /admin/reload probe"; exit 1; }
wait "$reader_pid" || {
    echo "FAIL: keep-alive reader dropped during reload:"
    cat "$smoke_dir/reader.err"
    exit 1
}
./target/release/qi fetch "http://$addr/domains" | grep -q '"interfaces":20' \
    || { echo "FAIL: reload did not restore the snapshot corpus"; exit 1; }
# The reactor's connection counters must all be exposed in the
# Prometheus scrape, and the keep-alive probes above must have moved
# the accepted/reused ones.
./target/release/qi fetch --accept text/plain "http://$addr/metrics" \
    > "$smoke_dir/metrics_conn.prom"
for family in accepted reused idle_closed pipelined; do
    grep -q "^qi_serve_conn_${family}_total " "$smoke_dir/metrics_conn.prom" \
        || { echo "FAIL: serve.conn.$family missing from Prometheus scrape"; exit 1; }
done
if grep -q '^qi_serve_conn_accepted_total 0$' "$smoke_dir/metrics_conn.prom"; then
    echo "FAIL: serve.conn.accepted never incremented"; exit 1
fi
if grep -q '^qi_serve_conn_reused_total 0$' "$smoke_dir/metrics_conn.prom"; then
    echo "FAIL: serve.conn.reused never incremented"; exit 1
fi
# Live introspection: every probe above fed the 200ms windowed ring and
# the flight recorder, so the history document, the events page (with a
# working resume cursor), the status summary, and the qi top dashboard
# must all reflect it.
sleep 0.5
./target/release/qi fetch "http://$addr/metrics/history" > "$smoke_dir/history.json"
grep -q '"interval_ns":200000000' "$smoke_dir/history.json" \
    || { echo "FAIL: /metrics/history window interval"; exit 1; }
grep -q '"serve.requests":' "$smoke_dir/history.json" \
    || { echo "FAIL: /metrics/history recorded no traffic"; exit 1; }
./target/release/qi fetch "http://$addr/debug/events" > "$smoke_dir/events.json"
grep -q '"key":"reload.snapshot"' "$smoke_dir/events.json" \
    || { echo "FAIL: /debug/events is missing the reload event"; exit 1; }
grep -q '"category":"budget"' "$smoke_dir/events.json" \
    || { echo "FAIL: /debug/events is missing the starved-budget event"; exit 1; }
events_cursor=$(grep -o '"next_seq":[0-9]*' "$smoke_dir/events.json" | cut -d: -f2)
[ -n "$events_cursor" ] || { echo "FAIL: events page carries no resume cursor"; exit 1; }
# Resume from the cursor: nothing happened since, so the page is empty;
# after one more starved-budget probe the new event (and only it)
# appears past the same cursor.
./target/release/qi fetch "http://$addr/debug/events?since=$events_cursor" \
    | grep -q '"events":\[\]' \
    || { echo "FAIL: events cursor resume replayed old events"; exit 1; }
./target/release/qi fetch "http://$addr/query?q=find fields&budget=1" \
    >/dev/null 2>&1 || true
./target/release/qi fetch "http://$addr/debug/events?since=$events_cursor" \
    > "$smoke_dir/events_resume.json"
grep -q '"category":"budget"' "$smoke_dir/events_resume.json" \
    || { echo "FAIL: events cursor resume missed the new event"; exit 1; }
if grep -q '"key":"reload.snapshot"' "$smoke_dir/events_resume.json"; then
    echo "FAIL: events cursor resume replayed the pre-cursor reload event"; exit 1
fi
./target/release/qi fetch "http://$addr/debug/status" | grep -q '"rolling":{' \
    || { echo "FAIL: /debug/status probe"; exit 1; }
./target/release/qi top "$addr" --iterations 2 --interval-ms 250 --raw \
    > "$smoke_dir/top.out" \
    || { echo "FAIL: qi top dashboard probe"; exit 1; }
grep -c . "$smoke_dir/top.out" | grep -q '^2$' \
    || { echo "FAIL: qi top did not print one summary line per refresh"; exit 1; }
./target/release/qi fetch --post "http://$addr/admin/shutdown" >/dev/null
wait "$serve_pid" || { echo "FAIL: server exited uncleanly"; exit 1; }
# Every probe above must have left a structured access-log line with a
# request id and measured latency.
grep -q 'req=.* route=metrics path=/metrics status=200 .*latency_us=' "$smoke_dir/access.log" \
    || { echo "FAIL: access log is missing the /metrics request"; exit 1; }
grep -c '^req=' "$smoke_dir/access.log" | grep -qv '^0$' \
    || { echo "FAIL: access log is empty"; exit 1; }
echo "server smoke stage passed (snapshot -> serve -> probe -> keep-alive -> reload -> introspect -> shutdown)"

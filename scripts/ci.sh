#!/usr/bin/env bash
# Full local CI: build, tests, lints, formatting.
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> ferret-lint --deny (project contract rules + ratchet baseline)"
# Fails on any unsuppressed deny violation and on any ratchet count above
# lint-baseline.json. After intentionally fixing ratcheted debt, run
# `cargo run -p ferret-lint -- --fix-baseline` and commit the new baseline.
cargo run -q -p ferret-lint -- --deny

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace --no-fail-fast (every crate, every test target)"
# Fixed seed so the randomized corpora of every proptest are reproducible.
PROPTEST_SEED=20260805 cargo test -q --workspace --no-fail-fast

echo "==> concurrency suites, 5 repeats, --test-threads=4"
# The suites that race threads against each other run five more times
# with several test threads, so an ordering that only fails sometimes
# gets more than one chance to show.
for run in 1 2 3 4 5; do
    echo "--> repeat $run/5"
    PROPTEST_SEED=20260805 cargo test -q --test concurrent_serving --test result_cache \
        -- --test-threads=4
    cargo test -q -p ferret-query --test ordering_determinism -- --test-threads=4
    cargo test -q -p ferret-query --lib server:: -- --test-threads=4
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints tests, benches, and examples too, and clippy.toml's
# disallowed-methods bans Vfs-bypassing durable writes in production code.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> smoke: serve + parallel clients + /metrics"
SMOKE_DIR="$(mktemp -d)"
trap 'kill "${SERVE_PID:-}" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
# Dedicated watch dir (db/log outside it) so object ids are deterministic:
# path order assigns a.fvec=0, b.fvec=1. fvec lines are `weight c1 c2...`.
mkdir "$SMOKE_DIR/watch"
printf '1 0.1 0.2\n1 0.3 0.4\n' > "$SMOKE_DIR/watch/a.fvec"
printf '1 0.8 0.9\n' > "$SMOKE_DIR/watch/b.fvec"
target/release/ferret serve --db "$SMOKE_DIR/db" --watch "$SMOKE_DIR/watch" --dim 2 \
    --max-inflight 8 --tcp 127.0.0.1:0 --http 127.0.0.1:0 > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
HTTP_ADDR=""
for _ in $(seq 1 50); do
    HTTP_ADDR="$(sed -n 's|^web interface on http://\([^/]*\)/$|\1|p' "$SMOKE_DIR/serve.log")"
    [ -n "$HTTP_ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "serve exited early:"; cat "$SMOKE_DIR/serve.log"; exit 1; }
    sleep 0.2
done
[ -n "$HTTP_ADDR" ] || { echo "serve never printed its http address"; cat "$SMOKE_DIR/serve.log"; exit 1; }
# Fetch without curl: bash's /dev/tcp. Raw socket reads can come back
# truncated under load, so verify the body against Content-Length and
# retry a few times before giving up (and accept the possibly-short
# final attempt rather than failing the fetch outright).
http_get_once() {
    exec 3<>"/dev/tcp/${HTTP_ADDR%:*}/${HTTP_ADDR##*:}" \
        && printf 'GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' "$1" >&3 && cat <&3
}
http_get() {
    local reply want got
    for _ in 1 2 3 4 5; do
        reply="$(http_get_once "$1")" || { sleep 0.2; continue; }
        want="$(printf '%s' "$reply" | tr -d '\r' | sed -n 's/^Content-Length: //p' | head -n 1)"
        got="$(printf '%s' "$reply" | sed '1,/^\r\{0,1\}$/d' | wc -c)"
        # wc counts a trailing newline the $() stripped; allow ±1.
        if [ -z "$want" ] || [ "$got" -ge "$((want - 1))" ]; then
            printf '%s\n' "$reply"
            return 0
        fi
        sleep 0.2
    done
    printf '%s\n' "$reply"
}
http_get /stat > /dev/null   # populate the per-endpoint request counters
# Multi-connection smoke: several parallel clients searching at once.
# (wait only on the client pids — a bare `wait` would block on SERVE_PID.)
CLIENT_PIDS=()
for i in 1 2 3 4; do
    http_get "/search?id=0&k=2&mode=brute" > "$SMOKE_DIR/search.$i" &
    CLIENT_PIDS+=("$!")
done
for pid in "${CLIENT_PIDS[@]}"; do
    wait "$pid"
done
for i in 1 2 3 4; do
    head -n 1 "$SMOKE_DIR/search.$i" | grep -qE " (200|503) " \
        || { echo "parallel /search client $i failed:"; head -n 3 "$SMOKE_DIR/search.$i"; exit 1; }
done
# At least one of the parallel searches must have actually returned results.
grep -l '"results":\[{"id":' "$SMOKE_DIR"/search.* > /dev/null \
    || { echo "no parallel /search returned results:"; head -n 20 "$SMOKE_DIR/search.1"; exit 1; }
# A filter-mode search must go through the filter scan and show up in
# the stage metrics below.
http_get "/search?id=0&k=2&mode=filter" | grep -q '"results":' \
    || { echo "filter-mode /search failed"; exit 1; }
# Hybrid query, twice: ingestion tagged both files with ext=fvec, so the
# attr predicate restricts the filter scan (pushdown); the identical
# replay must be served from the result cache (default --cache-capacity).
http_get "/search?id=0&k=2&mode=filter&attr=ext:fvec" | grep -q '"results":\[{"id":' \
    || { echo "hybrid /search (cold) failed"; exit 1; }
http_get "/search?id=0&k=2&mode=filter&attr=ext:fvec" | grep -q '"results":\[{"id":' \
    || { echo "hybrid /search (cached replay) failed"; exit 1; }
# Fused ranking over the same predicate.
http_get "/search?id=0&k=2&mode=brute&attr=ext:fvec&fusion=rrf" | grep -q '"results":\[{"id":' \
    || { echo "fused /search failed"; exit 1; }
METRICS="$(http_get /metrics)"
kill "$SERVE_PID" 2>/dev/null || true
echo "$METRICS" | head -n 1 | grep -q " 200 " \
    || { echo "/metrics did not return 200:"; echo "$METRICS" | head -n 5; exit 1; }
echo "$METRICS" | grep -q "^ferret_http_requests_total" \
    || { echo "/metrics exposition empty or missing expected series:"; echo "$METRICS" | head -n 20; exit 1; }
# Admission-control series are registered eagerly; they must be visible
# even before any query is rejected.
for series in ferret_inflight_queries ferret_inflight_queries_peak ferret_rejected_total; do
    echo "$METRICS" | grep -q "^$series" \
        || { echo "/metrics missing $series:"; echo "$METRICS" | grep '^ferret_' | head -n 20; exit 1; }
done
# The filter-mode search was timed stage by stage: the sketch and filter
# stage timers exist.
for stage in sketch filter; do
    echo "$METRICS" | grep "^ferret_query_stage_seconds" | grep -q "stage=\"$stage\"" \
        || { echo "/metrics missing the $stage stage timer:"; echo "$METRICS" | grep '^ferret_query_stage' | head -n 20; exit 1; }
done
# The eagerly registered ingest and sketch-block series exist, and the
# rank stage ran, so its skipped-solve counter has a sample.
for series in ferret_sketch_objects_total ferret_sketch_objects_per_sec ferret_sketch_block_bytes \
              ferret_rank_solves_skipped_total; do
    echo "$METRICS" | grep -q "^$series" \
        || { echo "/metrics missing $series:"; echo "$METRICS" | grep '^ferret_' | head -n 20; exit 1; }
done
# Hybrid-query instrumentation: the result cache and predicate pushdown
# were both exercised above, so their series exist and the replayed
# hybrid search registered as a cache hit (and the cold one as a miss).
for series in ferret_cache_hits_total ferret_cache_misses_total ferret_cache_memory_bytes \
              ferret_pushdown_queries_total ferret_pushdown_skipped_total; do
    echo "$METRICS" | grep -q "^$series" \
        || { echo "/metrics missing $series:"; echo "$METRICS" | grep '^ferret_' | head -n 20; exit 1; }
done
echo "$METRICS" | grep "^ferret_cache_hits_total" | grep -qv ' 0$' \
    || { echo "replayed hybrid /search never hit the result cache:"; echo "$METRICS" | grep '^ferret_cache'; exit 1; }
echo "$METRICS" | grep "^ferret_cache_misses_total" | grep -qv ' 0$' \
    || { echo "cold hybrid /search never missed the result cache:"; echo "$METRICS" | grep '^ferret_cache'; exit 1; }
echo "$METRICS" | grep "^ferret_pushdown_queries_total" | grep -qv ' 0$' \
    || { echo "hybrid /search never recorded a pushdown:"; echo "$METRICS" | grep '^ferret_pushdown'; exit 1; }
echo "$METRICS" | grep "^ferret_fusion_queries_total" | grep -q 'mode="rrf"' \
    || { echo "/metrics missing rrf-labelled ferret_fusion_queries_total:"; echo "$METRICS" | grep '^ferret_fusion'; exit 1; }
echo "smoke OK: /metrics served $(echo "$METRICS" | grep -c '^ferret_') ferret series"

echo "==> smoke: serve under ingest — reads during inserts, no BUSY"
mkdir "$SMOKE_DIR/watch2"
printf '1 0.1 0.2\n' > "$SMOKE_DIR/watch2/seed0.fvec"
printf '1 0.8 0.9\n' > "$SMOKE_DIR/watch2/seed1.fvec"
target/release/ferret serve --db "$SMOKE_DIR/db2" --watch "$SMOKE_DIR/watch2" --dim 2 \
    --max-inflight 8 --scan-interval 1 \
    --tcp 127.0.0.1:0 --http 127.0.0.1:0 > "$SMOKE_DIR/serve2.log" 2>&1 &
SERVE_PID=$!
HTTP_ADDR=""
for _ in $(seq 1 50); do
    HTTP_ADDR="$(sed -n 's|^web interface on http://\([^/]*\)/$|\1|p' "$SMOKE_DIR/serve2.log")"
    [ -n "$HTTP_ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "ingest serve exited early:"; cat "$SMOKE_DIR/serve2.log"; exit 1; }
    sleep 0.2
done
[ -n "$HTTP_ADDR" ] || { echo "ingest serve never printed its http address"; cat "$SMOKE_DIR/serve2.log"; exit 1; }
# Keep inserting (new watch files, picked up by the 1s scan loop) while
# querying: every read must get a real 200 reply with results — never a
# 503 BUSY — even though inserts land in between.
for i in $(seq 2 13); do
    printf '1 0.%s 0.%s\n' "$((i % 10))" "$(((i + 3) % 10))" > "$SMOKE_DIR/watch2/obj$i.fvec"
    REPLY="$(http_get "/search?id=0&k=2&mode=filter")"
    echo "$REPLY" | head -n 1 | grep -q " 200 " \
        || { echo "read $i during ingest was not 200 (stalled or BUSY?):"; echo "$REPLY" | head -n 3; exit 1; }
    echo "$REPLY" | grep -q '"results":\[{"id":' \
        || { echo "read $i during ingest returned no results:"; echo "$REPLY" | head -n 3; exit 1; }
    sleep 0.3
done
# Wait for the scan loop to ingest all 14 objects.
for _ in $(seq 1 60); do
    http_get /stat | grep -q '"objects":14,' && break
    sleep 0.5
done
http_get /stat | grep -q '"objects":14,' \
    || { echo "serve never ingested every object:"; http_get /stat | tail -n 1; exit 1; }
# The sketch-block gauge is live on /metrics, and the reads above
# ranked, so the skipped-solve counter has a sample.
METRICS="$(http_get /metrics)"
for series in ferret_sketch_block_bytes ferret_rank_solves_skipped_total; do
    echo "$METRICS" | grep -q "^$series" \
        || { echo "/metrics missing $series:"; echo "$METRICS" | grep '^ferret_' | head -n 20; exit 1; }
done
kill "$SERVE_PID" 2>/dev/null || true
echo "ingest smoke OK: reads never blocked"

echo "CI OK"

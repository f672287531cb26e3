#!/usr/bin/env sh
# Tier-1 gate: everything must pass offline (the workspace has no
# external crate dependencies). Mirrors .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")/.."

# Staleness guard: gates below invoke release binaries directly, so a
# binary older than any source or manifest must be rebuilt first —
# smoking stale bits would green-light code that no longer exists.
ensure_fresh() {
    bin="target/release/$1"
    pkg="$2"
    if [ ! -x "$bin" ] || [ -n "$(find crates Cargo.toml \
            \( -name '*.rs' -o -name 'Cargo.toml' \) \
            -newer "$bin" -print -quit)" ]; then
        echo "==> $bin missing or stale; rebuilding $pkg"
        cargo build --release -p "$pkg"
    fi
}

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> engine cache-consistency (memoized engine vs direct theorems)"
cargo test -p disparity-core --release --test engine_consistency -q

echo "==> benchgate (pairwise_engine vs committed baseline + the cached<=15% proof)"
ensure_fresh benchgate disparity-bench
rm -f target/bench-engine.json
# Bench binaries run from the package directory, so the report path must
# be absolute (see scripts/perf_snapshot.sh). The bench itself asserts
# bit-identical cached and uncached reports before timing either.
DISPARITY_BENCH_FULL=1 DISPARITY_BENCH_JSON="$(pwd)/target/bench-engine.json" \
    cargo bench -p disparity-bench --bench pairwise_engine
test -s target/bench-engine.json
grep -q 'pairwise_engine/sink_analysis/cached' target/bench-engine.json
grep -q 'pairwise_engine/sink_analysis/uncached' target/bench-engine.json
./target/release/benchgate --baseline BENCH_engine_baseline.json \
    --current target/bench-engine.json --stat min --prefix bench.pairwise_engine
# The kernel's claim, re-proven on this machine's own run: the memoized
# engine analyzes the WATERS n=35 sink in at most 15% of the direct
# path's time (threshold -85% = cached must be <=15% of uncached).
./target/release/benchgate --baseline target/bench-engine.json \
    --current target/bench-engine.json --stat min --threshold-pct -85 \
    --metric "bench.pairwise_engine/sink_analysis/cached/35=bench.pairwise_engine/sink_analysis/uncached/35"

echo "==> benchgate (obs_overhead + service_requests vs committed baselines)"
ensure_fresh benchgate disparity-bench
rm -f target/bench-current.json
# Full-budget runs so the per-iteration minimum is a steady statistic;
# the gate compares min (not mean) because a fresh run on a busy machine
# inflates the tail, while a real regression raises every iteration.
DISPARITY_BENCH_FULL=1 DISPARITY_BENCH_JSON="$(pwd)/target/bench-current.json" \
    cargo bench -p disparity-bench --bench obs_overhead
DISPARITY_BENCH_FULL=1 DISPARITY_BENCH_JSON="$(pwd)/target/bench-current.json" \
    cargo bench -p disparity-bench --bench service_requests
./target/release/benchgate --baseline BENCH_obs_baseline.json \
    --current target/bench-current.json --stat min --floor-ns 50 --prefix bench.obs
./target/release/benchgate --baseline BENCH_service_baseline.json \
    --current target/bench-current.json --stat min --prefix bench.service_requests

echo "==> telemetry overhead proof (<5% on the warm serving path, committed baselines)"
./target/release/benchgate --baseline BENCH_service_baseline.json \
    --current BENCH_telemetry_baseline.json --threshold-pct 5 \
    --metric "bench.service_requests/disparity/warm_cache_live=bench.service_requests/disparity/warm_cache" \
    --metric "bench.service_requests/overhead/ping_live=bench.service_requests/overhead/ping"

echo "==> delta re-analysis gate (incremental == cold after every random edit)"
cargo test -p disparity-core --release --test delta_consistency -q
cargo test -p disparity-service --release --test patch_identity -q

echo "==> benchgate (delta_requests vs committed baseline + the >=10x warm-patch proof)"
rm -f target/bench-current-delta.json
DISPARITY_BENCH_FULL=1 DISPARITY_BENCH_JSON="$(pwd)/target/bench-current-delta.json" \
    cargo bench -p disparity-bench --bench delta_requests
./target/release/benchgate --baseline BENCH_delta_baseline.json \
    --current target/bench-current-delta.json --stat min --prefix bench.delta_requests
# The headline claim, re-proven on this machine's own run: a warm
# single-field edit served via `patch` is at least 10x cheaper than the
# cold pipeline (threshold -90% = current must be <=10% of the base).
./target/release/benchgate --baseline target/bench-current-delta.json \
    --current target/bench-current-delta.json --stat min --threshold-pct -90 \
    --metric "bench.delta_requests/patch/patch_warm=bench.delta_requests/patch/cold_pipeline"

echo "==> optimizer gate (B&B == exhaustive, beam >= greedy, certified plans, D007 cross-check)"
cargo test -p disparity-opt --release -q
cargo test -p disparity-service --release --test optimize_identity -q

echo "==> benchgate (opt_search vs committed baseline + the >=5x delta-scoring proof)"
rm -f target/bench-current-opt.json
DISPARITY_BENCH_FULL=1 DISPARITY_BENCH_JSON="$(pwd)/target/bench-current-opt.json" \
    cargo bench -p disparity-bench --bench opt_search
./target/release/benchgate --baseline BENCH_opt_baseline.json \
    --current target/bench-current-opt.json --stat min --prefix bench.opt_search
# The optimizer's headline claim, re-proven on this machine's own run:
# scoring a candidate buffer assignment through the incremental engine
# is at least 5x cheaper than cold re-analysis (threshold -80% = the
# delta score must come in at <=20% of the cold score).
./target/release/benchgate --baseline target/bench-current-opt.json \
    --current target/bench-current-opt.json --stat min --threshold-pct -80 \
    --metric "bench.opt_search/score/delta_scored=bench.opt_search/score/cold_scored"

echo "==> srclint gate (workspace source lint, committed allowlist)"
ensure_fresh srclint disparity-analyzer
./target/release/srclint

echo "==> conc gate (model checker litmus + queue/cache/flight harnesses)"
# Bounded-exhaustive interleaving exploration at the committed config
# sizes, seeded random passes beyond that budget, and the mutation
# corpus replayed byte-for-byte. The `model` feature swaps conc::sync's
# std re-exports for instrumented primitives; normal builds are
# untouched (the benchgate steps above prove the shim costs nothing).
cargo test -p disparity-conc --release --features model -q
cargo test -p disparity-obs --release --features model --test conc_flight -q
cargo test -p disparity-service --release --features model --test conc_model -q
cargo clippy -p disparity-conc -p disparity-obs -p disparity-service \
    --features model --all-targets -- -D warnings

echo "==> diag smoke (D0xx diagnostics, known-clean WATERS spec, deny errors)"
ensure_fresh diag disparity-analyzer
./target/release/diag specs/waters_clean.json --deny-lints

echo "==> rustdoc gate (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> soak smoke (fault-injection soundness sweep, quick profile, obs recording)"
ensure_fresh soak disparity-experiments
./target/release/soak --quick \
    --trace-out target/obs-trace.json --metrics-out target/obs-metrics.json

echo "==> obs smoke (trace + metrics emitted and non-empty)"
test -s target/obs-trace.json
test -s target/obs-metrics.json
grep -q '"disparity-obs/trace-v1"' target/obs-trace.json
grep -q '"disparity-obs/metrics-v1"' target/obs-metrics.json

echo "==> service smoke (serve + loadgen burst: cache hits, overload path, clean drain)"
ensure_fresh serve disparity-service
ensure_fresh loadgen disparity-experiments
rm -rf target/service-load.json target/service-metrics.json \
    target/service-latency-series.ndjson target/postmortems-service
# Small worker pool and queue so the overload probe reliably bounces.
./target/release/serve --addr 127.0.0.1:7414 --workers 2 --queue 4 \
    --obs --metrics-out target/service-metrics.json \
    --metrics-interval-ms 50 --postmortem-dir target/postmortems-service &
SERVE_PID=$!
# The daemon binds before printing; give it a moment, then let loadgen's
# own retry-free connect be the readiness check.
tries=0
until ./target/release/loadgen --addr 127.0.0.1:7414 \
        --spec specs/waters_clean.json --requests 1 --connections 1 \
        >/dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 25 ]; then
        echo "tier1: serve did not come up on 127.0.0.1:7414" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.2
done
./target/release/loadgen --addr 127.0.0.1:7414 \
    --spec specs/waters_clean.json --requests 40 --connections 4 \
    --require-cache-hit --probe-overload 20 --dump --shutdown \
    --latency-series target/service-latency-series.ndjson \
    --out target/service-load.json
wait "$SERVE_PID"
test -s target/service-load.json
test -s target/service-metrics.json
grep -q '"disparity-obs/metrics-v1"' target/service-metrics.json
grep -q 'service.cache' target/service-metrics.json
# Live-telemetry artifacts: the windowed latency timeline and the
# flight-recorder postmortem the `dump` op wrote.
test -s target/service-latency-series.ndjson
grep -q '"window"' target/service-latency-series.ndjson
grep -q '"disparity-obs/postmortem-v1"' target/postmortems-service/postmortem-*.ndjson

echo "==> edit-replay smoke (patch op: seeded edits, byte-identical, memo hits)"
rm -f target/edit-replay.json
./target/release/serve --addr 127.0.0.1:7415 --workers 2 --queue 16 &
SERVE_PID=$!
tries=0
until ./target/release/loadgen --addr 127.0.0.1:7415 \
        --spec specs/waters_clean.json --requests 1 --connections 1 \
        >/dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 25 ]; then
        echo "tier1: serve did not come up on 127.0.0.1:7415" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.2
done
./target/release/loadgen --addr 127.0.0.1:7415 \
    --spec specs/waters_clean.json --requests 24 --edit-replay --shutdown \
    --out target/edit-replay.json
wait "$SERVE_PID"
test -s target/edit-replay.json
grep -q '"passed": *true' target/edit-replay.json

echo "==> optimize-replay smoke (optimize op: by-base plans, byte-identical, delta-scored)"
# perception.json, not waters_clean.json: the WATERS spec has no useful
# buffer candidates (every midpoint gap is below a source period), so
# its plans are all no-ops and the scored-states assertion would trip.
rm -f target/optimize-replay.json
./target/release/serve --addr 127.0.0.1:7417 --workers 2 --queue 16 &
SERVE_PID=$!
tries=0
until ./target/release/loadgen --addr 127.0.0.1:7417 \
        --spec specs/perception.json --requests 1 --connections 1 \
        >/dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 25 ]; then
        echo "tier1: serve did not come up on 127.0.0.1:7417" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.2
done
./target/release/loadgen --addr 127.0.0.1:7417 \
    --spec specs/perception.json --requests 10 --optimize-replay --shutdown \
    --out target/optimize-replay.json
wait "$SERVE_PID"
test -s target/optimize-replay.json
grep -q '"passed": *true' target/optimize-replay.json

echo "==> pareto artifact (optctl budget sweep, frontier CSV written)"
ensure_fresh optctl disparity-experiments
rm -rf target/pareto-results
mkdir -p target/pareto-results
./target/release/optctl --systems 2 --budgets 0,2 --out target/pareto-results
test -s target/pareto-results/pareto.csv

echo "==> protocol fuzz smoke (10k seeded mutations + corpus replay)"
cargo test -p disparity-service --release --test proto_fuzz -q

echo "==> chaos smoke (chaosproxy + retrying loadgen, every fault kind once)"
ensure_fresh chaosproxy disparity-experiments
rm -rf target/chaos-*.json target/chaos-*-series.ndjson target/postmortems-chaos
./target/release/serve --addr 127.0.0.1:7416 --workers 2 --queue 16 \
    --metrics-interval-ms 50 --postmortem-dir target/postmortems-chaos &
CHAOS_SERVE_PID=$!
tries=0
until ./target/release/loadgen --addr 127.0.0.1:7416 \
        --spec specs/waters_clean.json --requests 1 --connections 1 \
        >/dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 25 ]; then
        echo "tier1: serve did not come up on 127.0.0.1:7416" >&2
        kill "$CHAOS_SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.2
done
port=7420
for kind in none delay split garbage truncate reset; do
    ./target/release/chaosproxy --listen "127.0.0.1:$port" \
        --upstream 127.0.0.1:7416 --kind "$kind" --seed 7 \
        > "target/chaosproxy-$kind.log" &
    PROXY_PID=$!
    tries=0
    until grep -q 'listening on' "target/chaosproxy-$kind.log"; do
        tries=$((tries + 1))
        if [ "$tries" -ge 25 ]; then
            echo "tier1: chaosproxy ($kind) did not come up" >&2
            kill "$PROXY_PID" "$CHAOS_SERVE_PID" 2>/dev/null || true
            exit 1
        fi
        sleep 0.2
    done
    # Distinct --soak-tag per kind -> distinct poison spec, so the
    # quarantine-after-two gate re-proves itself under every fault kind.
    if ! ./target/release/loadgen --addr "127.0.0.1:$port" \
            --spec specs/waters_clean.json --requests 24 --connections 3 \
            --chaos-soak --retries 6 --backoff-ms 5 --soak-tag "$kind" \
            --direct-addr 127.0.0.1:7416 --out "target/chaos-$kind.json" \
            --latency-series "target/chaos-$kind-series.ndjson"; then
        echo "tier1: chaos soak failed under kind '$kind'" >&2
        kill "$PROXY_PID" "$CHAOS_SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    kill "$PROXY_PID" 2>/dev/null || true
    wait "$PROXY_PID" 2>/dev/null || true
    test -s "target/chaos-$kind.json"
    grep -q '"passed": *true' "target/chaos-$kind.json"
    test -s "target/chaos-$kind-series.ndjson"
    port=$((port + 1))
done
./target/release/loadgen --addr 127.0.0.1:7416 \
    --spec specs/waters_clean.json --requests 1 --connections 1 \
    --shutdown >/dev/null
wait "$CHAOS_SERVE_PID"
# Every kind's quarantine probe panicked a worker twice: the flight
# recorder must have written panic + quarantine postmortems.
grep -ql '"reason":"panic"' target/postmortems-chaos/postmortem-*.ndjson
grep -ql '"reason":"quarantine"' target/postmortems-chaos/postmortem-*.ndjson

echo "tier1: all gates passed"

#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
#
#   ./ci.sh              run the full gate
#   ./ci.sh bench-smoke  run the olap + parallel (join) benches with a small
#                        sample size and write BENCH_olap.json — the
#                        machine-readable perf trajectory CI archives
#   ./ci.sh bench-check  measure a fresh bench-smoke, compare its means
#                        against the committed BENCH_olap.json baselines
#                        and fail on a >30% mean regression in any olap/*
#                        or parallel/* bench (always re-measures, so a
#                        stale working-tree summary can never gate)
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "bench-smoke" ]]; then
    echo "==> bench smoke: olap + parallel benches, ${EIDER_BENCH_SAMPLES:=3} samples"
    export EIDER_BENCH_SAMPLES
    export EIDER_BENCH_JSON="$PWD/BENCH_olap.json"
    # No rm: the summary merges by bench name, so recorded baseline-*
    # entries survive while re-measured benches replace their own rows.
    cargo bench -p eider-bench --bench olap
    cargo bench -p eider-bench --bench parallel
    cargo bench -p eider-bench --bench multi_session
    echo "==> wrote $EIDER_BENCH_JSON"
    exit 0
fi

if [[ "${1:-}" == "bench-check" ]]; then
    baseline="$(mktemp --suffix=.json)"
    trap 'rm -f "$baseline"' EXIT
    git show HEAD:BENCH_olap.json > "$baseline"
    # Always measure: gating a BENCH_olap.json left over from before the
    # current change would wave regressions through.
    ./ci.sh bench-smoke
    echo "==> bench check: fresh means vs committed baselines (gate: +30%)"
    cargo run --release -q -p eider-bench --bin bench_check -- \
        "$baseline" BENCH_olap.json --threshold 0.30
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> serial/parallel equivalence: integration suites at 1, 4 and 8 workers"
# EIDER_THREADS pins the default worker cap, so every query in these
# suites (not just the ones that set PRAGMA threads) runs serial once and
# morsel-parallel twice, on any host including 1-core CI runners.
EIDER_THREADS=1 cargo test -q --test parallel_execution --test sql_integration
EIDER_THREADS=4 cargo test -q --test parallel_execution --test sql_integration
EIDER_THREADS=8 cargo test -q --test parallel_execution --test sql_integration

echo "==> multi-session concurrency harness at 1, 2, 4 and 8 workers"
# The deterministic session storm: N concurrent connections must observe
# bit-identical results vs a serial replay at every fleet size.
EIDER_THREADS=1 cargo test -q --test multi_session
EIDER_THREADS=2 cargo test -q --test multi_session
EIDER_THREADS=4 cargo test -q --test multi_session
EIDER_THREADS=8 cargo test -q --test multi_session

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> repo benchmark smoke test (every workload's oracle at tiny sizes)"
# The benchmark is its own workspace under perfbench/; an engine change
# that breaks a workload's oracle fails here, not in a benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test --doc --workspace (doc examples execute, incl. docs/EMBEDDING.md)"
cargo test --doc --workspace -q

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo bench --workspace --no-run (benches must compile)"
cargo bench --workspace --no-run

echo "CI gate passed."

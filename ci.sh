#!/usr/bin/env bash
# Offline CI for the workspace: format, lint, build, test, and a smoke run
# of the Table 1 benchmark at a small scale. No network access required —
# the workspace has zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo doc (warning-free)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> trace sessions under parallel test threads (20 consecutive runs)"
# tests/trace.rs opens overlapping sessions from cargo's parallel test
# threads while sibling tests run untraced queries; sessions are values
# that see only the threads bound to them (DESIGN.md §9.1), so every run
# must be green — the first red one fails CI.
for run in $(seq 1 20); do
    cargo test -q --test trace >/dev/null 2>&1 || {
        echo "tests/trace.rs failed on run $run of 20" >&2
        exit 1
    }
done

echo "==> static lint (catalog x 7 strategies: schema linter + plan verifier)"
# S0xx schema diagnostics and P0xx plan diagnostics over the whole catalog;
# exits non-zero on any diagnostic.
cargo run -q --release -p colorist-workload --bin colorist-lint

echo "==> oracle smoke (256 seeds, all seven strategies)"
# Differential-testing oracle: random diagrams, shared canonical instance,
# randomized pattern workload, pairwise answer equivalence. Bounded well
# under a minute; exits non-zero on any divergence.
cargo run -q --release -p colorist-workload --bin colorist-oracle -- --seeds 256

echo "==> paged-backend oracle (64 seeds, in-memory page store)"
# The same answer-equivalence sweep with every database attached to the
# paged storage backend (DESIGN.md §14): answers and all pre-existing
# deterministic counters must stay byte-identical; only the page counters
# may differ from zero. Uses the in-memory page store so CI leaves no
# files behind.
cargo run -q --release -p colorist-workload --bin colorist-oracle -- \
    --seeds 64 --backend paged-mem

echo "==> batch oracle (128 seeds: atomic batches, snapshot reads, traced)"
# Replays randomized update batches (attribute writes + delete-closed
# deletes) under all seven strategies: snapshot answers must match the
# pre-batch serial run, indexed kernels must match reference, and all
# strategies must agree both mid-batch and post-batch. The emitted trace
# is shape-validated so the batch/snapshot span categories stay within
# the perfgate vocabulary.
cargo run -q --release -p colorist-workload --bin colorist-oracle -- \
    --batch-seeds 128 --trace results/trace_batch_ci.json
cargo run -q --release -p colorist-bench --bin colorist-perfgate -- \
    --validate-trace results/trace_batch_ci.json
rm -f results/trace_batch_ci.json

echo "==> file-backed batch oracle (32 seeds, FilePages backend)"
# The randomized delete-closed batch sweep again, but with every database
# flushed to real temp files through the FilePages backend — catching
# file-backed flush bugs (torn segment writes, stale directory entries)
# that the in-memory page store cannot exhibit. Temp files are unlinked
# on drop, so CI leaves nothing behind.
cargo run -q --release -p colorist-workload --bin colorist-oracle -- \
    --batch-seeds 32 --backend paged

echo "==> independence oracle (128 seeds: B002-B004 effect analysis, traced)"
# Certifies one random batch pair per seed under all seven strategies
# (B003), commits certified-independent pairs in both orders asserting
# byte-identical final databases, shadow-tracked footprint containment
# (B002), snapshot-safety of read-disjoint plans (B004), and
# scheduler/serial agreement; grades certified-conflicting pairs for
# genuine dynamic witnesses. The trace carries the new `effect` spans,
# shape-validated against the perfgate vocabulary.
cargo run -q --release -p colorist-workload --bin colorist-oracle -- \
    --independence-seeds 128 --trace results/trace_independence_ci.json
cargo run -q --release -p colorist-bench --bin colorist-perfgate -- \
    --validate-trace results/trace_independence_ci.json
rm -f results/trace_independence_ci.json

echo "==> delete/batch torture (release): snapshot isolation under concurrent commit"
# tests/deletes.rs: delete-then-query differentials across kernel
# dispatches, DEEP/UNDR copy-delete regression, and concurrent snapshot
# readers racing a committing batch. Runs in the debug suite above too;
# the release rerun exercises the race without debug_assert pacing.
cargo test -q --release --test deletes

echo "==> server torture (release): admission groups, plan cache, reader under a fast writer"
# tests/server.rs: the 1/2/8-worker serial-oracle torture with its
# group-cut and final-epoch assertions, the plan-cache invalidation rule,
# and a closed-loop reader racing a writer that commits as fast as it can.
# The debug suite above runs them too; at release speed the writer is two
# orders of magnitude faster, which is the regime the race is about.
cargo test -q --release --test server

echo "==> table1 bench (COLORIST_SCALE=300, traced)"
# Full-scale run with span collection: the summary feeds the perf gate, the
# chrome-trace JSON is validated for shape (hierarchy, ids, thread nesting).
COLORIST_SCALE=300 COLORIST_SEED=42 \
    COLORIST_SUMMARY="results/bench_summary_ci.json" \
    cargo run -q --release -p colorist-bench --bin table1 -- \
    --trace results/trace_ci.json >/dev/null
test -s results/bench_summary_ci.json

echo "==> perfgate: validate emitted trace"
cargo run -q --release -p colorist-bench --bin colorist-perfgate -- \
    --validate-trace results/trace_ci.json

echo "==> perfgate: diff against committed baseline + optimizer-quality gate"
# Deterministic operation counts must match the committed baseline exactly
# (any growth hard-fails); wall-clock is not gated here at all — CI
# hardware is shared and noisy, and BENCHMARK.json is the authority for
# time. The same diff enforces the optimizer-quality gate on both
# documents: no query's cost-based gate sum may exceed its heuristic
# twin's, and estimate-vs-measured drift must stay within the committed
# q-error budget.
cargo run -q --release -p colorist-bench --bin colorist-perfgate -- \
    --baseline results/bench_baseline.json \
    --current results/bench_summary_ci.json \
    --q-error-budget 8.0
rm -f results/bench_summary_ci.json results/trace_ci.json

echo "==> table1 bench, paged backend (scale 300, two pool budgets)"
# The same suite through the paged storage backend (in-memory page store),
# once at the default 16 MiB pool and once starved at 64 KiB (8 frames,
# forcing heavy clock eviction on every query). The page
# counters (page_reads/page_writes/pool_hits/pool_evictions) are
# deterministic for a given scale, seed and pool budget, so the perfgate
# exact-matches them against the committed per-budget baselines — any
# drift in eviction or fault behavior hard-fails.
for pool in 16777216 65536; do
    baseline="results/bench_baseline_paged_${pool}.json"
    COLORIST_SCALE=300 COLORIST_SEED=42 \
        COLORIST_SUMMARY="results/bench_summary_paged_ci.json" \
        cargo run -q --release -p colorist-bench --bin table1 -- \
        --backend paged-mem --pool-bytes "$pool" >/dev/null
    test -s results/bench_summary_paged_ci.json
    cargo run -q --release -p colorist-bench --bin colorist-perfgate -- \
        --baseline "$baseline" \
        --current results/bench_summary_paged_ci.json \
        --q-error-budget 8.0
    rm -f results/bench_summary_paged_ci.json
done

echo "==> server smoke: colorist-scale (scale-300-sized point, traced + gated)"
# Small concurrent run of the multi-client query service (DESIGN.md §15):
# 2 workers, 2 client threads, round-structured read-heavy mix at the
# 10k-element point (the same order of magnitude as the scale-300 table1
# suite). The emitted trace is shape-validated (the `server` span
# category with its queue-wait/plan-cache counters), and the scale
# document is diffed against the committed baseline: identity fields
# (element counts, request counts, answer checksums, final epochs) and
# plan-cache counters exactly; throughput, latency and the per-round
# `write_burst_us` are not gated. The
# validated trace is also the proof that server workers inherit the
# session current at `Server::start`: every `server` span in it was
# recorded on a worker thread. Worker counts are pinned because `workers` is comparability
# metadata — counters are deterministic for ANY worker count (the
# torture test in tests/server.rs pins that), but two documents must
# describe the same configuration to be diffable.
COLORIST_SEED=42 \
    cargo run -q --release -p colorist-bench --bin colorist-scale -- \
    --scales 1000,10000 --workers 2 --clients 2 --rounds 2 \
    --speedup-scale 0 --out results/bench_scale_ci.json \
    --trace results/trace_scale_ci.json >/dev/null
cargo run -q --release -p colorist-bench --bin colorist-perfgate -- \
    --validate-trace results/trace_scale_ci.json
cargo run -q --release -p colorist-bench --bin colorist-perfgate -- --scale \
    --baseline results/bench_scale_baseline.json \
    --current results/bench_scale_ci.json
rm -f results/bench_scale_ci.json results/trace_scale_ci.json

echo "==> ci.sh: all checks passed"

#!/usr/bin/env bash
# Offline CI for the workspace: format, lint, build, test, and a smoke run
# of the Table 1 benchmark at a small scale. No network access required —
# the workspace has zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

# Every table, figure and tool is a subcommand of the one `colorist` binary.
colorist() { cargo run -q --release -p colorist-bench --bin colorist -- "$@"; }

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> no cargo features: one build configuration"
# Every setting nothing sets to a second value is a constant, and checking
# code always runs: no workspace Cargo.toml declares a [features] table and
# no source tests a feature, so the one build CI compiles is the one it runs.
if grep -nE '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
    echo "a workspace Cargo.toml declares cargo features (see above)" >&2
    exit 1
fi
if grep -rnE '\bcfg(_attr)?!?\(([^)]*[(, ])?feature *=' crates/ src/ tests/ examples/; then
    echo "feature-gated code (see above)" >&2
    exit 1
fi

echo "==> store read boundary: no store internals outside crates/store"
# Queries read through the store's read interface (`colorist_store::read`:
# `Reader`, `OccSet` and the cost estimators); the trees, postings, join
# kernels, the kernel-dispatch pin and the page accounting stay
# crate-private (DESIGN.md §10a). Any production mention of them outside
# the store fails the step, so the boundary cannot erode silently.
internals='\b(ColorTree|Occurrence|IndexEntry|ValueIndex|kmerge_sorted|value_join|attr_key|attr_value|AttrRef|Axis|SemiSide|gallop_cost_wins|GALLOP_RATIO|structural_(semi_)?join(_merge|_gallop)?)\b|\breference_kernels\(|\.touch_'
if grep -rnE "$internals" crates/{query,datagen,server,workload}/src crates/bench/src src examples; then
    echo "store internals named outside crates/store (see above)" >&2
    exit 1
fi

echo "==> storage layout boundary: SegId only in crates/store/src/storage.rs"
# A paged flush finds the segments that changed by diffing the database
# against the image its directory version holds (DESIGN.md §14.3), so no
# mutator marks a segment and no module outside the storage layer names
# the page file's segment layout.
if grep -rnw --include='*.rs' SegId crates src tests examples benchmark/src \
    | grep -v '^crates/store/src/storage\.rs:'; then
    echo "SegId named outside crates/store/src/storage.rs (see above)" >&2
    exit 1
fi

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
colorist lint

echo "==> oracle smoke (256 seeds, all seven strategies)"
# Differential-testing oracle: random diagrams, shared canonical instance,
# randomized pattern workload, pairwise answer equivalence. Bounded well
# under a minute; exits non-zero on any divergence.
colorist oracle --seeds 256

echo "==> paged-backend oracle (64 seeds, in-memory page store)"
# The same answer-equivalence sweep with every database attached to the
# paged storage backend (DESIGN.md §14): answers and all pre-existing
# deterministic counters must stay byte-identical; only the page counters
# may differ from zero. Uses the in-memory page store so CI leaves no
# files behind.
colorist oracle --seeds 64 --backend paged-mem

echo "==> batch oracle (128 seeds: atomic batches, snapshot reads, B002, traced)"
# Replays randomized update batches (attribute writes + delete-closed
# deletes) under all seven strategies: snapshot answers must match the
# pre-batch serial run, indexed kernels must match reference, all
# strategies must agree both mid-batch and post-batch, and every commit
# must touch only keys inside its static effect footprint (B002, checked
# in this release build through `apply_verified`). The emitted trace is
# shape-validated so the batch/snapshot/effect span categories stay within
# the perfgate vocabulary.
colorist oracle --batch-seeds 128 --trace results/trace_batch_ci.json
colorist gate --validate-trace results/trace_batch_ci.json
rm -f results/trace_batch_ci.json

echo "==> file-backed batch oracle (32 seeds, FilePages backend)"
# The randomized delete-closed batch sweep again, but with every database
# flushed to real temp files through the FilePages backend — catching
# file-backed flush bugs (torn segment writes, stale directory entries)
# that the in-memory page store cannot exhibit. Temp files are unlinked
# on drop, so CI leaves nothing behind.
colorist oracle --batch-seeds 32 --backend paged

echo "==> page-granular flush (release): crash points, torn pages, file bound, forked clones"
# tests/storage.rs: an I/O error injected at every mutating backend call of
# a four-write group commit (on FilePages and MemPages) must leave the
# previous epoch in memory and on disk and lose no free page; torn pages
# load as typed errors; 1,000 group commits keep the page file within 4x a
# fresh save; forked clones never overwrite each other's pages. The debug
# suite above runs them too; release runs the sweep at flush speed.
cargo test -q --release --test storage

echo "==> delete/batch torture (release): snapshot isolation under concurrent commit"
# tests/deletes.rs: delete-then-query differentials across kernel
# dispatches, DEEP/UNDR copy-delete regression, and concurrent snapshot
# readers racing a committing batch. Runs in the debug suite above too;
# the release rerun exercises the race without debug_assert pacing.
cargo test -q --release --test deletes

echo "==> structural maintenance (release): incremental splice ≡ a from-scratch relabel, B002 over U1-U3"
# tests/incremental.rs: U1/U3, deletes and a mixed structural batch on all
# seven strategies under both kernel families, each step checked against
# the full DFS relabel and hash index rebuild it replaced, a paged save/load
# round trip, a pinned pre-write snapshot and per-color sharing. Then B002
# over the Table 1 updates: U1-U3 and a customer delete, each lowered to
# its one batch and committed through `apply_verified`, must touch only
# keys inside the batch's static footprint and land on the state
# `execute_update` leaves. The debug suite above runs both too (every debug
# commit checks B002); release runs them at the speed the benchmark sees,
# with debug assertions off, so here `apply_verified` is the only B002 check.
cargo test -q --release --test incremental

echo "==> columnar element store (release): columns ≡ a row store"
# tests/columns.rs: build, U1-U3, a delete, a mixed batch (a number into a
# text column, text into a numeric one) and a paged save/load round trip on
# all seven strategies under both kernel families, the elements() view
# checked against a row-store reference after every step, plus the
# one-chunk-of-one-column copy-on-write rule for a one-cell write.
cargo test -q --release --test columns

echo "==> server torture (release): admission groups, plan cache, reader under a fast writer"
# tests/server.rs: the 1/2/8-worker serial-oracle torture with its
# group-cut and one-epoch-per-group assertions, the plan-cache rule,
# and a closed-loop reader racing a writer that commits as fast as it can.
# The debug suite above runs them too; at release speed the writer is two
# orders of magnitude faster, which is the regime the race is about.
cargo test -q --release --test server

echo "==> explain smoke (scale 300, TPC-W, all seven strategies)"
# EXPLAIN ANALYZE is the interactive caller of the cost annotation
# (DESIGN.md §11): every read on every strategy is compiled, annotated
# from exact index counts, executed and printed. Fails on a non-zero exit.
colorist explain --scale 300 >/dev/null

echo "==> committed figures: every count-only output equals its results/ file"
# Figures 8, 9, 10, 12, 13 and 14, the collection summary, and Table 1's
# storage block and results column are counts, a function of the code and
# the default seed and scale alone, so each must equal the committed file:
# a change that moves one regenerates it in the same commit. Timings
# (Table 1's per-schema columns, Figure 11) are not compared.
stale() { echo "results/$1 differs from this build's output (see above)" >&2; exit 1; }
for fig in fig8 fig9 fig10 fig12 fig13 fig14; do
    colorist "$fig" | diff -u "results/$fig.txt" - || stale "$fig.txt"
done
colorist collection | diff -u results/collection_summary.txt - || stale collection_summary.txt
# the storage block whole, then each query's name and result count
table1_counts() { awk '/^query/ { q = 1 } q && NF == 0 { exit } { print q ? $1 " " $2 : $0 }'; }
colorist table1 --out results/bench_summary_figures_ci.json | table1_counts \
    | diff -u <(table1_counts < results/table1.txt) - || stale table1.txt
rm -f results/bench_summary_figures_ci.json

echo "==> table1 bench (scale 300, traced)"
# Full-scale run with span collection: the summary feeds the perf gate, the
# chrome-trace JSON is validated for shape (hierarchy, ids, thread nesting).
colorist table1 --scale 300 --seed 42 \
    --out results/bench_summary_ci.json --trace results/trace_ci.json >/dev/null
test -s results/bench_summary_ci.json

echo "==> perfgate: validate emitted trace"
colorist gate --validate-trace results/trace_ci.json

echo "==> perfgate: diff against committed baseline + optimizer-quality gate"
# Deterministic operation counts must match the committed baseline exactly
# (any growth hard-fails); wall-clock is not gated here at all — CI
# hardware is shared and noisy, and BENCHMARK.json is the authority for
# time. The same diff enforces the optimizer-quality gate on both
# documents: no query's gate sum may exceed its ratio-dispatch twin's,
# and estimate-vs-measured drift must stay within the gate's constant
# q-error budget of 8.0. Predicate estimates are exact counts read from the
# value index, so the budget bounds the join estimates only.
colorist gate --baseline results/bench_baseline.json \
    --current results/bench_summary_ci.json
rm -f results/bench_summary_ci.json results/trace_ci.json

echo "==> table1 bench at --threads 1 and 4: worker count moves no gated number"
# The parallel suite runner fills per-task result slots, so every count,
# checksum and estimate is identical for any worker count; only timings
# move. Both summaries must pass the same committed baseline.
for threads in 1 4; do
    colorist table1 --scale 300 --seed 42 --threads "$threads" \
        --out "results/bench_summary_threads_ci.json" >/dev/null
    colorist gate --baseline results/bench_baseline.json \
        --current results/bench_summary_threads_ci.json
    rm -f results/bench_summary_threads_ci.json
done

echo "==> table1 bench, paged backend (scale 300, two pool budgets)"
# The same suite through the paged storage backend (in-memory page store),
# once at the default 16 MiB pool and once starved at 64 KiB (8 frames,
# forcing heavy clock eviction on every query). The page
# counters (page_reads/page_writes/pool_hits/pool_evictions) are
# deterministic for a given scale, seed and pool budget, so the perfgate
# exact-matches them against the committed per-budget baselines — any
# drift in eviction or fault behavior hard-fails.
for pool in 16777216 65536; do
    colorist table1 --scale 300 --seed 42 --backend paged-mem --pool-bytes "$pool" \
        --out results/bench_summary_paged_ci.json >/dev/null
    test -s results/bench_summary_paged_ci.json
    colorist gate --baseline "results/bench_baseline_paged_${pool}.json" \
        --current results/bench_summary_paged_ci.json
    rm -f results/bench_summary_paged_ci.json
done

echo "==> table1 bench, file-backed paged backend (scale 300, 64 KiB pool)"
# The starved run again on a real page file (FilePages), so every query's
# misses fault through the shared page cache from disk, each page read
# checked against its directory checksum. `paged` and `paged-mem` are one
# comparability class in the perfgate: the page counters must equal the
# committed in-memory baseline exactly.
colorist table1 --scale 300 --seed 42 --backend paged --pool-bytes 65536 \
    --out results/bench_summary_paged_file_ci.json >/dev/null
colorist gate --baseline results/bench_baseline_paged_65536.json \
    --current results/bench_summary_paged_file_ci.json
rm -f results/bench_summary_paged_file_ci.json

echo "==> server smoke: colorist scale (scale-300-sized point, traced + gated)"
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
colorist scale --seed 42 --scales 1000,10000 --workers 2 --clients 2 --rounds 2 \
    --speedup-scale 0 --out results/bench_scale_ci.json \
    --trace results/trace_scale_ci.json >/dev/null
colorist gate --validate-trace results/trace_scale_ci.json
colorist gate --scale --baseline results/bench_scale_baseline.json \
    --current results/bench_scale_ci.json
rm -f results/bench_scale_ci.json results/trace_scale_ci.json

echo "==> ci.sh: all checks passed"

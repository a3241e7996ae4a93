//! # colorist-bench — the benchmark harness
//!
//! One binary, `colorist`, regenerates every table and figure of the
//! paper's evaluation (§6), one subcommand each:
//!
//! | subcommand | regenerates |
//! |---|---|
//! | `table1` | Table 1 — storage statistics and query processing time for the 7 TPC-W schemas |
//! | `fig8` | Figure 8 — structural joins per TPC-W query |
//! | `fig9` | Figure 9 — value joins + color crossings per TPC-W query |
//! | `fig10` | Figure 10 — duplicate eliminations / duplicate updates / group-bys |
//! | `fig11` | Figure 11 — query processing time |
//! | `fig12`–`fig14` | Figures 12–14 — geometric means of the three metrics over the ER collection |
//! | `collection` | §6.2's prose numbers: 66-schema sweep, color counts, query counts |
//!
//! The same binary carries the tools around them (DESIGN.md §9, §15.7):
//! `explain` prints `EXPLAIN ANALYZE` for any catalog query × strategy,
//! `scale` runs the multi-client scale curves, `oracle` and `lint` drive
//! the differential oracle and the static linter, and `gate`
//! ([`perfgate`]) diffs two summary documents and fails on regressions.
//!
//! The shared flags are parsed once into a [`RunConfig`] that every
//! library call here takes as a value: `--scale` (default 300 TPC-W
//! customers / 150 instances per collection entity), `--seed` (default
//! 42), `--threads` (default: available parallelism), `--backend` and
//! `--pool-bytes` (the [`Storage`] every database is attached to),
//! `--trace FILE` (a chrome-trace of the whole run) and `--out FILE`.
//! Absolute sizes are far below the paper's 2.6M-element database — this
//! is an in-memory reproduction — but every reported *shape* (who wins, by
//! what rough factor, where the crossovers are) is scale-stable; see
//! EXPERIMENTS.md.
//!
//! The `benches/` directory holds micro-benchmarks (driven by the
//! dependency-free [`micro`] harness) for the primitives underlying those
//! tables: structural vs value joins, the design algorithms,
//! materialization, query evaluation, and updates.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use colorist_core::Strategy;
use colorist_datagen::{generate, ScaleProfile};
use colorist_er::{catalog, ErGraph};
use colorist_store::Storage;
use colorist_workload::{derby, suite, tpcw, xmark, SuiteResult, Workload};
use std::time::Duration;

pub mod micro;
pub mod perfgate;
pub mod summary;

pub use perfgate::{compare, compare_scale, validate_trace, GateReport};
pub use summary::{bench_summary_json, write_bench_summary, SummaryMeta, SCHEMA_VERSION};

/// One run's configuration: the `colorist` CLI's shared flags, parsed once
/// and handed to every library call as a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// TPC-W customers at scale 1; collection diagrams get half as many
    /// instances per entity (`--scale`, default 300).
    pub scale: u32,
    /// Deterministic data seed (`--seed`, default 42).
    pub seed: u64,
    /// Suite worker threads (`--threads`, default: available parallelism).
    pub threads: usize,
    /// Storage every database is attached to (`--backend`, `--pool-bytes`).
    pub storage: Storage,
    /// Where to write a chrome-trace of the run (`--trace`).
    pub trace: Option<String>,
    /// Where to write the run's document (`--out`; the subcommand picks
    /// the default).
    pub out: Option<String>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 300,
            seed: 42,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            storage: Storage::Heap,
            trace: None,
            out: None,
        }
    }
}

/// Run the TPC-W workload on all seven schemas. With `serial_baseline`
/// and more than one worker, an extra single-worker pass over the same
/// instance times the parallel-speedup figure of the JSON summary.
pub fn tpcw_suite(
    run: &RunConfig,
    serial_baseline: bool,
) -> (Workload, Vec<SuiteResult>, Option<Duration>) {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let w = tpcw::workload(&g);
    let instance = generate(&g, &ScaleProfile::tpcw(&g, run.scale), run.seed);
    let suite = |threads| {
        suite::run_suite_on(&g, &Strategy::ALL, &w, &instance, threads, run.storage)
            .expect("tpcw suite runs")
    };
    let results = suite(run.threads);
    let serial_wall = (serial_baseline && run.threads > 1)
        .then(|| suite(1).first().map_or(Duration::ZERO, |r| r.suite_wall));
    (w, results, serial_wall)
}

/// Run the appropriate workload on every diagram of the collection
/// (Figures 12–14: six strategies, UNDR excluded).
pub fn collection_suites(run: &RunConfig) -> Vec<(String, Workload, Vec<SuiteResult>)> {
    let base = (run.scale / 2).max(30);
    catalog::COLLECTION
        .iter()
        .map(|&name| {
            let g = ErGraph::from_diagram(&catalog::by_name(name).expect("catalog name"))
                .expect("diagram builds");
            let w = match name {
                "tpcw" => tpcw::workload(&g),
                "derby" => derby::workload(&g),
                _ => xmark::workload(&g),
            };
            let profile = match name {
                "tpcw" => ScaleProfile::tpcw(&g, base),
                _ => ScaleProfile::uniform(&g, base),
            };
            let instance = generate(&g, &profile, run.seed);
            let (strategies, threads) = (&Strategy::COLLECTION, run.threads);
            let results = suite::run_suite_on(&g, strategies, &w, &instance, threads, run.storage)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.to_string(), w, results)
        })
        .collect()
}

/// Print a query × strategy matrix of some metric.
pub fn print_query_matrix(
    title: &str,
    workload: &Workload,
    results: &[SuiteResult],
    cell: impl Fn(&colorist_workload::QueryRun) -> String,
) {
    println!("{title}");
    print!("{:<6}", "query");
    for r in results {
        print!("{:>9}", r.strategy.label());
    }
    println!();
    for name in workload.reported() {
        print!("{:<6}", name);
        for r in results {
            let run = r.run(name).expect("query ran");
            print!("{:>9}", cell(run));
        }
        println!();
    }
}

/// Print a diagram × strategy matrix of shifted-geometric-mean metrics over
/// the reported queries (Figures 12–14).
pub fn print_geo_matrix(
    title: &str,
    suites: &[(String, Workload, Vec<SuiteResult>)],
    metric: impl Fn(&colorist_workload::QueryRun) -> u64,
) {
    println!("{title}");
    print!("{:<8}", "diagram");
    for r in &suites[0].2 {
        print!("{:>9}", r.strategy.label());
    }
    println!();
    for (name, w, results) in suites {
        print!("{:<8}", name);
        for r in results {
            let m =
                suite::geo_mean(w.reported().iter().map(|q| metric(r.run(q).expect("query ran"))));
            print!("{:>9.2}", m);
        }
        println!();
    }
}

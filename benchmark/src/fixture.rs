//! What every workload shares: the TPC-W graph and patterns, the answer
//! oracle, the benchmark's own directories, and the process's peak memory.

use colorist_datagen::Rng;
use colorist_er::{catalog, ErGraph};
use colorist_query::{execute, optimize, Pattern, UpdateSpec};
use colorist_store::{Database, ElementId};
use colorist_workload::tpcw;
use std::path::PathBuf;

/// Seed of every generated database. `--seed` drives the request
/// schedule instead (pattern and strategy order, write targets, written
/// values): TPC-W's `country_name_1` predicates select 257..821 orders
/// depending on the data seed, which moves suite read time 2.5x between
/// seeds — far outside any bound a cross-seed spread check could hold.
pub const DATA_SEED: u64 = 42;

/// Complete set-ups timed per run; `setup_s` is their quiet decile.
pub const SETUPS: usize = 7;

/// The TPC-W diagram's graph and the paper's 13 reads + 3 updates.
pub struct Tpcw {
    pub g: ErGraph,
    pub reads: Vec<Pattern>,
    pub updates: Vec<UpdateSpec>,
}

impl Tpcw {
    pub fn new() -> Tpcw {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("the TPC-W diagram builds");
        let w = tpcw::workload(&g);
        Tpcw { g, reads: w.reads, updates: w.updates }
    }
}

/// What a read must return: physical and distinct counts plus an FNV-1a
/// digest of the sorted canonical element ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub results: u64,
    pub distinct: u64,
    pub digest: u64,
}

impl Answer {
    pub fn of(results: u64, distinct: u64, elements: &[ElementId]) -> Answer {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in elements {
            for b in e.0.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Answer { results, distinct, digest: h }
    }
}

/// Direct `optimize` + `execute` of every read: the set-up oracle the
/// served answers are held against.
pub fn oracle(db: &Database, t: &Tpcw) -> Vec<Answer> {
    t.reads
        .iter()
        .map(|q| {
            let plan = optimize(db, &t.g, q).expect("oracle plan");
            let r = execute(db, &t.g, &plan).expect("oracle run");
            Answer::of(r.results, r.distinct, &r.elements)
        })
        .collect()
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut v);
    v
}

/// The benchmark's directory: `benchmark/` seen from the repository root
/// (where the driver runs the command), else the current directory
/// (where `cargo test` and a developer inside `benchmark/` run).
pub fn bench_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(".")
    }
}

/// Page files and saved databases; emptied at start and at exit.
pub fn tmp_dir() -> PathBuf {
    bench_dir().join("tmp")
}

/// Result and trace documents.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Remove `tmp/` (leftovers of a killed run) and create it afresh.
pub fn reset_tmp() -> std::io::Result<()> {
    remove_tmp();
    std::fs::create_dir_all(tmp_dir())
}

pub fn remove_tmp() {
    let _ = std::fs::remove_dir_all(tmp_dir());
}

/// A memory line of `/proc/self/status` in MB: `VmRSS`, the resident set
/// now, or `VmHWM`, its peak. 0.0 where the file does not exist.
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line =
                s.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The measured stretches of a run as (seconds, spans on). Untraced:
/// one window of the full length. Traced: an untraced and a traced
/// stretch of a fifth each, whose difference is the tracing overhead.
pub fn stretches(seconds: f64, traced: bool) -> Vec<(f64, bool)> {
    if traced {
        vec![(0.2 * seconds, false), (0.2 * seconds, true)]
    } else {
        vec![(seconds, false)]
    }
}

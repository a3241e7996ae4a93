//! `colorist-oracle` — drive the cross-strategy answer-equivalence oracle.
//!
//! ```text
//! colorist-oracle [--seeds N] [--start S] [--scale B] [--queries K] [--threads T]
//! colorist-oracle --batch-seeds N [--start S] [--scale B] [--queries K] [--threads T]
//! colorist-oracle --independence-seeds N [--start S] [--scale B] [--queries K] [--threads T]
//! colorist-oracle --replay SEED [--scale B] [--queries K]
//! colorist-oracle --minimize SEED [--scale B] [--queries K]
//! ```
//!
//! The default mode sweeps `--seeds` consecutive seeds from `--start`,
//! printing a summary and exiting nonzero when any seed diverges (each
//! divergent seed is auto-minimized to the smallest reproducing scale).
//! `--replay` prints one seed's diagram, workload, per-strategy plans and
//! counts; `--minimize` shrinks one divergent seed. `--batch-seeds` sweeps
//! the *batch-replay* oracle instead: every seed derives one randomized
//! atomic update batch (attribute writes + a delete-closed delete set),
//! commits it half at a time under all seven strategies, and asserts
//! answer equivalence mid-batch and post-batch, snapshot immunity, and
//! indexed-vs-reference kernel agreement after the deletes.
//! `--independence-seeds` sweeps the *effect-analysis* oracle: every seed
//! derives one random pair of batches, certifies them pairwise (B003),
//! commits certified-independent pairs in both orders (asserting
//! byte-identical final databases, B002 footprint containment, B004
//! snapshot-safety of disjoint plans, and scheduler/serial agreement),
//! and grades certified-conflicting pairs for genuine dynamic witnesses.
//!
//! `--trace out.json` records a hierarchical span trace of the run (every
//! design, materialization and query, on every worker thread) in
//! chrome-trace format — open it in `chrome://tracing` or Perfetto.

use colorist_workload::oracle::{
    minimize, replay_text, run_batch_seeds, run_independence_seeds, run_seeds, OracleConfig,
};
use std::process::ExitCode;

struct Args {
    seeds: u64,
    batch_seeds: Option<u64>,
    independence_seeds: Option<u64>,
    start: u64,
    threads: usize,
    replay: Option<u64>,
    minimize: Option<u64>,
    trace: Option<String>,
    cfg: OracleConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: colorist-oracle [--seeds N | --batch-seeds N | --independence-seeds N] \
         [--start S] [--scale B] [--queries K] [--threads T] [--trace OUT.json] \
         [--backend mem|paged|paged-mem] [--pool-bytes N]\n\
         \x20      colorist-oracle --replay SEED | --minimize SEED"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 64,
        batch_seeds: None,
        independence_seeds: None,
        start: 0,
        threads: colorist_workload::suite_threads(),
        replay: None,
        minimize: None,
        trace: None,
        cfg: OracleConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> u64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a non-negative integer");
                usage()
            })
        };
        match flag.as_str() {
            "--seeds" => args.seeds = val("--seeds"),
            "--batch-seeds" => args.batch_seeds = Some(val("--batch-seeds")),
            "--independence-seeds" => args.independence_seeds = Some(val("--independence-seeds")),
            "--start" => args.start = val("--start"),
            "--scale" => args.cfg.scale = val("--scale").max(2) as u32,
            "--queries" => args.cfg.queries = val("--queries").max(1) as usize,
            "--threads" => args.threads = val("--threads").max(1) as usize,
            "--replay" => args.replay = Some(val("--replay")),
            "--minimize" => args.minimize = Some(val("--minimize")),
            "--trace" => {
                args.trace = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--trace needs an output path");
                    usage()
                }))
            }
            "--backend" => match it.next() {
                Some(b) => std::env::set_var("COLORIST_BACKEND", b),
                None => {
                    eprintln!("--backend needs a value");
                    usage()
                }
            },
            "--pool-bytes" => {
                std::env::set_var("COLORIST_POOL_BYTES", val("--pool-bytes").to_string())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    colorist_trace::traced(args.trace.as_deref(), || run(&args)).unwrap_or_else(|e| {
        eprintln!("trace write failed: {e}");
        ExitCode::FAILURE
    })
}

fn run(args: &Args) -> ExitCode {
    if let Some(seed) = args.replay {
        print!("{}", replay_text(seed, &args.cfg));
        return ExitCode::SUCCESS;
    }

    if let Some(seed) = args.minimize {
        return match minimize(seed, &args.cfg) {
            Some(m) => {
                println!("{m}");
                println!(
                    "replay: colorist-oracle --replay {} --scale {} --queries {}",
                    m.seed, m.scale, args.cfg.queries
                );
                ExitCode::FAILURE
            }
            None => {
                println!("seed {seed}: clean at scale {} — nothing to minimize", args.cfg.scale);
                ExitCode::SUCCESS
            }
        };
    }

    if let Some(n) = args.independence_seeds {
        let report = run_independence_seeds(args.start, n, &args.cfg, args.threads);
        print!("{report}");
        return if report.divergences().is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if let Some(n) = args.batch_seeds {
        let report = run_batch_seeds(args.start, n, &args.cfg, args.threads);
        print!("batch {report}");
        return if report.divergences().is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let report = run_seeds(args.start, args.seeds, &args.cfg, args.threads);
    print!("{report}");
    let divergent: Vec<u64> = {
        let mut seeds: Vec<u64> =
            report.reports.iter().filter(|r| !r.divergences.is_empty()).map(|r| r.seed).collect();
        seeds.dedup();
        seeds
    };
    if divergent.is_empty() {
        return ExitCode::SUCCESS;
    }
    // auto-minimize the first few divergent seeds into replayable repros
    for &seed in divergent.iter().take(5) {
        match minimize(seed, &args.cfg) {
            Some(m) => {
                println!("{m}");
                println!(
                    "replay: colorist-oracle --replay {} --scale {} --queries {}",
                    m.seed, m.scale, args.cfg.queries
                );
            }
            None => println!("seed {seed}: diverged in the sweep but not under minimization"),
        }
    }
    ExitCode::FAILURE
}

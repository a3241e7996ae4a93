//! `colorist oracle` — drive the cross-strategy answer-equivalence oracle.
//!
//! The default mode sweeps `--seeds` consecutive seeds from `--start`,
//! printing a summary and exiting nonzero when any seed diverges (each
//! divergent seed is auto-minimized to the smallest reproducing scale).
//! `--replay` prints one seed's diagram, workload, per-strategy plans and
//! counts; `--minimize` shrinks one divergent seed. `--batch-seeds` sweeps
//! the *batch-replay* oracle instead: every seed derives one randomized
//! atomic update batch (attribute writes + a delete-closed delete set),
//! commits it half at a time under all seven strategies, and asserts
//! answer equivalence mid-batch and post-batch, snapshot immunity,
//! indexed-vs-reference kernel agreement after the deletes, and B002 —
//! every key a commit touched lies inside the batch's static effect
//! footprint — in any build.
//!
//! `--scale` here is the base entity extent of the random instance
//! (default 20). `--backend`/`--pool-bytes` attach every database to the
//! paged backend, and the printed replay command carries them along.

use crate::cli::{unknown, Argv};
use colorist_bench::RunConfig;
use colorist_store::Storage;
use colorist_workload::oracle::{minimize, replay_text, run_batch_seeds, run_seeds, OracleConfig};
use std::process::ExitCode;

/// The oracle's own flags.
#[derive(Debug, Default)]
pub struct Args {
    /// Seeds of the default sweep (64 when unset).
    seeds: Option<u64>,
    batch_seeds: Option<u64>,
    start: u64,
    replay: Option<u64>,
    minimize: Option<u64>,
    cfg: OracleConfig,
}

impl Args {
    pub fn flag(&mut self, flag: &str, args: &mut Argv) -> Result<(), String> {
        match flag {
            "--seeds" => self.seeds = Some(args.num(flag)?),
            "--batch-seeds" => self.batch_seeds = Some(args.num(flag)?),
            "--start" => self.start = args.num(flag)?,
            "--scale" => self.cfg.scale = args.num::<u32>(flag)?.max(2),
            "--queries" => self.cfg.queries = args.num::<usize>(flag)?.max(1),
            "--replay" => self.replay = Some(args.num(flag)?),
            "--minimize" => self.minimize = Some(args.num(flag)?),
            _ => return Err(unknown(flag)),
        }
        Ok(())
    }
}

/// The command line that replays `seed` at `scale` under `cfg`'s queries
/// and storage.
fn replay_hint(seed: u64, scale: u32, cfg: &OracleConfig) -> String {
    let mut hint = format!(
        "replay: colorist oracle --replay {seed} --scale {scale} --queries {}",
        cfg.queries
    );
    if cfg.storage != Storage::Heap {
        hint += &format!(
            " --backend {} --pool-bytes {}",
            cfg.storage.label(),
            cfg.storage.pool_bytes()
        );
    }
    hint
}

pub fn run(args: &Args, run: &RunConfig) -> ExitCode {
    let cfg = OracleConfig { storage: run.storage, ..args.cfg.clone() };
    if let Some(seed) = args.replay {
        print!("{}", replay_text(seed, &cfg));
        return ExitCode::SUCCESS;
    }

    if let Some(seed) = args.minimize {
        return match minimize(seed, &cfg) {
            Some(m) => {
                println!("{m}");
                println!("{}", replay_hint(m.seed, m.scale, &cfg));
                ExitCode::FAILURE
            }
            None => {
                println!("seed {seed}: clean at scale {} — nothing to minimize", cfg.scale);
                ExitCode::SUCCESS
            }
        };
    }

    if let Some(n) = args.batch_seeds {
        let report = run_batch_seeds(args.start, n, &cfg, run.threads);
        print!("batch {report}");
        return if report.divergences().is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let report = run_seeds(args.start, args.seeds.unwrap_or(64), &cfg, run.threads);
    print!("{report}");
    // one report per seed
    let mut divergent =
        report.reports.iter().filter(|r| !r.divergences.is_empty()).map(|r| r.seed).peekable();
    if divergent.peek().is_none() {
        return ExitCode::SUCCESS;
    }
    // auto-minimize the first few divergent seeds into replayable repros
    for seed in divergent.take(5) {
        match minimize(seed, &cfg) {
            Some(m) => {
                println!("{m}");
                println!("{}", replay_hint(m.seed, m.scale, &cfg));
            }
            None => println!("seed {seed}: diverged in the sweep but not under minimization"),
        }
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse, Command};
    use colorist_store::PoolConfig;

    /// Parse a printed hint back through the CLI.
    fn reparse(hint: &str) -> (RunConfig, Command) {
        let argv: Vec<String> = hint.split_whitespace().skip(2).map(String::from).collect();
        parse(&argv).expect("the hint parses")
    }

    #[test]
    fn replay_hint_reproduces_the_storage() {
        let heap = OracleConfig::default();
        let hint = replay_hint(7, 3, &heap);
        assert_eq!(hint, "replay: colorist oracle --replay 7 --scale 3 --queries 6");
        assert_eq!(reparse(&hint).0.storage, Storage::Heap);

        let paged = OracleConfig {
            storage: Storage::PagedMem(PoolConfig { pool_bytes: 65536 }),
            ..OracleConfig::default()
        };
        let hint = replay_hint(7, 3, &paged);
        assert!(hint.ends_with(" --backend paged-mem --pool-bytes 65536"), "{hint}");
        let (run, command) = reparse(&hint);
        assert_eq!(run.storage, paged.storage);
        let Command::Oracle(args) = command else { panic!("parsed as {command:?}") };
        assert_eq!((args.replay, args.cfg.scale, args.cfg.queries), (Some(7), 3, 6));
    }
}

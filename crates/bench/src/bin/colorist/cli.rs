//! The one argument parser: a subcommand, then flags. The run
//! configuration flags fill a [`RunConfig`] (each subcommand accepts the
//! ones it reads); every other flag goes to the subcommand's own
//! arguments. Every error — unknown subcommand or flag, missing or
//! malformed value, unknown backend — surfaces here, before any work
//! starts.

use crate::{explain, gate, lint, oracle, scale};
use colorist_bench::RunConfig;
use colorist_store::{PoolConfig, Storage};
use std::str::FromStr;

pub const USAGE: &str = "\
usage: colorist <subcommand> [flags]

  table1 | fig8 ... fig14   regenerate a table or figure of the paper
  collection                the ER collection's schema-sweep numbers (§6.2)
  explain                   EXPLAIN ANALYZE catalog queries: [--diagram NAME] [--query QN]
                            [--strategy LABEL] [--static | --updates]
  scale                     query-service scale curves: [--scales N,N,...] [--workers N]
                            [--clients N] [--rounds N] [--speedup-scale N]
  oracle                    answer-equivalence oracle: [--seeds N | --batch-seeds N |
                            --replay SEED | --minimize SEED] [--start S] [--scale B] [--queries K]
  lint                      schema linter + plan verifier: [--seed N] [--scale B] [--queries K]
  gate                      regression gate: [--scale] --baseline FILE --current FILE |
                            --validate-trace FILE

run configuration, where the subcommand reads it:
  --scale N                          TPC-W customers (table1, figures, explain; default 300)
  --seed N                           data seed (table1, figures, explain, scale; default 42)
  --threads N                        suite/oracle workers (default: available parallelism)
  --backend mem|paged|paged-mem      storage for every database (default mem)
  --pool-bytes N                     buffer-pool budget of a paged backend (default 16777216)
  --trace FILE                       chrome-trace of the run (all but collection, lint, gate)
  --out FILE                         output document (table1, fig11, scale)";

const SUITE: &[&str] = &["--scale", "--seed", "--threads", "--backend", "--pool-bytes", "--trace"];
const SUITE_OUT: &[&str] =
    &["--scale", "--seed", "--threads", "--backend", "--pool-bytes", "--trace", "--out"];
const EXPLAIN: &[&str] = &["--scale", "--seed", "--backend", "--pool-bytes", "--trace"];
const SCALE: &[&str] = &["--seed", "--backend", "--pool-bytes", "--trace", "--out"];
const ORACLE: &[&str] = &["--threads", "--backend", "--pool-bytes", "--trace"];

/// A subcommand with its own arguments.
#[derive(Debug)]
pub enum Command {
    Table1,
    /// Figures 8–14.
    Fig(u8),
    Collection,
    Explain(explain::Args),
    Scale(scale::Args),
    Oracle(oracle::Args),
    Lint(lint::Args),
    Gate(gate::Args),
}

impl Command {
    fn flag(&mut self, flag: &str, args: &mut Argv) -> Result<(), String> {
        match self {
            Command::Explain(a) => a.flag(flag, args),
            Command::Scale(a) => a.flag(flag, args),
            Command::Oracle(a) => a.flag(flag, args),
            Command::Lint(a) => a.flag(flag, args),
            Command::Gate(a) => a.flag(flag, args),
            Command::Table1 | Command::Fig(_) | Command::Collection => Err(unknown(flag)),
        }
    }
}

/// The flags still to parse, with the value helpers every flag goes
/// through.
pub struct Argv<'a>(std::slice::Iter<'a, String>);

impl Argv<'_> {
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().cloned().ok_or_else(|| format!("{flag} requires a value"))
    }

    pub fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("{flag} expects a number, got {v:?}"))
    }
}

pub fn unknown(flag: &str) -> String {
    format!("unknown flag `{flag}`")
}

/// Parse `colorist`'s arguments (without the program name).
pub fn parse(argv: &[String]) -> Result<(RunConfig, Command), String> {
    let (name, rest) = argv.split_first().ok_or("missing subcommand")?;
    let (mut command, shared) = match name.as_str() {
        "table1" => (Command::Table1, SUITE_OUT),
        "fig11" => (Command::Fig(11), SUITE_OUT),
        "fig8" | "fig9" | "fig10" | "fig12" | "fig13" | "fig14" => {
            (Command::Fig(name[3..].parse().expect("figure number")), SUITE)
        }
        "collection" => (Command::Collection, &[][..]),
        "explain" => (Command::Explain(Default::default()), EXPLAIN),
        "scale" => (Command::Scale(Default::default()), SCALE),
        "oracle" => (Command::Oracle(Default::default()), ORACLE),
        "lint" => (Command::Lint(Default::default()), &[][..]),
        "gate" => (Command::Gate(Default::default()), &[][..]),
        other => return Err(format!("unknown subcommand `{other}`")),
    };
    let mut run = RunConfig::default();
    let (mut backend, mut pool) = ("mem".to_string(), PoolConfig::default());
    let mut args = Argv(rest.iter());
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            f if !shared.contains(&f) => command.flag(f, &mut args)?,
            "--scale" => run.scale = args.num(flag)?,
            "--seed" => run.seed = args.num(flag)?,
            "--threads" => run.threads = args.num::<usize>(flag)?.max(1),
            "--backend" => backend = args.value(flag)?,
            "--pool-bytes" => pool.pool_bytes = args.num(flag)?,
            "--trace" => run.trace = Some(args.value(flag)?),
            "--out" => run.out = Some(args.value(flag)?),
            other => unreachable!("shared flag `{other}` has no arm"),
        }
    }
    run.storage = Storage::parse(&backend, pool)?;
    if let Command::Gate(gate) = &command {
        gate.check()?;
    }
    Ok((run, command))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(line: &str) -> Result<(RunConfig, Command), String> {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn rejects(line: &str, why: &str) {
        let err = try_parse(line).expect_err(line);
        assert!(err.contains(why), "`{line}`: {err}");
    }

    #[test]
    fn shared_flags_fill_one_run_configuration() {
        let (run, command) = try_parse(
            "table1 --scale 30 --seed 7 --threads 4 --backend paged-mem --pool-bytes 65536 \
             --trace t.json --out s.json",
        )
        .unwrap();
        assert!(matches!(command, Command::Table1));
        let expected = RunConfig {
            scale: 30,
            seed: 7,
            threads: 4,
            storage: Storage::PagedMem(PoolConfig { pool_bytes: 65536 }),
            trace: Some("t.json".into()),
            out: Some("s.json".into()),
        };
        assert_eq!(run, expected);
        let (run, command) = try_parse("fig13").unwrap();
        assert!(matches!(command, Command::Fig(13)));
        assert_eq!(run, RunConfig::default());
        assert_eq!(
            try_parse("fig8 --backend mem --pool-bytes 9").unwrap().0.storage,
            Storage::Heap
        );
    }

    #[test]
    fn subcommand_flags_shadow_shared_names() {
        // `gate --scale` is a switch, `oracle --scale` the random instance's extent
        let (run, command) = try_parse("gate --scale --baseline a --current b").unwrap();
        assert!(matches!(command, Command::Gate(_)));
        assert_eq!(run.scale, 300);
        let (run, command) = try_parse("oracle --scale 5 --threads 2 --backend paged").unwrap();
        assert!(matches!(command, Command::Oracle(_)));
        assert_eq!((run.scale, run.threads, run.storage.label()), (300, 2, "paged"));
    }

    #[test]
    fn bad_input_is_rejected_before_any_work() {
        rejects("", "missing subcommand");
        rejects("table2", "unknown subcommand `table2`");
        rejects("table1 --bogus", "unknown flag `--bogus`");
        rejects("fig8 --out x.json", "unknown flag `--out`");
        rejects("lint --backend paged", "unknown flag `--backend`");
        rejects("table1 --seed", "--seed requires a value");
        rejects("oracle --seeds", "--seeds requires a value");
        rejects("table1 --backend bogus", "unknown backend \"bogus\"");
        rejects("table1 --pool-bytes 1.5", "--pool-bytes expects a number");
        rejects("oracle --pool-bytes lots", "--pool-bytes expects a number");
        rejects("scale --scales 1000,ten", "--scales expects N,N,...");
        rejects("explain --strategy XYZ", "unknown strategy `XYZ`");
        rejects("explain --diagram nowhere", "unknown diagram `nowhere`");
        rejects("gate --baseline a", "--validate-trace");
        rejects("gate --validate-trace t --current b", "--validate-trace");
    }
}

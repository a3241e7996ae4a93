//! `colorist gate` — the performance-regression gate (DESIGN.md §9.4).
//!
//! ```text
//! colorist gate --baseline results/bench_baseline.json \
//!               --current  results/bench_summary.json
//! colorist gate --validate-trace trace.json
//! colorist gate --scale --baseline results/BENCH_scale.json --current ...
//! ```
//!
//! `--scale` switches the diff to the `BENCH_scale.json` rules
//! (identity fields exact, plan-cache counters op-gated). Wall-clock
//! fields are never gated: `BENCHMARK.json` is the authority for time.
//! The summary diff's q-error budget is the constant
//! [`Q_ERROR_BUDGET`](colorist_bench::perfgate::Q_ERROR_BUDGET).
//!
//! Exit status: `0` pass, `1` regression (or invalid trace), `2` usage
//! error / non-comparable documents.

use crate::cli::{unknown, Argv};
use colorist_bench::{compare, compare_scale, validate_trace};
use colorist_trace::Json;
use std::process::ExitCode;

/// The gate's own flags: either two documents to diff or one trace to
/// validate.
#[derive(Debug, Default)]
pub struct Args {
    baseline: Option<String>,
    current: Option<String>,
    trace: Option<String>,
    scale_doc: bool,
}

impl Args {
    pub fn flag(&mut self, flag: &str, args: &mut Argv) -> Result<(), String> {
        match flag {
            "--baseline" => self.baseline = Some(args.value(flag)?),
            "--current" => self.current = Some(args.value(flag)?),
            "--validate-trace" => self.trace = Some(args.value(flag)?),
            "--scale" => self.scale_doc = true,
            _ => return Err(unknown(flag)),
        }
        Ok(())
    }

    /// Exactly one mode: a trace to validate, or a baseline/current pair.
    pub fn check(&self) -> Result<(), String> {
        match (&self.trace, &self.baseline, &self.current) {
            (Some(_), None, None) | (None, Some(_), Some(_)) => Ok(()),
            _ => Err("gate takes --baseline and --current, or --validate-trace alone".into()),
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(args: &Args) -> ExitCode {
    let fail = |e: String, code: u8| {
        eprintln!("perfgate: {e}");
        ExitCode::from(code)
    };
    if let Some(path) = &args.trace {
        return match load(path).map(|doc| validate_trace(&doc)) {
            Err(e) => fail(e, 2),
            Ok(Err(e)) => fail(e, 1),
            Ok(Ok(())) => {
                println!("perfgate: trace {path} is well-formed");
                ExitCode::SUCCESS
            }
        };
    }

    let (Some(bpath), Some(cpath)) = (&args.baseline, &args.current) else {
        unreachable!("Args::check admits a baseline/current pair here")
    };
    let docs = load(bpath).and_then(|b| Ok((b, load(cpath)?)));
    let diff = docs.and_then(|(base, cur)| {
        if args.scale_doc {
            compare_scale(&base, &cur)
        } else {
            compare(&base, &cur)
        }
    });
    let report = match diff {
        Ok(report) => report,
        Err(e) => return fail(e, 2),
    };
    for w in &report.warnings {
        eprintln!("perfgate: warning: {w}");
    }
    for f in &report.failures {
        eprintln!("perfgate: FAIL: {f}");
    }
    if report.pass() {
        println!("perfgate: pass ({} warning(s)) — {cpath} vs {bpath}", report.warnings.len());
        ExitCode::SUCCESS
    } else {
        fail(format!("{} regression(s)", report.failures.len()), 1)
    }
}

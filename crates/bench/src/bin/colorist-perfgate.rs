//! The performance-regression gate (DESIGN.md §9.4).
//!
//! ```text
//! colorist-perfgate --baseline results/bench_baseline.json \
//!                   --current  results/bench_summary.json \
//!                   [--q-error-budget 8.0]
//! colorist-perfgate --validate-trace trace.json
//! colorist-perfgate --scale --baseline results/BENCH_scale.json --current ...
//! ```
//!
//! `--scale` switches the diff to the `BENCH_scale.json` rules
//! (identity fields exact, plan-cache counters op-gated). Wall-clock
//! fields are never gated: `BENCHMARK.json` is the authority for time.
//!
//! Exit status: `0` pass, `1` regression (or invalid trace), `2` usage
//! error / non-comparable documents.

use colorist_bench::{compare, compare_scale, validate_trace, GateConfig};
use colorist_trace::Json;

fn usage() -> ! {
    eprintln!(
        "usage: colorist-perfgate [--scale] --baseline FILE --current FILE \
         [--q-error-budget F]\n\
         \x20      colorist-perfgate --validate-trace FILE"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("perfgate: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut baseline = None;
    let mut current = None;
    let mut trace = None;
    let mut scale_doc = false;
    let mut cfg = GateConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("perfgate: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--baseline" => baseline = Some(value("--baseline")),
            "--current" => current = Some(value("--current")),
            "--validate-trace" => trace = Some(value("--validate-trace")),
            "--scale" => scale_doc = true,
            "--q-error-budget" => {
                cfg.q_error_budget = value(&a).parse().unwrap_or_else(|_| {
                    eprintln!("perfgate: {a} expects a number like 8.0");
                    std::process::exit(2);
                });
            }
            _ => usage(),
        }
    }

    if let Some(path) = trace {
        if baseline.is_some() || current.is_some() {
            usage();
        }
        match validate_trace(&load(&path)) {
            Ok(()) => {
                println!("perfgate: trace {path} is well-formed");
                return;
            }
            Err(e) => {
                eprintln!("perfgate: {e}");
                std::process::exit(1);
            }
        }
    }

    let (Some(bpath), Some(cpath)) = (baseline, current) else { usage() };
    let (base, cur) = (load(&bpath), load(&cpath));
    let diff = if scale_doc { compare_scale(&base, &cur) } else { compare(&base, &cur, &cfg) };
    match diff {
        Err(e) => {
            eprintln!("perfgate: {e}");
            std::process::exit(2);
        }
        Ok(report) => {
            for w in &report.warnings {
                eprintln!("perfgate: warning: {w}");
            }
            for f in &report.failures {
                eprintln!("perfgate: FAIL: {f}");
            }
            if report.pass() {
                println!(
                    "perfgate: pass ({} warning(s)) — {cpath} vs {bpath}",
                    report.warnings.len()
                );
            } else {
                eprintln!("perfgate: {} regression(s)", report.failures.len());
                std::process::exit(1);
            }
        }
    }
}

//! `colorist-benchmark` — the repo benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! colorist-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//! colorist-benchmark --all | --repeat-check | --list
//! ```
//!
//! One run measures one workload for `--seconds` and prints every metric
//! by name and unit, then — as the last line of standard output — the
//! result object the driver reads. Untraced runs report the end-to-end
//! metrics; traced runs (a shorter window plus the layer walk) report
//! the per-layer metrics and write `out/trace_<workload>.json`.
//! Everything is measured from outside, by timing calls into public
//! functions of the crates under `../crates`.

mod fixture;
mod report;
mod serve;
mod span;
mod stats;
mod sweep;
mod watchdog;

use colorist_trace::Json;
use report::{Better, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Wall-clock budget for all four workloads, untraced + traced, at the
/// default window on a 2-core host (build excluded).
const BUDGET_S: f64 = 90.0;

/// Per-layer counts that must repeat exactly between two sets.
const EXACT: &[&str] = &[
    "store.elements",
    "query.exec_scanned_per_result",
    "query.exec_value_joins",
    "query.update_dup_writes",
    "store.page_reads_per_read",
    "store.pool_hit_ratio",
    "store.pool_evictions_per_read",
    "store.pages_written_per_write",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    All,
    RepeatCheck,
    List,
}

fn usage() -> ! {
    eprintln!(
        "usage: colorist-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]\n\
         \x20      colorist-benchmark --all | --repeat-check [--seed N] [--seconds S]\n\
         \x20      colorist-benchmark --list"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args { workload: None, seed: 42, seconds: 10.0, trace: false, mode: Mode::Run };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(it.next().unwrap_or_else(|| usage())),
            "--seed" => a.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--seconds" => {
                a.seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .unwrap_or_else(|| usage());
            }
            // the driver passes `--trace 0|1`; a bare `--trace` means 1
            "--trace" => a.trace = it.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1"),
            "--all" => a.mode = Mode::All,
            "--repeat-check" => a.mode = Mode::RepeatCheck,
            "--list" => a.mode = Mode::List,
            _ => usage(),
        }
    }
    if a.mode == Mode::Run && a.workload.is_none() {
        usage();
    }
    a
}

/// One workload, in this process.
fn run_workload(name: &str, a: &Args) -> ExitCode {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        eprintln!("colorist-benchmark: unknown workload {name:?} (see --list)");
        return ExitCode::from(2);
    }
    let started = Instant::now();
    fixture::reset_tmp().expect("create the benchmark's tmp directory");
    std::fs::create_dir_all(fixture::out_dir()).expect("create the benchmark's out directory");
    let (outcome, spans) = match serve::SPECS.iter().find(|s| s.name == name) {
        Some(spec) => serve::run(spec, a.seed, a.seconds, a.trace),
        None => sweep::run(a.seed, a.seconds, a.trace),
    };
    fixture::remove_tmp();
    let outcome = finish(name, a, outcome, &spans);
    println!(
        "colorist-benchmark: {name} seed {} window {} s trace {} nproc {} wall {:.1} s",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        fixture::nproc(),
        started.elapsed().as_secs_f64()
    );
    print!("{}", outcome.table());
    let line = outcome.result_line(a.trace);
    let suffix = if a.trace { "_traced" } else { "" };
    let path = fixture::out_dir().join(format!("result_{name}{suffix}.json"));
    std::fs::write(&path, format!("{line}\n")).expect("write the result document");
    println!("{line}");
    ExitCode::SUCCESS
}

/// Traced runs: write the span file and account for the walked time.
fn finish(name: &str, a: &Args, mut outcome: Outcome, spans: &[span::Span]) -> Outcome {
    if !a.trace {
        return outcome;
    }
    let path = fixture::out_dir().join(format!("trace_{name}.json"));
    std::fs::write(&path, span::trace_json(name, a.seed, fixture::nproc(), spans))
        .expect("write the trace document");
    // the benchmark's own glue is the `bench.*` layers; the rest of the
    // walked wall time is inside a call into the program
    let roots: Vec<&span::Span> =
        spans.iter().filter(|s| s.parent.is_none() && s.layer.starts_with("bench.")).collect();
    let wall: u64 = roots.iter().map(|s| s.end_ns - s.start_ns).sum();
    let selfs = span::self_times(spans);
    let glue: u64 = selfs.iter().filter(|(l, _)| l.starts_with("bench.")).map(|(_, ns)| ns).sum();
    if wall > 0 {
        outcome.layer.push((
            "bench.walk_coverage_pct",
            (wall - glue.min(wall)) as f64 / wall as f64 * 100.0,
        ));
    }
    outcome.notes.push(format!("{} spans -> {}", spans.len(), path.display()));
    outcome
}

/// Run one workload in a child process (its peak memory is its own) and
/// return the metrics of its result line.
fn child(name: &str, a: &Args, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = Json::parse(line)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{name}: incorrect run: {line}"));
    }
    let metrics = doc.get("metrics").and_then(Json::as_obj).ok_or("no metrics")?;
    Ok(metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect())
}

/// Per workload, its (end-to-end, per-layer) metrics.
type Set = Vec<(Vec<(String, f64)>, Vec<(String, f64)>)>;

/// One set: every workload untraced, then traced, each in a child.
/// Returns the metrics and the set's wall time.
fn run_set(a: &Args) -> Result<(Set, f64), String> {
    let started = Instant::now();
    let mut set = Vec::new();
    for w in WORKLOADS {
        set.push((child(w.name, a, false)?, child(w.name, a, true)?));
    }
    Ok((set, started.elapsed().as_secs_f64()))
}

fn budget_line(wall_s: f64) -> String {
    format!(
        "total wall {wall_s:.1} s of the {BUDGET_S:.0} s budget ({})",
        if wall_s <= BUDGET_S { "within" } else { "OVER" }
    )
}

fn print_set(set: &Set) {
    for (w, (e2e, layer)) in WORKLOADS.iter().zip(set) {
        println!("{}:", w.name);
        for (defs, values) in [(END_TO_END, e2e), (PER_LAYER, layer)] {
            for (d, (_, v)) in defs.iter().zip(values) {
                println!("  {:<32} {v:>16.4} {}", d.name, d.unit);
            }
        }
    }
}

/// Two full sets back to back: every end-to-end pair must agree within
/// its bound, and the exact counts must repeat exactly.
fn repeat_check(a: &Args) -> Result<bool, String> {
    let (first, wall1) = run_set(a)?;
    let (second, wall2) = run_set(a)?;
    let mut agree = true;
    for (w, (s1, s2)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
        println!("{}:", w.name);
        for (d, ((_, v1), (_, v2))) in END_TO_END.iter().zip(s1.0.iter().zip(&s2.0)) {
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let worse = match d.better {
                Better::Lower => (v2 - v1) / v1,
                Better::Higher => (v1 - v2) / v1,
            };
            let ok = worse <= bound;
            agree &= ok;
            println!(
                "  {:<32} {v1:>14.4} {v2:>14.4} {:<5} {:>+7.2}% of {:>3.0}%  {}",
                d.name,
                d.unit,
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
        for ((n1, v1), (_, v2)) in s1.1.iter().zip(&s2.1) {
            if EXACT.contains(&n1.as_str()) {
                let ok = v1 == v2;
                agree &= ok;
                println!(
                    "  {n1:<32} {v1:>14.4} {v2:>14.4} exact  {}",
                    if ok { "ok" } else { "DIFFERS" }
                );
            }
        }
    }
    println!("set 1: {}", budget_line(wall1));
    println!("set 2: {}", budget_line(wall2));
    Ok(agree)
}

fn main() -> ExitCode {
    let a = parse_args();
    match a.mode {
        Mode::List => {
            print!("{}", report::list());
            ExitCode::SUCCESS
        }
        Mode::Run => run_workload(a.workload.as_deref().expect("checked by parse_args"), &a),
        Mode::All => match run_set(&a) {
            Ok((set, wall)) => {
                print_set(&set);
                println!("{}", budget_line(wall));
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("colorist-benchmark: {why}");
                ExitCode::FAILURE
            }
        },
        Mode::RepeatCheck => match repeat_check(&a) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("colorist-benchmark: the two sets disagree");
                ExitCode::FAILURE
            }
            Err(why) => {
                eprintln!("colorist-benchmark: {why}");
                ExitCode::FAILURE
            }
        },
    }
}

//! Machine-readable run summaries: `results/bench_summary.json`.
//!
//! The table/figure subcommands print human-oriented matrices; this module
//! additionally persists one JSON document per run with the per-query wall
//! times, the per-strategy operation totals, and the run metadata (scale,
//! seed, worker count, suite wall clock) so results can be diffed across
//! commits and machines without re-parsing stdout. The format is
//! hand-rolled — the workspace is buildable offline with no external
//! crates — and kept flat enough for `jq` one-liners.
//!
//! The document is versioned: [`SCHEMA_VERSION`] bumps whenever a field is
//! added, removed, or changes meaning, and `colorist gate` refuses to
//! diff documents whose versions disagree. Every field is documented in
//! EXPERIMENTS.md ("The `bench_summary.json` schema").

use crate::RunConfig;
use colorist_store::Metrics;
use colorist_trace::escape_json;
use colorist_workload::{QueryKind, SuiteResult};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Version stamped into every summary document as `"schema_version"`.
/// What each version added is tabulated in EXPERIMENTS.md ("The
/// `bench_summary.json` schema").
pub const SCHEMA_VERSION: u64 = 8;

/// The git revision to stamp into the document: `git rev-parse --short=12
/// HEAD`, else `"unknown"` (e.g. when built from a tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run metadata stamped into the summary document.
#[derive(Debug, Clone)]
pub struct SummaryMeta<'a> {
    /// Which subcommand produced this (e.g. `"table1"`).
    pub bench: &'a str,
    /// The configuration the suite ran with: scale, seed, worker count,
    /// storage, and where the document goes.
    pub run: &'a RunConfig,
    /// Wall time of an extra single-worker pass over the same instance,
    /// when one was taken (for the parallel speedup figure).
    pub serial_wall: Option<Duration>,
}

/// The [`Metrics`] counters a per-query record carries, in declaration
/// order: all of them but the two result counts, which the record reports
/// as the suite's `logical`/`physical`.
pub fn record_counters(m: &Metrics) -> impl Iterator<Item = (&'static str, u64)> {
    m.counters().filter(|(key, _)| !matches!(*key, "results" | "distinct_results"))
}

/// The counters that count avoided work or reuse, so that more of them is
/// better: the skips a gallop or a walk earns, the page requests the pool
/// answers, the plan lookups the cache answers. For these the count gate
/// fails on shrinkage and warns on growth; every other counter the other
/// way round.
pub const MORE_IS_BETTER: [&str; 3] = ["elements_skipped", "pool_hits", "plan_cache_hits"];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Render the summary document.
pub fn bench_summary_json(meta: &SummaryMeta, results: &[SuiteResult]) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(j, "  \"git_rev\": \"{}\",", escape_json(&git_rev()));
    let _ = writeln!(j, "  \"bench\": \"{}\",", escape_json(meta.bench));
    let run = meta.run;
    let _ = writeln!(j, "  \"scale\": {},", run.scale);
    let _ = writeln!(j, "  \"seed\": {},", run.seed);
    let _ = writeln!(j, "  \"threads\": {},", run.threads);
    let _ = writeln!(j, "  \"backend\": \"{}\",", run.storage.label());
    let _ = writeln!(j, "  \"pool_bytes\": {},", run.storage.pool_bytes());
    let suite_wall = results.first().map_or(Duration::ZERO, |r| r.suite_wall);
    let _ = writeln!(j, "  \"suite_wall_ms\": {:.3},", ms(suite_wall));
    if let Some(serial) = meta.serial_wall {
        let _ = writeln!(j, "  \"serial_wall_ms\": {:.3},", ms(serial));
        if !suite_wall.is_zero() {
            let _ = writeln!(
                j,
                "  \"parallel_speedup\": {:.3},",
                serial.as_secs_f64() / suite_wall.as_secs_f64()
            );
        }
    }
    let _ = writeln!(j, "  \"strategies\": [");
    for (i, r) in results.iter().enumerate() {
        let total: Duration = r.runs.iter().map(|q| q.metrics.elapsed).sum();
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"strategy\": \"{}\",", escape_json(r.strategy.label()));
        let _ = writeln!(j, "      \"colors\": {},", r.colors);
        let _ = writeln!(j, "      \"elements\": {},", r.stats.elements);
        let _ = writeln!(j, "      \"data_mbytes\": {:.3},", r.stats.data_mbytes());
        let _ = writeln!(j, "      \"queries_wall_ms\": {:.3},", ms(total));
        let _ = writeln!(j, "      \"queries\": [");
        for (qi, q) in r.runs.iter().enumerate() {
            let kind = match q.kind {
                QueryKind::Read => "read",
                QueryKind::Update => "update",
            };
            let (m, h) = (&q.metrics, &q.heuristic);
            let _ = write!(
                j,
                "        {{\"name\": \"{}\", \"kind\": \"{kind}\", \
                 \"elapsed_us\": {}, \"logical\": {}, \"physical\": {}",
                escape_json(&q.name),
                m.elapsed.as_micros(),
                q.logical,
                q.physical,
            );
            for (key, value) in record_counters(m) {
                let _ = write!(j, ", \"{key}\": {value}");
            }
            // the ratio-dispatch twin: the same plan under the fixed
            // gallop ratio
            let _ = write!(
                j,
                ", \"heur_scanned\": {}, \"heur_probes\": {}, \"heur_bytes\": {}",
                h.elements_scanned, h.join_probes, h.bytes_touched
            );
            if let Some(est) = &q.est {
                let _ = write!(
                    j,
                    ", \"est_scanned\": {}, \"est_probes\": {}, \
                     \"est_bytes\": {}, \"est_index_lookups\": {}",
                    est.scanned, est.probes, est.bytes, est.index_lookups,
                );
            }
            let _ = write!(j, "}}");
            let _ = writeln!(j, "{}", if qi + 1 < r.runs.len() { "," } else { "" });
        }
        let _ = writeln!(j, "      ]");
        let _ = writeln!(j, "    }}{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(j, "  ]");
    let _ = write!(j, "}}");
    j
}

/// Write the summary document to the run's `--out` path (default
/// `results/bench_summary.json`) and return where it landed.
pub fn write_bench_summary(
    meta: &SummaryMeta,
    results: &[SuiteResult],
) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(meta.run.out.as_deref().unwrap_or("results/bench_summary.json"));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&path, bench_summary_json(meta, results))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_shape_on_empty_results() {
        let run = RunConfig { scale: 1, seed: 2, threads: 3, ..RunConfig::default() };
        let meta =
            SummaryMeta { bench: "t", run: &run, serial_wall: Some(Duration::from_millis(10)) };
        let j = bench_summary_json(&meta, &[]);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(j.contains("\"git_rev\": \""));
        assert!(j.contains("\"bench\": \"t\""));
        assert!(j.contains("\"threads\": 3"));
        assert!(j.contains("\"backend\": \"mem\""));
        assert!(j.contains("\"pool_bytes\": 0"));
        assert!(j.contains("\"serial_wall_ms\": 10.000"));
        assert!(j.contains("\"strategies\": ["));
    }
}

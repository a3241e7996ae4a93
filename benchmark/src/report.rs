//! The metric catalogue (mirrored by `BENCHMARK.json`; a test holds the
//! two together) and the result a run prints.

use colorist_trace::escape_json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    about: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), about }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, about }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one, as
/// the quiet decile of its slices (`stats::quiet_decile`). The bounds are
/// what this host allows: it drifts between speed states 20% apart that
/// last seconds to minutes, and ten runs of unchanged code spread by up
/// to 19% (README, "Steadiness").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, "quiet decile of seven complete set-ups (generate..warm-up)"),
    e2e("sweep_ms", "ms", Lower, 0.25, "wall time of one pass of the workload's schedule"),
    e2e("suite_read_us", "us", Lower, 0.25, "time to answer the 13-read suite once (Fig. 11)"),
    e2e("read_qps", "1/s", Higher, 0.25, "reads answered per second of read phase"),
    e2e("read_p50_us", "us", Lower, 0.25, "median read latency, call to reply"),
    e2e("read_p95_us", "us", Lower, 0.25, "95th percentile read latency"),
    e2e("write_ops_s", "1/s", Higher, 0.25, "writes committed per second of write phase"),
    e2e("write_p50_us", "us", Lower, 0.25, "median write latency, call to acknowledged commit"),
    e2e(
        "setup_rss_mb",
        "MB",
        Lower,
        0.20,
        "resident set once set-up is complete, before the window",
    ),
];

/// One layer each; prefix = crate. Zero where a workload bypasses the layer.
pub const PER_LAYER: &[MetricDef] = &[
    layer(
        "er.graph_us",
        "us",
        Lower,
        "ErGraph::from_diagram over the 12 catalog diagrams, per sweep",
    ),
    layer("core.design_us", "us", Lower, "design() over 12 diagrams x 7 strategies, per sweep"),
    layer("datagen.generate_ms", "ms", Lower, "generate() per sweep"),
    layer("datagen.materialize_ms", "ms", Lower, "materialize() summed over 7 schemas per sweep"),
    layer(
        "query.optimize_us",
        "us",
        Lower,
        "optimize(): sum per sweep; plan-cache miss in the walk",
    ),
    layer(
        "query.exec_us",
        "us",
        Lower,
        "execute(): sum per sweep; median over the mix in the walk",
    ),
    layer("query.update_ms", "ms", Lower, "execute_update() summed over U1-U3 x 7 per sweep"),
    layer("store.drop_ms", "ms", Lower, "dropping the 7 databases and their clones per sweep"),
    layer("store.elements", "count", Lower, "stored elements summed over the 7 schemas"),
    layer("query.exec_scanned_per_result", "ratio", Lower, "elements scanned per result tuple"),
    layer("query.exec_value_joins", "count", Lower, "value joins + colour crossings per sweep"),
    layer("query.update_dup_writes", "count", Lower, "duplicate updates per sweep"),
    layer("server.read_overhead_us", "us", Lower, "median of read latency minus execution time"),
    layer("server.queue_wait_us", "us", Lower, "median queue wait of a read"),
    layer("server.read_p99_us", "us", Lower, "99th percentile read latency"),
    layer("server.read_max_ms", "ms", Lower, "slowest read of the window"),
    layer("query.plan_lookup_us", "us", Lower, "optimize_cached() hit (walk)"),
    layer("query.exec_max_pattern_us", "us", Lower, "slowest pattern's median execute (walk)"),
    layer("query.cache_hit_ratio", "ratio", Higher, "plan-cache hits / lookups in the window"),
    layer("query.cache_misses_per_write", "ratio", Lower, "plan-cache misses per committed write"),
    layer("store.analyze_us", "us", Lower, "analyze_batch() of one single-cell batch (walk)"),
    layer("store.certify_us", "us", Lower, "CommitScheduler::plan() of a burst of 4 (walk)"),
    layer("store.validate_us", "us", Lower, "UpdateBatch::validate() of one batch (walk)"),
    layer("store.clone_us", "us", Lower, "trial Database::clone() (walk)"),
    layer("store.apply_us", "us", Lower, "UpdateBatch::apply() of one cell (walk)"),
    layer("store.commit_us", "us", Lower, "CommitScheduler::commit() of a burst of 4 (walk)"),
    layer("store.snapshot_us", "us", Lower, "install + Database::snapshot() publish (walk)"),
    layer("server.read_stall_ms_per_s", "ms/s", Lower, "time per second spent in reads over 5 ms"),
    layer("server.write_p95_us", "us", Lower, "95th percentile write latency"),
    layer("server.write_queue_wait_us", "us", Lower, "median queue wait of a write"),
    layer("server.flush_wait_us", "us", Lower, "median flush call to flush reply"),
    layer("server.group_size", "count", Higher, "mean batches per epoch bump"),
    layer("server.epochs_per_burst", "count", Lower, "mean epoch bumps per burst of 4"),
    layer("store.page_reads_per_read", "count", Lower, "pages faulted in per read (exact)"),
    layer("store.pool_hit_ratio", "ratio", Higher, "pool hits / page requests (exact)"),
    layer("store.pool_evictions_per_read", "count", Lower, "pool evictions per read (exact)"),
    layer(
        "store.pages_written_per_write",
        "count",
        Lower,
        "pages written per committed write (exact)",
    ),
    layer("store.file_kb_per_write", "KiB", Lower, "page-file growth per committed write"),
    layer("store.flush_us", "us", Lower, "flush_storage() after one direct write_attr (walk)"),
    layer("store.attach_ms", "ms", Lower, "attach_paged() during set-up"),
    layer("store.save_ms", "ms", Lower, "save_paged() of the final database"),
    layer("store.load_ms", "ms", Lower, "FilePages::open + load_paged()"),
    layer("bench.trace_overhead_pct", "%", Lower, "(untraced - traced) / untraced main throughput"),
    layer("bench.walk_coverage_pct", "%", Higher, "share of walked wall time inside a layer call"),
    layer("bench.peak_rss_mb", "MB", Lower, "VmHWM once the window, checks and walk are done"),
    layer("bench.failed_ratio", "ratio", Lower, "failed / attempted operations"),
];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "design_sweep",
        why: "the paper's pipeline, no server: datagen, core and query do all the work, so a server or commit change must not move it",
    },
    WorkloadDef {
        name: "serve_reads",
        why: "2 clients on 81k elements at a stable epoch: isolates queue, wake-up, plan lookup and snapshot execution; writes only in a probe after the window",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "one reader against one bursting writer: commit cost, per-epoch plan invalidation and reads stalled behind the commit gate show only here",
    },
    WorkloadDef {
        name: "paged_mixed",
        why: "database 2.75x the 1 MiB pool on a page file, one interleaving client: page, pool and flush costs dominate and page counts repeat exactly",
    },
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Vec<(&'static str, f64)>,
    pub layer: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts and other context, printed but not gated.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().chain(&self.layer).find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The contract's result line: every end-to-end metric untraced,
    /// every per-layer metric traced (0 where the workload has none).
    pub fn result_line(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.value(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, escape_json(d.unit))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every measured metric by name and unit, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.value(d.name) {
                let bound =
                    d.bound.map_or(String::new(), |b| format!("  [bound {:.0}%]", b * 100.0));
                out.push_str(&format!("  {:<32} {v:>16.4} {:<6}{bound}\n", d.name, d.unit));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("  # {n}\n"));
        }
        out
    }
}

/// `--list`: workloads, metrics, units, directions, bounds.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<14} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (every workload reports each):\n");
    for d in END_TO_END {
        out.push_str(&format!(
            "  {:<32} {:<6} {:<6} bound {:>3.0}%  {}\n",
            d.name,
            d.unit,
            d.better.label(),
            d.bound.expect("end-to-end metrics are bounded") * 100.0,
            d.about
        ));
    }
    out.push_str("per-layer metrics (traced run; 0 where a workload bypasses the layer):\n");
    for d in PER_LAYER {
        out.push_str(&format!(
            "  {:<32} {:<6} {:<6} {}\n",
            d.name,
            d.unit,
            d.better.label(),
            d.about
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_trace::Json;

    #[test]
    fn result_line_is_the_contract_object() {
        let o = Outcome {
            e2e: END_TO_END.iter().map(|d| (d.name, 1.25)).collect(),
            layer: vec![("query.exec_us", 46.5), ("store.pool_hit_ratio", f64::NAN)],
            attempted: 1000,
            failed: 0,
            notes: vec![],
        };
        let doc = Json::parse(&o.result_line(false)).expect("valid JSON");
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1000));
        let m = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(m.len(), END_TO_END.len());
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        let traced = Json::parse(&o.result_line(true)).expect("valid JSON");
        let m = traced.get("metrics").expect("metrics");
        assert_eq!(m.as_obj().expect("object").len(), PER_LAYER.len());
        assert_eq!(
            m.get("query.exec_us").and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(46.5)
        );
        // unmeasured and non-finite values print as 0, never as invalid JSON
        assert_eq!(
            m.get("store.load_ms").and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            m.get("store.pool_hit_ratio").and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let o = Outcome { attempted: 10, failed: 1, ..Outcome::default() };
        let doc = Json::parse(&o.result_line(true)).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
    }

    /// `BENCHMARK.json` is the driver's copy of this catalogue.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (m, d) in doc.get(key).and_then(Json::as_arr).expect("array").iter().zip(defs) {
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit), "{}", d.name);
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(d.better.label()),
                    "{}",
                    d.name
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        for (w, d) in
            doc.get("workloads").and_then(Json::as_arr).expect("array").iter().zip(WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(d.why));
            assert!(d.why.len() <= 200 && !d.why.contains('\n'));
        }
    }
}

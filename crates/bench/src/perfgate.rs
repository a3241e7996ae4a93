//! The performance-regression gate behind `colorist gate`.
//!
//! Diffs two [`bench_summary.json`](crate::summary) documents — a committed
//! baseline and the current run — and classifies the differences:
//!
//! * **meta mismatches** (schema version, bench name, scale, seed, storage
//!   backend, pool budget) are usage errors — the two documents do not
//!   describe comparable runs. The `paged` and `paged-mem` backends are
//!   one class: they count pages identically;
//! * **operation-count drift** (structural/value joins, crossings,
//!   dup-eliminations, group-bys, scans, probes, bytes, result counts) is a
//!   **failure** when the current count moved the worse way, and a
//!   **warning** when it moved the better way — improvements mean the
//!   baseline is stale and should be refreshed, not that the build is
//!   broken. Growth is worse except for the counters of avoided work in
//!   [`MORE_IS_BETTER`], where shrinkage is. The counters are
//!   deterministic (same scale + seed ⇒ same counts), so they are compared
//!   exactly. Wall-clock fields are never compared: `BENCHMARK.json` is the
//!   authority for time;
//! * **optimizer quality** (schema v4): on every query of *both*
//!   documents, the measured gate sum (`elements_scanned + join_probes +
//!   bytes_touched`) under the default cost-model kernel dispatch must not
//!   exceed the twin's (`heur_*`): the same plan run on the same database
//!   under fixed-ratio dispatch, so the cost model's merge-vs-gallop
//!   crossover never loses to the fixed ratio — and where estimates are
//!   recorded, the q-error
//!   between estimated and measured gate sums must stay within
//!   [`Q_ERROR_BUDGET`].
//!
//! The module also hosts [`validate_trace`], the shape checker for
//! chrome-trace documents emitted by `--trace`, and [`compare_scale`],
//! the diff for the `BENCH_scale.json` documents emitted by
//! `colorist scale` (schema v8): identity fields (element counts,
//! answer checksums, final epochs) must match exactly and plan-cache
//! counters follow the operation-count rule.

use crate::summary::{record_counters, MORE_IS_BETTER, SCHEMA_VERSION};
use colorist_store::Metrics;
use colorist_trace::Json;
use std::collections::BTreeMap;

/// Largest tolerated q-error (`max(est+1, meas+1) / min(est+1, meas+1)`)
/// between a query's estimated and measured gate sums. Predicate
/// estimates are exact index counts, so the budget bounds drift on the
/// join estimates only.
pub const Q_ERROR_BUDGET: f64 = 8.0;

/// The gate's verdict: failures block, warnings inform.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Regressions: grown counters, changed identities, optimizer-quality
    /// violations.
    pub failures: Vec<String>,
    /// Improvements (a stale baseline) and additions.
    pub warnings: Vec<String>,
}

impl GateReport {
    /// `true` when nothing blocks.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The deterministic per-query fields the gate compares exactly: the
/// suite's result counts, every [`Metrics`] counter a summary record
/// carries except the wall-clock derived `queue_wait_ns`, and the gate
/// counters of the ratio-dispatch twin run.
fn op_fields() -> impl Iterator<Item = &'static str> {
    let counters = record_counters(&Metrics::default()).map(|(key, _)| key);
    ["logical", "physical"]
        .into_iter()
        .chain(counters.filter(|key| *key != "queue_wait_ns"))
        .chain(["heur_scanned", "heur_probes", "heur_bytes"])
}

/// Per span category: the counter keys of its own a span may carry in its
/// `args` (beside the structural `id`/`parent` links), and whether it may
/// also carry [`Metrics`] counters under their field names. Spans of
/// categories not listed here (`compile`, `suite`, …) emit no counters
/// today and are unconstrained.
const SPAN_COUNTERS: [(&str, &[&str], bool); 8] = [
    ("op", &["rows_in", "rows_out"], true),
    ("query", &[], true),
    ("storage", &[], true),
    ("server", &["admitted"], true),
    ("materialize", &["elements", "colors"], false),
    ("batch", &["batch_ops"], false),
    ("snapshot", &["snapshot_reads"], false),
    ("effect", &["effect_keys"], false),
];

/// The operation-count rule: growth fails and shrinkage warns, the other
/// way round for a counter in [`MORE_IS_BETTER`].
fn gate_count(report: &mut GateReport, what: &str, field: &str, b: u64, c: u64) {
    let worse = if MORE_IS_BETTER.contains(&field) { c < b } else { c > b };
    if worse {
        report.failures.push(format!("{what}: {field} regressed {b} -> {c}"));
    } else if c != b {
        report.warnings.push(format!("{what}: {field} improved {b} -> {c} — refresh the baseline"));
    }
}

fn require_u64(doc: &Json, key: &str, what: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: missing or non-integer `{key}`"))
}

fn require_str<'a>(doc: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    doc.get(key).and_then(Json::as_str).ok_or_else(|| format!("{what}: missing `{key}`"))
}

/// Index a document's strategies as `strategy -> query -> counters`.
#[allow(clippy::type_complexity)]
fn index<'a>(
    doc: &'a Json,
    what: &str,
) -> Result<BTreeMap<String, BTreeMap<String, &'a Json>>, String> {
    let mut out = BTreeMap::new();
    let strategies = doc
        .get("strategies")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing `strategies` array"))?;
    for s in strategies {
        let label = require_str(s, "strategy", what)?.to_string();
        let queries = s
            .get("queries")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{what}: strategy {label} missing `queries`"))?;
        let mut by_name = BTreeMap::new();
        for q in queries {
            by_name.insert(require_str(q, "name", what)?.to_string(), q);
        }
        out.insert(label, by_name);
    }
    Ok(out)
}

/// The comparability class of a document's `backend`: `paged` and
/// `paged-mem` lay out, name and count pages identically — only where the
/// pages live differs — so their page counters compare exactly across the
/// two.
fn backend_class(backend: Option<&Json>) -> Option<&str> {
    backend.and_then(Json::as_str).map(|b| if b == "paged-mem" { "paged" } else { b })
}

/// Diff `current` against `baseline`.
///
/// `Err` means the documents are not comparable (wrong schema version,
/// different bench/scale/seed, malformed JSON shape) — a usage error, not a
/// regression. `Ok` carries the [`GateReport`].
pub fn compare(baseline: &Json, current: &Json) -> Result<GateReport, String> {
    for (doc, what) in [(baseline, "baseline"), (current, "current")] {
        let v = require_u64(doc, "schema_version", what)?;
        if v != SCHEMA_VERSION {
            return Err(format!(
                "{what}: schema_version {v} != supported {SCHEMA_VERSION}; \
                 regenerate the document with this build"
            ));
        }
    }
    for key in ["bench", "scale", "seed", "backend", "pool_bytes"] {
        let b = baseline.get(key);
        let c = current.get(key);
        if b != c && !(key == "backend" && backend_class(b) == backend_class(c)) {
            return Err(format!(
                "meta mismatch on `{key}`: baseline {b:?} vs current {c:?} — \
                 the runs are not comparable"
            ));
        }
    }

    let mut report = GateReport::default();

    // deterministic counters
    let base = index(baseline, "baseline")?;
    let cur = index(current, "current")?;
    for label in base.keys() {
        if !cur.contains_key(label) {
            report.failures.push(format!("strategy {label} disappeared from the current run"));
        }
    }
    for (label, cur_queries) in &cur {
        let Some(base_queries) = base.get(label) else {
            report.warnings.push(format!("strategy {label} is new (not in the baseline)"));
            continue;
        };
        for name in base_queries.keys() {
            if !cur_queries.contains_key(name) {
                report.failures.push(format!("{label}/{name} disappeared from the current run"));
            }
        }
        for (name, cq) in cur_queries {
            let Some(bq) = base_queries.get(name) else {
                report.warnings.push(format!("{label}/{name} is new (not in the baseline)"));
                continue;
            };
            let what = format!("{label}/{name}");
            for field in op_fields() {
                let b = require_u64(bq, field, &format!("baseline {what}"))?;
                let c = require_u64(cq, field, &format!("current {what}"))?;
                gate_count(&mut report, &what, field, b, c);
            }
        }
    }

    // optimizer quality: domination and estimate drift, on both documents
    // (the committed baseline must satisfy its own gate, not just the run
    // under test)
    for (doc, what) in [(baseline, "baseline"), (current, "current")] {
        optimizer_gate(doc, what, &mut report)?;
    }
    Ok(report)
}

/// Identity fields of one `(scale, strategy)` cell of a
/// `BENCH_scale.json` document. These describe *what ran* (instance
/// size, request mix, answers, commit count), so any difference in
/// either direction means the runs are not measuring the same thing —
/// a failure, not a warning.
const SCALE_IDENTITY_FIELDS: [&str; 6] =
    ["customers", "elements", "reads", "writes", "answers_checksum", "final_epoch"];

/// Plan-cache counters of one cell: deterministic costs under the
/// serve-under-lock cache design, gated like the per-query counters
/// (getting worse fails, getting better warns).
const SCALE_CACHE_FIELDS: [&str; 3] =
    ["plan_cache_hits", "plan_cache_misses", "plan_cache_evictions"];

/// Index a scale document as `target_elements -> strategy -> cell`.
#[allow(clippy::type_complexity)]
fn scale_index<'a>(
    doc: &'a Json,
    what: &str,
) -> Result<BTreeMap<u64, BTreeMap<String, &'a Json>>, String> {
    let mut out = BTreeMap::new();
    let scales = doc
        .get("scales")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing `scales` array"))?;
    for s in scales {
        let target = require_u64(s, "target_elements", what)?;
        let cells = s
            .get("strategies")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{what}: scale {target} missing `strategies`"))?;
        let mut by_label = BTreeMap::new();
        for c in cells {
            by_label.insert(require_str(c, "strategy", what)?.to_string(), c);
        }
        out.insert(target, by_label);
    }
    Ok(out)
}

/// Diff two `BENCH_scale.json` documents (emitted by `colorist scale`).
///
/// Identity fields (customers, elements, reads, writes, answers
/// checksum, final epoch) must match exactly in both directions;
/// plan-cache counters follow the operation-count rule (for hits, fewer
/// is the regression). Throughput, latencies and the `speedup` section are
/// not diffed — they are properties of the host, not of the code under
/// test.
pub fn compare_scale(baseline: &Json, current: &Json) -> Result<GateReport, String> {
    for (doc, what) in [(baseline, "baseline"), (current, "current")] {
        let v = require_u64(doc, "schema_version", what)?;
        if v != SCHEMA_VERSION {
            return Err(format!(
                "{what}: schema_version {v} != supported {SCHEMA_VERSION}; \
                 regenerate the document with this build"
            ));
        }
        let bench = require_str(doc, "bench", what)?;
        if bench != "scale" {
            return Err(format!("{what}: bench `{bench}` is not a scale document"));
        }
    }
    let meta_keys =
        ["seed", "backend", "workers", "clients", "rounds", "reads_per_round", "writes_per_round"];
    for key in meta_keys {
        let b = baseline.get(key);
        let c = current.get(key);
        if b != c {
            return Err(format!(
                "meta mismatch on `{key}`: baseline {b:?} vs current {c:?} — \
                 the runs are not comparable"
            ));
        }
    }

    let mut report = GateReport::default();
    let base = scale_index(baseline, "baseline")?;
    let cur = scale_index(current, "current")?;
    for (target, cells) in &base {
        let Some(cur_cells) = cur.get(target) else {
            report.failures.push(format!("scale {target} disappeared from the current run"));
            continue;
        };
        for label in cells.keys() {
            if !cur_cells.contains_key(label) {
                report
                    .failures
                    .push(format!("scale {target}/{label} disappeared from the current run"));
            }
        }
    }
    for (target, cur_cells) in &cur {
        let Some(base_cells) = base.get(target) else {
            report.warnings.push(format!("scale {target} is new (not in the baseline)"));
            continue;
        };
        for (label, cc) in cur_cells {
            let Some(bc) = base_cells.get(label) else {
                report
                    .warnings
                    .push(format!("scale {target}/{label} is new (not in the baseline)"));
                continue;
            };
            let what = format!("scale {target}/{label}");
            for field in SCALE_IDENTITY_FIELDS {
                let b = require_u64(bc, field, &format!("baseline {what}"))?;
                let c = require_u64(cc, field, &format!("current {what}"))?;
                if b != c {
                    report.failures.push(format!(
                        "{what}: identity field {field} changed {b} -> {c} — \
                         the runs did not execute the same workload"
                    ));
                }
            }
            for field in SCALE_CACHE_FIELDS {
                let b = require_u64(bc, field, &format!("baseline {what}"))?;
                let c = require_u64(cc, field, &format!("current {what}"))?;
                gate_count(&mut report, &what, field, b, c);
            }
        }
    }
    Ok(report)
}

/// Check one document's optimizer-quality invariants (schema v4):
///
/// * **domination** — on every query, the measured gate sum
///   (`elements_scanned + join_probes + bytes_touched`) under cost-model
///   dispatch must not exceed the ratio-dispatch twin's `heur_*` sum;
/// * **drift** — where a query records estimates (`est_*`), the q-error
///   between estimated and measured gate sums must stay within
///   [`Q_ERROR_BUDGET`].
fn optimizer_gate(doc: &Json, what: &str, report: &mut GateReport) -> Result<(), String> {
    for (label, queries) in index(doc, what)? {
        for (name, q) in queries {
            let ctx = format!("{what} {label}/{name}");
            let measured: u64 = ["elements_scanned", "join_probes", "bytes_touched"]
                .iter()
                .map(|f| require_u64(q, f, &ctx))
                .sum::<Result<u64, _>>()?;
            let heuristic: u64 = ["heur_scanned", "heur_probes", "heur_bytes"]
                .iter()
                .map(|f| require_u64(q, f, &ctx))
                .sum::<Result<u64, _>>()?;
            if measured > heuristic {
                report.failures.push(format!(
                    "{ctx}: optimized gate sum {measured} exceeds heuristic {heuristic} \
                     — cost-model dispatch lost to its ratio-dispatch twin"
                ));
            }
            if q.get("est_scanned").is_some() {
                let est: u64 = ["est_scanned", "est_probes", "est_bytes"]
                    .iter()
                    .map(|f| require_u64(q, f, &ctx))
                    .sum::<Result<u64, _>>()?;
                let q_err = colorist_query::q_error(est as f64, measured as f64);
                if q_err > Q_ERROR_BUDGET {
                    report.failures.push(format!(
                        "{ctx}: estimate drift q-error {q_err:.2} exceeds budget \
                         {Q_ERROR_BUDGET:.2} (estimated gate sum {est}, measured {measured})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Validate the shape of a chrome-trace document emitted by `--trace`:
/// a `traceEvents` array whose `X` events carry `name`/`cat`/`pid`/`tid`,
/// non-negative `ts`/`dur`, unique `args.id`, whose `args.parent`
/// references an existing span on the same thread that contains the child's
/// interval (with a small µs-rounding slack), and whose counters are
/// restricted to the per-category whitelist (e.g. only `op`, `query`,
/// `storage` and `server` spans may carry `Metrics` counters such as
/// `index_lookups`) with non-negative integer values.
pub fn validate_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace: missing `traceEvents` array")?;
    let metric_keys: Vec<&str> = Metrics::default().counters().map(|(key, _)| key).collect();
    // (id -> (tid, start, end)); slack for the ns -> µs {:.3} rounding
    let mut spans: BTreeMap<u64, (u64, f64, f64)> = BTreeMap::new();
    let mut xs = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = require_str(e, "ph", &format!("trace event {i}"))?;
        for key in ["name", "cat"] {
            if ph == "X" {
                require_str(e, key, &format!("trace event {i}"))?;
            }
        }
        require_u64(e, "pid", &format!("trace event {i}"))?;
        let tid = require_u64(e, "tid", &format!("trace event {i}"))?;
        if ph != "X" {
            continue;
        }
        xs += 1;
        let ts = e.get("ts").and_then(Json::as_f64).ok_or(format!("trace event {i}: no ts"))?;
        let dur = e.get("dur").and_then(Json::as_f64).ok_or(format!("trace event {i}: no dur"))?;
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("trace event {i}: negative ts/dur"));
        }
        let args = e.get("args").ok_or(format!("trace event {i}: no args"))?;
        let id = require_u64(args, "id", &format!("trace event {i} args"))?;
        if spans.insert(id, (tid, ts, ts + dur)).is_some() {
            return Err(format!("trace: duplicate span id {id}"));
        }
        // counter keys are cat-scoped: a `batch` span may not carry a
        // `snapshot` counter (or a typo'd one), and every counter must be
        // a non-negative integer
        let cat = e.get("cat").and_then(Json::as_str).expect("checked above");
        if let Some(&(_, own, metrics)) = SPAN_COUNTERS.iter().find(|(c, ..)| *c == cat) {
            let pairs = args.as_obj().ok_or(format!("trace event {i}: args not an object"))?;
            for (key, value) in pairs {
                if key == "id" || key == "parent" {
                    continue;
                }
                let key = key.as_str();
                if !(own.contains(&key) || (metrics && metric_keys.contains(&key))) {
                    return Err(format!(
                        "trace: span {id} (cat {cat}) carries unknown counter `{key}`"
                    ));
                }
                if value.as_u64().is_none() {
                    return Err(format!(
                        "trace: span {id} counter `{key}` is not a non-negative integer"
                    ));
                }
            }
        }
    }
    if xs == 0 {
        return Err("trace: no X (complete) events".to_string());
    }
    const SLACK: f64 = 0.01; // µs
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let args = e.get("args").expect("checked above");
        let Some(parent) = args.get("parent").and_then(Json::as_u64) else { continue };
        let id = args.get("id").and_then(Json::as_u64).expect("checked above");
        let &(ctid, cs, ce) = spans.get(&id).expect("indexed above");
        let Some(&(ptid, ps, pe)) = spans.get(&parent) else {
            return Err(format!("trace: span {id} has unknown parent {parent}"));
        };
        if ptid != ctid {
            return Err(format!("trace: span {id} and parent {parent} on different threads"));
        }
        if cs + SLACK < ps || ce > pe + SLACK {
            return Err(format!(
                "trace: span {id} [{cs}, {ce}] escapes parent {parent} [{ps}, {pe}]"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{bench_summary_json, SummaryMeta};
    use colorist_core::Strategy;
    use colorist_datagen::ScaleProfile;
    use colorist_er::{catalog, ErGraph};
    use colorist_workload::{suite, tpcw};

    fn small_summary() -> String {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
        let w = tpcw::workload(&g);
        let profile = ScaleProfile::tpcw(&g, 20);
        let results = suite::run_suite(&g, &[Strategy::Af, Strategy::Dr], &w, &profile, 7)
            .expect("suite runs");
        let run = crate::RunConfig { scale: 20, seed: 7, threads: 1, ..Default::default() };
        let meta = SummaryMeta { bench: "gate-test", run: &run, serial_wall: None };
        bench_summary_json(&meta, &results)
    }

    #[test]
    fn identical_documents_pass() {
        let j = small_summary();
        let doc = Json::parse(&j).expect("summary parses");
        let report = compare(&doc, &doc).expect("comparable");
        assert!(report.pass(), "{:?}", report.failures);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn injected_double_op_count_fails() {
        let j = small_summary();
        let base = Json::parse(&j).expect("parses");
        // double every structural_joins count in the current document
        let mut cur = base.clone();
        fn double(j: &mut Json) {
            match j {
                Json::Obj(m) => {
                    for (k, v) in m.iter_mut() {
                        if k == "structural_joins" {
                            if let Json::Int(n) = v {
                                *n *= 2;
                            }
                        } else {
                            double(v);
                        }
                    }
                }
                Json::Arr(v) => v.iter_mut().for_each(double),
                _ => {}
            }
        }
        double(&mut cur);
        let report = compare(&base, &cur).expect("comparable");
        assert!(!report.pass());
        assert!(
            report.failures.iter().any(|f| f.contains("structural_joins regressed")),
            "{:?}",
            report.failures
        );
        // and the reverse direction is a warning, not a failure
        let rev = compare(&cur, &base).expect("comparable");
        assert!(rev.pass(), "{:?}", rev.failures);
        assert!(rev.warnings.iter().any(|w| w.contains("improved")), "{:?}", rev.warnings);
    }

    /// `doc` with every `key` one higher.
    fn bump(doc: &Json, key: &str) -> Json {
        fn walk(j: &mut Json, key: &str) {
            match j {
                Json::Obj(m) => m.iter_mut().for_each(|(k, v)| match v {
                    Json::Int(n) if k == key => *n += 1,
                    v => walk(v, key),
                }),
                Json::Arr(v) => v.iter_mut().for_each(|x| walk(x, key)),
                _ => {}
            }
        }
        let mut doc = doc.clone();
        walk(&mut doc, key);
        doc
    }

    #[test]
    fn counters_of_avoided_work_fail_when_they_shrink() {
        let base = Json::parse(&small_summary()).expect("parses");
        for key in ["elements_skipped", "pool_hits", "structural_joins"] {
            let more = bump(&base, key);
            let (grown, shrunk) = (compare(&base, &more), compare(&more, &base));
            let (grown, shrunk) = (grown.expect("comparable"), shrunk.expect("comparable"));
            let (worse, better) =
                if MORE_IS_BETTER.contains(&key) { (shrunk, grown) } else { (grown, shrunk) };
            assert!(worse.failures.iter().any(|f| f.contains(&format!("{key} regressed"))));
            assert!(better.pass(), "{key}: {:?}", better.failures);
            assert!(better.warnings.iter().any(|w| w.contains(&format!("{key} improved"))));
        }
    }

    #[test]
    fn optimizer_gate_rejects_domination_and_drift_violations() {
        let j = small_summary();
        let base = Json::parse(&j).expect("parses");
        // the real run passes its own optimizer gate
        let clean = compare(&base, &base).expect("comparable");
        assert!(clean.pass(), "{:?}", clean.failures);

        // shrink every heur_* counter to zero: the measured counters now
        // exceed the heuristic twin → domination failure
        let mut lost = base.clone();
        for key in ["heur_scanned", "heur_probes", "heur_bytes"] {
            patch_num(&mut lost, key, 0);
        }
        let report = compare(&lost, &lost).expect("comparable");
        assert!(
            report.failures.iter().any(|f| f.contains("exceeds heuristic")),
            "{:?}",
            report.failures
        );

        // inflate every estimate far past the measured gate sum → the
        // q-error drift gate trips
        let mut drifted = base.clone();
        patch_num(&mut drifted, "est_scanned", 1_000_000_000_000);
        let report = compare(&drifted, &drifted).expect("comparable");
        assert!(
            report.failures.iter().any(|f| f.contains("estimate drift")),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn meta_mismatch_is_a_usage_error() {
        let base = Json::parse(&small_summary()).expect("parses");
        let cur = with_meta(&base, "seed", Json::Int(999));
        assert!(compare(&base, &cur).is_err());
        // wrong schema version too
        let old = with_meta(&base, "schema_version", Json::Int(1));
        assert!(compare(&old, &base).is_err());
    }

    /// `doc` with its top-level `key` set to `value`.
    fn with_meta(doc: &Json, key: &str, value: Json) -> Json {
        let mut doc = doc.clone();
        if let Json::Obj(m) = &mut doc {
            m.iter_mut().filter(|(k, _)| k == key).for_each(|(_, v)| *v = value.clone());
        }
        doc
    }

    #[test]
    fn the_file_and_memory_page_stores_are_one_comparability_class() {
        let base = Json::parse(&small_summary()).expect("parses");
        let backend = |b: &str| Json::Str(b.to_string());
        let paged_mem = with_meta(&base, "backend", backend("paged-mem"));
        let paged = with_meta(&base, "backend", backend("paged"));
        let report = compare(&paged_mem, &paged).expect("comparable");
        assert!(report.failures.is_empty() && report.warnings.is_empty());
        assert!(compare(&paged, &paged_mem).is_ok());
        // the heap is another class, and the pool budget still has to match
        assert!(compare(&base, &paged).is_err());
        let starved = with_meta(&paged, "pool_bytes", Json::Int(65536));
        assert!(compare(&paged_mem, &starved).is_err());
    }

    /// A one-cell scale document whose answers checksum is `checksum`.
    fn scale_doc(checksum: u64) -> Json {
        let text = format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "bench": "scale", "seed": 42,
            "backend": "mem", "workers": 2, "clients": 2, "rounds": 4,
            "reads_per_round": 16, "writes_per_round": 2,
            "scales": [
              {{"target_elements": 1000, "strategies": [
                {{"strategy": "DR", "customers": 70, "elements": 1006,
                  "reads": 64, "writes": 8, "answers_checksum": {checksum},
                  "final_epoch": 8, "plan_cache_hits": 60,
                  "plan_cache_misses": 12, "plan_cache_evictions": 0,
                  "throughput_qps": 1000.0, "p50_us": 10.0, "p99_us": 50.0,
                  "wall_ms": 6.4}}
              ]}}
            ],
            "speedup": {{"target_elements": 1000, "strategy": "DR",
              "workers_1_qps": 900.0, "workers_n_qps": 1100.0,
              "workers_n": 2, "speedup": 1.22}}}}"#
        );
        Json::parse(&text).expect("scale doc parses")
    }

    /// Set every member named `key`, at any depth of `j`, to `value`.
    fn patch_num(j: &mut Json, key: &str, value: u64) {
        match j {
            Json::Obj(m) => {
                for (k, v) in m.iter_mut() {
                    if k == key {
                        *v = Json::Int(value);
                    } else {
                        patch_num(v, key, value);
                    }
                }
            }
            Json::Arr(v) => v.iter_mut().for_each(|x| patch_num(x, key, value)),
            _ => {}
        }
    }

    #[test]
    fn scale_gate_passes_identical_and_fails_identity_drift() {
        let doc = scale_doc(12345);
        let clean = compare_scale(&doc, &doc).expect("comparable");
        assert!(clean.pass(), "{:?}", clean.failures);
        assert!(clean.warnings.is_empty(), "{:?}", clean.warnings);

        // identity fields fail in BOTH directions: a changed answers
        // checksum means the runs computed different answers
        let mut cur = doc.clone();
        patch_num(&mut cur, "answers_checksum", 99999);
        for (b, c) in [(&doc, &cur), (&cur, &doc)] {
            let report = compare_scale(b, c).expect("comparable");
            assert!(
                report.failures.iter().any(|f| f.contains("answers_checksum")),
                "{:?}",
                report.failures
            );
        }
    }

    /// Checksums are 64-bit: two documents whose checksums differ by 1
    /// above 2^53, where an `f64` would read both as one value, differ to
    /// the gate.
    #[test]
    fn scale_gate_compares_checksums_exactly() {
        let (a, b) = (scale_doc(3141572457772021011), scale_doc(3141572457772021012));
        let report = compare_scale(&a, &b).expect("comparable");
        assert!(
            report.failures.iter().any(|f| f.contains("answers_checksum changed")),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn scale_gate_op_rules_for_cache_counters() {
        let doc = scale_doc(12345);
        // more misses = regression; fewer = warning
        let mut missy = doc.clone();
        patch_num(&mut missy, "plan_cache_misses", 40);
        let report = compare_scale(&doc, &missy).expect("comparable");
        assert!(
            report.failures.iter().any(|f| f.contains("plan_cache_misses regressed")),
            "{:?}",
            report.failures
        );
        let rev = compare_scale(&missy, &doc).expect("comparable");
        assert!(rev.pass(), "{:?}", rev.failures);
        assert!(rev.warnings.iter().any(|w| w.contains("improved")), "{:?}", rev.warnings);

        // fewer hits is the hit-count regression direction
        let mut cold = doc.clone();
        patch_num(&mut cold, "plan_cache_hits", 1);
        let report = compare_scale(&doc, &cold).expect("comparable");
        assert!(
            report.failures.iter().any(|f| f.contains("plan_cache_hits regressed")),
            "{:?}",
            report.failures
        );

        // throughput and latency are the host's business, not the gate's
        let mut slow = doc.clone();
        patch_num(&mut slow, "throughput_qps", 100);
        patch_num(&mut slow, "p99_us", 5000);
        let report = compare_scale(&doc, &slow).expect("comparable");
        assert!(report.pass() && report.warnings.is_empty(), "{report:?}");

        // meta mismatch is a usage error, and a plain bench summary is not
        // a scale document
        let mut other = doc.clone();
        patch_num(&mut other, "workers", 16);
        assert!(compare_scale(&doc, &other).is_err());
        let summary = Json::parse(&small_summary()).expect("parses");
        assert!(compare_scale(&summary, &summary).is_err());
    }

    #[test]
    fn validates_a_real_trace_and_rejects_shapes() {
        let session = colorist_trace::Session::start();
        {
            let mut outer = colorist_trace::span("t", "outer");
            outer.counter("k", 1);
            let _inner = colorist_trace::span("t", "inner");
        }
        let trace = session.finish();
        let doc = Json::parse(&colorist_trace::chrome_trace_json(&trace)).expect("parses");
        validate_trace(&doc).expect("well-formed trace validates");

        assert!(validate_trace(&Json::parse("{}").unwrap()).is_err());
        let orphan = r#"{"traceEvents": [
            {"ph": "X", "name": "a", "cat": "t", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1.0, "args": {"id": 0, "parent": 99}}
        ]}"#;
        assert!(validate_trace(&Json::parse(orphan).unwrap()).is_err());
    }

    #[test]
    fn rejects_unknown_and_non_integer_span_counters() {
        // a known counter on a known category validates
        let ok = r#"{"traceEvents": [
            {"ph": "X", "name": "scan", "cat": "op", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1.0, "args": {"id": 0, "index_lookups": 3,
             "elements_skipped": 40}}
        ]}"#;
        validate_trace(&Json::parse(ok).unwrap()).expect("whitelisted counters pass");
        // an unknown key on an `op` span is rejected
        let unknown = r#"{"traceEvents": [
            {"ph": "X", "name": "scan", "cat": "op", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1.0, "args": {"id": 0, "index_lookup": 3}}
        ]}"#;
        let err = validate_trace(&Json::parse(unknown).unwrap()).unwrap_err();
        assert!(err.contains("unknown counter"), "{err}");
        // `rows_in` belongs to `op` spans only
        let wrong_cat = r#"{"traceEvents": [
            {"ph": "X", "name": "q", "cat": "query", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1.0, "args": {"id": 0, "rows_in": 3}}
        ]}"#;
        assert!(validate_trace(&Json::parse(wrong_cat).unwrap()).is_err());
        // counters must be non-negative integers
        let float = r#"{"traceEvents": [
            {"ph": "X", "name": "q", "cat": "query", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1.0, "args": {"id": 0, "results": 1.5}}
        ]}"#;
        let err = validate_trace(&Json::parse(float).unwrap()).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
        // the batch/snapshot categories carry exactly their own counters
        let mutation = r#"{"traceEvents": [
            {"ph": "X", "name": "apply", "cat": "batch", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1.0, "args": {"id": 0, "batch_ops": 7}},
            {"ph": "X", "name": "query:q1", "cat": "snapshot", "pid": 1,
             "tid": 0, "ts": 2.0, "dur": 1.0,
             "args": {"id": 1, "snapshot_reads": 1}}
        ]}"#;
        validate_trace(&Json::parse(mutation).unwrap()).expect("batch/snapshot counters pass");
        let crossed = r#"{"traceEvents": [
            {"ph": "X", "name": "apply", "cat": "batch", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1.0, "args": {"id": 0, "snapshot_reads": 1}}
        ]}"#;
        assert!(validate_trace(&Json::parse(crossed).unwrap()).is_err());
    }
}

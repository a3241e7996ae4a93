//! Colored-XPath rendering of compiled plans.
//!
//! Maps a plan back to the multi-colored XPath dialect of §2.2 — every axis
//! step annotated with its color — so the examples and reports can show
//! *why* a schema is cheap or expensive for a query, e.g. on AF:
//!
//! ```text
//! Q1: /blue::country[@name='Japan']//blue::order
//! ```
//!
//! versus SHALLOW's value-join chains.

use crate::exec::{op_kind, OpProfile, QueryResult};
use crate::pattern::CmpOp;
use crate::plan::{CostEst, Op, Plan, VDir};
use colorist_er::ErGraph;
use colorist_mct::color_name;
use colorist_store::Metrics;
use std::fmt::Write as _;

/// Render a plan as an annotated colored-XPath sketch, one line per
/// operator, with element names instead of internal ids.
pub fn explain(graph: &ErGraph, plan: &Plan) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{} [{}]:", plan.name, plan.strategy);
    for op in &plan.ops {
        match op {
            Op::Scan { color, node, pred, .. } => {
                let _ = write!(s, "  //{}::{}", color_name(*color), graph.node(*node).name);
                if let Some(p) = pred {
                    let attr = &graph.node(*node).attributes[p.attr].name;
                    let op_str = match p.op {
                        CmpOp::Eq => "=",
                        CmpOp::Lt => "<",
                        CmpOp::Gt => ">",
                    };
                    let _ = write!(s, "[@{attr}{op_str}'{}']", p.value);
                }
                let _ = writeln!(s);
            }
            Op::StructSemi { color, node, via, dir, .. } => {
                let axis = match (dir, via.len()) {
                    (VDir::Down, 1) => "/",
                    (VDir::Down, _) => "//",
                    (VDir::Up, 1) => "/parent::",
                    (VDir::Up, _) => "/ancestor::",
                };
                let _ = writeln!(
                    s,
                    "  {axis}{}::{}   (structural join, {} ER edge(s))",
                    color_name(*color),
                    graph.node(*node).name,
                    via.len()
                );
            }
            Op::ValueSemi { edge, src_is_rel, .. } => {
                let e = graph.edge(*edge);
                let (from, to) = if *src_is_rel {
                    (&graph.node(e.rel).name, &graph.node(e.participant).name)
                } else {
                    (&graph.node(e.participant).name, &graph.node(e.rel).name)
                };
                let _ = writeln!(s, "  ==[{from} @idref = {to} @id]==   (value join)");
            }
            Op::LinkSemi { edge, src_is_rel, .. } => {
                let e = graph.edge(*edge);
                let (from, to) = if *src_is_rel {
                    (&graph.node(e.rel).name, &graph.node(e.participant).name)
                } else {
                    (&graph.node(e.participant).name, &graph.node(e.rel).name)
                };
                let _ = writeln!(s, "  --[{from} / {to}]--   (parent-child link join)");
            }
            Op::Cross { color, node, .. } => {
                let _ = writeln!(
                    s,
                    "  ~~> {}::{}   (color crossing)",
                    color_name(*color),
                    graph.node(*node).name
                );
            }
            Op::Intersect { .. } => {}
            Op::Distinct { .. } => {
                let _ = writeln!(s, "  distinct-values(.)   (duplicate elimination)");
            }
            Op::GroupBy { attr, .. } => {
                let _ = writeln!(s, "  group by @{attr}");
            }
        }
    }
    s
}

/// One-line description of an operator with element/color names resolved.
fn op_desc(graph: &ErGraph, op: &Op) -> String {
    let edge_ends = |e: colorist_er::EdgeId| {
        let ed = graph.edge(e);
        format!("{}[{}]", graph.node(ed.rel).name, graph.node(ed.participant).name)
    };
    match op {
        Op::Scan { color, node, pred, .. } => {
            let p = if pred.is_some() { " [pred]" } else { "" };
            format!("scan {}::{}{p}", color_name(*color), graph.node(*node).name)
        }
        Op::StructSemi { color, node, via, dir, .. } => format!(
            "struct{} {}::{} via {} edge(s)",
            if *dir == VDir::Down { "↓" } else { "↑" },
            color_name(*color),
            graph.node(*node).name,
            via.len()
        ),
        Op::ValueSemi { edge, .. } => format!("valuejoin across {}", edge_ends(*edge)),
        Op::LinkSemi { edge, .. } => format!("linkjoin across {}", edge_ends(*edge)),
        Op::Cross { color, node, .. } => {
            format!("cross -> {}::{}", color_name(*color), graph.node(*node).name)
        }
        Op::Intersect { a, b, .. } => format!("intersect r{a} ∩ r{b}"),
        Op::Distinct { .. } => "distinct".to_string(),
        Op::GroupBy { attr, .. } => format!("group by @{attr}"),
    }
}

/// The operation counts a single operator contributes statically (its slice
/// of [`Plan::static_metrics`]).
fn op_static(op: &Op) -> Metrics {
    let mut m = Metrics::default();
    match op {
        Op::Scan { .. } | Op::Intersect { .. } => {}
        Op::StructSemi { .. } | Op::LinkSemi { .. } => m.structural_joins += 1,
        Op::ValueSemi { .. } => m.value_joins += 1,
        Op::Cross { .. } => m.color_crossings += 1,
        Op::Distinct { .. } => m.dup_eliminations += 1,
        Op::GroupBy { .. } => m.group_bys += 1,
    }
    m
}

/// Do the *operation-count* fields of `measured` match `expected`? (Volume
/// counters — scans, probes, bytes — have no static prediction.)
fn op_counts_match(measured: &Metrics, expected: &Metrics) -> bool {
    (
        measured.structural_joins,
        measured.value_joins,
        measured.color_crossings,
        measured.dup_eliminations,
        measured.group_bys,
    ) == (
        expected.structural_joins,
        expected.value_joins,
        expected.color_crossings,
        expected.dup_eliminations,
        expected.group_bys,
    )
}

/// Symmetric relative error between an estimate and a measurement, with
/// +1 smoothing so empty operators compare cleanly: `max(a,b)/min(a,b)`
/// over the smoothed values. 1.0 is a perfect estimate.
pub fn q_error(est: f64, measured: f64) -> f64 {
    let a = est.max(0.0) + 1.0;
    let b = measured.max(0.0) + 1.0;
    if a >= b {
        a / b
    } else {
        b / a
    }
}

/// Render `EXPLAIN ANALYZE` output: the plan, one row per operator, each
/// annotated with its **static** operation counts (what the compiler
/// predicted at emission time) and its **measured** per-operator metrics
/// from one [`execute_profiled`](crate::exec::execute_profiled) run — rows
/// in/out, elements scanned, join probes, bytes touched, and wall time.
/// Rows where the measured operation counts drift from the static
/// prediction are flagged `<< DRIFT`; the trailer reconciles the per-op
/// deltas against the query's top-level totals. Given `costs` — the
/// per-op estimates of [`annotate_costs`](crate::optimize::annotate_costs),
/// or empty — each row also shows its operator's estimated rows and
/// counter charges with the per-op q-error, and a trailer compares the
/// predicted and measured gate sums.
pub fn explain_analyze(
    graph: &ErGraph,
    plan: &Plan,
    costs: &[CostEst],
    result: &QueryResult,
    profile: &[OpProfile],
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXPLAIN ANALYZE {} [{}]  wall {:.1}µs  rows {} ({} distinct)",
        plan.name,
        plan.strategy,
        result.metrics.elapsed.as_secs_f64() * 1e6,
        result.results,
        result.distinct,
    );
    let mut sum = Metrics::default();
    for p in profile {
        let Some(op) = plan.ops.get(p.op) else { continue };
        sum += p.metrics;
        let mut line = format!(
            "  r{} = {:<42} {:>8} -> {:<8}",
            op.dst(),
            op_desc(graph, op),
            p.rows_in,
            p.rows_out
        );
        let m = &p.metrics;
        for (key, v) in [
            ("scanned", m.elements_scanned),
            ("probes", m.join_probes),
            ("bytes", m.bytes_touched),
            ("idx", m.index_lookups),
            ("skipped", m.elements_skipped),
            ("pg-r", m.page_reads),
            ("pg-hit", m.pool_hits),
            ("pg-ev", m.pool_evictions),
        ] {
            if v > 0 {
                let _ = write!(line, " {key}={v}");
            }
        }
        let _ = write!(line, " {:.1}µs", p.elapsed.as_secs_f64() * 1e6);
        if let Some(c) = costs.get(p.op) {
            // the cost annotation's prediction for this operator, in the
            // same units as the measured counters above
            let _ = write!(
                line,
                "  ~est rows {:.0} scanned {:.0} probes {:.0} bytes {:.0} idx {:.0} ({:?}, q={:.2})",
                c.rows,
                c.scanned,
                c.probes,
                c.bytes,
                c.index_lookups,
                c.kernel,
                q_error(c.gate_sum(), (m.elements_scanned + m.join_probes + m.bytes_touched) as f64),
            );
        }
        if !op_counts_match(m, &op_static(op)) {
            let _ = write!(line, "  << DRIFT: measured op counts differ from static");
        }
        let _ = writeln!(s, "{}  [{}]", line, op_kind(op));
    }
    if !costs.is_empty() {
        let est: f64 = costs.iter().map(|c| c.gate_sum()).sum();
        let meas = (result.metrics.elements_scanned
            + result.metrics.join_probes
            + result.metrics.bytes_touched) as f64;
        let _ = writeln!(
            s,
            "  estimates: gate sum {est:.0} predicted vs {meas:.0} measured (q-error {:.2})",
            q_error(est, meas)
        );
    }
    let t = &result.metrics;
    let _ = writeln!(
        s,
        "  totals: {} structural, {} value, {} crossings, {} dup-elim, {} group-by; \
         scanned {} probes {} bytes {} idx {} skipped {}; \
         pages read {} written {} pool-hits {} evictions {}{}",
        t.structural_joins,
        t.value_joins,
        t.color_crossings,
        t.dup_eliminations,
        t.group_bys,
        t.elements_scanned,
        t.join_probes,
        t.bytes_touched,
        t.index_lookups,
        t.elements_skipped,
        t.page_reads,
        t.page_writes,
        t.pool_hits,
        t.pool_evictions,
        if op_counts_match(&sum, t)
            && (
                sum.elements_scanned,
                sum.join_probes,
                sum.bytes_touched,
                sum.index_lookups,
                sum.elements_skipped,
            ) == (
                t.elements_scanned,
                t.join_probes,
                t.bytes_touched,
                t.index_lookups,
                t.elements_skipped,
            )
        {
            "  (per-op deltas sum exactly)"
        } else {
            "  << DRIFT: per-op deltas do not sum to the totals"
        },
    );
    // storage + service cost lines (DESIGN.md §14/§15): only printed when
    // the run touched the respective layer, so heap-backend direct
    // executions stay byte-identical to the historical output
    let requests = t.page_reads + t.pool_hits;
    if requests > 0 {
        let _ = writeln!(
            s,
            "  storage: pool hit rate {:.3} ({} hits / {} faults)",
            t.pool_hits as f64 / requests as f64,
            t.pool_hits,
            t.page_reads,
        );
    }
    if t.plan_cache_hits + t.plan_cache_misses > 0 {
        let _ = writeln!(
            s,
            "  plan cache: {} hit(s), {} miss(es), {} eviction(s); queue wait {}ns",
            t.plan_cache_hits, t.plan_cache_misses, t.plan_cache_evictions, t.queue_wait_ns,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::exec::execute_profiled;
    use crate::pattern::PatternBuilder;
    use colorist_core::{design, Strategy};
    use colorist_datagen::{generate, materialize, ScaleProfile};
    use colorist_er::catalog;
    use colorist_store::Value;

    #[test]
    fn af_q1_reads_like_the_paper() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let schema = design(&g, Strategy::Af).unwrap();
        let q1 = PatternBuilder::new(&g, "Q1")
            .node("country")
            .pred_eq("name", Value::Text("Japan".into()))
            .node("order")
            .chain(0, 1, &["in", "address", "has", "customer", "make"])
            .unwrap()
            .output(1)
            .build()
            .unwrap();
        let plan = compile(&g, &schema, &q1).unwrap();
        let text = explain(&g, &plan);
        assert!(text.contains("blue::country[@name='Japan']"), "{text}");
        assert!(text.contains("structural join"), "{text}");
        assert!(!text.contains("value join"), "{text}");
    }

    #[test]
    fn explain_analyze_reconciles_exactly() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let inst = generate(&g, &ScaleProfile::tpcw(&g, 40), 42);
        for strategy in [Strategy::Af, Strategy::Shallow, Strategy::Dr] {
            let schema = design(&g, strategy).unwrap();
            let db = materialize(&g, &schema, &inst);
            let q1 = PatternBuilder::new(&g, "Q1")
                .node("country")
                .pred_eq("name", Value::Text("Japan".into()))
                .node("order")
                .chain(0, 1, &["in", "address", "has", "customer", "make"])
                .unwrap()
                .output(1)
                .build()
                .unwrap();
            let plan = compile(&g, &schema, &q1).unwrap();
            let (result, profile) = execute_profiled(&db, &g, &plan).unwrap();
            let text = explain_analyze(&g, &plan, &[], &result, &profile);
            assert!(text.contains("EXPLAIN ANALYZE Q1"), "{text}");
            assert!(text.contains("per-op deltas sum exactly"), "{text}");
            assert!(!text.contains("DRIFT"), "{text}");
            // one rendered row per executed operator
            assert_eq!(
                text.lines().filter(|l| l.trim_start().starts_with('r')).count(),
                plan.ops.len(),
                "{text}"
            );
        }
    }

    #[test]
    fn explain_analyze_shows_estimates_for_annotated_plans() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let inst = generate(&g, &ScaleProfile::tpcw(&g, 40), 42);
        let schema = design(&g, Strategy::Af).unwrap();
        let db = materialize(&g, &schema, &inst);
        let q1 = PatternBuilder::new(&g, "Q1")
            .node("country")
            .pred_eq("name", Value::Text("Japan".into()))
            .node("order")
            .chain(0, 1, &["in", "address", "has", "customer", "make"])
            .unwrap()
            .output(1)
            .build()
            .unwrap();
        let plan = crate::optimize::optimize(&db, &g, &q1).unwrap();
        let costs = crate::optimize::annotate_costs(&db, &g, &plan);
        let (result, profile) = execute_profiled(&db, &g, &plan).unwrap();
        let text = explain_analyze(&g, &plan, &costs, &result, &profile);
        assert!(text.contains("~est rows"), "{text}");
        assert!(text.contains("estimates: gate sum"), "{text}");
        assert!(!text.contains("DRIFT"), "{text}");
        assert!(q_error(10.0, 10.0) == 1.0 && q_error(0.0, 9.0) == 10.0);
    }

    #[test]
    fn shallow_q1_shows_value_joins() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let schema = design(&g, Strategy::Shallow).unwrap();
        let q1 = PatternBuilder::new(&g, "Q1")
            .node("country")
            .pred_eq("name", Value::Text("Japan".into()))
            .node("order")
            .chain(0, 1, &["in", "address", "has", "customer", "make"])
            .unwrap()
            .output(1)
            .build()
            .unwrap();
        let plan = compile(&g, &schema, &q1).unwrap();
        let text = explain(&g, &plan);
        assert!(text.contains("value join"), "{text}");
    }
}

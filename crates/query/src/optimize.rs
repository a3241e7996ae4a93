//! The optimizer entry point and per-operator cost annotation.
//!
//! A plan is a pure function of `(pattern, schema)`. The compiler's
//! placement search already orders realizations by what the paper says a
//! query costs — value joins, then colour crossings, then structural joins
//! (Figure 9) — and all three are fixed by the schema and the pattern, not
//! by the data. So [`optimize`] returns exactly [`compile`]'s plan, under
//! every kernel-dispatch mode, and a cached plan never goes stale.
//!
//! [`annotate_costs`] predicts, per emitted operator, a [`CostEst`]:
//! output cardinality and the `elements_scanned` / `join_probes` /
//! `bytes_touched` / `index_lookups` charges, computed by a forward
//! abstract interpretation of the plan that mirrors the executor's
//! charging formulas term by term — including which kernel the default
//! dispatch will pick (index probe, merge vs gallop, ordinal vs reverse
//! probe). It runs only where estimates are printed or gated: EXPLAIN and
//! the suite that records `est_*` for the perfgate's q-error budget.
//!
//! Its inputs are exact counts read from the stored data: extent lengths,
//! occurrence lists, and the value index — an equality predicate's
//! matching posting run, a range predicate's walk over the column's key
//! groups, and the number of groups as a column's distinct count. A
//! predicated scan's row estimate is therefore exact: it counts the
//! occurrences of exactly the elements the index probe returns. Join
//! output estimates use the standard containment-of-value-sets assumption
//! and carry no hard bound, which is why every estimate is checked against
//! measurement instead of trusted.

use crate::compile::compile;
use crate::error::QueryError;
use crate::exec::valid_desc_placements;
use crate::pattern::{CmpOp, Pattern, Predicate};
use crate::plan::{CostEst, KernelChoice, Op, Plan, VDir};
use colorist_er::{ErGraph, NodeId};
use colorist_mct::ColorId;
use colorist_store::{
    gallop_cost_wins, Database, ElementId, IndexEntry, OccId, Occurrence, ValueKey,
};
use std::cmp::Ordering;

/// The plan `pattern` runs with on `db`: exactly [`compile`]'s, since a
/// plan depends on the pattern and the schema alone. Debug builds also
/// run the static verifier over it.
pub fn optimize(db: &Database, graph: &ErGraph, pattern: &Pattern) -> Result<Plan, QueryError> {
    let plan = compile(graph, &db.schema, pattern)?;
    debug_assert!(
        {
            let diags = crate::verify::verify_plan(graph, &db.schema, &plan);
            if !diags.is_empty() {
                panic!(
                    "optimizer emitted a plan the static verifier rejects:\n{}\n{plan}",
                    diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
                );
            }
            true
        },
        "optimized plan verification"
    );
    Ok(plan)
}

/// Live canonical elements of `node`.
fn extent_rows(db: &Database, node: NodeId) -> f64 {
    db.extent(node).len() as f64
}

/// Occurrences in `color` of the `node` elements satisfying one predicate,
/// counted exactly the way the executor's index probe finds and expands
/// them: the matching posting run for an equality, whole key groups for a
/// range, then each matched element's occurrences.
fn pred_occs(db: &Database, color: ColorId, node: NodeId, p: &Predicate) -> f64 {
    let index = db.value_index();
    let occs = |postings: &[IndexEntry]| -> usize {
        postings.iter().map(|en| db.occurrences_of_logical(color, en.element).len()).sum()
    };
    let rows = match p.op {
        CmpOp::Eq => db.try_join_key(&p.value).map_or(0, |k| occs(index.matching(node, p.attr, k))),
        CmpOp::Lt | CmpOp::Gt => {
            let want = if p.op == CmpOp::Lt { Ordering::Less } else { Ordering::Greater };
            (index.groups(node, p.attr))
                .filter(|(key, _)| db.interner().key_value_cmp(*key, &p.value) == want)
                .map(|(_, group)| occs(group))
                .sum()
        }
    };
    rows as f64
}

/// Distinct stored keys of the `(node, attr)` column.
fn distinct(db: &Database, node: NodeId, attr: usize) -> f64 {
    db.value_index().groups(node, attr).count() as f64
}

/// What the abstract interpreter knows about a register's contents.
#[derive(Debug, Clone, Copy)]
struct RegEst {
    /// Estimated cardinality (occurrences or elements, per the op kind).
    rows: f64,
    /// ER node type of the contents, when a single type is known.
    node: Option<NodeId>,
}

const SZ_OCC_ID: f64 = std::mem::size_of::<OccId>() as f64;
const SZ_OCC: f64 = std::mem::size_of::<Occurrence>() as f64;
const SZ_ELEM: f64 = std::mem::size_of::<ElementId>() as f64;
const SZ_KEY: f64 = std::mem::size_of::<ValueKey>() as f64;

/// `⌈log₂ n⌉` as an estimate term (0 for `n ≤ 1`), mirroring the dispatch
/// crossover in [`gallop_cost_wins`].
fn log2_ceil(n: f64) -> f64 {
    if n <= 1.0 {
        0.0
    } else {
        n.log2().ceil()
    }
}

/// Occurrences of `node` in `color` — exact, from the stored tree.
fn occs_of(db: &Database, color: ColorId, node: NodeId) -> f64 {
    if (color.0 as usize) < db.color_count() {
        db.color(color).of_node(node).len() as f64
    } else {
        0.0
    }
}

/// Occurrence-expansion factor of `node` in `color`: occurrences per
/// canonical element (1 on node-normal schemas, >1 where copies exist).
fn expansion(db: &Database, color: ColorId, node: NodeId) -> f64 {
    let extent = extent_rows(db, node);
    if extent <= 0.0 {
        0.0
    } else {
        occs_of(db, color, node) / extent
    }
}

/// Distinct canonical elements behind a register, for ops that convert
/// occurrence sets to element sets (`to_elems` dedups).
fn elems_behind(db: &Database, r: RegEst) -> f64 {
    match r.node {
        Some(n) => r.rows.min(extent_rows(db, n)),
        None => r.rows,
    }
}

/// Estimated charges of one structural semi-join given the two side sizes,
/// mirroring the merge and gallop kernels' exact accounting; returns the
/// estimate (with `rows` left at 0) and the predicted kernel.
fn struct_semi_cost(anc: f64, desc: f64) -> (CostEst, KernelChoice) {
    let (small, large) = if anc <= desc { (anc, desc) } else { (desc, anc) };
    let kernel = if gallop_cost_wins(small.round() as usize, large.round() as usize) {
        KernelChoice::Gallop
    } else {
        KernelChoice::Merge
    };
    let (scanned, probes, bytes) = match kernel {
        KernelChoice::Gallop => {
            // each driving element binary-searches the large side; probes
            // and the scan charge both track what the search exposes
            let examined = (small * log2_ceil(large)).min(large);
            (small + examined, examined, (small + examined) * SZ_OCC)
        }
        _ => {
            // the merge walks both sides once and probes the stack per
            // descendant (estimated depth 1)
            (anc + desc, desc, (anc + desc) * SZ_OCC)
        }
    };
    (CostEst { op: 0, rows: 0.0, scanned, probes, bytes, index_lookups: 0.0, kernel }, kernel)
}

/// Annotate `plan` with per-operator cost estimates by forward abstract
/// interpretation, mirroring the executor's charging formulas under the
/// cost-model dispatch.
pub fn annotate_costs(db: &Database, graph: &ErGraph, plan: &Plan) -> Vec<CostEst> {
    let mut regs: Vec<RegEst> = vec![RegEst { rows: 0.0, node: None }; plan.reg_count];
    let mut out = Vec::with_capacity(plan.ops.len());
    for (i, op) in plan.ops.iter().enumerate() {
        let mut est = CostEst {
            op: i,
            rows: 0.0,
            scanned: 0.0,
            probes: 0.0,
            bytes: 0.0,
            index_lookups: 0.0,
            kernel: KernelChoice::Default,
        };
        match op {
            Op::Scan { dst, color, node, pred } => {
                let all = occs_of(db, *color, *node);
                match pred {
                    None => {
                        est.rows = all;
                        est.scanned = all;
                        est.bytes = all * SZ_OCC_ID;
                    }
                    Some(p) => {
                        est.kernel = KernelChoice::IndexProbe;
                        let matched = pred_occs(db, *color, *node, p);
                        est.index_lookups = match p.op {
                            CmpOp::Eq => 1.0,
                            // one comparison per distinct stored value
                            CmpOp::Lt | CmpOp::Gt => distinct(db, *node, p.attr),
                        };
                        est.rows = matched;
                        est.scanned = matched;
                        est.bytes = matched * SZ_OCC_ID;
                    }
                }
                regs[*dst] = RegEst { rows: est.rows, node: Some(*node) };
            }
            Op::StructSemi { dst, src, color, node, via, dir } => {
                let s = regs[*src];
                // the executor widens the source to every occurrence of
                // the same logical instances before joining
                let widened = match s.node {
                    Some(n) => (s.rows * expansion(db, *color, n)).min(occs_of(db, *color, n)),
                    None => s.rows,
                };
                match dir {
                    VDir::Down => {
                        let valid = valid_desc_placements(db, *color, *node, via);
                        let tree = db.color(*color);
                        let targets: f64 =
                            valid.iter().map(|&p| tree.of_placement(p).len() as f64).sum();
                        let (mut c, kernel) = struct_semi_cost(widened, targets);
                        if valid.len() > 1 {
                            // the k-way union materializes
                            c.bytes += targets * SZ_OCC_ID;
                        }
                        let anc_pool = match s.node {
                            Some(n) => occs_of(db, *color, n),
                            None => widened,
                        };
                        let sel = if anc_pool > 0.0 { (widened / anc_pool).min(1.0) } else { 0.0 };
                        est = CostEst { op: i, rows: targets * sel, kernel, ..c };
                    }
                    VDir::Up => {
                        // the source is filtered to chain-valid placements
                        let valid_share = match s.node {
                            Some(n) => {
                                let tree = db.color(*color);
                                let pool = occs_of(db, *color, n);
                                if pool > 0.0 {
                                    let v: f64 = valid_desc_placements(db, *color, n, via)
                                        .iter()
                                        .map(|&p| tree.of_placement(p).len() as f64)
                                        .sum();
                                    (v / pool).min(1.0)
                                } else {
                                    0.0
                                }
                            }
                            None => 1.0,
                        };
                        let desc = widened * valid_share;
                        let anc = occs_of(db, *color, *node);
                        let (c, kernel) = struct_semi_cost(anc, desc);
                        let desc_pool = match s.node {
                            Some(n) => occs_of(db, *color, n),
                            None => desc,
                        };
                        let sel = if desc_pool > 0.0 { (desc / desc_pool).min(1.0) } else { 0.0 };
                        est = CostEst { op: i, rows: anc * sel, kernel, ..c };
                    }
                }
                regs[*dst] = RegEst { rows: est.rows, node: Some(*node) };
            }
            Op::ValueSemi { dst, src, edge, src_is_rel, enter } => {
                let e = graph.edge(*edge);
                let src_elems = elems_behind(db, regs[*src]);
                est.probes = src_elems;
                est.index_lookups = src_elems;
                est.bytes = src_elems * SZ_KEY;
                let (target, matched) = if *src_is_rel {
                    // ordinal-dense extent probe: ≤ one hit per source
                    est.kernel = KernelChoice::OrdinalProbe;
                    let part = extent_rows(db, e.participant);
                    (e.participant, src_elems.min(part))
                } else {
                    // sorted-index probe per source ordinal: fanout hits
                    est.kernel = KernelChoice::ReverseProbe;
                    let rel = extent_rows(db, e.rel);
                    let part = extent_rows(db, e.participant);
                    let fanout = if part > 0.0 { rel / part } else { 0.0 };
                    (e.rel, (src_elems * fanout).min(rel))
                };
                est.scanned = src_elems + matched;
                let rows = matched.min(extent_rows(db, target));
                est.rows = match enter {
                    Some(c) => rows * expansion(db, *c, target),
                    None => rows,
                };
                regs[*dst] = RegEst { rows: est.rows, node: Some(target) };
            }
            Op::LinkSemi { dst, src, edge, src_is_rel, enter } => {
                let e = graph.edge(*edge);
                let src_elems = elems_behind(db, regs[*src]);
                est.scanned = src_elems;
                est.probes = src_elems;
                est.bytes = src_elems * SZ_ELEM;
                let (target, matched) = if *src_is_rel {
                    let part = extent_rows(db, e.participant);
                    (e.participant, src_elems.min(part))
                } else {
                    let rel = extent_rows(db, e.rel);
                    let part = extent_rows(db, e.participant);
                    let fanout = if part > 0.0 { rel / part } else { 0.0 };
                    (e.rel, (src_elems * fanout).min(rel))
                };
                let rows = matched.min(extent_rows(db, target));
                est.rows = match enter {
                    Some(c) => rows * expansion(db, *c, target),
                    None => rows,
                };
                regs[*dst] = RegEst { rows: est.rows, node: Some(target) };
            }
            Op::Cross { dst, src, color, node } => {
                let elems = elems_behind(db, regs[*src]);
                est.scanned = elems;
                est.bytes = elems * SZ_ELEM;
                est.rows = elems * expansion(db, *color, *node);
                regs[*dst] = RegEst { rows: est.rows, node: Some(*node) };
            }
            Op::Intersect { dst, a, b } => {
                // uncharged sorted merge; the result can't exceed either side
                est.rows = regs[*a].rows.min(regs[*b].rows);
                regs[*dst] = RegEst { rows: est.rows, ..regs[*a] };
            }
            Op::Distinct { dst, src } => {
                let elems = elems_behind(db, regs[*src]);
                est.bytes = elems * SZ_ELEM;
                est.rows = elems;
                regs[*dst] = RegEst { rows: elems, node: regs[*src].node };
            }
            Op::GroupBy { dst, src, attr } => {
                let elems = elems_behind(db, regs[*src]);
                est.scanned = elems;
                est.bytes = elems * SZ_KEY;
                est.rows = match regs[*src].node {
                    Some(n) => elems.min(distinct(db, n, *attr)),
                    None => elems,
                };
                regs[*dst] = RegEst { rows: est.rows, node: regs[*src].node };
            }
        }
        out.push(est);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::pattern::PatternBuilder;
    use colorist_core::{design, Strategy};
    use colorist_datagen::{generate, materialize, ScaleProfile};
    use colorist_er::catalog;
    use colorist_store::{KernelDispatch, Value};

    fn setup(strategy: Strategy) -> (ErGraph, Database) {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let p = ScaleProfile::tpcw(&g, 60);
        let inst = generate(&g, &p, 77);
        let schema = design(&g, strategy).unwrap();
        let db = materialize(&g, &schema, &inst);
        (g, db)
    }

    fn q1(g: &ErGraph) -> Pattern {
        PatternBuilder::new(g, "Q1")
            .node("country")
            .pred_eq("id", Value::Int(0))
            .node("order")
            .chain(0, 1, &["in", "address", "has", "customer", "make"])
            .unwrap()
            .output(1)
            .build()
            .unwrap()
    }

    #[test]
    fn annotations_carry_one_estimate_per_op() {
        let (g, db) = setup(Strategy::Af);
        let plan = optimize(&db, &g, &q1(&g)).unwrap();
        let costs = annotate_costs(&db, &g, &plan);
        assert_eq!(costs.len(), plan.ops.len());
        for (i, c) in costs.iter().enumerate() {
            assert_eq!(c.op, i);
            assert!(c.rows.is_finite() && c.rows >= 0.0);
            assert!(c.gate_sum().is_finite() && c.gate_sum() >= 0.0);
        }
    }

    #[test]
    fn every_dispatch_mode_gets_the_compiled_plan() {
        let (g, mut db) = setup(Strategy::Af);
        let compiled = compile(&g, &db.schema, &q1(&g)).unwrap();
        for dispatch in
            [KernelDispatch::Reference, KernelDispatch::Ratio, KernelDispatch::CostModel]
        {
            db.set_kernel_dispatch(dispatch);
            let plan = optimize(&db, &g, &q1(&g)).unwrap();
            assert_eq!(plan.ops, compiled.ops, "{dispatch:?}");
            assert!(plan.costs.is_empty(), "{dispatch:?}: optimize does not annotate");
            let a = execute(&db, &g, &plan).unwrap();
            let b = execute(&db, &g, &compiled).unwrap();
            assert_eq!(a.elements, b.elements, "{dispatch:?}");
        }
    }
}

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
//! dispatch will pick (index probe, merge vs gallop vs parent walk,
//! ordinal vs reverse probe). It runs only where estimates are printed or
//! gated: EXPLAIN and the suite that records `est_*` for the perfgate's
//! q-error budget.
//!
//! Its inputs are exact counts read from the stored data — extent
//! lengths, occurrence counts, and the value index's matching postings and
//! key groups — and its charges come from the store's estimators
//! ([`colorist_store::ReadCost`]), which price each read with the
//! formulas the store's reader charges it by. A predicated scan's row
//! estimate is therefore exact: it counts the occurrences of exactly the
//! elements the index probe returns. Join output estimates use the
//! standard containment-of-value-sets assumption and carry no hard bound,
//! which is why every estimate is checked against measurement instead of
//! trusted.

use crate::compile::compile;
use crate::error::QueryError;
use crate::pattern::Pattern;
use crate::plan::{CostEst, KernelChoice, Op, Plan, VDir};
use colorist_er::{ErGraph, NodeId};
use colorist_mct::ColorId;
use colorist_store::{Database, ReadCost, StructKernel};

/// The plan `pattern` runs with on `db`: exactly [`compile`]'s over
/// `db.schema`, since a plan depends on the pattern and the schema alone.
pub fn optimize(db: &Database, graph: &ErGraph, pattern: &Pattern) -> Result<Plan, QueryError> {
    compile(graph, &db.schema, pattern)
}

/// Live canonical elements of `node`.
fn extent_rows(db: &Database, node: NodeId) -> f64 {
    db.extent(node).len() as f64
}

/// What the abstract interpreter knows about a register's contents.
#[derive(Debug, Clone, Copy)]
struct RegEst {
    /// Estimated cardinality (occurrences or elements, per the op kind).
    rows: f64,
    /// ER node type of the contents, when a single type is known.
    node: Option<NodeId>,
}

/// Occurrences per canonical element of `node` in `color` (1 on
/// node-normal schemas, >1 where copies exist).
fn expansion(db: &Database, color: ColorId, node: NodeId) -> f64 {
    let extent = extent_rows(db, node);
    if extent <= 0.0 {
        0.0
    } else {
        db.occ_count(color, node) as f64 / extent
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

/// Whether every register, color, ER node and ER edge `op` names exists —
/// what the executor checks before it reads.
fn operands_exist(db: &Database, graph: &ErGraph, regs: usize, op: &Op) -> bool {
    let reg = |r: usize| r < regs;
    let color = |c: &ColorId| c.idx() < db.color_count();
    let node = |n: &NodeId| n.idx() < graph.node_count();
    let edge = |e: &colorist_er::EdgeId| e.idx() < graph.edge_count();
    let enters = |c: &Option<ColorId>| c.as_ref().is_none_or(color);
    reg(op.dst())
        && match op {
            Op::Scan { color: c, node: n, .. } => color(c) && node(n),
            Op::StructSemi { src, color: c, node: n, via, .. } => {
                reg(*src) && color(c) && node(n) && via.iter().all(edge)
            }
            Op::ValueSemi { src, edge: e, enter, .. }
            | Op::LinkSemi { src, edge: e, enter, .. } => reg(*src) && edge(e) && enters(enter),
            Op::Cross { src, color: c, node: n, .. } => reg(*src) && color(c) && node(n),
            Op::Intersect { a, b, .. } => reg(*a) && reg(*b),
            Op::Distinct { src, .. } | Op::GroupBy { src, .. } => reg(*src),
        }
}

/// Estimate `plan`'s cost per operator by forward abstract
/// interpretation, mirroring the executor's reads under the cost-model
/// dispatch: one [`CostEst`] per op, in op order. Total: an operator
/// naming a register, color, node or edge that does not exist — which the
/// executor would reject — is estimated at zero.
pub fn annotate_costs(db: &Database, graph: &ErGraph, plan: &Plan) -> Vec<CostEst> {
    let mut regs: Vec<RegEst> = vec![RegEst { rows: 0.0, node: None }; plan.reg_count];
    let mut out = Vec::with_capacity(plan.ops.len());
    for op in &plan.ops {
        let zero = ReadCost::default();
        let (cost, kernel, rows, node) = if !operands_exist(db, graph, regs.len(), op) {
            (zero, KernelChoice::Default, 0.0, None)
        } else {
            match op {
                Op::Scan { color, node, pred, .. } => {
                    let (rows, cost) = db.scan_cost(*color, *node, pred.as_ref());
                    let kernel = if pred.is_some() {
                        KernelChoice::IndexProbe
                    } else {
                        KernelChoice::Default
                    };
                    (cost, kernel, rows, Some(*node))
                }
                Op::StructSemi { src, color, node, via, dir, .. } => {
                    let s = regs[*src];
                    // the executor widens the source to every occurrence of
                    // the same logical instances before joining
                    let pool = s.node.map(|n| db.occ_count(*color, n) as f64);
                    let widened = match s.node {
                        Some(n) => (s.rows * expansion(db, *color, n)).min(pool.unwrap_or(0.0)),
                        None => s.rows,
                    };
                    let share = |part: f64, pool: f64| {
                        if pool > 0.0 {
                            (part / pool).min(1.0)
                        } else {
                            0.0
                        }
                    };
                    let (rows, cost) = match dir {
                        VDir::Down => {
                            let src_share = share(widened, pool.unwrap_or(widened));
                            db.descend_cost(*color, *node, via, widened, src_share)
                        }
                        VDir::Up => {
                            // the source is filtered to chain-valid placements
                            let valid_share = match s.node {
                                Some(n) => share(
                                    db.path_occ_count(*color, n, via) as f64,
                                    pool.unwrap_or(0.0),
                                ),
                                None => 1.0,
                            };
                            let desc = widened * valid_share;
                            let anc = db.occ_count(*color, *node) as f64;
                            let cost = db.ascend_cost(*color, *node, via, desc);
                            (anc * share(desc, pool.unwrap_or(desc)), cost)
                        }
                    };
                    let kernel = match cost.kernel {
                        Some(StructKernel::Gallop) => KernelChoice::Gallop,
                        Some(StructKernel::ParentWalk) => KernelChoice::ParentWalk,
                        Some(StructKernel::Merge) | None => KernelChoice::Merge,
                    };
                    (cost, kernel, rows, Some(*node))
                }
                Op::ValueSemi { src, edge, src_is_rel, enter, .. }
                | Op::LinkSemi { src, edge, src_is_rel, enter, .. } => {
                    let e = graph.edge(*edge);
                    let src_elems = elems_behind(db, regs[*src]);
                    let (target, matched) = if *src_is_rel {
                        // ≤ one participant per relationship
                        (e.participant, src_elems.min(extent_rows(db, e.participant)))
                    } else {
                        // fanout relationships per participant
                        let rel = extent_rows(db, e.rel);
                        let part = extent_rows(db, e.participant);
                        let fanout = if part > 0.0 { rel / part } else { 0.0 };
                        (e.rel, (src_elems * fanout).min(rel))
                    };
                    let (cost, kernel) = match (op, src_is_rel) {
                        (Op::LinkSemi { .. }, _) => {
                            (ReadCost::link_semi(src_elems), KernelChoice::Default)
                        }
                        (_, true) => {
                            (ReadCost::idref_semi(src_elems, matched), KernelChoice::OrdinalProbe)
                        }
                        (_, false) => {
                            (ReadCost::idref_semi(src_elems, matched), KernelChoice::ReverseProbe)
                        }
                    };
                    let rows = matched.min(extent_rows(db, target));
                    let rows = match enter {
                        Some(c) => rows * expansion(db, *c, target),
                        None => rows,
                    };
                    (cost, kernel, rows, Some(target))
                }
                Op::Cross { src, color, node, .. } => {
                    let elems = elems_behind(db, regs[*src]);
                    let rows = elems * expansion(db, *color, *node);
                    (ReadCost::cross(elems), KernelChoice::Default, rows, Some(*node))
                }
                Op::Intersect { a, b, .. } => {
                    // uncharged sorted merge; the result can't exceed either side
                    let rows = regs[*a].rows.min(regs[*b].rows);
                    (zero, KernelChoice::Default, rows, regs[*a].node)
                }
                Op::Distinct { src, .. } => {
                    let elems = elems_behind(db, regs[*src]);
                    (ReadCost::distinct(elems), KernelChoice::Default, elems, regs[*src].node)
                }
                Op::GroupBy { src, attr, .. } => {
                    let elems = elems_behind(db, regs[*src]);
                    let rows = match regs[*src].node {
                        Some(n) => elems.min(db.distinct_values(n, *attr) as f64),
                        None => elems,
                    };
                    (ReadCost::group(elems), KernelChoice::Default, rows, regs[*src].node)
                }
            }
        };
        if let Some(r) = regs.get_mut(op.dst()) {
            *r = RegEst { rows, node };
        }
        out.push(CostEst {
            rows,
            scanned: cost.scanned,
            probes: cost.probes,
            bytes: cost.bytes,
            index_lookups: cost.index_lookups,
            kernel,
        });
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
        for c in &costs {
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
            let a = execute(&db, &g, &plan).unwrap();
            let b = execute(&db, &g, &compiled).unwrap();
            assert_eq!(a.elements, b.elements, "{dispatch:?}");
        }
    }
}

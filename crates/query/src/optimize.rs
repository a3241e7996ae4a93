//! The cost-based optimizer: statistics-driven child ordering and
//! per-operator cost annotation.
//!
//! [`optimize`] is a drop-in alternative entry point to
//! [`compile`](crate::compile()). Under
//! [`KernelDispatch::CostModel`](colorist_store::KernelDispatch) it
//!
//! 1. orders each pattern node's child reductions by **estimated subtree
//!    cardinality** (most selective subtree first), using the statistics
//!    catalog's histograms — so every `Intersect` narrows against the
//!    smallest available set first. Reordering sibling reductions is
//!    answer- and counter-neutral (`Intersect` charges nothing and each
//!    child block is self-contained), so this can only help;
//! 2. annotates every emitted operator with a [`CostEst`]: predicted
//!    output cardinality and predicted `elements_scanned` / `join_probes`
//!    / `bytes_touched` / `index_lookups` charges, computed by a forward
//!    abstract interpretation of the plan that mirrors the executor's
//!    charging formulas term by term — including which kernel the
//!    database's dispatch mode will pick (index probe vs linear scan,
//!    merge vs gallop, ordinal vs reverse probe).
//!
//! The estimates are written in the *same units* as the deterministic
//! runtime counters, so `explain_analyze` can print estimate-vs-measured
//! drift per operator and the perfgate can hold the optimizer to a
//! committed q-error budget. Under the heuristic dispatch modes
//! (`Ratio`, `Reference`) `optimize` degrades to plain `compile` — the
//! one-variable-at-a-time differential partner.
//!
//! Estimation errors are bounded where the catalog is exact (extent and
//! occurrence cardinalities, distinct counts) and bounded by the
//! equi-depth bucket depth where it is approximate (predicate
//! selectivities); join output estimates use the standard
//! containment-of-value-sets assumption and carry no hard bound — which
//! is exactly why every estimate is checked against measurement instead
//! of trusted.

use crate::compile::{compile, compile_with};
use crate::error::QueryError;
use crate::exec::valid_desc_placements;
use crate::pattern::{CmpOp, Pattern, Predicate};
use crate::plan::{CostEst, KernelChoice, Op, Plan, VDir};
use colorist_er::{ErGraph, NodeId};
use colorist_mct::ColorId;
use colorist_store::{
    gallop_cost_wins, CmpKind, Database, ElementId, KernelDispatch, OccId, Occurrence, StatKey,
    ValueKey,
};

/// Compile `pattern` with cost-based child ordering and cost annotations
/// when the database runs the cost-model dispatch; fall back to the plain
/// heuristic compiler under `Ratio`/`Reference` so differential runs
/// compare exactly one variable at a time.
pub fn optimize(db: &Database, graph: &ErGraph, pattern: &Pattern) -> Result<Plan, QueryError> {
    if db.kernel_dispatch() != KernelDispatch::CostModel {
        return compile(graph, &db.schema, pattern);
    }
    let _span = colorist_trace::span("optimize", format_args!("optimize:{}", pattern.name));
    let order = |v: usize, edges: &[usize]| order_children(db, pattern, v, edges);
    let mut plan = compile_with(graph, &db.schema, pattern, Some(&order))?;
    plan.costs = annotate_costs(db, graph, &plan);
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

/// Estimated element-level row count of one pattern node: its predicate's
/// histogram estimate, or the full extent when unpredicated.
fn node_rows(db: &Database, pattern: &Pattern, v: usize) -> f64 {
    let node = pattern.nodes[v].node;
    let extent = db.statistics().extent_rows(node) as f64;
    match &pattern.nodes[v].predicate {
        None => extent,
        Some(p) => pred_rows(db, node, p).min(extent),
    }
}

/// A digest of everything this module reads from the summary behind
/// `key` when it optimizes `pattern`: an extent's cardinality; a column's
/// row and distinct counts and the estimate of each predicate the pattern
/// puts on it; a color's version (its occurrence lists are read whole).
/// Two databases that agree on this digest for every summary in the
/// plan's read footprint optimize `pattern` to the same plan — the plan
/// cache's licence to keep serving one across commits that rebuilt a
/// summary without moving it. Keep it in step with [`node_rows`],
/// [`pred_rows`] and [`annotate_costs`].
pub(crate) fn statistics_inputs(db: &Database, pattern: &Pattern, key: StatKey) -> u64 {
    let stats = db.statistics();
    match key {
        StatKey::Extent(node) => stats.extent_rows(node),
        StatKey::Color(_) => stats.version(key),
        StatKey::Column(node, attr) => {
            let (rows, distinct) =
                stats.column(node, attr).map_or((0, 0), |c| (c.rows, c.distinct));
            let estimates = pattern
                .nodes
                .iter()
                .filter(|n| n.node == node)
                .filter_map(|n| n.predicate.as_ref().filter(|p| p.attr == attr))
                .map(|p| pred_rows(db, node, p).to_bits());
            [rows, distinct]
                .into_iter()
                .chain(estimates)
                .fold(0xcbf2_9ce4_8422_2325, |h, v| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3))
        }
    }
}

/// Histogram estimate for one predicate, in canonical elements.
fn pred_rows(db: &Database, node: NodeId, p: &Predicate) -> f64 {
    let kind = match p.op {
        CmpOp::Eq => CmpKind::Eq,
        CmpOp::Lt => CmpKind::Lt,
        CmpOp::Gt => CmpKind::Gt,
    };
    db.estimate_predicate_matches(node, p.attr, kind, &p.value).0
}

/// Greedy child ordering: ascending estimated subtree cardinality, where a
/// child subtree's cardinality is the *minimum* estimated row count over
/// its pattern nodes — the bound a chain of semi-joins propagates up to
/// the parent's `Intersect`. Ties keep syntactic order (stable sort), so
/// the ordering — like everything downstream of it — is deterministic.
fn order_children(db: &Database, pattern: &Pattern, v: usize, edges: &[usize]) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = edges
        .iter()
        .map(|&ei| {
            let e = &pattern.edges[ei];
            let child = if e.from == v { e.to } else { e.from };
            (subtree_min_rows(db, pattern, child, v), ei)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, ei)| ei).collect()
}

/// Minimum estimated row count over the pattern subtree rooted at `v`
/// when the edge back to `parent` is removed.
fn subtree_min_rows(db: &Database, pattern: &Pattern, v: usize, parent: usize) -> f64 {
    let mut best = f64::INFINITY;
    let mut stack = vec![(v, parent)];
    while let Some((u, from)) = stack.pop() {
        best = best.min(node_rows(db, pattern, u));
        for e in &pattern.edges {
            for (a, b) in [(e.from, e.to), (e.to, e.from)] {
                if a == u && b != from {
                    stack.push((b, u));
                }
            }
        }
    }
    best
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
    let extent = db.statistics().extent_rows(node) as f64;
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
        Some(n) => r.rows.min(db.statistics().extent_rows(n) as f64),
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
/// cost-model dispatch. Public so tests and benches can annotate plans
/// compiled elsewhere.
pub fn annotate_costs(db: &Database, graph: &ErGraph, plan: &Plan) -> Vec<CostEst> {
    let stats = db.statistics();
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
                        let matched = pred_rows(db, *node, p).min(stats.extent_rows(*node) as f64)
                            * expansion(db, *color, *node);
                        est.index_lookups = match p.op {
                            CmpOp::Eq => 1.0,
                            // one comparison per distinct stored value
                            CmpOp::Lt | CmpOp::Gt => {
                                stats.column(*node, p.attr).map_or(0.0, |c| c.distinct as f64)
                            }
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
                    let part = stats.extent_rows(e.participant) as f64;
                    (e.participant, src_elems.min(part))
                } else {
                    // sorted-index probe per source ordinal: fanout hits
                    est.kernel = KernelChoice::ReverseProbe;
                    let rel = stats.extent_rows(e.rel) as f64;
                    let part = stats.extent_rows(e.participant) as f64;
                    let fanout = if part > 0.0 { rel / part } else { 0.0 };
                    (e.rel, (src_elems * fanout).min(rel))
                };
                est.scanned = src_elems + matched;
                let rows = matched.min(stats.extent_rows(target) as f64);
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
                    let part = stats.extent_rows(e.participant) as f64;
                    (e.participant, src_elems.min(part))
                } else {
                    let rel = stats.extent_rows(e.rel) as f64;
                    let part = stats.extent_rows(e.participant) as f64;
                    let fanout = if part > 0.0 { rel / part } else { 0.0 };
                    (e.rel, (src_elems * fanout).min(rel))
                };
                let rows = matched.min(stats.extent_rows(target) as f64);
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
                est.rows = match regs[*src].node.and_then(|n| stats.column(n, *attr)) {
                    Some(c) => elems.min(c.distinct as f64),
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
    use colorist_store::Value;

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
    fn optimized_plans_carry_one_estimate_per_op() {
        let (g, db) = setup(Strategy::Af);
        let plan = optimize(&db, &g, &q1(&g)).unwrap();
        assert_eq!(plan.costs.len(), plan.ops.len());
        for (i, c) in plan.costs.iter().enumerate() {
            assert_eq!(c.op, i);
            assert!(c.rows.is_finite() && c.rows >= 0.0);
            assert!(c.gate_sum().is_finite() && c.gate_sum() >= 0.0);
        }
    }

    #[test]
    fn heuristic_dispatch_pins_the_heuristic_planner() {
        let (g, mut db) = setup(Strategy::Af);
        db.set_reference_kernels(true);
        let plan = optimize(&db, &g, &q1(&g)).unwrap();
        assert!(plan.costs.is_empty(), "reference mode compiles heuristically");
        db.set_kernel_dispatch(KernelDispatch::Ratio);
        let plan = optimize(&db, &g, &q1(&g)).unwrap();
        assert!(plan.costs.is_empty(), "ratio mode compiles heuristically");
        db.set_kernel_dispatch(KernelDispatch::CostModel);
        let plan = optimize(&db, &g, &q1(&g)).unwrap();
        assert!(!plan.costs.is_empty(), "cost-model mode annotates");
    }

    #[test]
    fn optimized_and_heuristic_plans_answer_identically() {
        for strategy in [Strategy::Deep, Strategy::Af, Strategy::Undr] {
            let (g, db) = setup(strategy);
            let pattern = q1(&g);
            let optimized = optimize(&db, &g, &pattern).unwrap();
            let heuristic = compile(&g, &db.schema, &pattern).unwrap();
            let a = execute(&db, &g, &optimized).unwrap();
            let b = execute(&db, &g, &heuristic).unwrap();
            assert_eq!(a.elements, b.elements, "same answers under both planners");
            assert!(!optimized.costs.is_empty() && heuristic.costs.is_empty());
        }
    }
}

//! Compiled query plans: linear semi-join programs over registers.
//!
//! A plan reduces the pattern tree bottom-up: leaf scans produce candidate
//! sets, and each pattern edge reduces its parent's candidates to those
//! with a match on the child side, by a chain of structural semi-joins,
//! value semi-joins, and color crossings. The static operation counts of a
//! plan are precisely the per-query metrics of Figures 8–10.
//!
//! Structural semi-joins are *path-exact*: each carries the ER edge
//! sequence (`via`) it realizes, and the executor pairs an ancestor with a
//! descendant only when the descendant's placement chain matches `via` and
//! the level distance equals `via.len()` — a single stack-merge pass per
//! join (in the spirit of the holistic twig joins the paper cites), so a
//! run of same-direction steps costs one structural join, which is exactly
//! the expressive benefit of the `//` axis the paper leverages.

use crate::pattern::Predicate;
use colorist_er::{EdgeId, NodeId};
use colorist_mct::{ColorId, PlacementId};
use colorist_store::Metrics;
use std::fmt;

/// Register index.
pub type Reg = usize;

/// Vertical direction of a structural semi-join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VDir {
    /// Targets are descendants of the source set.
    Down,
    /// Targets are ancestors of the source set.
    Up,
}

/// One plan operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Scan all occurrences of an ER node type in a color, with optional
    /// predicate (XPath label match).
    Scan {
        /// Destination register.
        dst: Reg,
        /// Color scanned.
        color: ColorId,
        /// ER node type (element label).
        node: NodeId,
        /// Predicate on the element's attributes.
        pred: Option<Predicate>,
    },
    /// Path-exact structural semi-join within `color`: `dst` = occurrences
    /// of `node` that are descendants (`Down`) or ancestors (`Up`) of `src`
    /// along exactly the `via` edge sequence.
    StructSemi {
        /// Destination register.
        dst: Reg,
        /// Source register (occurrences in `color`).
        src: Reg,
        /// The color navigated.
        color: ColorId,
        /// Target label.
        node: NodeId,
        /// Realized ER edges, ancestor-side first.
        via: Vec<EdgeId>,
        /// Direction of navigation from the source set.
        dir: VDir,
    },
    /// Value semi-join across an idref-encoded ER edge: `dst` = elements on
    /// the far side of `edge` matching `src`, re-entering `enter`'s colored
    /// tree if the plan continues structurally.
    ValueSemi {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// The idref-encoded ER edge.
        edge: EdgeId,
        /// Whether `src` holds the relationship side (probing participants
        /// by id) or the participant side (probing relationship idrefs).
        src_is_rel: bool,
        /// Where the result re-enters a colored tree.
        enter: Option<ColorId>,
    },
    /// Parent-child link semi-join across one ER edge, using the stored
    /// link adjacency (the parent-child pairs every realization of the edge
    /// materializes). The compiler's fallback when no *complete* structural
    /// chain exists — exact on any schema, but never able to skip levels,
    /// so long associations cost one of these per hop.
    LinkSemi {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// The ER edge hopped.
        edge: EdgeId,
        /// Whether `src` holds the relationship side.
        src_is_rel: bool,
        /// Where the result re-enters a colored tree.
        enter: Option<ColorId>,
    },
    /// Color crossing: `dst` = occurrences of the same logical instances in
    /// `color` (MCT's distinctive navigation step).
    Cross {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Target color.
        color: ColorId,
        /// The node type crossed (labels only; for explain output).
        node: NodeId,
    },
    /// Intersection of two occurrence sets (same color) — the merge step of a
    /// multi-child semi-join; not a counted operation.
    Intersect {
        /// Destination register.
        dst: Reg,
        /// One input.
        a: Reg,
        /// Other input.
        b: Reg,
    },
    /// Logical duplicate elimination: `dst` = distinct canonical elements.
    Distinct {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Group the source by an attribute of its elements (aggregation).
    GroupBy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Attribute index grouped on.
        attr: usize,
    },
}

impl Op {
    /// Destination register of the operator.
    pub fn dst(&self) -> Reg {
        match *self {
            Op::Scan { dst, .. }
            | Op::StructSemi { dst, .. }
            | Op::ValueSemi { dst, .. }
            | Op::LinkSemi { dst, .. }
            | Op::Cross { dst, .. }
            | Op::Intersect { dst, .. }
            | Op::Distinct { dst, .. }
            | Op::GroupBy { dst, .. } => dst,
        }
    }
}

/// A completeness charge: the compiler's record of where one structural
/// run's completeness obligation anchors — the placement whose extent must
/// be full for the run to discover every logical pair. For a `Down` run
/// the anchor is the run's start (top) placement; for an `Up` run it is
/// the placement the run terminates at (the §4.2 top-up rule: topped-up
/// orphans at the bottom cannot be ascended from). Every `StructSemi`
/// carries exactly one charge; the static verifier ([`crate::verify`])
/// re-derives the admissible anchors from the IR and the schema and
/// rejects plans whose recorded charges are missing, duplicated, or
/// mis-sited — e.g. anchored at the run's bottom placement, the exact
/// shape of the pre-fix §4.2 completeness bug (`P007`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// Index into [`Plan::ops`] of the charged `StructSemi`.
    pub op: usize,
    /// The anchor placement whose completeness the run depends on.
    pub at: PlacementId,
}

/// The physical kernel the optimizer predicts an operator will run on.
///
/// Recorded in [`CostEst::kernel`] so `explain_analyze` can show which
/// dispatch decision each estimate backed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// No kernel alternative exists for this operator (Cross, Intersect,
    /// Distinct, GroupBy, LinkSemi's single path, …).
    Default,
    /// Predicate scan satisfied by a value-index probe.
    IndexProbe,
    /// Predicate scan satisfied by a linear extent walk (reference path).
    LinearScan,
    /// Structural semi-join on the stack-merge kernel.
    Merge,
    /// Structural semi-join on the gallop-skipping kernel.
    Gallop,
    /// Structural ascent climbing parent links, never reading the
    /// ancestor list.
    ParentWalk,
    /// Value semi-join on the reference hash-join kernel.
    HashJoin,
    /// Value semi-join probing participants by ordinal id (idref→id).
    OrdinalProbe,
    /// Value semi-join probing relationship idrefs via the index (id→idref).
    ReverseProbe,
}

/// One operator's cost estimate, in the same units as the deterministic
/// runtime counters so estimate-vs-measured drift is directly comparable.
/// `annotate_costs` returns one per [`Plan::ops`] entry, in op order; a
/// plan itself carries none.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEst {
    /// Estimated output cardinality (rows in the destination register).
    pub rows: f64,
    /// Estimated `elements_scanned` charged by this operator.
    pub scanned: f64,
    /// Estimated `join_probes` charged by this operator.
    pub probes: f64,
    /// Estimated `bytes_touched` charged by this operator.
    pub bytes: f64,
    /// Estimated `index_lookups` charged by this operator.
    pub index_lookups: f64,
    /// The kernel the estimate assumes the operator dispatches to.
    pub kernel: KernelChoice,
}

impl CostEst {
    /// The estimate's contribution to the perfgate domination sum
    /// (`elements_scanned + join_probes + bytes_touched`).
    pub fn gate_sum(&self) -> f64 {
        self.scanned + self.probes + self.bytes
    }
}

/// A compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Query name.
    pub name: String,
    /// Strategy label of the schema compiled against.
    pub strategy: String,
    /// Operators, in execution order.
    pub ops: Vec<Op>,
    /// Register holding the final result.
    pub output: Reg,
    /// Number of registers.
    pub reg_count: usize,
    /// Static operation counts recorded by the compiler at emission time.
    /// Must equal [`Plan::static_metrics`] (re-derived from the IR); the
    /// verifier reports drift as `P008`.
    pub metrics: Metrics,
    /// Completeness charges recorded by the compiler, exactly one per
    /// `StructSemi`, each anchored at its run's top placement.
    pub charges: Vec<Charge>,
}

impl Plan {
    /// Construct a plan from its IR, deriving the recorded static metrics
    /// from the operator list (so `P008` holds by construction). The
    /// compiler builds every plan through here.
    pub fn new(
        name: String,
        strategy: String,
        ops: Vec<Op>,
        output: Reg,
        reg_count: usize,
        charges: Vec<Charge>,
    ) -> Plan {
        let mut plan =
            Plan { name, strategy, ops, output, reg_count, metrics: Metrics::default(), charges };
        plan.metrics = plan.static_metrics();
        plan
    }
    /// The plan-level operation counts (Figures 8–10): these are exactly
    /// what execution will report, since every operator runs once.
    pub fn static_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for op in &self.ops {
            match op {
                Op::Scan { .. } | Op::Intersect { .. } => {}
                // a link semi-join is a single parent-child structural step
                Op::StructSemi { .. } | Op::LinkSemi { .. } => m.structural_joins += 1,
                Op::ValueSemi { .. } => m.value_joins += 1,
                Op::Cross { .. } => m.color_crossings += 1,
                Op::Distinct { .. } => m.dup_eliminations += 1,
                Op::GroupBy { .. } => m.group_bys += 1,
            }
        }
        m
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan {} [{}] -> r{}", self.name, self.strategy, self.output)?;
        for op in &self.ops {
            match op {
                Op::Scan { dst, color, node, pred } => {
                    write!(f, "  r{dst} = scan {color}::{node}")?;
                    if pred.is_some() {
                        write!(f, " [pred]")?;
                    }
                    writeln!(f)?;
                }
                Op::StructSemi { dst, src, color, node, via, dir } => writeln!(
                    f,
                    "  r{dst} = struct{} r{src} -> {color}::{node} via {} edge(s)",
                    if *dir == VDir::Down { "↓" } else { "↑" },
                    via.len()
                )?,
                Op::ValueSemi { dst, src, edge, src_is_rel, enter } => {
                    write!(f, "  r{dst} = valuejoin r{src} across {edge}")?;
                    write!(f, "{}", if *src_is_rel { " (idref→id)" } else { " (id→idref)" })?;
                    if let Some(c) = enter {
                        write!(f, " enter {c}")?;
                    }
                    writeln!(f)?;
                }
                Op::LinkSemi { dst, src, edge, .. } => {
                    writeln!(f, "  r{dst} = linkjoin r{src} across {edge}")?
                }
                Op::Cross { dst, src, color, node } => {
                    writeln!(f, "  r{dst} = cross r{src} -> {color}::{node}")?
                }
                Op::Intersect { dst, a, b } => writeln!(f, "  r{dst} = r{a} ∩ r{b}")?,
                Op::Distinct { dst, src } => writeln!(f, "  r{dst} = distinct r{src}")?,
                Op::GroupBy { dst, src, attr } => writeln!(f, "  r{dst} = groupby r{src} @{attr}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_metrics_count_ops() {
        let mut plan = Plan {
            name: "t".into(),
            strategy: "EN".into(),
            ops: vec![
                Op::Scan { dst: 0, color: ColorId(0), node: NodeId(0), pred: None },
                Op::StructSemi {
                    dst: 1,
                    src: 0,
                    color: ColorId(0),
                    node: NodeId(1),
                    via: vec![EdgeId(0), EdgeId(1)],
                    dir: VDir::Down,
                },
                Op::Cross { dst: 2, src: 1, color: ColorId(1), node: NodeId(1) },
                Op::ValueSemi { dst: 3, src: 2, edge: EdgeId(0), src_is_rel: true, enter: None },
                Op::Intersect { dst: 4, a: 3, b: 1 },
                Op::Distinct { dst: 5, src: 4 },
                Op::GroupBy { dst: 6, src: 5, attr: 0 },
            ],
            output: 6,
            reg_count: 7,
            metrics: Metrics::default(),
            charges: Vec::new(),
        };
        plan.metrics = plan.static_metrics();
        let m = plan.static_metrics();
        assert_eq!(plan.metrics, m, "recorded metrics mirror the derivation");
        assert_eq!(m.structural_joins, 1);
        assert_eq!(m.value_joins, 1);
        assert_eq!(m.color_crossings, 1);
        assert_eq!(m.dup_eliminations, 1);
        assert_eq!(m.group_bys, 1);
        let txt = plan.to_string();
        assert!(txt.contains("valuejoin"), "{txt}");
        assert!(txt.contains("struct↓"), "{txt}");
        assert!(txt.contains('∩'), "{txt}");
        assert_eq!(plan.ops[1].dst(), 1);
    }
}

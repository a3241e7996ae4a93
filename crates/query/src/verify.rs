//! Static plan verification: an abstract interpreter over the semi-join IR.
//!
//! [`verify_plan`] re-checks, from the plan, the schema, and the ER graph
//! alone — no database — every invariant the compiler is supposed to
//! establish, and reports violations as clippy-style diagnostics with
//! stable codes. The abstract state tracked per register is
//! `(node, color, placement-set, set kind)`: a sound over-approximation of
//! the placements the register's occurrences can inhabit at run time,
//! mirroring the executor's widening to logical occurrences
//! (`expand_to_logical_occs`) so no compiler-emitted plan is rejected.
//!
//! Diagnostic codes (`P0xx`; the schema linter's `S0xx` codes live in
//! `colorist_mct::lint`):
//!
//! | code | invariant |
//! |------|-----------|
//! | P001 | every source register is defined before use |
//! | P002 | destination registers are in bounds and written exactly once |
//! | P003 | every defined register is consumed (or is the output) |
//! | P004 | a `StructSemi`'s `via` chain exists in the target color's placement forest, connects the endpoint node types, and its level distance equals `via.len()` |
//! | P005 | `ValueSemi` only crosses idref-encoded ER edges |
//! | P006 | node/color agreement: operands hold the set kind, node type and color their operator expects, and scans/crossings land on existing placements |
//! | P007 | completeness charges are present, unique, and anchored at a run's terminating (top) placement — the §4.2 top-up rule (the seed-231 bug class) |
//! | P008 | the plan's recorded [`Metrics`](colorist_store::Metrics) equal the counts re-derived from the IR |
//! | P009 | plan header well-formedness: the output register exists and is defined |
//!
//! The pass is wired three ways: a `debug_assert!` in
//! [`compile`](crate::compile::compile) (every compiled plan is verified in
//! debug builds), the `colorist-lint` binary (whole catalog × strategies),
//! and the differential oracle (every plan of every CI seed).

use crate::compile::completeness;
use crate::plan::{Op, Plan, Reg, VDir};
use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::{ColorId, MctSchema, PlacementId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One diagnostic produced by the static plan verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDiag {
    /// Stable diagnostic code (`P001`..`P009`).
    pub code: &'static str,
    /// Index of the offending op in [`Plan::ops`], when attributable.
    pub op: Option<usize>,
    /// Human-readable description of the violated invariant.
    pub msg: String,
}

impl PlanDiag {
    fn new(code: &'static str, op: Option<usize>, msg: String) -> Self {
        PlanDiag { code, op, msg }
    }
}

impl fmt::Display for PlanDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Some(i) => write!(f, "{} [op {}]: {}", self.code, i, self.msg),
            None => write!(f, "{}: {}", self.code, self.msg),
        }
    }
}

/// Abstract register value: what the verifier knows about the set a
/// register will hold at run time. The `complete` flag records whether the
/// set provably contains *every* logical instance satisfying the
/// constraints applied so far — the per-register form of the compiler's
/// placement-completeness analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AbsVal {
    /// An occurrence set: node type, color, and the placements its members
    /// can inhabit (a superset of the placements actually reached).
    Occs { node: NodeId, color: ColorId, placements: BTreeSet<PlacementId>, complete: bool },
    /// A canonical element set of one node type (after a value/link join
    /// with no re-entry, or duplicate elimination).
    Elems { node: NodeId, complete: bool },
    /// A grouped result over elements of one node type.
    Groups { node: NodeId, complete: bool },
    /// Analysis lost track (an earlier diagnostic was already reported for
    /// this dataflow); downstream checks are suppressed to avoid cascades.
    Unknown,
}

impl AbsVal {
    fn node(&self) -> Option<NodeId> {
        match *self {
            AbsVal::Occs { node, .. }
            | AbsVal::Elems { node, .. }
            | AbsVal::Groups { node, .. } => Some(node),
            AbsVal::Unknown => None,
        }
    }

    fn complete(&self) -> bool {
        match *self {
            AbsVal::Occs { complete, .. }
            | AbsVal::Elems { complete, .. }
            | AbsVal::Groups { complete, .. } => complete,
            AbsVal::Unknown => false,
        }
    }
}

/// Verify one compiled plan against the schema it targets. Returns every
/// diagnostic found — an empty vector means the plan is statically sound.
pub fn verify_plan(graph: &ErGraph, schema: &MctSchema, plan: &Plan) -> Vec<PlanDiag> {
    Verifier {
        graph,
        schema,
        full: completeness(graph, schema),
        diags: Vec::new(),
        anchors: BTreeMap::new(),
    }
    .run(plan)
    .0
}

/// Render the abstract interpretation of a plan: one line per operator
/// showing the abstract value the verifier assigns to its destination
/// register, followed by any diagnostics. This is the explain-level view
/// of [`verify_plan`], printed by `colorist-oracle --replay` next to each
/// compiled plan.
pub fn explain_abstract(graph: &ErGraph, schema: &MctSchema, plan: &Plan) -> String {
    use std::fmt::Write as _;
    let (diags, trace) = Verifier {
        graph,
        schema,
        full: completeness(graph, schema),
        diags: Vec::new(),
        anchors: BTreeMap::new(),
    }
    .run(plan);
    let mut s = String::new();
    let _ = writeln!(s, "abstract states ({}):", plan.name);
    for (i, (op, val)) in plan.ops.iter().zip(&trace).enumerate() {
        let rendered = match val {
            AbsVal::Occs { node, color, placements, complete } => format!(
                "occs {}::{} over {} placement(s), {}",
                color,
                graph.node(*node).name,
                placements.len(),
                if *complete { "complete" } else { "incomplete" }
            ),
            AbsVal::Elems { node, complete } => format!(
                "elems {} ({})",
                graph.node(*node).name,
                if *complete { "complete" } else { "incomplete" }
            ),
            AbsVal::Groups { node, complete } => format!(
                "groups of {} ({})",
                graph.node(*node).name,
                if *complete { "complete" } else { "incomplete" }
            ),
            AbsVal::Unknown => "⊥ (analysis lost track)".into(),
        };
        let _ = writeln!(s, "  op {i}: r{} = {rendered}", op.dst());
    }
    if diags.is_empty() {
        let _ = writeln!(s, "  verifier: clean");
    } else {
        for d in &diags {
            let _ = writeln!(s, "  verifier: {d}");
        }
    }
    s
}

struct Verifier<'a> {
    graph: &'a ErGraph,
    schema: &'a MctSchema,
    /// Per placement: statically guaranteed to hold the full extent
    /// (the compiler's completeness analysis, shared verbatim).
    full: Vec<bool>,
    diags: Vec<PlanDiag>,
    /// Per `StructSemi` op: the set of admissible completeness anchors —
    /// the run's top placements actually reachable from the abstract
    /// source set. Populated during interpretation, consumed by the
    /// charge audit (`P007`).
    anchors: BTreeMap<usize, BTreeSet<PlacementId>>,
}

impl<'a> Verifier<'a> {
    fn diag(&mut self, code: &'static str, op: Option<usize>, msg: String) {
        self.diags.push(PlanDiag::new(code, op, msg));
    }

    fn run(mut self, plan: &Plan) -> (Vec<PlanDiag>, Vec<AbsVal>) {
        let mut regs: Vec<Option<AbsVal>> = vec![None; plan.reg_count];
        let mut used: Vec<bool> = vec![false; plan.reg_count];
        let mut trace: Vec<AbsVal> = Vec::with_capacity(plan.ops.len());

        for (i, op) in plan.ops.iter().enumerate() {
            // reads first (so `dst == src` still counts the use)
            let val = self.eval(i, op, &mut regs, &mut used);
            trace.push(val.clone());
            let dst = op.dst();
            match regs.get_mut(dst) {
                None => self.diag(
                    "P002",
                    Some(i),
                    format!(
                        "destination register r{dst} out of bounds ({} registers)",
                        plan.reg_count
                    ),
                ),
                Some(slot) => {
                    if slot.is_some() {
                        self.diag(
                            "P002",
                            Some(i),
                            format!("register r{dst} redefined (registers are single-assignment)"),
                        );
                    }
                    *slot = Some(val);
                }
            }
        }

        // P009: output register well-formedness
        match regs.get(plan.output) {
            None => self.diag(
                "P009",
                None,
                format!(
                    "output register r{} out of bounds ({} registers)",
                    plan.output, plan.reg_count
                ),
            ),
            Some(None) => self.diag(
                "P009",
                None,
                format!("output register r{} is never defined", plan.output),
            ),
            Some(Some(_)) => {}
        }

        // P003: dead registers — defined, never consumed, not the output
        for (r, slot) in regs.iter().enumerate() {
            if slot.is_some() && !used[r] && r != plan.output {
                self.diag("P003", None, format!("register r{r} is defined but never used"));
            }
        }

        // P008: recorded metrics must equal the IR-derived counts
        let derived = plan.static_metrics();
        if plan.metrics != derived {
            self.diag(
                "P008",
                None,
                format!(
                    "recorded metrics drift from the IR: recorded {:?}, derived {:?}",
                    plan.metrics, derived
                ),
            );
        }

        self.audit_charges(plan);
        (self.diags, trace)
    }

    /// `P007`: every `StructSemi` carries exactly one completeness charge,
    /// anchored at one of the run's admissible top placements — the start
    /// of a descent, the termination of an ascent (§4.2 top-up rule). A
    /// charge at the run's *bottom* placement — the pre-fix completeness
    /// bug — is mis-sited and rejected here.
    fn audit_charges(&mut self, plan: &Plan) {
        let mut charged: BTreeMap<usize, Vec<PlacementId>> = BTreeMap::new();
        for ch in &plan.charges {
            match plan.ops.get(ch.op) {
                Some(Op::StructSemi { .. }) => {
                    charged.entry(ch.op).or_default().push(ch.at);
                }
                Some(_) => self.diag(
                    "P007",
                    Some(ch.op),
                    "completeness charge on a non-structural op".into(),
                ),
                None => self.diag(
                    "P007",
                    None,
                    format!("completeness charge on out-of-range op {}", ch.op),
                ),
            }
        }
        for (op, ats) in &charged {
            if ats.len() > 1 {
                self.diag(
                    "P007",
                    Some(*op),
                    format!(
                        "structural run carries {} completeness charges, expected one",
                        ats.len()
                    ),
                );
            }
            let Some(anchors) = self.anchors.get(op).cloned() else {
                // the op itself already failed abstract interpretation;
                // its own diagnostic covers it
                continue;
            };
            for &at in ats {
                if !anchors.contains(&at) {
                    let dir = match plan.ops[*op] {
                        Op::StructSemi { dir: VDir::Up, .. } => "terminating (top)",
                        _ => "start (top)",
                    };
                    self.diag(
                        "P007",
                        Some(*op),
                        format!(
                            "completeness charge anchored at {at}, which is not the run's \
                             {dir} placement (§4.2 top-up rule)"
                        ),
                    );
                }
            }
        }
        // every successfully analyzed structural run must carry its charge
        let anchor_ops: Vec<usize> = self.anchors.keys().copied().collect();
        for op in anchor_ops {
            if !charged.contains_key(&op) {
                self.diag("P007", Some(op), "structural run carries no completeness charge".into());
            }
        }
    }

    /// Read a source register, marking it used; reports `P001` when unset.
    fn use_reg(&mut self, i: usize, r: Reg, regs: &[Option<AbsVal>], used: &mut [bool]) -> AbsVal {
        match regs.get(r) {
            Some(Some(v)) => {
                used[r] = true;
                v.clone()
            }
            Some(None) => {
                used[r] = true;
                self.diag("P001", Some(i), format!("register r{r} used before definition"));
                AbsVal::Unknown
            }
            None => {
                self.diag(
                    "P001",
                    Some(i),
                    format!("source register r{r} out of bounds ({} registers)", regs.len()),
                );
                AbsVal::Unknown
            }
        }
    }

    fn color_ok(&mut self, i: usize, c: ColorId, who: &str) -> bool {
        if c.idx() < self.schema.color_count() {
            true
        } else {
            self.diag(
                "P006",
                Some(i),
                format!("{who}: color {c} out of range ({} colors)", self.schema.color_count()),
            );
            false
        }
    }

    fn node_ok(&mut self, i: usize, n: NodeId, who: &str) -> bool {
        if n.idx() < self.graph.node_count() {
            true
        } else {
            self.diag("P006", Some(i), format!("{who}: ER node {n:?} out of range"));
            false
        }
    }

    fn edge_ok(&mut self, i: usize, code: &'static str, e: EdgeId, who: &str) -> bool {
        if e.idx() < self.graph.edge_count() {
            true
        } else {
            self.diag(code, Some(i), format!("{who}: ER edge {e:?} out of range"));
            false
        }
    }

    /// Mirror of the executor's `expand_to_logical_occs`: on colors where
    /// the node has several placements, run-time sets are widened to every
    /// occurrence of the same logical instances before a structural join.
    fn widen(
        &self,
        node: NodeId,
        color: ColorId,
        set: &BTreeSet<PlacementId>,
    ) -> BTreeSet<PlacementId> {
        let all = self.schema.placements_of_in_color(node, color);
        if all.len() > 1 {
            all.into_iter().collect()
        } else {
            set.clone()
        }
    }

    /// Walk `p`'s parent chain matching `via` ancestor-side-first (the
    /// executor's `chain_matches`); the endpoint, or `None` on mismatch.
    fn walk_up(&self, p: PlacementId, via: &[EdgeId]) -> Option<PlacementId> {
        let mut cur = p;
        for &expected in via.iter().rev() {
            match self.schema.placement(cur).parent {
                Some((pp, e)) if e == expected => cur = pp,
                _ => return None,
            }
        }
        Some(cur)
    }

    fn eval(
        &mut self,
        i: usize,
        op: &Op,
        regs: &mut [Option<AbsVal>],
        used: &mut [bool],
    ) -> AbsVal {
        match op {
            Op::Scan { color, node, pred, .. } => {
                if !self.color_ok(i, *color, "Scan") || !self.node_ok(i, *node, "Scan") {
                    return AbsVal::Unknown;
                }
                if let Some(p) = pred {
                    let n_attrs = self.graph.node(*node).attributes.len();
                    if p.attr >= n_attrs {
                        self.diag(
                            "P006",
                            Some(i),
                            format!(
                                "Scan: predicate attribute #{} out of range for `{}` ({n_attrs} attributes)",
                                p.attr,
                                self.graph.node(*node).name
                            ),
                        );
                    }
                }
                let placements: BTreeSet<PlacementId> =
                    self.schema.placements_of_in_color(*node, *color).into_iter().collect();
                if placements.is_empty() {
                    self.diag(
                        "P006",
                        Some(i),
                        format!(
                            "Scan: `{}` has no placement in color {color}",
                            self.graph.node(*node).name
                        ),
                    );
                    return AbsVal::Unknown;
                }
                let complete = placements.iter().any(|p| self.full[p.idx()]);
                AbsVal::Occs { node: *node, color: *color, placements, complete }
            }

            Op::StructSemi { src, color, node, via, dir, .. } => {
                let sv = self.use_reg(i, *src, regs, used);
                if !self.color_ok(i, *color, "StructSemi") || !self.node_ok(i, *node, "StructSemi")
                {
                    return AbsVal::Unknown;
                }
                let (src_node, src_set, src_complete) = match sv {
                    AbsVal::Occs { node: n, color: c, placements, complete } => {
                        if c != *color {
                            self.diag(
                                "P006",
                                Some(i),
                                format!(
                                    "StructSemi: source r{src} holds occurrences in color {c}, \
                                     navigates {color}"
                                ),
                            );
                            return AbsVal::Unknown;
                        }
                        (n, placements, complete)
                    }
                    AbsVal::Unknown => return AbsVal::Unknown,
                    _ => {
                        self.diag(
                            "P006",
                            Some(i),
                            format!("StructSemi: source r{src} does not hold an occurrence set"),
                        );
                        return AbsVal::Unknown;
                    }
                };
                if via.is_empty() {
                    self.diag("P004", Some(i), "StructSemi with an empty `via` chain".into());
                    return AbsVal::Unknown;
                }
                if via.iter().any(|&e| e.idx() >= self.graph.edge_count()) {
                    self.diag("P004", Some(i), "`via` contains an out-of-range ER edge".into());
                    return AbsVal::Unknown;
                }
                // the chain must be a connected ER path between the
                // endpoint node types (ancestor-side-first)
                let (top_node, bottom_node) = match dir {
                    VDir::Down => (src_node, *node),
                    VDir::Up => (*node, src_node),
                };
                if self.graph.chain_end(top_node, via) != Some(bottom_node) {
                    self.diag(
                        "P004",
                        Some(i),
                        format!(
                            "`via` is not an ER path from `{}` to `{}`",
                            self.graph.node(top_node).name,
                            self.graph.node(bottom_node).name
                        ),
                    );
                    return AbsVal::Unknown;
                }
                let widened = self.widen(src_node, *color, &src_set);
                let mut result: BTreeSet<PlacementId> = BTreeSet::new();
                let mut anchors: BTreeSet<PlacementId> = BTreeSet::new();
                match dir {
                    VDir::Down => {
                        // valid landings: placements of `node` whose upward
                        // chain realizes `via` and tops out in the source
                        // set — level distance is exactly via.len() by
                        // construction of the walk
                        for q in self.schema.placements_of_in_color(*node, *color) {
                            if let Some(top) = self.walk_up(q, via) {
                                if widened.contains(&top) {
                                    result.insert(q);
                                    anchors.insert(top);
                                }
                            }
                        }
                    }
                    VDir::Up => {
                        // ascents: sources whose chain matches terminate at
                        // the run's top placement, which must be of `node`
                        for &p in &widened {
                            if let Some(top) = self.walk_up(p, via) {
                                if self.schema.placement(top).node == *node {
                                    result.insert(top);
                                    anchors.insert(top);
                                }
                            }
                        }
                    }
                }
                if result.is_empty() {
                    self.diag(
                        "P004",
                        Some(i),
                        format!(
                            "no placement chain in color {color} realizes `via` ({} edge(s), {dir:?}) \
                             from the source set",
                            via.len()
                        ),
                    );
                    return AbsVal::Unknown;
                }
                // the run discovers every pair only when its source was
                // complete and every admissible anchor holds a full extent
                let complete = src_complete && anchors.iter().all(|a| self.full[a.idx()]);
                self.anchors.insert(i, anchors);
                AbsVal::Occs { node: *node, color: *color, placements: result, complete }
            }

            Op::ValueSemi { src, edge, src_is_rel, enter, .. } => {
                let sv = self.use_reg(i, *src, regs, used);
                if !self.edge_ok(i, "P005", *edge, "ValueSemi") {
                    return AbsVal::Unknown;
                }
                if self.schema.idref_for(*edge).is_none() {
                    let ed = self.graph.edge(*edge);
                    self.diag(
                        "P005",
                        Some(i),
                        format!(
                            "value join across `{}[{}]`, which the schema does not idref-encode",
                            self.graph.node(ed.rel).name,
                            self.graph.node(ed.participant).name
                        ),
                    );
                    return AbsVal::Unknown;
                }
                self.join_result(i, sv, *edge, *src_is_rel, *enter, "ValueSemi")
            }

            Op::LinkSemi { src, edge, src_is_rel, enter, .. } => {
                let sv = self.use_reg(i, *src, regs, used);
                if !self.edge_ok(i, "P006", *edge, "LinkSemi") {
                    return AbsVal::Unknown;
                }
                self.join_result(i, sv, *edge, *src_is_rel, *enter, "LinkSemi")
            }

            Op::Cross { src, color, node, .. } => {
                let sv = self.use_reg(i, *src, regs, used);
                if !self.color_ok(i, *color, "Cross") || !self.node_ok(i, *node, "Cross") {
                    return AbsVal::Unknown;
                }
                if let Some(n) = sv.node() {
                    if n != *node {
                        self.diag(
                            "P006",
                            Some(i),
                            format!(
                                "Cross: source holds `{}`, op crosses `{}`",
                                self.graph.node(n).name,
                                self.graph.node(*node).name
                            ),
                        );
                        return AbsVal::Unknown;
                    }
                } else {
                    return AbsVal::Unknown;
                }
                let placements: BTreeSet<PlacementId> =
                    self.schema.placements_of_in_color(*node, *color).into_iter().collect();
                if placements.is_empty() {
                    self.diag(
                        "P006",
                        Some(i),
                        format!(
                            "Cross: `{}` has no placement in color {color}",
                            self.graph.node(*node).name
                        ),
                    );
                    return AbsVal::Unknown;
                }
                // a crossing drops instances absent from the target color
                // unless some target placement holds the full extent
                let complete = sv.complete() && placements.iter().any(|p| self.full[p.idx()]);
                AbsVal::Occs { node: *node, color: *color, placements, complete }
            }

            Op::Intersect { a, b, .. } => {
                let va = self.use_reg(i, *a, regs, used);
                let vb = self.use_reg(i, *b, regs, used);
                match (va, vb) {
                    (
                        AbsVal::Occs { node: na, color: ca, placements: pa, complete: fa },
                        AbsVal::Occs { node: nb, color: cb, placements: pb, complete: fb },
                    ) => {
                        if ca != cb {
                            self.diag(
                                "P006",
                                Some(i),
                                format!("Intersect: colors differ ({ca} vs {cb})"),
                            );
                            return AbsVal::Unknown;
                        }
                        if na != nb {
                            self.diag(
                                "P006",
                                Some(i),
                                format!(
                                    "Intersect: node types differ (`{}` vs `{}`)",
                                    self.graph.node(na).name,
                                    self.graph.node(nb).name
                                ),
                            );
                            return AbsVal::Unknown;
                        }
                        // members of the result lie in both abstract sets
                        let placements: BTreeSet<PlacementId> =
                            pa.intersection(&pb).copied().collect();
                        AbsVal::Occs { node: na, color: ca, placements, complete: fa && fb }
                    }
                    (AbsVal::Unknown, _) | (_, AbsVal::Unknown) => AbsVal::Unknown,
                    _ => {
                        self.diag(
                            "P006",
                            Some(i),
                            "Intersect: both operands must hold occurrence sets".into(),
                        );
                        AbsVal::Unknown
                    }
                }
            }

            Op::Distinct { src, .. } => {
                let sv = self.use_reg(i, *src, regs, used);
                match sv.node() {
                    Some(node) => AbsVal::Elems { node, complete: sv.complete() },
                    None => AbsVal::Unknown,
                }
            }

            Op::GroupBy { src, attr, .. } => {
                let sv = self.use_reg(i, *src, regs, used);
                let Some(node) = sv.node() else {
                    return AbsVal::Unknown;
                };
                let n_attrs = self.graph.node(node).attributes.len();
                if *attr >= n_attrs {
                    self.diag(
                        "P006",
                        Some(i),
                        format!(
                            "GroupBy: attribute #{attr} out of range for `{}` ({n_attrs} attributes)",
                            self.graph.node(node).name
                        ),
                    );
                    return AbsVal::Unknown;
                }
                AbsVal::Groups { node, complete: sv.complete() }
            }
        }
    }

    /// Shared checks + abstract result of `ValueSemi`/`LinkSemi`: the
    /// source must hold the declared side of the edge; the result is the
    /// other side, re-entered into `enter`'s forest when requested.
    fn join_result(
        &mut self,
        i: usize,
        sv: AbsVal,
        edge: EdgeId,
        src_is_rel: bool,
        enter: Option<ColorId>,
        who: &str,
    ) -> AbsVal {
        let e = self.graph.edge(edge);
        let (expect_src, result_node) =
            if src_is_rel { (e.rel, e.participant) } else { (e.participant, e.rel) };
        match sv.node() {
            Some(n) if n != expect_src => {
                self.diag(
                    "P006",
                    Some(i),
                    format!(
                        "{who}: source holds `{}`, edge side expects `{}`",
                        self.graph.node(n).name,
                        self.graph.node(expect_src).name
                    ),
                );
                return AbsVal::Unknown;
            }
            Some(_) => {}
            None => return AbsVal::Unknown,
        }
        // value/link joins probe full logical extents, so completeness is
        // inherited from the source (re-entry may drop instances absent
        // from the target color, as with `Cross`)
        let src_complete = sv.complete();
        match enter {
            Some(c) => {
                if !self.color_ok(i, c, who) {
                    return AbsVal::Unknown;
                }
                let placements: BTreeSet<PlacementId> =
                    self.schema.placements_of_in_color(result_node, c).into_iter().collect();
                if placements.is_empty() {
                    self.diag(
                        "P006",
                        Some(i),
                        format!(
                            "{who}: `{}` has no placement in color {c} to re-enter",
                            self.graph.node(result_node).name
                        ),
                    );
                    return AbsVal::Unknown;
                }
                let complete = src_complete && placements.iter().any(|p| self.full[p.idx()]);
                AbsVal::Occs { node: result_node, color: c, placements, complete }
            }
            None => AbsVal::Elems { node: result_node, complete: src_complete },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::pattern::PatternBuilder;
    use crate::plan::Charge;
    use colorist_core::{design, Strategy};
    use colorist_er::{catalog, ErGraph};
    use colorist_store::Value;

    fn setup(strategy: Strategy) -> (ErGraph, MctSchema) {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let schema = design(&g, strategy).unwrap();
        (g, schema)
    }

    fn q1(g: &ErGraph) -> crate::pattern::Pattern {
        PatternBuilder::new(g, "Q1")
            .node("country")
            .pred_eq("id", Value::Int(0))
            .node("order")
            .chain(0, 1, &["in", "address", "has", "customer", "make"])
            .unwrap()
            .output(1)
            .distinct()
            .build()
            .unwrap()
    }

    #[test]
    fn compiled_plans_verify_clean_on_all_strategies() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            let plan = compile(&g, &schema, &q1(&g)).unwrap();
            let diags = verify_plan(&g, &schema, &plan);
            assert!(diags.is_empty(), "{s}: {:?}\n{plan}", diags);
        }
    }

    #[test]
    fn use_before_def_and_dead_registers_are_rejected() {
        let (g, schema) = setup(Strategy::Af);
        let mut plan = compile(&g, &schema, &q1(&g)).unwrap();
        // point a consumer at a fresh, never-written register: its former
        // producer goes dead (P003) and the read is undefined (P001)
        plan.reg_count += 1;
        let bogus = plan.reg_count - 1;
        let redirected = plan.ops.iter_mut().rev().any(|op| match op {
            Op::Intersect { b, .. } => {
                *b = bogus;
                true
            }
            Op::Distinct { src, .. } | Op::GroupBy { src, .. } => {
                *src = bogus;
                true
            }
            _ => false,
        });
        assert!(redirected, "plan has a consumer to redirect\n{plan}");
        let codes: Vec<_> = verify_plan(&g, &schema, &plan).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"P001"), "{codes:?}");
        assert!(codes.contains(&"P003"), "dangling producer: {codes:?}");
    }

    #[test]
    fn broken_via_chain_is_rejected() {
        let (g, schema) = setup(Strategy::Af);
        let mut plan = compile(&g, &schema, &q1(&g)).unwrap();
        let semi = plan
            .ops
            .iter_mut()
            .find_map(|op| match op {
                Op::StructSemi { via, .. } => Some(via),
                _ => None,
            })
            .expect("Q1 on AF has a structural join");
        semi.pop();
        let diags = verify_plan(&g, &schema, &plan);
        assert!(diags.iter().any(|d| d.code == "P004"), "{diags:?}");
    }

    #[test]
    fn metrics_drift_is_rejected() {
        let (g, schema) = setup(Strategy::Af);
        let mut plan = compile(&g, &schema, &q1(&g)).unwrap();
        plan.metrics.structural_joins += 1;
        let diags = verify_plan(&g, &schema, &plan);
        assert!(diags.iter().any(|d| d.code == "P008"), "{diags:?}");
    }

    /// The seed-231 bug shape, statically: Q1 on DEEP descends through
    /// incomplete placements, so its plan carries a completeness charge at
    /// the run's top placement. Re-siting that charge to the run's bottom
    /// placement — the §4.2 bug — must be rejected as `P007` without
    /// running a query.
    #[test]
    fn resited_completeness_charge_is_p007() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let mut found = false;
        let mut missing_caught = false;
        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            let plan = compile(&g, &schema, &q1(&g)).unwrap();
            let Some(ch) = plan.charges.first().copied() else { continue };
            found = true;
            let Op::StructSemi { node, color, ref via, dir, .. } = plan.ops[ch.op] else {
                panic!("charge on non-structural op")
            };
            // the run's bottom-side node: the target itself for a descent,
            // the far end of the `via` chain for an ascent
            let bottom_node = match dir {
                VDir::Down => node,
                VDir::Up => g.chain_end(node, via).unwrap(),
            };
            let bottom = schema
                .placements_of_in_color(bottom_node, color)
                .into_iter()
                .find(|&p| p != ch.at)
                .expect("run has a bottom placement distinct from its top anchor");
            let mut bad = plan.clone();
            bad.charges[0] = Charge { op: ch.op, at: bottom };
            let diags = verify_plan(&g, &schema, &bad);
            assert!(diags.iter().any(|d| d.code == "P007"), "{s}: {diags:?}\n{bad}");

            // dropping the charge entirely is also P007 (the "missing"
            // arm fires when every admissible anchor is incomplete; count
            // across strategies so at least one run proves it)
            let mut missing = plan.clone();
            missing.charges.clear();
            let diags = verify_plan(&g, &schema, &missing);
            if diags.iter().any(|d| d.code == "P007") {
                missing_caught = true;
            }

            // duplicating it is P007 too
            let mut dup = plan.clone();
            dup.charges.push(ch);
            let diags = verify_plan(&g, &schema, &dup);
            assert!(diags.iter().any(|d| d.code == "P007"), "{s} dup: {diags:?}");
        }
        assert!(found, "no strategy produced a charged plan for Q1");
        assert!(missing_caught, "no strategy flagged a dropped charge");
    }
}

//! The schema-aware pattern compiler.
//!
//! For every pattern edge (an exact ER path), the compiler searches the
//! schema's placements for the cheapest realization, where a hop between
//! adjacent ER nodes can be:
//!
//! * a **structural step** in some color — descending along a placement
//!   edge, or ascending (XPath's parent/ancestor axes); consecutive
//!   same-direction steps merge into a single path-exact structural join;
//! * a **color crossing** — re-entering the same logical node's occurrences
//!   in another colored tree (MCT's distinctive step);
//! * an **id/idref value join** — the fallback for edges the schema only
//!   encodes by value.
//!
//! Costs are lexicographic: a completeness tier first (see the
//! `completeness` analysis below), then `(value joins, color crossings, structural
//! joins)` — the paper's measured cost order ("the time taken to evaluate a
//! query appears to be almost proportional to the number of value joins or
//! color crossings … little correlation with the number of structural
//! joins").
//!
//! Placements for all pattern nodes are chosen jointly: the pattern tree is
//! processed bottom-up and each pattern edge runs one **multi-source
//! Dijkstra** over its layered placement graph, seeded with the child
//! node's accumulated costs — one search per edge rather than one per
//! source placement, which keeps DEEP's thousands of placements
//! compilable.

use crate::error::QueryError;
use crate::pattern::Pattern;
use crate::plan::{Charge, Op, Plan, Reg, VDir};
use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::{MctSchema, PlacementId};
use std::collections::{BinaryHeap, HashMap};

/// Lexicographic plan cost: (incomplete runs, value joins, crossings,
/// structural joins). The leading component penalizes structural runs whose
/// anchor placement is not statically guaranteed to hold the full logical
/// extent — for a Down run its start (top) placement, for an Up run the
/// placement it terminates at (every realized pair hangs *below* an
/// occurrence of the run's top placement, so topped-up orphans at the
/// bottom cannot be ascended from). Such runs are legal on un-normalized
/// schemas but able to miss pairs, so the compiler avoids them whenever
/// any complete realization exists.
type Cost = (u64, u64, u64, u64);

const INF: Cost = (u64::MAX, u64::MAX, u64::MAX, u64::MAX);
const ZERO: Cost = (0, 0, 0, 0);

fn add(a: Cost, b: Cost) -> Cost {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
}

/// One transition of a realized pattern-edge chain, oriented child→parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Structural move along an ER edge to the placement.
    Struct { edge: EdgeId, to: PlacementId, down: bool },
    /// Color crossing / placement hop to the placement.
    Cross { to: PlacementId },
    /// Value join across the edge, landing at the placement.
    Value { edge: EdgeId, to: PlacementId },
    /// Parent-child link join across the edge, landing at the placement.
    Link { edge: EdgeId, to: PlacementId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Mode {
    Fresh,
    Down,
    Up,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct State {
    layer: u16,
    placement: PlacementId,
    mode: Mode,
}

/// Compile `pattern` against `schema`, emitting each pattern node's child
/// reductions in syntactic order.
pub fn compile(graph: &ErGraph, schema: &MctSchema, pattern: &Pattern) -> Result<Plan, QueryError> {
    let _span = colorist_trace::span("compile", format_args!("compile:{}", pattern.name));
    let full = completeness(graph, schema);
    Compiler { graph, schema, full }.run(pattern)
}

struct Compiler<'a> {
    graph: &'a ErGraph,
    schema: &'a MctSchema,
    /// Per placement: is its occurrence set statically the full extent of
    /// its node type?
    full: Vec<bool>,
}

/// Static completeness analysis. A placement holds the full extent when:
///
/// * it is the *only* placement of its node in its color — the
///   materializer's heterogeneous-instance pass then tops it up (§4.2); or
/// * it is a root placement (roots materialize whole extents); or
/// * it is a relationship under one of its participants whose placement is
///   full (every relationship instance has that participant); or
/// * it is a participant under its relationship with **total**
///   participation, below a full placement (every participant instance
///   appears in some relationship instance).
pub(crate) fn completeness(graph: &ErGraph, schema: &MctSchema) -> Vec<bool> {
    let n = schema.placements().len();
    let mut full = vec![false; n];
    // placements are created parents-first, so one forward pass suffices
    for i in 0..n {
        let p = PlacementId(i as u32);
        let pl = schema.placement(p);
        full[i] = match pl.parent {
            None => true,
            Some((pp, e)) => {
                let edge = graph.edge(e);
                let parent_full = full[pp.idx()];
                if edge.rel == pl.node {
                    parent_full
                } else {
                    parent_full && edge.participation == colorist_er::Participation::Total
                }
            }
        };
        if !full[i] && schema.placements_of_in_color(pl.node, pl.color).len() == 1 {
            full[i] = true;
        }
    }
    full
}

/// Per pattern edge, per parent placement: the chain's child-side start
/// placement and the steps (child → parent).
type StepsTo = HashMap<PlacementId, (PlacementId, Vec<Step>)>;

impl<'a> Compiler<'a> {
    fn run(&self, pattern: &Pattern) -> Result<Plan, QueryError> {
        let n = pattern.nodes.len();
        // rooted tree structure over pattern nodes
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n]; // edge indexes
        {
            let mut seen = vec![false; n];
            let mut stack = vec![pattern.output];
            seen[pattern.output] = true;
            while let Some(v) = stack.pop() {
                for (ei, e) in pattern.edges.iter().enumerate() {
                    for (a, b) in [(e.from, e.to), (e.to, e.from)] {
                        if a == v && !seen[b] {
                            seen[b] = true;
                            children[v].push(ei);
                            stack.push(b);
                        }
                    }
                }
            }
        }

        // post-order DP with per-edge multi-source Dijkstra
        let order = post_order(pattern, &children);
        let mut node_costs: Vec<HashMap<PlacementId, Cost>> = vec![HashMap::new(); n];
        let mut edge_steps: Vec<Option<StepsTo>> = vec![None; pattern.edges.len()];
        for &v in &order {
            let v_node = pattern.nodes[v].node;
            let mut cost_v: HashMap<PlacementId, Cost> =
                self.schema.placements_of(v_node).iter().map(|&p| (p, ZERO)).collect();
            for &ei in &children[v] {
                let e = &pattern.edges[ei];
                let child = if e.from == v { e.to } else { e.from };
                // orient the path child → parent
                let (nodes, path): (Vec<NodeId>, Vec<EdgeId>) = if e.to == v {
                    (e.nodes.clone(), e.path.clone())
                } else {
                    (
                        e.nodes.iter().rev().copied().collect(),
                        e.path.iter().rev().copied().collect(),
                    )
                };
                let (dist, steps) = self.multi_dijkstra(&nodes, &path, &node_costs[child])?;
                cost_v.retain(|p, c| match dist.get(p) {
                    Some(&d) => {
                        *c = add(*c, d);
                        true
                    }
                    None => false,
                });
                edge_steps[ei] = Some(steps);
            }
            if cost_v.is_empty() {
                let name = &self.graph.node(v_node).name;
                return Err(QueryError::Unreachable { from: name.clone(), to: name.clone() });
            }
            node_costs[v] = cost_v;
        }

        // pick the root placement
        let root = pattern.output;
        let (&root_placement, _) = node_costs[root]
            .iter()
            .min_by_key(|&(&p, &c)| (c, p))
            .ok_or_else(|| QueryError::Internal {
                diag: "P009 root pattern node has no feasible placement after cost propagation"
                    .into(),
            })?;

        // emit bottom-up, walking the chosen chains down the tree
        let mut ops: Vec<Op> = Vec::new();
        let mut regs = 0usize;
        let mut charges: Vec<Charge> = Vec::new();
        let mut out = self.emit_node(
            pattern,
            &children,
            &edge_steps,
            root,
            root_placement,
            &mut ops,
            &mut regs,
            &mut charges,
        )?;

        if pattern.distinct && self.schema_has_copies() {
            let r = alloc(&mut regs);
            ops.push(Op::Distinct { dst: r, src: out });
            out = r;
        }
        if let Some(attr) = pattern.group_by {
            let r = alloc(&mut regs);
            ops.push(Op::GroupBy { dst: r, src: out, attr });
            out = r;
        }

        let plan =
            Plan::new(pattern.name.clone(), self.schema.strategy.clone(), ops, out, regs, charges);
        debug_assert!(
            {
                let diags = crate::verify::verify_plan(self.graph, self.schema, &plan);
                if !diags.is_empty() {
                    panic!(
                        "compiler emitted a plan the static verifier rejects:\n{}\n{plan}",
                        diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
                    );
                }
                true
            },
            "plan verification"
        );
        Ok(plan)
    }

    /// Emit the scan + child reductions of pattern node `v` at placement
    /// `pv`; returns the register with `v`'s final candidate set.
    #[allow(clippy::too_many_arguments)]
    fn emit_node(
        &self,
        pattern: &Pattern,
        children: &[Vec<usize>],
        edge_steps: &[Option<StepsTo>],
        v: usize,
        pv: PlacementId,
        ops: &mut Vec<Op>,
        regs: &mut usize,
        charges: &mut Vec<Charge>,
    ) -> Result<Reg, QueryError> {
        let color = self.schema.placement(pv).color;
        let mut reg = alloc(regs);
        ops.push(Op::Scan {
            dst: reg,
            color,
            node: pattern.nodes[v].node,
            pred: pattern.nodes[v].predicate.clone(),
        });
        for &ei in &children[v] {
            let e = &pattern.edges[ei];
            let child = if e.from == v { e.to } else { e.from };
            let (child_placement, steps) =
                edge_steps[ei].as_ref().and_then(|m| m.get(&pv)).cloned().ok_or_else(|| {
                    QueryError::Internal {
                        diag: format!(
                            "P009 no reconstructed chain for pattern edge {ei} at placement {pv:?}"
                        ),
                    }
                })?;
            let child_reg = self.emit_node(
                pattern,
                children,
                edge_steps,
                child,
                child_placement,
                ops,
                regs,
                charges,
            )?;
            let reduced =
                self.emit_chain(ops, regs, charges, child_reg, child_placement, &steps)?;
            let r = alloc(regs);
            ops.push(Op::Intersect { dst: r, a: reg, b: reduced });
            reg = r;
        }
        Ok(reg)
    }

    /// Emit the op chain for one pattern edge (steps oriented child →
    /// parent); returns the register holding the parent-side occurrences.
    /// `start` is the chain's child-side start placement; tracking the
    /// current placement across steps lets each structural run record its
    /// completeness [`Charge`] at the anchor the cost model charged — a
    /// Down run at its start (top) placement, an Up run at the placement it
    /// terminates at.
    fn emit_chain(
        &self,
        ops: &mut Vec<Op>,
        regs: &mut usize,
        charges: &mut Vec<Charge>,
        child_reg: Reg,
        start: PlacementId,
        steps: &[Step],
    ) -> Result<Reg, QueryError> {
        let mut reg = child_reg;
        let mut cur = start;
        let mut i = 0usize;
        while i < steps.len() {
            match steps[i] {
                Step::Cross { to } => {
                    let r = alloc(regs);
                    ops.push(Op::Cross {
                        dst: r,
                        src: reg,
                        color: self.schema.placement(to).color,
                        node: self.schema.placement(to).node,
                    });
                    reg = r;
                    cur = to;
                    i += 1;
                }
                Step::Value { edge, to } => {
                    // the plan would need a value join across this edge:
                    // reject now, at compile time, if the schema does not
                    // idref-encode it (the executor only double-checks)
                    if self.schema.idref_for(edge).is_none() {
                        let ed = self.graph.edge(edge);
                        return Err(QueryError::NotIdrefEncoded {
                            edge: format!(
                                "{}[{}]",
                                self.graph.node(ed.rel).name,
                                self.graph.node(ed.participant).name
                            ),
                        });
                    }
                    let to_node = self.schema.placement(to).node;
                    let src_is_rel = self.graph.edge(edge).participant == to_node;
                    let r = alloc(regs);
                    ops.push(Op::ValueSemi {
                        dst: r,
                        src: reg,
                        edge,
                        src_is_rel,
                        enter: Some(self.schema.placement(to).color),
                    });
                    reg = r;
                    cur = to;
                    i += 1;
                }
                Step::Link { edge, to } => {
                    let to_node = self.schema.placement(to).node;
                    let src_is_rel = self.graph.edge(edge).participant == to_node;
                    let r = alloc(regs);
                    ops.push(Op::LinkSemi {
                        dst: r,
                        src: reg,
                        edge,
                        src_is_rel,
                        enter: Some(self.schema.placement(to).color),
                    });
                    reg = r;
                    cur = to;
                    i += 1;
                }
                Step::Struct { down, .. } => {
                    // maximal same-direction run -> one path-exact join
                    let mut run = Vec::new();
                    let mut last_to = None;
                    let mut j = i;
                    while j < steps.len() {
                        match steps[j] {
                            Step::Struct { edge, to, down: d } if d == down => {
                                run.push(edge);
                                last_to = Some(to);
                                j += 1;
                            }
                            _ => break,
                        }
                    }
                    let to = last_to.ok_or_else(|| QueryError::Internal {
                        diag: "P009 empty structural run in reconstructed chain".into(),
                    })?;
                    // `via` is ancestor-side-first: a Down run traverses
                    // top→bottom (already in order); an Up run traverses
                    // bottom→top (reverse it).
                    let mut via = run;
                    if !down {
                        via.reverse();
                    }
                    // the run's completeness anchor: top placement — where
                    // the cost model levied its `incomplete`/`up_exit`
                    // charge (Down: the start; Up: the termination).
                    let anchor = if down { cur } else { to };
                    let r = alloc(regs);
                    charges.push(Charge { op: ops.len(), at: anchor });
                    ops.push(Op::StructSemi {
                        dst: r,
                        src: reg,
                        color: self.schema.placement(to).color,
                        node: self.schema.placement(to).node,
                        via,
                        dir: if down { VDir::Down } else { VDir::Up },
                    });
                    reg = r;
                    cur = to;
                    i = j;
                }
            }
        }
        Ok(reg)
    }

    fn schema_has_copies(&self) -> bool {
        self.graph.node_ids().any(|n| {
            self.schema.colors().any(|c| self.schema.placements_of_in_color(n, c).len() > 1)
        })
    }

    /// Multi-source Dijkstra over the layered placement graph of one
    /// pattern edge, oriented child (layer 0) → parent (last layer).
    /// Sources: every child placement, seeded with its accumulated cost.
    /// Returns the best cost per parent placement plus the reconstructed
    /// chain and its child-side start.
    fn multi_dijkstra(
        &self,
        nodes: &[NodeId],
        path: &[EdgeId],
        sources: &HashMap<PlacementId, Cost>,
    ) -> Result<(HashMap<PlacementId, Cost>, StepsTo), QueryError> {
        let mut dist: HashMap<State, Cost> = HashMap::new();
        let mut preds: HashMap<State, (State, Step)> = HashMap::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(Cost, State)>> = BinaryHeap::new();
        for (&p, &c) in sources {
            let st = State { layer: 0, placement: p, mode: Mode::Fresh };
            dist.insert(st, c);
            heap.push(std::cmp::Reverse((c, st)));
        }

        while let Some(std::cmp::Reverse((c, st))) = heap.pop() {
            if dist.get(&st).is_some_and(|&d| d < c) {
                continue;
            }
            let relax = |dist: &mut HashMap<State, Cost>,
                         preds: &mut HashMap<State, (State, Step)>,
                         heap: &mut BinaryHeap<std::cmp::Reverse<(Cost, State)>>,
                         next: State,
                         nc: Cost,
                         step: Step| {
                if nc < *dist.get(&next).unwrap_or(&INF) {
                    dist.insert(next, nc);
                    preds.insert(next, (st, step));
                    heap.push(std::cmp::Reverse((nc, next)));
                }
            };

            // An Up run discovers all pairs only when the placement it ENDS
            // at holds the full extent: every realized pair hangs below an
            // occurrence of the run's top placement, so topped-up orphans at
            // the bottom (present but parentless, §4.2) cannot be ascended
            // from. The charge is deferred to whichever transition leaves
            // Up mode (and to the collapse below, for runs ending the
            // chain), because the terminating placement is unknown mid-run.
            let up_exit = u64::from(st.mode == Mode::Up && !self.full[st.placement.idx()]);

            let layer = st.layer as usize;
            // crossings within the layer
            for &q in self.schema.placements_of(nodes[layer]) {
                if q != st.placement {
                    let next = State { layer: st.layer, placement: q, mode: Mode::Fresh };
                    relax(
                        &mut dist,
                        &mut preds,
                        &mut heap,
                        next,
                        add(c, (up_exit, 0, 1, 0)),
                        Step::Cross { to: q },
                    );
                }
            }
            if layer == path.len() {
                continue;
            }
            let e = path[layer];
            // structural realizations
            for &(_color, cp) in self.schema.edge_realizations(e) {
                let (pp, _) =
                    self.schema.placement(cp).parent.ok_or_else(|| QueryError::Internal {
                        diag: format!("S001 edge realization {cp:?} is a root placement"),
                    })?;
                if pp == st.placement && self.schema.placement(cp).node == nodes[layer + 1] {
                    let run_start = st.mode != Mode::Down;
                    let sj = u64::from(run_start);
                    // a Down run discovers all pairs only when its top
                    // placement holds the full extent; a preceding Up run
                    // terminates here and is charged its own deferred check
                    let incomplete = u64::from(run_start && !self.full[st.placement.idx()]);
                    let next = State { layer: st.layer + 1, placement: cp, mode: Mode::Down };
                    relax(
                        &mut dist,
                        &mut preds,
                        &mut heap,
                        next,
                        add(c, (incomplete + up_exit, 0, 0, sj)),
                        Step::Struct { edge: e, to: cp, down: true },
                    );
                }
                if cp == st.placement && self.schema.placement(pp).node == nodes[layer + 1] {
                    let run_start = st.mode != Mode::Up;
                    let sj = u64::from(run_start);
                    // extending an Up run costs no completeness here — the
                    // deferred `up_exit` charge lands where the run ends
                    let next = State { layer: st.layer + 1, placement: pp, mode: Mode::Up };
                    relax(
                        &mut dist,
                        &mut preds,
                        &mut heap,
                        next,
                        add(c, (0, 0, 0, sj)),
                        Step::Struct { edge: e, to: pp, down: false },
                    );
                }
            }
            // idref value join
            if self.schema.idref_for(e).is_some() {
                for &q in self.schema.placements_of(nodes[layer + 1]) {
                    let next = State { layer: st.layer + 1, placement: q, mode: Mode::Fresh };
                    relax(
                        &mut dist,
                        &mut preds,
                        &mut heap,
                        next,
                        add(c, (up_exit, 1, 0, 0)),
                        Step::Value { edge: e, to: q },
                    );
                }
            }
            // parent-child link join: always available, always exact. Its
            // cost sits above a value join AND above a crossing+step, so it
            // is chosen only when every other realization is incomplete —
            // the paper's schemas never need it on their own terms.
            for &q in self.schema.placements_of(nodes[layer + 1]) {
                let next = State { layer: st.layer + 1, placement: q, mode: Mode::Fresh };
                relax(
                    &mut dist,
                    &mut preds,
                    &mut heap,
                    next,
                    add(c, (up_exit, 1, 1, 2)),
                    Step::Link { edge: e, to: q },
                );
            }
        }

        // collapse to per-parent-placement results
        let last = (nodes.len() - 1) as u16;
        let mut out: HashMap<PlacementId, Cost> = HashMap::new();
        let mut steps: StepsTo = HashMap::new();
        let last_node = *nodes.last().ok_or_else(|| QueryError::Internal {
            diag: "P009 pattern edge with an empty node path".into(),
        })?;
        for &t in self.schema.placements_of(last_node) {
            let mut best: Option<(Cost, State)> = None;
            for mode in [Mode::Fresh, Mode::Down, Mode::Up] {
                let st = State { layer: last, placement: t, mode };
                if let Some(&c) = dist.get(&st) {
                    // deferred Up-run termination charge (see `up_exit`)
                    let c = if mode == Mode::Up && !self.full[t.idx()] {
                        add(c, (1, 0, 0, 0))
                    } else {
                        c
                    };
                    if best.is_none_or(|(bc, _)| c < bc) {
                        best = Some((c, st));
                    }
                }
            }
            if let Some((c, st)) = best {
                let (start, chain) = reconstruct(&preds, st);
                out.insert(t, c);
                steps.insert(t, (start, chain));
            }
        }
        Ok((out, steps))
    }
}

fn alloc(regs: &mut usize) -> Reg {
    let r = *regs;
    *regs += 1;
    r
}

fn post_order(pattern: &Pattern, children: &[Vec<usize>]) -> Vec<usize> {
    let mut order = Vec::new();
    let mut stack = vec![(pattern.output, false)];
    while let Some((v, processed)) = stack.pop() {
        if processed {
            order.push(v);
            continue;
        }
        stack.push((v, true));
        for &ei in &children[v] {
            let e = &pattern.edges[ei];
            let child = if e.from == v { e.to } else { e.from };
            stack.push((child, false));
        }
    }
    order
}

/// Walk predecessors back to the multi-source origin; returns the source
/// placement (layer 0) and the steps in forward (child → parent) order.
fn reconstruct(preds: &HashMap<State, (State, Step)>, mut st: State) -> (PlacementId, Vec<Step>) {
    let mut steps = Vec::new();
    while let Some(&(prev, step)) = preds.get(&st) {
        steps.push(step);
        st = prev;
    }
    steps.reverse();
    (st.placement, steps)
}

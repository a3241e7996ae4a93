//! Update execution.
//!
//! The paper's update story (§6.1): *"In update queries, multi-colored
//! schemas may internally pay the price for color integrity preservation if
//! they are not edge normalized … However, this cost is lower than that of
//! a value join or un-normalized constraint maintenance."* Concretely:
//!
//! * **locating** the target is a query — SHALLOW/AF pay value joins, EN
//!   pays crossings, DR/MCMR navigate structurally;
//! * **modify** writes the element once, plus once per physical copy
//!   (duplicate updates — DEEP's and UNDR's U3 blow-up);
//! * **delete** removes the element's occurrences (and subtrees) from every
//!   color;
//! * **insert** creates new elements and threads them into *every* color at
//!   every matching placement — each extra color realizing the same ER edge
//!   is ICIC maintenance, and un-normalized placements force inserted
//!   copies, cascading through duplicated subtrees exactly like the
//!   materializer (this is why U1 writes 67 physical elements on DEEP for
//!   10 logical ones in Table 1).

use crate::error::QueryError;
use crate::exec::execute;
use crate::pattern::{Partner, UpdateAction, UpdateSpec};
use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::{ColorId, MctSchema, PlacementId};
use colorist_store::{Database, ElementId, Metrics, OccId, Value};
use std::collections::HashMap;

/// The outcome of one update.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Logical elements affected (inserted / modified / deleted) — the
    /// plain numbers of Table 1's update rows.
    pub logical: u64,
    /// Physical writes including copies — the parenthesized numbers.
    pub physical: u64,
    /// Locate + apply metrics.
    pub metrics: Metrics,
}

/// Execute an update against a database.
pub fn execute_update(
    db: &mut Database,
    graph: &ErGraph,
    spec: &UpdateSpec,
) -> Result<UpdateOutcome, QueryError> {
    let _span = colorist_trace::span("update", format_args!("update:{}", spec.name));
    let started = std::time::Instant::now();
    // 1. locate targets
    let plan = crate::optimize::optimize(db, graph, &spec.pattern)?;
    let located = execute(db, graph, &plan)?;
    let mut metrics = located.metrics;
    let targets = located.elements;

    // 2. apply
    let (logical, physical) = match &spec.action {
        UpdateAction::Modify { attr, value } => {
            let mut physical = 0u64;
            for &t in &targets {
                db.write_attr(t, *attr, value.clone());
                physical += 1;
                for c in db.copies_of(t) {
                    db.write_attr(c, *attr, value.clone());
                    physical += 1;
                    metrics.duplicate_updates += 1;
                }
            }
            (targets.len() as u64, physical)
        }

        UpdateAction::Delete => {
            // resolved up front: a delete takes the subtrees below it, and
            // with them copies of targets still to come
            let copies: Vec<Vec<ElementId>> = targets.iter().map(|&t| db.copies_of(t)).collect();
            let mut physical = 0u64;
            for (&t, copies) in targets.iter().zip(&copies) {
                db.kill_links_of(graph, t);
                physical += db.remove_element_occurrences(t) as u64;
                // the canonical delete already removed every copy's
                // occurrences; these per-copy calls are now no-ops kept for
                // the duplicate-maintenance accounting (one duplicate write
                // per physical copy, exactly as on the write path)
                for &c in copies {
                    physical += db.remove_element_occurrences(c) as u64;
                    metrics.duplicate_updates += 1;
                }
            }
            (targets.len() as u64, physical)
        }

        UpdateAction::Insert(ins) => {
            let anchors = anchor_elements(db, graph, spec)?;
            let physical = Inserter::run(db, graph, ins, &anchors, &mut metrics)?;
            let logical = ins.instances.len() as u64
                + ins.instances.iter().map(|i| i.links.len() as u64).sum::<u64>();
            (logical, physical)
        }
    };

    // 3. commit: write dirty segments through the paged backend (one
    // transaction) so durability matches the in-memory state. The flush is
    // a no-op on the heap backend and when nothing was written.
    let report = db.flush_storage().map_err(|e| QueryError::Storage(e.to_string()))?;
    if report.pages_written > 0 {
        metrics.page_writes += report.pages_written;
        let mut span = colorist_trace::span("storage", format_args!("flush:{}", spec.name));
        span.counter("page_writes", report.pages_written);
    }

    metrics.results = logical;
    metrics.distinct_results = logical;
    metrics.elapsed = started.elapsed();
    Ok(UpdateOutcome { logical, physical, metrics })
}

/// First matched element per pattern node of the locating pattern.
fn anchor_elements(
    db: &Database,
    graph: &ErGraph,
    spec: &UpdateSpec,
) -> Result<Vec<Option<ElementId>>, QueryError> {
    let mut anchors = Vec::with_capacity(spec.pattern.nodes.len());
    for i in 0..spec.pattern.nodes.len() {
        let mut p = spec.pattern.clone();
        p.output = i;
        p.distinct = false;
        p.group_by = None;
        let plan = crate::optimize::optimize(db, graph, &p)?;
        let r = execute(db, graph, &plan)?;
        anchors.push(r.elements.first().copied());
    }
    Ok(anchors)
}

/// An instance being threaded into the trees: either one of the freshly
/// inserted instances (by index into `Inserter::new_nodes`) or an existing
/// logical instance (its canonical element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Who {
    New(usize),
    Existing(ElementId),
}

struct Inserter<'a> {
    graph: &'a ErGraph,
    /// All new instances: entities first (spec order), then relationships.
    new_nodes: Vec<NodeId>,
    new_elems: Vec<ElementId>,
    /// (new rel index, edge) -> partner on that edge.
    rel_links: HashMap<(usize, EdgeId), Who>,
    /// (participant, edge) -> new rel indexes.
    rev_links: HashMap<(Who, EdgeId), Vec<usize>>,
    /// per edge: the relationship-ordinal watermark before this insert
    /// (links at or above it belong to the instances being inserted).
    watermarks: HashMap<EdgeId, u32>,
    physical: u64,
}

impl<'a> Inserter<'a> {
    fn run(
        db: &mut Database,
        graph: &'a ErGraph,
        ins: &crate::pattern::InsertSpec,
        anchors: &[Option<ElementId>],
        metrics: &mut Metrics,
    ) -> Result<u64, QueryError> {
        let mut me = Inserter {
            graph,
            new_nodes: Vec::new(),
            new_elems: Vec::new(),
            rel_links: HashMap::new(),
            rev_links: HashMap::new(),
            watermarks: HashMap::new(),
            physical: 0,
        };
        // watermark every edge before any link is pushed
        for (ii, inst) in ins.instances.iter().enumerate() {
            let _ = ii;
            for l in &inst.links {
                for e in [l.self_edge, l.partner_edge] {
                    me.watermarks.entry(e).or_insert_with(|| db.ordinal_count(graph.edge(e).rel));
                }
            }
        }

        // create entity elements
        for inst in &ins.instances {
            me.new_nodes.push(inst.node);
            me.new_elems.push(db.insert_element(inst.node, inst.attrs.clone()));
            me.physical += 1;
        }
        // create relationship elements + link tables
        for (ii, inst) in ins.instances.iter().enumerate() {
            for l in &inst.links {
                let partner = match l.partner {
                    Partner::Matched(p) => {
                        Who::Existing(anchors.get(p).copied().flatten().ok_or_else(|| {
                            QueryError::Malformed("insert anchor unmatched".into())
                        })?)
                    }
                    Partner::New(j) => Who::New(j),
                    Partner::ByOrdinal(node, ordinal) => {
                        Who::Existing(db.canonical_by_ordinal(node, ordinal).ok_or_else(|| {
                            QueryError::Malformed("insert partner ordinal out of range".into())
                        })?)
                    }
                };
                let idx = me.new_nodes.len();
                // idref slots in schema order for this relationship
                let mut attrs: Vec<Value> =
                    graph.node(l.rel).attributes.iter().map(default_value).collect();
                let idref_edges: Vec<EdgeId> = db
                    .schema
                    .idrefs()
                    .iter()
                    .filter(|x| graph.edge(x.edge).rel == l.rel)
                    .map(|x| x.edge)
                    .collect();
                for &ie in &idref_edges {
                    let who = if ie == l.partner_edge { partner } else { Who::New(ii) };
                    let ordinal = match who {
                        Who::New(j) => db.element(me.new_elems[j]).ordinal,
                        Who::Existing(e) => db.element(e).ordinal,
                    };
                    attrs.push(Value::Int(ordinal as i64));
                }
                me.new_nodes.push(l.rel);
                let rel_elem = db.insert_element(l.rel, attrs);
                me.new_elems.push(rel_elem);
                me.physical += 1;
                // persist the adjacency so link joins and future cascades
                // see the new relationship instance
                let rel_ordinal = db.element(rel_elem).ordinal;
                let self_ordinal = db.element(me.new_elems[ii]).ordinal;
                let partner_ordinal = match partner {
                    Who::New(j) => db.element(me.new_elems[j]).ordinal,
                    Who::Existing(pe) => db.element(pe).ordinal,
                };
                db.push_link(l.self_edge, rel_ordinal, self_ordinal);
                db.push_link(l.partner_edge, rel_ordinal, partner_ordinal);
                me.rel_links.insert((idx, l.self_edge), Who::New(ii));
                me.rel_links.insert((idx, l.partner_edge), partner);
                me.rev_links.entry((Who::New(ii), l.self_edge)).or_default().push(idx);
                me.rev_links.entry((partner, l.partner_edge)).or_default().push(idx);
                for e in [l.self_edge, l.partner_edge] {
                    metrics.icic_maintenance +=
                        db.schema.edge_colors(e).len().saturating_sub(1) as u64;
                }
            }
        }

        // thread occurrences through every color
        let schema = db.schema.clone();
        for color in schema.colors() {
            let mut bound: HashMap<Who, ()> = HashMap::new();
            let mut placements = Vec::new();
            for &r in schema.roots(color) {
                placements.extend(schema.subtree(r));
            }
            for &p in &placements {
                let node = schema.placement(p).node;
                let whos: Vec<usize> =
                    (0..me.new_nodes.len()).filter(|&i| me.new_nodes[i] == node).collect();
                if whos.is_empty() {
                    continue;
                }
                match schema.placement(p).parent {
                    None => {
                        for i in whos {
                            me.add_recursive(
                                db,
                                &schema,
                                color,
                                p,
                                Who::New(i),
                                None,
                                &mut bound,
                                metrics,
                            );
                        }
                    }
                    Some((pp, e)) => {
                        for i in whos {
                            for parent in me.neighbors(db, Who::New(i), e, node) {
                                let Who::Existing(pe) = parent else { continue };
                                let parent_occs: Vec<OccId> = db
                                    .occurrences_of_logical(color, pe)
                                    .iter()
                                    .copied()
                                    .filter(|&o| db.color(color).occ(o).placement == pp)
                                    .collect();
                                for po in parent_occs {
                                    me.add_recursive(
                                        db,
                                        &schema,
                                        color,
                                        p,
                                        Who::New(i),
                                        Some(po),
                                        &mut bound,
                                        metrics,
                                    );
                                }
                            }
                        }
                    }
                }
            }
            // heterogeneous fallback (§4.2): unbound new instances become
            // parentless roots at their first placement in the color
            for i in 0..me.new_nodes.len() {
                if bound.contains_key(&Who::New(i)) {
                    continue;
                }
                if let Some(&p) =
                    placements.iter().find(|&&p| schema.placement(p).node == me.new_nodes[i])
                {
                    me.add_recursive(db, &schema, color, p, Who::New(i), None, &mut bound, metrics);
                }
            }
            db.relabel_color(color);
        }

        Ok(me.physical)
    }

    fn first_new_ordinal(&self, e: EdgeId) -> u32 {
        self.watermarks.get(&e).copied().unwrap_or(u32::MAX)
    }

    /// Instances adjacent to `who` via ER edge `e`, on the side *opposite*
    /// to `who_node`.
    fn neighbors(&self, db: &Database, who: Who, e: EdgeId, who_node: NodeId) -> Vec<Who> {
        let edge = self.graph.edge(e);
        if edge.rel == who_node {
            // who is the relationship: exactly one participant
            match who {
                Who::New(i) => self.rel_links.get(&(i, e)).copied().into_iter().collect(),
                Who::Existing(el) => {
                    let ordinal = db.element(el).ordinal;
                    db.link(e, ordinal)
                        .and_then(|p| db.canonical_by_ordinal(edge.participant, p))
                        .map(Who::Existing)
                        .into_iter()
                        .collect()
                }
            }
        } else {
            // who is the participant: relationship instances
            let mut out: Vec<Who> = self
                .rev_links
                .get(&(who, e))
                .map(|v| v.iter().map(|&i| Who::New(i)).collect())
                .unwrap_or_default();
            if let Who::Existing(el) = who {
                let ordinal = db.element(el).ordinal;
                let new_floor = self.first_new_ordinal(e);
                for r in db.linked_rels(e, ordinal) {
                    // skip the links we just pushed (handled as New above)
                    if r >= new_floor {
                        continue;
                    }
                    if let Some(rel) = db.canonical_by_ordinal(edge.rel, r) {
                        out.push(Who::Existing(rel));
                    }
                }
            }
            out
        }
    }

    /// Add an occurrence of `who` at placement `p` under `parent`, and
    /// cascade its subtree (new links and, through [`LinkSource`], existing
    /// ones — the duplicated-subtree maintenance of un-normalized schemas).
    #[allow(clippy::too_many_arguments)]
    fn add_recursive(
        &mut self,
        db: &mut Database,
        schema: &MctSchema,
        color: ColorId,
        p: PlacementId,
        who: Who,
        parent: Option<OccId>,
        bound: &mut HashMap<Who, ()>,
        metrics: &mut Metrics,
    ) {
        let element = match who {
            Who::New(i) if bound.insert(who, ()).is_none() => self.new_elems[i],
            Who::New(i) => {
                metrics.duplicate_updates += 1;
                db.insert_copy(self.new_elems[i])
            }
            Who::Existing(el) => {
                bound.entry(who).or_insert(());
                metrics.duplicate_updates += 1;
                db.insert_copy(el)
            }
        };
        self.physical += 1;
        let occ = db.push_occurrence(color, element, p, parent);
        let node = schema.placement(p).node;
        for &cp in schema.children(p) {
            // every placement in a children index has a parent by schema
            // construction (lint S001); skip defensively rather than panic
            let Some((_, e)) = schema.placement(cp).parent else {
                debug_assert!(false, "S001 child placement {cp} has no parent");
                continue;
            };
            for child in self.neighbors(db, who, e, node) {
                self.add_recursive(db, schema, color, cp, child, Some(occ), bound, metrics);
            }
        }
    }
}

fn default_value(a: &colorist_er::Attribute) -> Value {
    match a.domain {
        colorist_er::Domain::Integer => Value::Int(0),
        colorist_er::Domain::Float => Value::Float(0.0),
        _ => Value::Text(String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::pattern::{InsertLink, InsertSpec, NewInstance, PatternBuilder};
    use colorist_core::{design, Strategy};
    use colorist_datagen::{generate, materialize, CanonicalInstance, ScaleProfile};
    use colorist_er::catalog;
    use colorist_er::ErGraph;

    fn setup(strategy: Strategy) -> (ErGraph, CanonicalInstance, Database) {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let p = ScaleProfile::tpcw(&g, 40);
        let inst = generate(&g, &p, 5);
        let schema = design(&g, strategy).unwrap();
        let db = materialize(&g, &schema, &inst);
        (g, inst, db)
    }

    fn modify_spec(g: &ErGraph) -> UpdateSpec {
        // U2-style: bump an item's cost
        let pattern = PatternBuilder::new(g, "U2")
            .node("item")
            .pred_eq("id", Value::Int(3))
            .output(0)
            .build()
            .unwrap();
        UpdateSpec {
            name: "U2".into(),
            pattern,
            action: UpdateAction::Modify {
                attr: 2, // cost
                value: Value::Float(9.99),
            },
        }
    }

    #[test]
    fn modify_touches_all_copies_on_deep() {
        let (g, _inst, mut db) = setup(Strategy::Deep);
        let out = execute_update(&mut db, &g, &modify_spec(&g)).unwrap();
        assert_eq!(out.logical, 1);
        assert!(out.physical > 1, "DEEP duplicates items");
        assert!(out.metrics.duplicate_updates > 0);
        // all copies updated
        let item = g.node_by_name("item").unwrap();
        let target = db.extent(item)[3];
        for (i, e) in db.elements().enumerate() {
            if e.canonical == target {
                assert_eq!(e.attrs[2], Value::Float(9.99), "element {i}");
            }
        }
    }

    #[test]
    fn modify_is_single_write_on_normalized() {
        let (g, _inst, mut db) = setup(Strategy::En);
        let out = execute_update(&mut db, &g, &modify_spec(&g)).unwrap();
        assert_eq!(out.logical, 1);
        assert_eq!(out.physical, 1);
        assert_eq!(out.metrics.duplicate_updates, 0);
    }

    #[test]
    fn delete_removes_from_every_color() {
        let (g, _inst, mut db) = setup(Strategy::Dr);
        let item = g.node_by_name("item").unwrap();
        let target = db.extent(item)[3];
        let spec = UpdateSpec {
            name: "del".into(),
            pattern: PatternBuilder::new(&g, "del")
                .node("item")
                .pred_eq("id", Value::Int(3))
                .output(0)
                .build()
                .unwrap(),
            action: UpdateAction::Delete,
        };
        let out = execute_update(&mut db, &g, &spec).unwrap();
        assert_eq!(out.logical, 1);
        assert!(out.physical >= db.color_count() as u64, "one occurrence per color at least");
        for c in 0..db.color_count() {
            let tree = db.color(colorist_mct::ColorId(c as u16));
            assert!(tree.occs().iter().all(|o| o.element != target), "color {c}");
        }
    }

    #[test]
    fn insert_order_appears_in_every_color_and_all_schemas_agree() {
        // U1-style: a new order for customer 7, with one credit card
        // transaction, linked via make and associate.
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let profile = ScaleProfile::tpcw(&g, 40);
        let inst = generate(&g, &profile, 5);
        let make = g.node_by_name("make").unwrap();
        let associate = g.node_by_name("associate").unwrap();
        let order = g.node_by_name("order").unwrap();
        let cct = g.node_by_name("credit_card_transaction").unwrap();
        let customer = g.node_by_name("customer").unwrap();
        let e = |rel: NodeId, part: NodeId| {
            g.edge_ids().find(|&e| g.edge(e).rel == rel && g.edge(e).participant == part).unwrap()
        };
        let spec = |gr: &ErGraph| UpdateSpec {
            name: "U1".into(),
            pattern: PatternBuilder::new(gr, "U1loc")
                .node("customer")
                .pred_eq("id", Value::Int(7))
                .output(0)
                .build()
                .unwrap(),
            action: UpdateAction::Insert(InsertSpec {
                instances: vec![
                    NewInstance {
                        node: order,
                        attrs: vec![
                            Value::Int(999_999),
                            Value::Text("2026-01-01".into()),
                            Value::Float(10.0),
                            Value::Float(1.0),
                            Value::Float(11.0),
                            Value::Text("new".into()),
                        ],
                        links: vec![InsertLink {
                            rel: make,
                            self_edge: e(make, order),
                            partner_edge: e(make, customer),
                            partner: Partner::Matched(0),
                        }],
                    },
                    NewInstance {
                        node: cct,
                        attrs: vec![
                            Value::Int(999_999),
                            Value::Text("visa".into()),
                            Value::Text("1111".into()),
                            Value::Text("2027-01-01".into()),
                            Value::Text("auth".into()),
                            Value::Float(11.0),
                        ],
                        links: vec![InsertLink {
                            rel: associate,
                            self_edge: e(associate, cct),
                            partner_edge: e(associate, order),
                            partner: Partner::New(0),
                        }],
                    },
                ],
            }),
        };

        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            let mut db = materialize(&g, &schema, &inst);
            let before = db.extent(order).len();
            let out = execute_update(&mut db, &g, &spec(&g)).unwrap();
            assert_eq!(out.logical, 4, "{s}: order + cct + make + associate");
            assert_eq!(db.extent(order).len(), before + 1, "{s}");
            // the new order must be reachable in every color that places it
            let new_order = *db.extent(order).last().unwrap();
            for c in 0..db.color_count() {
                let color = colorist_mct::ColorId(c as u16);
                if db
                    .schema
                    .placements_of(order)
                    .iter()
                    .any(|&p| db.schema.placement(p).color == color)
                {
                    assert!(
                        !db.occurrences_of_logical(color, new_order).is_empty(),
                        "{s}: new order missing from color {c}"
                    );
                }
            }
            // and the query "orders of customer 7" must now include it
            let q = PatternBuilder::new(&g, "check")
                .node("customer")
                .pred_eq("id", Value::Int(7))
                .node("order")
                .chain(0, 1, &["make"])
                .unwrap()
                .output(1)
                .build()
                .unwrap();
            let plan = compile(&g, &db.schema, &q).unwrap();
            let r = execute(&db, &g, &plan).unwrap();
            assert!(
                r.elements.contains(&new_order),
                "{s}: inserted order must be queryable\n{plan}"
            );
        }
    }

    #[test]
    fn unnormalized_insert_writes_more_physical_elements() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let profile = ScaleProfile::tpcw(&g, 40);
        let inst = generate(&g, &profile, 5);
        let order = g.node_by_name("order").unwrap();
        let make = g.node_by_name("make").unwrap();
        let customer = g.node_by_name("customer").unwrap();
        let e = |rel: NodeId, part: NodeId| {
            g.edge_ids().find(|&e| g.edge(e).rel == rel && g.edge(e).participant == part).unwrap()
        };
        let spec = UpdateSpec {
            name: "ins".into(),
            pattern: PatternBuilder::new(&g, "loc")
                .node("customer")
                .pred_eq("id", Value::Int(2))
                .output(0)
                .build()
                .unwrap(),
            action: UpdateAction::Insert(InsertSpec {
                instances: vec![NewInstance {
                    node: order,
                    attrs: vec![
                        Value::Int(1_000_000),
                        Value::Text("2026-01-01".into()),
                        Value::Float(1.0),
                        Value::Float(0.1),
                        Value::Float(1.1),
                        Value::Text("new".into()),
                    ],
                    links: vec![InsertLink {
                        rel: make,
                        self_edge: e(make, order),
                        partner_edge: e(make, customer),
                        partner: Partner::Matched(0),
                    }],
                }],
            }),
        };
        let physical = |s: Strategy| {
            let schema = design(&g, s).unwrap();
            let mut db = materialize(&g, &schema, &inst);
            execute_update(&mut db, &g, &spec).unwrap().physical
        };
        let en = physical(Strategy::En);
        let undr = physical(Strategy::Undr);
        assert!(undr > en, "UNDR insert must cascade copies: {undr} vs {en}");
    }
}

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
//!
//! An update does not write the store itself. [`lower_update`] locates the
//! targets and lowers the action to one [`UpdateBatch`] against the
//! pre-update database; [`execute_update`] commits it through
//! [`UpdateBatch::apply`], the store's one write path — validated, atomic,
//! flushed once, and B002-checked in debug builds (DESIGN.md §12.3, §13).

use crate::error::QueryError;
use crate::exec::execute;
use crate::pattern::{InsertSpec, Partner, UpdateAction, UpdateSpec};
use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::{ColorId, PlacementId};
use colorist_store::{
    BatchError, BatchLink, BatchPosition, Database, ElementId, Metrics, OccId, UpdateBatch, Value,
};
use std::collections::{HashMap, HashSet};

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

/// An update lowered to the one batch that commits it.
#[derive(Debug, Clone)]
pub struct LoweredUpdate {
    /// The ops, in the order they mutate the store.
    pub batch: UpdateBatch,
    /// Logical elements the update affects.
    pub logical: u64,
    /// The locate query's metrics, plus the maintenance counters known
    /// before the commit: ICIC maintenance of an insert, and the copies a
    /// delete takes with its targets.
    pub metrics: Metrics,
}

/// Execute an update against a database: [`lower_update`], then one
/// [`UpdateBatch::apply`]. On `Err` the database is unchanged.
pub fn execute_update(
    db: &mut Database,
    graph: &ErGraph,
    spec: &UpdateSpec,
) -> Result<UpdateOutcome, QueryError> {
    let _span = colorist_trace::span("update", format_args!("update:{}", spec.name));
    let started = std::time::Instant::now();
    let LoweredUpdate { batch, logical, mut metrics } = lower_update(db, graph, spec)?;
    let receipt = batch.apply(db, graph).map_err(|e| match e {
        BatchError::Storage(msg) => QueryError::Storage(msg),
        e => QueryError::Malformed(format!("update {} rejected: {e}", spec.name)),
    })?;
    // an attribute write writes its cell and one per copy; an Insert or
    // AddOccurrence writes one element, canonical or copy; a delete writes
    // what it removes. Copies count as duplicate updates.
    let physical = match spec.action {
        UpdateAction::Modify { .. } => batch.len() as u64 + receipt.duplicate_writes,
        UpdateAction::Insert(_) => batch.len() as u64,
        UpdateAction::Delete => receipt.occurrences_removed,
    };
    metrics.duplicate_updates += receipt.duplicate_writes;
    metrics.page_writes += receipt.pages_written;
    metrics.results = logical;
    metrics.distinct_results = logical;
    metrics.elapsed = started.elapsed();
    Ok(UpdateOutcome { logical, physical, metrics })
}

/// Locate an update's targets and lower its action to one batch against
/// `db`, the pre-update state. Ops come in the order the store applies
/// them, so element ids, occurrence ids and link order follow from it.
pub fn lower_update(
    db: &Database,
    graph: &ErGraph,
    spec: &UpdateSpec,
) -> Result<LoweredUpdate, QueryError> {
    let plan = crate::optimize::optimize(db, graph, &spec.pattern)?;
    let located = execute(db, graph, &plan)?;
    let mut metrics = located.metrics;
    let targets = located.elements;
    let mut batch = UpdateBatch::new();
    let logical = match &spec.action {
        UpdateAction::Modify { attr, value } => {
            for &t in &targets {
                batch.write_attr(t, *attr, value.clone());
            }
            targets.len() as u64
        }
        UpdateAction::Delete => {
            for &t in &targets {
                batch.delete(t);
                // one duplicate update per physical copy, resolved up
                // front: a delete takes the subtrees below it, and with
                // them copies of targets still to come
                metrics.duplicate_updates += db.copies_of(t).len() as u64;
            }
            targets.len() as u64
        }
        UpdateAction::Insert(ins) => {
            let anchors = anchor_elements(db, graph, spec)?;
            batch = Planner::plan(db, graph, ins, &anchors, &mut metrics)?;
            ins.instances.len() as u64
                + ins.instances.iter().map(|i| i.links.len() as u64).sum::<u64>()
        }
    };
    Ok(LoweredUpdate { batch, logical, metrics })
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

/// Plans an insert as batch ops. Every new element is inserted first —
/// entities in spec order, then each one's relationship instances with
/// their links — so new instance `i` is element `base + i`, and every
/// instance, new or existing, is named by its canonical element. Then,
/// color by color, every new instance gets an occurrence at every matching
/// placement, and each occurrence cascades its subtree through new and
/// existing links; the store decides which occurrences bind canonicals
/// and which store copies.
struct Planner<'a> {
    db: &'a Database,
    graph: &'a ErGraph,
    batch: UpdateBatch,
    /// Node and ordinal of each new instance, in element order.
    new: Vec<(NodeId, u32)>,
    /// The element id of new instance 0.
    base: u32,
    /// (new relationship, edge) -> its participant on that edge.
    rel_links: HashMap<(ElementId, EdgeId), ElementId>,
    /// (participant, edge) -> the new relationships linking it.
    rev_links: HashMap<(ElementId, EdgeId), Vec<ElementId>>,
    /// The id the next occurrence appended to the current color takes.
    next_occ: u32,
    /// New instances placed in the current color.
    placed: HashSet<ElementId>,
}

impl<'a> Planner<'a> {
    fn plan(
        db: &'a Database,
        graph: &'a ErGraph,
        ins: &InsertSpec,
        anchors: &[Option<ElementId>],
        metrics: &mut Metrics,
    ) -> Result<UpdateBatch, QueryError> {
        let base = db.element_count() as u32;
        let mut me = Planner {
            db,
            graph,
            batch: UpdateBatch::new(),
            new: Vec::new(),
            base,
            rel_links: HashMap::new(),
            rev_links: HashMap::new(),
            next_occ: 0,
            placed: HashSet::new(),
        };
        let mut next_ordinal: HashMap<NodeId, u32> = HashMap::new();
        let mut push_new = |new: &mut Vec<(NodeId, u32)>, node: NodeId| {
            let slot = next_ordinal.entry(node).or_insert_with(|| db.ordinal_count(node));
            new.push((node, *slot));
            *slot += 1;
            ElementId(base + new.len() as u32 - 1)
        };

        // entity elements
        for inst in &ins.instances {
            push_new(&mut me.new, inst.node);
            me.batch.insert(inst.node, inst.attrs.clone(), vec![]);
        }
        // relationship elements + link tables
        for (ii, inst) in ins.instances.iter().enumerate() {
            let this = ElementId(base + ii as u32);
            for l in &inst.links {
                let partner = match l.partner {
                    Partner::Matched(p) => {
                        anchors.get(p).copied().flatten().ok_or_else(|| {
                            QueryError::Malformed("insert anchor unmatched".into())
                        })?
                    }
                    Partner::New(j) if j < ins.instances.len() => ElementId(base + j as u32),
                    Partner::New(j) => {
                        return Err(QueryError::Malformed(format!(
                            "insert partner New({j}) names no instance of {}",
                            ins.instances.len()
                        )));
                    }
                    Partner::ByOrdinal(node, ordinal) => {
                        db.canonical_by_ordinal(node, ordinal).ok_or_else(|| {
                            QueryError::Malformed("insert partner ordinal out of range".into())
                        })?
                    }
                };
                // idref slots in schema order for this relationship
                let mut attrs: Vec<Value> =
                    graph.node(l.rel).attributes.iter().map(default_value).collect();
                for x in db.schema.idrefs().iter().filter(|x| graph.edge(x.edge).rel == l.rel) {
                    let who = if x.edge == l.partner_edge { partner } else { this };
                    attrs.push(Value::Int(me.ordinal(who) as i64));
                }
                let rel = push_new(&mut me.new, l.rel);
                // persist the adjacency so link joins and future cascades
                // see the new relationship instance
                let links = [(l.self_edge, this), (l.partner_edge, partner)];
                me.batch.insert(
                    l.rel,
                    attrs,
                    links.map(|(edge, participant)| BatchLink { edge, participant }).to_vec(),
                );
                for (edge, participant) in links {
                    me.rel_links.insert((rel, edge), participant);
                    me.rev_links.entry((participant, edge)).or_default().push(rel);
                    metrics.icic_maintenance +=
                        db.schema.edge_colors(edge).len().saturating_sub(1) as u64;
                }
            }
        }

        // thread occurrences through every color
        let schema = &db.schema;
        let news: Vec<(ElementId, NodeId)> = (me.new.iter().enumerate())
            .map(|(i, &(n, _))| (ElementId(base + i as u32), n))
            .collect();
        for color in schema.colors() {
            me.next_occ = db.color(color).occs().len() as u32;
            me.placed.clear();
            let mut placements = Vec::new();
            for &r in schema.roots(color) {
                placements.extend(schema.subtree(r));
            }
            for &p in &placements {
                let node = schema.placement(p).node;
                for &(el, _) in news.iter().filter(|&&(_, n)| n == node) {
                    let Some((pp, e)) = schema.placement(p).parent else {
                        me.add_recursive(color, p, el, None);
                        continue;
                    };
                    for parent in me.neighbors(el, e, node) {
                        if me.is_new(parent) {
                            continue;
                        }
                        let tree = db.color(color);
                        for &po in db.occurrences_of_logical(color, parent) {
                            if tree.occ(po).placement == pp {
                                me.add_recursive(color, p, el, Some(po));
                            }
                        }
                    }
                }
            }
            // heterogeneous fallback (§4.2): unplaced new instances become
            // parentless roots at their first placement in the color
            for &(el, node) in &news {
                if me.placed.contains(&el) {
                    continue;
                }
                if let Some(&p) = placements.iter().find(|&&p| schema.placement(p).node == node) {
                    me.add_recursive(color, p, el, None);
                }
            }
        }

        Ok(me.batch)
    }

    fn is_new(&self, e: ElementId) -> bool {
        e.0 >= self.base
    }

    fn ordinal(&self, e: ElementId) -> u32 {
        if self.is_new(e) {
            self.new[(e.0 - self.base) as usize].1
        } else {
            self.db.element(e).ordinal
        }
    }

    /// Instances adjacent to `who` via ER edge `e`, on the side *opposite*
    /// to `who_node`: the new links, then the pre-update ones.
    fn neighbors(&self, who: ElementId, e: EdgeId, who_node: NodeId) -> Vec<ElementId> {
        let db = self.db;
        let edge = self.graph.edge(e);
        if edge.rel == who_node {
            // who is the relationship: exactly one participant
            match self.rel_links.get(&(who, e)) {
                Some(&participant) => vec![participant],
                None if self.is_new(who) => Vec::new(),
                None => (db.link(e, db.element(who).ordinal))
                    .and_then(|p| db.canonical_by_ordinal(edge.participant, p))
                    .into_iter()
                    .collect(),
            }
        } else {
            // who is the participant: relationship instances
            let mut out = self.rev_links.get(&(who, e)).cloned().unwrap_or_default();
            if !self.is_new(who) {
                let rels = db.linked_rels(e, db.element(who).ordinal);
                out.extend(rels.into_iter().filter_map(|r| db.canonical_by_ordinal(edge.rel, r)));
            }
            out
        }
    }

    /// Append an occurrence of `who` at placement `p` under `parent`, and
    /// cascade its subtree (new links and existing ones — the
    /// duplicated-subtree maintenance of un-normalized schemas).
    fn add_recursive(
        &mut self,
        color: ColorId,
        p: PlacementId,
        who: ElementId,
        parent: Option<OccId>,
    ) {
        if self.is_new(who) {
            self.placed.insert(who);
        }
        self.batch.add_occurrence(who, BatchPosition { color, placement: p, parent });
        let occ = OccId(self.next_occ);
        self.next_occ += 1;
        let schema = &self.db.schema;
        let node = schema.placement(p).node;
        for &cp in schema.children(p) {
            // every placement in a children index has a parent by schema
            // construction (lint S001); skip defensively rather than panic
            let Some((_, e)) = schema.placement(cp).parent else {
                debug_assert!(false, "S001 child placement {cp} has no parent");
                continue;
            };
            for child in self.neighbors(who, e, node) {
                self.add_recursive(color, cp, child, Some(occ));
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

    /// A malformed update is refused whole: each case returns `Err` and
    /// leaves the database as it was, epoch included, on every strategy.
    #[test]
    fn malformed_updates_are_refused_and_leave_no_trace() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let inst = generate(&g, &ScaleProfile::tpcw(&g, 20), 9);
        let [order, make, customer] =
            ["order", "make", "customer"].map(|n| g.node_by_name(n).unwrap());
        let e = |part: NodeId| {
            g.edge_ids().find(|&e| g.edge(e).rel == make && g.edge(e).participant == part).unwrap()
        };
        let locate = |id: i64| {
            PatternBuilder::new(&g, "loc")
                .node("customer")
                .pred_eq("id", Value::Int(id))
                .output(0)
                .build()
                .unwrap()
        };
        let insert = |customer_id: i64, attrs: Vec<Value>, partner: Partner| UpdateSpec {
            name: "ins".into(),
            pattern: locate(customer_id),
            action: UpdateAction::Insert(InsertSpec {
                instances: vec![NewInstance {
                    node: order,
                    attrs,
                    links: vec![InsertLink {
                        rel: make,
                        self_edge: e(order),
                        partner_edge: e(customer),
                        partner,
                    }],
                }],
            }),
        };
        let row = vec![
            Value::Int(1_000_000),
            Value::Text("2026-01-01".into()),
            Value::Float(1.0),
            Value::Float(0.1),
            Value::Float(1.1),
            Value::Text("new".into()),
        ];
        let cases = [
            ("an unmatched anchor", insert(-1, row.clone(), Partner::Matched(0))),
            ("a partner past the instances", insert(7, row, Partner::New(3))),
            ("a 1-value order", insert(7, vec![Value::Int(1)], Partner::Matched(0))),
            (
                "attribute 99",
                UpdateSpec {
                    name: "mod".into(),
                    pattern: locate(7),
                    action: UpdateAction::Modify { attr: 99, value: Value::Int(0) },
                },
            ),
        ];
        for s in Strategy::ALL {
            let mut db = materialize(&g, &design(&g, s).unwrap(), &inst);
            let before = db.clone();
            for (what, spec) in &cases {
                assert!(execute_update(&mut db, &g, spec).is_err(), "{s}: {what}");
                assert_eq!(db.same_state(&before, true), Ok(()), "{s}: {what}");
            }
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

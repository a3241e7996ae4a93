//! The columnar element store ≡ a row store.
//!
//! Elements live as headers plus rows of per-node attribute columns, with
//! text cells as symbols (DESIGN.md §12.4). This file keeps the layout that
//! came before as its reference — one `(node, ordinal, canonical, attrs)`
//! row per element — built here from the canonical instance and the
//! schema, and advanced by each step's own logical effect: attribute writes
//! land on the canonical and on every copy still placed in some color, an
//! insert appends its declared values (relationships: domain defaults and
//! the idref appendix, read from the link tables), and a copy duplicates
//! its canonical's row. After every step of the sequence
//!
//! 1. build, then U1, U2 and U3;
//! 2. delete a customer;
//! 3. one batch: a number into a text column, text into a numeric one, an
//!    insert with copies, an extra occurrence and an occurrence removal;
//! 4. a paged save/load round trip;
//!
//! on all seven strategies under both kernel families, the database's
//! `elements()` view must equal the reference. A one-cell write on a clone
//! must copy one chunk of one column and share everything else with the
//! pinned snapshot, and the widened and narrowed writes must survive
//! `same_state`, the round trip and index probes.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, CanonicalInstance, ScaleProfile};
use colorist::er::{catalog, Domain, EdgeId, ErGraph, NodeId};
use colorist::query::{execute_update, PatternBuilder, UpdateAction, UpdateSpec};
use colorist::store::{
    BatchOp, BatchPosition, CmpOp, Database, ElementId, KernelDispatch, MemPages, PoolConfig,
    Predicate, UpdateBatch, Value,
};
use colorist::workload::tpcw;

// ---------------------------------------------------------------------------
// the reference: one row per element

#[derive(Debug, Clone, PartialEq)]
struct Row {
    node: NodeId,
    ordinal: u32,
    canonical: ElementId,
    attrs: Vec<Value>,
}

/// The idref edges of `node`, in the schema order its appendix follows.
fn idref_edges(g: &ErGraph, db: &Database, node: NodeId) -> Vec<EdgeId> {
    db.schema.idrefs().iter().filter(|l| g.edge(l.edge).rel == node).map(|l| l.edge).collect()
}

/// The freshly materialized database as rows: canonicals in node and
/// ordinal order from the instance, then each copy as its canonical's row.
fn built(g: &ErGraph, inst: &CanonicalInstance, db: &Database) -> Vec<Row> {
    let mut rows = Vec::new();
    for node in g.node_ids() {
        let edges = idref_edges(g, db, node);
        for ordinal in 0..inst.count(node) {
            let mut attrs = inst.attrs(node, ordinal).to_vec();
            attrs.extend(edges.iter().map(|&e| Value::Int(inst.link(e, ordinal) as i64)));
            let canonical = ElementId(rows.len() as u32);
            rows.push(Row { node, ordinal, canonical, attrs });
        }
    }
    append_new(&mut rows, g, db, &mut HashMap::new());
    rows
}

/// The rows of the elements `db` holds past the reference: a canonical
/// takes the next declared values queued for its node (a relationship
/// without any: its domain defaults) plus its idref appendix from the link
/// tables; a copy takes its canonical's row as the reference holds it.
fn append_new(
    rows: &mut Vec<Row>,
    g: &ErGraph,
    db: &Database,
    declared: &mut HashMap<NodeId, VecDeque<Vec<Value>>>,
) {
    for e in rows.len()..db.element_count() {
        let el = db.element(ElementId(e as u32));
        if el.canonical.idx() < e {
            let row = Row { canonical: el.canonical, ..rows[el.canonical.idx()].clone() };
            rows.push(row);
            continue;
        }
        let attrs = declared.get_mut(&el.node).and_then(VecDeque::pop_front).unwrap_or_else(|| {
            let defaults = g.node(el.node).attributes.iter().map(|a| match a.domain {
                Domain::Integer => Value::Int(0),
                Domain::Float => Value::Float(0.0),
                _ => Value::Text(String::new()),
            });
            let edges = idref_edges(g, db, el.node);
            let idrefs = edges.into_iter().map(|edge| {
                Value::Int(db.link(edge, el.ordinal).expect("a linked relationship") as i64)
            });
            defaults.chain(idrefs).collect()
        });
        rows.push(Row { node: el.node, ordinal: el.ordinal, canonical: el.canonical, attrs });
    }
}

/// Every element `before` places in some color.
fn placed(before: &Database) -> HashSet<ElementId> {
    before.schema.colors().flat_map(|c| before.color(c).occs().iter().map(|o| o.element)).collect()
}

/// An attribute write: the canonical, and each copy still placed.
fn write(rows: &mut [Row], placed: &HashSet<ElementId>, canon: ElementId, attr: usize, v: &Value) {
    for (e, row) in rows.iter_mut().enumerate() {
        let e = ElementId(e as u32);
        if row.canonical == canon && (e == canon || placed.contains(&e)) {
            row.attrs[attr] = v.clone();
        }
    }
}

fn assert_matches(db: &Database, rows: &[Row], ctx: &str) {
    assert_eq!(db.element_count(), rows.len(), "{ctx}: element count");
    for (e, (el, row)) in db.elements().zip(rows).enumerate() {
        let stored = Row {
            node: el.node,
            ordinal: el.ordinal,
            canonical: el.canonical,
            attrs: el.attrs.to_vec(),
        };
        assert_eq!(&stored, row, "{ctx}: element {e}");
    }
    db.check_integrity().unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

// ---------------------------------------------------------------------------
// the sequence

fn node(g: &ErGraph, name: &str) -> NodeId {
    g.node_by_name(name).expect("a tpcw node")
}

/// The first attribute of `node` past its key whose domain `wanted` takes.
fn attr_where(g: &ErGraph, node: NodeId, wanted: impl Fn(&Domain) -> bool) -> usize {
    (1..g.node(node).attributes.len())
        .find(|&a| wanted(&g.node(node).attributes[a].domain))
        .expect("an attribute of that domain")
}

/// Save to an in-memory page store and load back.
fn round_trip(db: &Database) -> Database {
    let backend = Arc::new(MemPages::new());
    let mut saved = db.clone();
    saved.attach_paged(backend.clone(), PoolConfig::default()).expect("attach flushes");
    let mut loaded = Database::load_from_backend(backend, db.schema.clone(), PoolConfig::default())
        .expect("loads");
    loaded.set_kernel_dispatch(db.kernel_dispatch());
    loaded
}

/// A one-cell write on a clone copies one chunk of one column: every other
/// column is the pinned snapshot's allocation.
fn check_one_cell_write_sharing(g: &ErGraph, db: &Database, ctx: &str) {
    let customer = node(g, "customer");
    let text = attr_where(g, customer, |d| matches!(d, Domain::Text));
    let target = db.extent(customer)[1];
    let pinned = db.snapshot();
    let mut clone = db.clone();
    clone.write_attr(target, text, Value::Text("renamed".into()));
    for n in g.node_ids().filter(|&n| !db.extent(n).is_empty()) {
        for a in 0..g.node(n).attributes.len() + idref_edges(g, db, n).len() {
            let shared = clone.column_sharing(&pinned, n, a);
            if (n, a) == (customer, text) {
                assert!(!shared.column, "{ctx}: the written column is copied");
                assert_eq!(shared.shared_chunks + 1, shared.chunks, "{ctx}: all chunks but one");
            } else {
                assert!(shared.column, "{ctx}: column ({}, {a}) shared", n.0);
            }
        }
    }
    assert_eq!(pinned.element(target).attrs[text], db.element(target).attrs[text]);
}

/// The batch step: a number written into a text column, text into a
/// numeric one, an item inserted at every position its node has (first
/// binds the canonical, the rest copies), one more occurrence of an
/// existing item and the removal of that occurrence's parent.
fn mixed_batch(
    g: &ErGraph,
    db: &Database,
) -> (UpdateBatch, [(ElementId, usize, Value); 2], Vec<Value>) {
    let [customer, item] = [node(g, "customer"), node(g, "item")];
    let schema = &db.schema;
    let text = attr_where(g, customer, |d| matches!(d, Domain::Text));
    let number = attr_where(g, customer, |d| matches!(d, Domain::Float | Domain::Integer));
    let target = db.extent(customer)[3];
    let writes = [(target, text, Value::Int(77)), (target, number, Value::Text("none".into()))];
    let positions: Vec<BatchPosition> = (schema.colors())
        .flat_map(|c| schema.placements_of_in_color(item, c).into_iter().map(move |p| (c, p)))
        .map(|(color, placement)| BatchPosition {
            color,
            placement,
            parent: schema
                .placement(placement)
                .parent
                .map(|(pp, _)| db.occurrence_at(pp).expect("a parent")),
        })
        .collect();
    let attrs: Vec<Value> = (g.node(item).attributes.iter())
        .map(|a| match a.domain {
            Domain::Integer => Value::Int(7_000_001),
            Domain::Float => Value::Float(7.5),
            _ => Value::Text("columnar".into()),
        })
        .collect();
    let mut batch = UpdateBatch::new();
    for (e, a, v) in &writes {
        batch.write_attr(*e, *a, v.clone());
    }
    let new = ElementId(db.element_count() as u32);
    batch.insert(item, attrs.clone(), vec![]);
    for &position in &positions {
        batch.add_occurrence(new, position);
    }
    let added = positions[positions.len() - 1];
    batch.add_occurrence(db.extent(item)[2], added);
    if let Some(parent) = added.parent {
        batch.push(BatchOp::RemoveOccurrences { color: added.color, occs: vec![parent] });
    }
    (batch, writes, attrs)
}

/// Run the sequence on one strategy under one kernel family.
fn run_sequence(
    g: &ErGraph,
    inst: &CanonicalInstance,
    strategy: Strategy,
    dispatch: KernelDispatch,
) -> Database {
    let w = tpcw::workload(g);
    let update = |name: &str| w.updates.iter().find(|u| u.name == name).expect("tpcw update");
    let schema = design(g, strategy).expect("designs tpcw");
    let mut db = materialize(g, &schema, inst);
    db.set_kernel_dispatch(dispatch);
    let ctx = |step: &str| format!("{strategy} under {dispatch:?}, {step}");
    let mut rows = built(g, inst, &db);
    assert_matches(&db, &rows, &ctx("build"));
    check_one_cell_write_sharing(g, &db, &ctx("build"));

    // U1 inserts; U2 and U3 write, fanning out to the copies
    let before = db.snapshot();
    let UpdateAction::Insert(insert) = &update("U1").action else { panic!("U1 inserts") };
    let mut declared: HashMap<NodeId, VecDeque<Vec<Value>>> = HashMap::new();
    for i in &insert.instances {
        declared.entry(i.node).or_default().push_back(i.attrs.clone());
    }
    execute_update(&mut db, g, update("U1")).expect("U1 runs");
    append_new(&mut rows, g, &db, &mut declared);
    assert_eq!(rows.len() - before.element_count(), db.element_count() - before.element_count());
    assert_matches(&db, &rows, &ctx("U1"));
    for (name, n, picks) in [
        ("U2", "customer", &(|id: i64| id < 2) as &dyn Fn(i64) -> bool),
        ("U3", "address", &|id: i64| id == 7),
    ] {
        let before = db.snapshot();
        let UpdateAction::Modify { attr, value } = &update(name).action else { panic!("writes") };
        let on = placed(&before);
        for &canon in before.extent(node(g, n)) {
            if rows[canon.idx()].attrs[0].as_int().is_some_and(picks) {
                write(&mut rows, &on, canon, *attr, value);
            }
        }
        execute_update(&mut db, g, update(name)).expect("the update runs");
        assert_matches(&db, &rows, &ctx(name));
    }

    // a delete retracts occurrences, extents and postings, never rows
    let delete = UpdateSpec {
        name: "delete customer 5".into(),
        pattern: (PatternBuilder::new(g, "locate").node("customer"))
            .pred_eq("id", Value::Int(5))
            .output(0)
            .build()
            .expect("the pattern builds"),
        action: UpdateAction::Delete,
    };
    execute_update(&mut db, g, &delete).expect("deletes");
    assert_matches(&db, &rows, &ctx("delete"));

    // the batch: phase 1 writes before anything is copied
    let (batch, writes, attrs) = mixed_batch(g, &db);
    let on = placed(&db);
    for (e, a, v) in &writes {
        write(&mut rows, &on, *e, *a, v);
    }
    batch.apply(&mut db, g).expect("the batch applies");
    append_new(&mut rows, g, &db, &mut HashMap::from([(node(g, "item"), VecDeque::from([attrs]))]));
    assert_matches(&db, &rows, &ctx("batch"));

    // the paged round trip rebuilds the columns from the element segment
    let loaded = round_trip(&db);
    loaded.same_state(&db, true).unwrap_or_else(|e| panic!("{}: {e}", ctx("round trip")));
    assert_matches(&loaded, &rows, &ctx("round trip"));
    let customer = node(g, "customer");
    for probe in [&db, &loaded] {
        for (e, a, v) in &writes {
            let holding = Predicate { attr: *a, op: CmpOp::Eq, value: v.clone() };
            let hits = probe.reader().select(customer, &holding).expect("a heap read");
            assert!(hits.contains(e), "{}: probe {v}", ctx("round trip"));
            assert_eq!(probe.element(*e).attrs[*a], *v);
        }
    }
    db
}

#[test]
fn columns_match_a_row_store_on_every_strategy_and_kernel_family() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let inst = generate(&g, &ScaleProfile::tpcw(&g, 20), 42);
    for strategy in Strategy::ALL {
        let mut cost = run_sequence(&g, &inst, strategy, KernelDispatch::CostModel);
        let reference = run_sequence(&g, &inst, strategy, KernelDispatch::Reference);
        cost.set_kernel_dispatch(KernelDispatch::Reference);
        cost.same_state(&reference, true)
            .unwrap_or_else(|e| panic!("{strategy}: kernel families end apart: {e}"));
    }
}

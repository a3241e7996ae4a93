//! Incremental structural maintenance ≡ a from-scratch relabel.
//!
//! Structural writes splice the occurrences they push into document order
//! and move ids, labels and the per-tree indexes in place (DESIGN.md §5a).
//! This file keeps the maintenance that came before as its reference — a
//! DFS over the parent pointers with children in array order, a
//! parent-chain removal cascade, and a hash rebuild of the per-placement,
//! per-node and logical-occurrence indexes — and checks every step of a
//! structural sequence against it through the public read API, on all
//! seven strategies under both kernel families:
//!
//! 1. U1 twice, then U3;
//! 2. delete the inserted orders, then an existing customer;
//! 3. one batch with `Insert`, `AddOccurrence` and `RemoveOccurrences`.
//!
//! Every update commits as one lowered batch; a second test holds B002 on
//! the Table 1 updates (U1–U3) and a customer delete through
//! `apply_verified`, so it runs in release builds too.
//!
//! After each step the database must also equal its own paged save/load
//! round trip and answer the 13 TPC-W reads as that round trip does; a
//! snapshot taken before the first write must keep its pre-write trees,
//! and a color a step did not edit must stay shared with the pre-step
//! version.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, CanonicalInstance, ScaleProfile};
use colorist::er::{catalog, Domain, ErGraph, NodeId};
use colorist::mct::{ColorId, PlacementId};
use colorist::query::{
    execute, execute_update, lower_update, optimize, Pattern, PatternBuilder, UpdateAction,
    UpdateSpec,
};
use colorist::store::database::{ColorTree, Occurrence};
use colorist::store::{
    BatchOp, BatchPosition, Database, ElementId, KernelDispatch, MemPages, OccId, PoolConfig,
    UpdateBatch, Value,
};
use colorist::workload::tpcw;

// ---------------------------------------------------------------------------
// the reference: the maintenance structural writes ran before the splice

/// The full relabel: a DFS over the parent pointers, roots and children in
/// array order, rewriting the forest into document order with parents
/// remapped and `(start, end, level)` assigned.
fn dfs_relabel(occs: &[Occurrence]) -> Vec<Occurrence> {
    let n = occs.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (i, o) in occs.iter().enumerate() {
        match o.parent {
            Some(p) => children[p.idx()].push(i),
            None => roots.push(i),
        }
    }
    enum Ev {
        Enter(usize, Option<OccId>, u16),
        Exit(usize),
    }
    let mut ordered: Vec<Occurrence> = Vec::with_capacity(n);
    let mut counter = 0;
    let mut stack: Vec<Ev> = roots.into_iter().rev().map(|r| Ev::Enter(r, None, 0)).collect();
    while let Some(ev) = stack.pop() {
        match ev {
            Ev::Enter(i, parent, level) => {
                counter += 1;
                let id = OccId(ordered.len() as u32);
                ordered.push(Occurrence { parent, start: counter, end: 0, level, ..occs[i] });
                stack.push(Ev::Exit(id.idx()));
                for &c in children[i].iter().rev() {
                    stack.push(Ev::Enter(c, Some(id), level + 1));
                }
            }
            Ev::Exit(i) => {
                counter += 1;
                ordered[i].end = counter;
            }
        }
    }
    assert_eq!(ordered.len(), n, "the reference relabel lost occurrences");
    ordered
}

/// The parent-chain cascade: an occurrence goes when it or an ancestor is
/// doomed; survivors keep their order, parents remapped.
fn cascade_remove(occs: &[Occurrence], doomed: &HashSet<usize>) -> Vec<Occurrence> {
    let dead = |i: usize| {
        let mut cur = Some(i);
        while let Some(c) = cur {
            if doomed.contains(&c) {
                return true;
            }
            cur = occs[c].parent.map(OccId::idx);
        }
        false
    };
    let mut remap = vec![None; occs.len()];
    let mut kept = Vec::with_capacity(occs.len());
    for (i, o) in occs.iter().enumerate() {
        if !dead(i) {
            remap[i] = Some(OccId(kept.len() as u32));
            kept.push(*o);
        }
    }
    for o in &mut kept {
        o.parent = o.parent.map(|p| remap[p.idx()].expect("a survivor's parent survives"));
    }
    kept
}

/// The hash rebuild of one tree's derived indexes.
#[derive(Default)]
struct Indexes {
    by_placement: HashMap<PlacementId, Vec<OccId>>,
    by_node: HashMap<NodeId, Vec<OccId>>,
    logical: HashMap<(NodeId, u32), Vec<OccId>>,
}

fn rebuild_indexes(db: &Database, occs: &[Occurrence]) -> Indexes {
    let mut ix = Indexes::default();
    for (i, o) in occs.iter().enumerate() {
        let id = OccId(i as u32);
        let canon = db.element(db.element(o.element).canonical);
        ix.by_placement.entry(o.placement).or_default().push(id);
        ix.by_node.entry(canon.node).or_default().push(id);
        ix.logical.entry((canon.node, canon.ordinal)).or_default().push(id);
    }
    ix
}

/// What the reference maintenance makes of one color across a step: the
/// labelled tree before it, then the occurrences the step pushed, in push
/// order, then the removal cascade over the pre-step ids in `doomed`, then
/// one full relabel. An element occurs at most once per color, so element
/// ids name occurrences across the two versions; the occurrences `after`
/// holds that `before` does not are the pushed ones, and `after` keeps
/// them in push order (the batch step asserts that order separately).
fn reference_color(
    before: &ColorTree,
    after: &ColorTree,
    doomed: &HashSet<usize>,
) -> Vec<Occurrence> {
    let old: HashMap<ElementId, usize> =
        before.occs().iter().enumerate().map(|(i, o)| (o.element, i)).collect();
    let mut input = before.occs().to_vec();
    let mut pushed: HashMap<ElementId, usize> = HashMap::new();
    for o in after.occs() {
        if old.contains_key(&o.element) {
            continue;
        }
        let parent = o.parent.map(|p| {
            let pe = after.occ(p).element;
            let at = old.get(&pe).or_else(|| pushed.get(&pe)).expect("the parent was placed first");
            OccId(*at as u32)
        });
        pushed.insert(o.element, input.len());
        input.push(Occurrence { parent, start: 0, end: 0, level: 0, ..*o });
    }
    dfs_relabel(&cascade_remove(&input, doomed))
}

// ---------------------------------------------------------------------------
// the checks

/// Every color of `db` equals the reference built from `before` (plus the
/// step's explicit removals), through the public accessors; a color the
/// step did not change is still `before`'s allocation.
fn check_against_reference(
    g: &ErGraph,
    before: &Database,
    db: &Database,
    doomed: &HashMap<ColorId, HashSet<usize>>,
    ctx: &str,
) {
    let none = HashSet::new();
    for c in db.schema.colors() {
        let (old, tree) = (before.color(c), db.color(c));
        let reference = reference_color(old, tree, doomed.get(&c).unwrap_or(&none));
        assert_eq!(tree.occs(), &reference[..], "{ctx}: color {} differs from a full relabel", c.0);
        let edited = reference[..] != old.occs()[..];
        // an unedited color's labelled version is still the pre-step
        // allocation, not a copy
        assert_eq!(
            std::ptr::eq(tree.occs(), old.occs()),
            !edited,
            "{ctx}: color {} shared with the pre-step version iff unedited",
            c.0
        );
        let ix = rebuild_indexes(db, &reference);
        let listed = |m: Option<&Vec<OccId>>| m.map_or(Vec::new(), Vec::clone);
        for p in db.schema.placement_ids() {
            assert_eq!(tree.of_placement(p), listed(ix.by_placement.get(&p)), "{ctx}: {p}");
        }
        for n in g.node_ids() {
            assert_eq!(tree.of_node(n), listed(ix.by_node.get(&n)), "{ctx}: node {}", n.0);
        }
        // every instance the color held before or holds now, deleted ones
        // included
        for o in old.occs().iter().chain(tree.occs()) {
            let el = db.element(o.element);
            assert_eq!(
                db.occurrences_of_logical(c, o.element),
                listed(ix.logical.get(&(el.node, el.ordinal))),
                "{ctx}: logical occurrences of {} in color {}",
                o.element,
                c.0
            );
        }
    }
}

/// Save `db` to an in-memory page store and load it back: a from-scratch
/// rebuild of every derived structure.
fn round_trip(db: &Database) -> Database {
    let backend = Arc::new(MemPages::new());
    let mut saved = db.clone();
    saved.attach_paged(backend.clone(), PoolConfig::default()).expect("attach flushes");
    let mut loaded = Database::load_from_backend(backend, db.schema.clone(), PoolConfig::default())
        .expect("loads");
    loaded.set_kernel_dispatch(db.kernel_dispatch());
    loaded
}

type Answers = Vec<(Vec<ElementId>, u64, u64)>;

fn answers(g: &ErGraph, db: &Database, reads: &[Pattern]) -> Answers {
    reads
        .iter()
        .map(|q| {
            let plan = optimize(db, g, q).expect("plans");
            let r = execute(db, g, &plan).expect("runs");
            (r.elements, r.results, r.distinct)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// the sequence

fn delete_spec(g: &ErGraph, node: &str, id: i64) -> UpdateSpec {
    UpdateSpec {
        name: format!("delete {node} {id}"),
        pattern: PatternBuilder::new(g, "locate")
            .node(node)
            .pred_eq("id", Value::Int(id))
            .output(0)
            .build()
            .expect("pattern builds"),
        action: UpdateAction::Delete,
    }
}

/// Per color, the pre-step ids of every occurrence of the instances whose
/// `id` attribute is `id` — what a delete removes, found the way deletes
/// used to find it: by scanning every occurrence.
fn occurrences_with_id(
    g: &ErGraph,
    db: &Database,
    node: &str,
    id: i64,
) -> HashMap<ColorId, HashSet<usize>> {
    let node = g.node_by_name(node).expect("tpcw node");
    let targets: HashSet<ElementId> = db
        .extent(node)
        .iter()
        .copied()
        .filter(|&e| db.element(e).attrs[0] == Value::Int(id))
        .collect();
    assert!(!targets.is_empty(), "{id} names an instance");
    db.schema
        .colors()
        .map(|c| {
            let ids = db.color(c).occs().iter().enumerate();
            let doomed = ids.filter(|(_, o)| targets.contains(&db.element(o.element).canonical));
            (c, doomed.map(|(i, _)| i).collect())
        })
        .collect()
}

/// One batch of the three structural op kinds over `item`: two inserts
/// under the same parents (so push order shows), an extra occurrence of an
/// existing item under the last parent occurrence, and the removal of that
/// parent occurrence — which also takes the occurrence added beneath it
/// before it was ever labelled.
fn mixed_batch(g: &ErGraph, db: &Database) -> (UpdateBatch, HashMap<ColorId, HashSet<usize>>) {
    let item = g.node_by_name("item").expect("tpcw item");
    let schema = &db.schema;
    let colors: Vec<ColorId> =
        schema.colors().filter(|&c| !schema.placements_of_in_color(item, c).is_empty()).collect();
    let position = |c: ColorId, last: bool| {
        let placement = schema.placements_of_in_color(item, c)[0];
        let parent = schema.placement(placement).parent.map(|(pp, _)| {
            let run = db.color(c).of_placement(pp);
            if last {
                *run.last().expect("a parent occurrence")
            } else {
                run[0]
            }
        });
        BatchPosition { color: c, placement, parent }
    };
    let attrs = |tag: i64| -> Vec<Value> {
        g.node(item)
            .attributes
            .iter()
            .map(|a| match a.domain {
                Domain::Integer => Value::Int(tag),
                Domain::Float => Value::Float(tag as f64),
                _ => Value::Text(format!("spliced {tag}")),
            })
            .collect()
    };
    let mut batch = UpdateBatch::new();
    let first = db.element_count() as u32;
    for (k, tag) in [7_000_001, 7_000_002].into_iter().enumerate() {
        batch.insert(item, attrs(tag), vec![]);
        for &c in &colors {
            batch.add_occurrence(ElementId(first + k as u32), position(c, false));
        }
    }
    let c0 = colors[0];
    let added = position(c0, true);
    batch.add_occurrence(db.extent(item)[1], added);
    let doomed =
        added.parent.unwrap_or_else(|| *db.color(c0).of_placement(added.placement).last().unwrap());
    batch.push(BatchOp::RemoveOccurrences { color: c0, occs: vec![doomed] });
    (batch, HashMap::from([(c0, HashSet::from([doomed.idx()]))]))
}

/// Run the sequence on one strategy under one kernel family, checking each
/// step; returns the final database and the answers after every step.
fn run_sequence(
    g: &ErGraph,
    inst: &CanonicalInstance,
    strategy: Strategy,
    dispatch: KernelDispatch,
) -> (Database, Vec<Answers>) {
    let w = tpcw::workload(g);
    let update = |name: &str| w.updates.iter().find(|u| u.name == name).expect("tpcw update");
    let schema = design(g, strategy).expect("designs tpcw");
    let mut db = materialize(g, &schema, inst);
    db.set_kernel_dispatch(dispatch);
    let pinned = db.snapshot();
    let pinned_trees: Vec<ColorTree> = schema.colors().map(|c| db.color(c).clone()).collect();
    let pinned_answers = answers(g, &db, &w.reads);

    let mut per_step = Vec::new();
    let steps = ["U1", "U1", "U3", "delete order", "delete customer", "batch"];
    for step in steps {
        let ctx = format!("{strategy} under {dispatch:?}, step {step}");
        let before = db.snapshot();
        let doomed = match step {
            "delete order" => {
                let doomed = occurrences_with_id(g, &db, "order", 5_000_000);
                execute_update(&mut db, g, &delete_spec(g, "order", 5_000_000)).expect("deletes");
                doomed
            }
            "delete customer" => {
                let doomed = occurrences_with_id(g, &db, "customer", 5);
                execute_update(&mut db, g, &delete_spec(g, "customer", 5)).expect("deletes");
                doomed
            }
            "batch" => {
                let (batch, doomed) = mixed_batch(g, &db);
                let receipt = batch.apply(&mut db, g).expect("the batch applies");
                // the second insert was pushed after the first: where both
                // survive, it follows as the later sibling
                for c in db.schema.colors() {
                    let [a, b] = [0, 1].map(|i| db.occurrences_of_logical(c, receipt.inserted[i]));
                    if let (Some(a), Some(b)) = (a.first(), b.first()) {
                        assert!(a < b, "{ctx}: color {} lost push order", c.0);
                    }
                }
                doomed
            }
            u => {
                execute_update(&mut db, g, update(u)).expect("updates");
                HashMap::new()
            }
        };
        db.check_integrity().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        check_against_reference(g, &before, &db, &doomed, &ctx);
        let loaded = round_trip(&db);
        loaded.same_state(&db, true).unwrap_or_else(|e| panic!("{ctx}: round trip: {e}"));
        let now = answers(g, &db, &w.reads);
        assert_eq!(now, answers(g, &loaded, &w.reads), "{ctx}: answers differ from the round trip");
        per_step.push(now);
    }

    // the snapshot taken before the first write still reads the trees and
    // answers of that moment
    for c in schema.colors() {
        assert_eq!(pinned.color(c), &pinned_trees[c.idx()], "{strategy}: pinned color {}", c.0);
    }
    pinned.check_integrity().expect("the pinned version stays sound");
    assert_eq!(answers(g, &pinned, &w.reads), pinned_answers, "{strategy}: pinned answers moved");
    (db, per_step)
}

#[test]
fn structural_writes_match_a_full_relabel_on_every_strategy_and_kernel_family() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let inst = generate(&g, &ScaleProfile::tpcw(&g, 20), 42);
    for strategy in Strategy::ALL {
        let (mut cost, cost_answers) = run_sequence(&g, &inst, strategy, KernelDispatch::CostModel);
        let (reference, reference_answers) =
            run_sequence(&g, &inst, strategy, KernelDispatch::Reference);
        assert_eq!(cost_answers, reference_answers, "{strategy}: kernel families disagree");
        cost.set_kernel_dispatch(KernelDispatch::Reference);
        cost.same_state(&reference, true)
            .unwrap_or_else(|e| panic!("{strategy}: kernel families end apart: {e}"));
    }
}

/// B002 on the Table 1 updates in any build: U1–U3 and a customer delete,
/// each lowered to its one batch and committed through `apply_verified`,
/// touch only keys inside the batch's static footprint, and land on the
/// state `execute_update` leaves, epoch included.
#[test]
fn lowered_table1_updates_stay_inside_their_footprint_on_every_strategy() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let inst = generate(&g, &ScaleProfile::tpcw(&g, 20), 42);
    let w = tpcw::workload(&g);
    let mut updates: Vec<UpdateSpec> = ["U1", "U2", "U3"]
        .map(|name| w.updates.iter().find(|u| u.name == name).expect("tpcw update").clone())
        .into();
    updates.push(delete_spec(&g, "customer", 5));
    for strategy in Strategy::ALL {
        let schema = design(&g, strategy).expect("designs tpcw");
        let mut verified = materialize(&g, &schema, &inst);
        let mut executed = verified.clone();
        for u in &updates {
            let ctx = format!("{strategy}, {}", u.name);
            let lowered = lower_update(&verified, &g, u).expect("lowers");
            let (_, footprint, touched) = (lowered.batch.apply_verified(&mut verified, &g))
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(footprint.covers(&touched), Ok(()), "{ctx}");
            assert!(!touched.colors.is_empty() || !touched.writes.is_empty(), "{ctx}: no-op");
            execute_update(&mut executed, &g, u).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            verified.same_state(&executed, true).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }
}

//! Cross-crate integration tests for the static batch effect analysis
//! and group commit (DESIGN.md §13) on real tpcw materializations under
//! every strategy: B002 — every key a commit touches lies inside the
//! batch's static footprint — through `UpdateBatch::apply_verified` on the
//! occurrence-append path, and the
//! [`CommitScheduler`](colorist::store::CommitScheduler) landing on the
//! serially-committed state under one epoch step, with the serial
//! verdict for every batch.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, ScaleProfile};
use colorist::er::{catalog, ErGraph, NodeId};
use colorist::store::{
    BatchError, BatchPosition, CommitScheduler, Database, ElementId, UpdateBatch, Value,
};

fn build(strategy: Strategy) -> (ErGraph, Database) {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let schema = design(&g, strategy).expect("tpcw designs");
    let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::uniform(&g, 8), 11));
    (g, db)
}

fn by_name(g: &ErGraph, name: &str) -> NodeId {
    g.node_ids().find(|&n| g.node(n).name == name).expect("node exists")
}

fn instance(db: &Database, node: NodeId, ordinal: u32) -> ElementId {
    db.canonical_by_ordinal(node, ordinal).expect("instance exists")
}

/// The first placement of `node` that can take a new occurrence: a root,
/// or a child placement whose parent placement has an occurrence.
fn position_of(db: &Database, node: NodeId) -> BatchPosition {
    db.schema
        .colors()
        .flat_map(|c| db.schema.placements_of_in_color(node, c).into_iter().map(move |p| (c, p)))
        .find_map(|(color, placement)| match db.schema.placement(placement).parent {
            None => Some(BatchPosition { color, placement, parent: None }),
            Some((pp, _)) => {
                db.occurrence_at(pp).map(|o| BatchPosition { color, placement, parent: Some(o) })
            }
        })
        .expect("a placement that can take an occurrence")
}

/// `AddOccurrence` binds the canonical of an instance that has no
/// occurrence in the color yet and allocates a copy for one that has —
/// including an instance this batch inserted and placed itself, so two
/// appends of one new instance to one color give the canonical, then a
/// copy. The static footprint covers every key the commit touches (new
/// symbols from a text write included) and predicts exactly the elements
/// allocated; S008 stays clean.
#[test]
fn occurrence_appends_bind_then_copy_inside_the_footprint_on_every_strategy() {
    for s in Strategy::ALL {
        let (g, mut db) = build(s);
        let item = by_name(&g, "item");
        let placed = instance(&db, item, 0);
        let at = position_of(&db, item);
        let next = db.element_count() as u32;
        // a live instance with no occurrence yet: the next append binds it
        let unplaced = ElementId(next);
        let mut batch = UpdateBatch::new();
        batch.insert(item, db.element(placed).attrs.to_vec(), vec![]);
        batch.add_occurrence(placed, at).add_occurrence(unplaced, at).add_occurrence(unplaced, at);
        // ICIC coverage: every other color placing items gets the new one
        // as a heterogeneous root
        for color in db.schema.colors().filter(|&c| c != at.color) {
            if let Some(&placement) = db.schema.placements_of_in_color(item, color).first() {
                batch.add_occurrence(unplaced, BatchPosition { color, placement, parent: None });
            }
        }
        let customer = instance(&db, by_name(&g, "customer"), 0);
        batch.write_attr(customer, 1, Value::Text("a symbol no one interned".into()));
        let (_, footprint, touched) =
            batch.apply_verified(&mut db, &g).unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(footprint.covers(&touched), Ok(()), "{s}");
        assert_eq!(footprint.new_symbols.len(), 1, "{s}");
        // op order: the insert, the placed instance's copy, the new one's
        let (placed_copy, unplaced_copy) = (ElementId(next + 1), ElementId(next + 2));
        assert_eq!(footprint.allocated, [unplaced, placed_copy, unplaced_copy].into(), "{s}");
        assert_eq!(db.element_count() as u32, next + 3, "{s}");
        assert!(db.copies_of(placed).contains(&placed_copy), "{s}");
        assert_eq!(db.copies_of(unplaced), [unplaced_copy], "{s}");
        let holders: Vec<ElementId> = db
            .occurrences_of_logical(at.color, unplaced)
            .iter()
            .map(|&o| db.color(at.color).occ(o).element)
            .collect();
        assert!(holders.contains(&unplaced), "{s}: the first append binds the canonical");
        assert!(holders.contains(&unplaced_copy), "{s}: the second allocates a copy");
        assert_eq!(db.check_integrity(), Ok(()), "{s}");
    }
}

/// One binding rule, per color: a batch that inserts an `item` and places
/// it at every placement of its node binds the canonical once in each color
/// and stores a copy only for a second placement in the same color. So the
/// strategies that place items once per color (EN, MCMR, DR, UNDR, and
/// AF and SHALLOW with their single placement) store no copy at all, and
/// only DEEP, which repeats items inside a color, stores the rest.
#[test]
fn a_batch_insert_binds_its_canonical_once_per_color() {
    for s in Strategy::ALL {
        let (g, mut db) = build(s);
        let item = by_name(&g, "item");
        let new = ElementId(db.element_count() as u32);
        let mut batch = UpdateBatch::new();
        batch.insert(item, db.element(instance(&db, item, 0)).attrs.to_vec(), vec![]);
        let placements = db.schema.placements_of(item).to_vec();
        for &placement in &placements {
            let color = db.schema.placement(placement).color;
            let parent = (db.schema.placement(placement).parent)
                .map(|(pp, _)| db.occurrence_at(pp).expect("a parent"));
            batch.add_occurrence(new, BatchPosition { color, placement, parent });
        }
        let colors: std::collections::BTreeSet<_> =
            placements.iter().map(|&p| db.schema.placement(p).color).collect();
        batch.apply(&mut db, &g).unwrap_or_else(|e| panic!("{s}: {e}"));
        let copies = db.copies_of(new).len();
        assert_eq!(copies, placements.len() - colors.len(), "{s}");
        match s {
            Strategy::Deep => assert!(copies > 0, "DEEP repeats items inside a color"),
            Strategy::Af | Strategy::Shallow => assert_eq!(colors.len(), 1, "{s}"),
            _ => assert!(colors.len() > 1 && copies == 0, "{s}: {copies} copies"),
        }
        assert_eq!(db.check_integrity(), Ok(()), "{s}");
    }
}

/// A group of five batches — two contending for one cell, one disjoint,
/// one delete, and a write to the instance that delete removes — commits
/// under a single epoch step, gives every batch the verdict serial
/// application gives it (the last is rejected and leaves no trace), and
/// lands on the serially-committed state.
#[test]
fn scheduler_matches_serial_state_with_one_epoch_bump() {
    for s in Strategy::ALL {
        let (g, db) = build(s);
        let customer = instance(&db, by_name(&g, "customer"), 0);
        let item = by_name(&g, "item");
        let (item0, item1) = (instance(&db, item, 0), instance(&db, item, 1));
        let mut batches = vec![UpdateBatch::new(); 5];
        batches[0].write_attr(customer, 1, Value::Int(1));
        batches[1].write_attr(customer, 1, Value::Int(2));
        batches[2].write_attr(item0, 2, Value::Int(3));
        batches[3].delete(item1);
        batches[4].write_attr(item1, 2, Value::Int(4));
        let mut serial = db.clone();
        let want: Vec<_> = batches.iter().map(|b| b.apply(&mut serial, &g).map(drop)).collect();
        assert_eq!(want[4], Err(BatchError::Deleted(item1)), "{s}");

        let mut sched = CommitScheduler::new();
        for batch in batches {
            sched.stage(batch);
        }
        let mut grouped = db.clone();
        let verdicts = sched.commit(&mut grouped, &g).expect("the flush succeeds");
        let got: Vec<_> = verdicts.iter().map(|v| v.clone().map(drop)).collect();
        assert_eq!(got, want, "{s}: per-batch verdicts");
        let epoch = db.epoch() + 1;
        assert!(verdicts.iter().flatten().all(|r| r.epoch == epoch), "{s}");
        assert_eq!(grouped.epoch(), epoch, "{s}: one epoch step for the group");
        grouped.same_state(&serial, false).unwrap_or_else(|m| panic!("{s}: {m}"));
    }
}

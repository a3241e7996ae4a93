//! Static batch effect analysis and group commit (DESIGN.md §13).
//!
//! [`analyze_batch`] is an abstract interpretation of an
//! [`UpdateBatch`] program against the pre-batch [`Database`]: without
//! executing anything it computes the batch's [`Footprint`] — every
//! `(element, attr)` write cell, every deleted logical instance, and
//! every derived structure the commit will touch (extent slots,
//! ordinal-index entries, value-index postings, color label surfaces,
//! link-table cells). The phase order of
//! `UpdateBatch::apply` is fixed (writes → inserts/occurrence appends →
//! occurrence removals → relabels → deletes), so the element ids and
//! ordinals of *future* inserts are statically predictable and the
//! footprint can name them exactly: phase 2 is replayed by the same
//! `Replay` validation walks, so analysis and validation agree on every
//! id, ordinal and binding.
//!
//! The footprint is the mutators' soundness oracle, diagnostic **B002**:
//! a shadow tracker instruments the `Arc::make_mut` mutators in
//! `database.rs` and records every key a commit actually touches, and
//! [`Footprint::covers`] asserts that the touched keys are contained in
//! the static footprint. Every debug-build `UpdateBatch::apply` checks it,
//! and so does every batch a debug-build [`CommitScheduler`] stages,
//! analysed against the staged state it actually meets;
//! `UpdateBatch::apply_verified` checks it in any build, which is how the
//! batch oracle holds it in release. Release commits do not analyse.
//!
//! [`CommitScheduler`] group-commits batches as **one staged version**:
//! each batch writes through the caller's database in stage order — the
//! serial order, so the final state needs no commutativity argument — and
//! gets its own verdict; the group then flushes once and advances the
//! epoch by one.

use std::collections::BTreeSet;
use std::fmt;

use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::ColorId;

use crate::batch::{
    commit_staged, resolve_live, BatchError, BatchOp, BatchReceipt, Replay, UpdateBatch,
};
use crate::database::{Database, ElementId};
use crate::value::Value;

/// A set of effect keys over the store's writable cells and derived
/// structures: either the static footprint [`analyze_batch`] predicts for
/// a batch (every key its commit may touch), or the keys one execution
/// actually touched, as the shadow tracker records them. B002 holds when
/// the second is contained in the first ([`Footprint::covers`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// `(element, attr)` write cells, canonical **and** every physical
    /// copy (attribute writes fan out).
    pub writes: BTreeSet<(ElementId, usize)>,
    /// Canonical elements of deleted instances.
    pub deleted: BTreeSet<ElementId>,
    /// Canonical elements (pre-existing or inserted) gaining occurrences.
    pub occ_added: BTreeSet<ElementId>,
    /// Nodes whose extent membership changes (inserts/deletes).
    pub extent_nodes: BTreeSet<NodeId>,
    /// Ordinal-index slots tombstoned or appended.
    pub ordinals: BTreeSet<(NodeId, u32)>,
    /// Value-index postings inserted, moved, or retracted.
    pub postings: BTreeSet<(NodeId, usize, ElementId)>,
    /// Colors structurally edited — the whole color's label surface,
    /// since any edit relabels and remaps every `OccId`.
    pub colors: BTreeSet<ColorId>,
    /// Link-table cells pushed or killed.
    pub links: BTreeSet<(EdgeId, u32)>,
    /// Element ids allocated (inserts and copies); statically predicted
    /// from the fixed phase order.
    pub allocated: BTreeSet<ElementId>,
    /// Text values interned that the pre-batch symbol table does not hold.
    pub new_symbols: BTreeSet<String>,
}

impl Footprint {
    /// Keys across every derived structure — the deterministic
    /// `effect_keys` counter of the `effect` trace span.
    fn key_count(&self) -> u64 {
        let sizes = [
            self.writes.len(),
            self.deleted.len(),
            self.extent_nodes.len(),
            self.ordinals.len(),
            self.postings.len(),
            self.colors.len(),
            self.links.len(),
        ];
        sizes.iter().sum::<usize>() as u64
    }

    /// B002 — soundness: every key an execution actually `touched` must
    /// be in this static footprint. Returns the first violation.
    pub fn covers(&self, touched: &Footprint) -> Result<(), String> {
        fn within<T: Ord + fmt::Debug>(
            what: &str,
            touched: &BTreeSet<T>,
            predicted: &BTreeSet<T>,
        ) -> Result<(), String> {
            match touched.difference(predicted).next() {
                Some(key) => Err(format!(
                    "B002: execution touched {what} {key:?} outside the static footprint"
                )),
                None => Ok(()),
            }
        }
        within("write cell", &touched.writes, &self.writes)?;
        within("deleted instance", &touched.deleted, &self.deleted)?;
        within("an occurrence of", &touched.occ_added, &self.occ_added)?;
        within("the extent of", &touched.extent_nodes, &self.extent_nodes)?;
        within("ordinal slot", &touched.ordinals, &self.ordinals)?;
        within("posting", &touched.postings, &self.postings)?;
        within("color", &touched.colors, &self.colors)?;
        within("link cell", &touched.links, &self.links)?;
        within("an allocation of", &touched.allocated, &self.allocated)?;
        within("new symbol", &touched.new_symbols, &self.new_symbols)
    }
}

/// The thread-local shadow tracker behind B002. Inactive (and nearly
/// free) unless a verified stage turns it on: every debug-build commit,
/// and `UpdateBatch::apply_verified` in any build.
pub(crate) mod shadow {
    use super::Footprint;
    use std::cell::RefCell;

    thread_local! {
        static TRACKER: RefCell<Option<Footprint>> = const { RefCell::new(None) };
    }

    /// Start recording on this thread (mutations outside a tracked
    /// stage are not recorded).
    pub(crate) fn start() {
        TRACKER.with(|t| *t.borrow_mut() = Some(Footprint::default()));
    }

    /// Stop recording and return what was touched.
    pub(crate) fn stop() -> Footprint {
        TRACKER.with(|t| t.borrow_mut().take()).unwrap_or_default()
    }

    /// Record touched keys, if this thread is recording; a mutator calls
    /// this once per choke point.
    pub(crate) fn note(f: impl FnOnce(&mut Footprint)) {
        TRACKER.with(|t| {
            if let Some(touched) = t.borrow_mut().as_mut() {
                f(touched);
            }
        });
    }
}

/// [`analyze_batch`] under the `effect` trace span every verified stage
/// emits, with the footprint's key count as its counter.
pub(crate) fn analyze_traced(batch: &UpdateBatch, db: &Database, graph: &ErGraph) -> Footprint {
    let mut span = colorist_trace::span("effect", "analyze");
    let footprint = analyze_batch(batch, db, graph);
    span.counter("effect_keys", footprint.key_count());
    footprint
}

/// Abstractly interpret `batch` against the pre-batch `db`, mirroring
/// the exact maintenance each phase of `UpdateBatch::apply` performs
/// (see the §12.2 table) without executing any of it. Total: ops whose
/// references do not resolve contribute nothing (`UpdateBatch::validate`
/// rejects them before any commit).
pub fn analyze_batch(batch: &UpdateBatch, db: &Database, graph: &ErGraph) -> Footprint {
    let mut fp = Footprint::default();
    let resolve = |e: ElementId| resolve_live(db, e).ok();
    let record_symbol = |fp: &mut Footprint, v: &Value| {
        if let Value::Text(s) = v {
            if db.interner().get(s).is_none() {
                fp.new_symbols.insert(s.clone());
            }
        }
    };

    // deletes run last, but read only the pre-state
    for op in batch.ops() {
        let BatchOp::Delete { element } = op else { continue };
        let Some(canon) = resolve(*element) else { continue };
        fp.deleted.insert(canon);
        let el = db.element(canon);
        let (node, ordinal) = (el.node, el.ordinal);
        fp.ordinals.insert((node, ordinal));
        fp.extent_nodes.insert(node);
        fp.postings.extend((0..el.attrs.len()).map(|a| (node, a, canon)));
        fp.colors.extend(
            (0..db.color_count() as u16)
                .map(ColorId)
                .filter(|&c| !db.occurrences_of_logical(c, canon).is_empty()),
        );
        // mirror kill_links_of against the pre-state link tables
        for &(e, _) in graph.incident(node) {
            let edge = graph.edge(e);
            if edge.rel == node {
                if db.link_slot_exists(e, ordinal) {
                    fp.links.insert((e, ordinal));
                }
            } else {
                for ro in db.linked_rels(e, ordinal) {
                    for &(e2, _) in graph.incident(edge.rel) {
                        if graph.edge(e2).rel == edge.rel && db.link_slot_exists(e2, ro) {
                            fp.links.insert((e2, ro));
                        }
                    }
                }
            }
        }
    }

    // phase 1 — attribute writes (fan out to copies)
    for op in batch.ops() {
        let BatchOp::WriteAttr { element, attr, value } = op else { continue };
        let Some(canon) = resolve(*element) else { continue };
        let el = db.element(canon);
        if el.attrs.len() <= *attr {
            continue;
        }
        record_symbol(&mut fp, value);
        fp.writes.insert((canon, *attr));
        // write fan-out, resolved exactly as the apply phase does
        fp.writes.extend(db.copies_of(canon).into_iter().map(|c| (c, *attr)));
        fp.postings.insert((el.node, *attr, canon));
    }

    // phase 2 — inserts and occurrence appends, replayed in op order as
    // validation walks them: the fixed phase order makes allocated ids and
    // ordinals statically exact
    let mut replay = Replay::new(db);
    for op in batch.ops() {
        match op {
            BatchOp::Insert { node, attrs, links } => {
                let (id, ordinal) = replay.insert(*node);
                fp.allocated.insert(id);
                fp.ordinals.insert((*node, ordinal));
                fp.extent_nodes.insert(*node);
                for (a, v) in attrs.iter().enumerate() {
                    record_symbol(&mut fp, v);
                    fp.postings.insert((*node, a, id));
                }
                fp.links.extend(links.iter().map(|l| (l.edge, ordinal)));
            }
            BatchOp::AddOccurrence { element, position } => {
                let Ok(canon) = replay.resolve(*element) else { continue };
                fp.allocated.extend(replay.append(position.color, position.placement, canon));
                fp.occ_added.insert(canon);
                fp.colors.insert(position.color);
            }
            _ => {}
        }
    }

    // phase 3 — explicit occurrence removals
    for op in batch.ops() {
        if let BatchOp::RemoveOccurrences { color, .. } = op {
            if color.idx() < db.color_count() {
                fp.colors.insert(*color);
            }
        }
    }

    fp
}

/// Group commit: stage several batches, then commit them through one
/// database as **one staged version**. Each batch is validated against,
/// and written through, the state the batches before it left — stage
/// order *is* serial order, so the group lands exactly where applying
/// the batches one by one does — and gets its own verdict: a rejected
/// batch was refused before it wrote anything, so it leaves no trace and
/// the next batch stages as if it had never been there. Then dirty
/// segments flush once, and the epoch advances by **one** if any batch
/// committed: every receipt carries that epoch, and the last committed
/// batch carries the group's `pages_written`.
#[derive(Debug, Clone, Default)]
pub struct CommitScheduler {
    batches: Vec<UpdateBatch>,
}

impl CommitScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        CommitScheduler::default()
    }

    /// Stage a batch; returns its stage index.
    pub fn stage(&mut self, batch: UpdateBatch) -> usize {
        self.batches.push(batch);
        self.batches.len() - 1
    }

    /// The footprint of every staged batch against `db`, in stage order.
    /// The commit does not need them; the one caller is the `benchmark/`
    /// layer walk, which times this as the effect-analysis cost of a
    /// burst.
    pub fn plan(&self, db: &Database, graph: &ErGraph) -> Vec<Footprint> {
        self.batches.iter().map(|b| analyze_traced(b, db, graph)).collect()
    }

    /// Group-commit every staged batch through `db` and return one
    /// verdict per batch, in stage order. The outer `Err` means the flush
    /// failed: `db` is then byte-identical to before the call and no
    /// batch committed.
    pub fn commit(
        &self,
        db: &mut Database,
        graph: &ErGraph,
    ) -> Result<Vec<Result<BatchReceipt, BatchError>>, BatchError> {
        db.or_roll_back(|db| {
            let epoch = db.epoch() + 1;
            let mut verdicts: Vec<_> = (self.batches.iter())
                .map(|b| b.stage(db, graph, cfg!(debug_assertions)).map(|(receipt, _)| receipt))
                .collect();
            if verdicts.iter().any(Result::is_ok) {
                db.set_epoch(epoch);
            }
            let pages_written = commit_staged(db)?;
            for receipt in verdicts.iter_mut().flatten() {
                receipt.epoch = epoch;
            }
            if let Some(last) = verdicts.iter_mut().flatten().last() {
                last.pages_written = pages_written;
            }
            Ok(verdicts)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPosition;
    use crate::database::tests::tiny_db as tiny;

    #[test]
    fn footprint_covers_what_the_commit_touches() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let c = ColorId(0);
        let eb0 = db.extent(b)[0];
        let eb1 = db.extent(b)[1];
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let pr = db.schema.placements_of_in_color(g.node_by_name("r").unwrap(), c)[0];
        let parent = db.color(c).of_placement(pr)[0];
        let mut batch = UpdateBatch::new();
        batch.write_attr(eb0, 0, Value::Int(42));
        let new = ElementId(db.element_count() as u32);
        batch.insert(b, vec![Value::Int(9), Value::Text("w".into())], vec![]);
        batch.add_occurrence(new, BatchPosition { color: c, placement: pb, parent: Some(parent) });
        batch.delete(eb1);
        let predicted = analyze_batch(&batch, &db, &g);
        let (receipt, footprint, touched) = batch.apply_verified(&mut db, &g).expect("valid");
        // B002: dynamic ⊆ static
        assert_eq!(footprint.covers(&touched), Ok(()));
        assert_eq!(predicted, footprint);
        assert!(footprint.new_symbols.contains("w"), "{:?}", footprint.new_symbols);
        // the predicted insert id is the one the commit allocated
        assert!(footprint.allocated.contains(&receipt.inserted[0]));
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn a_rejected_batch_inside_a_group_leaves_no_trace_and_the_others_commit() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let eb1 = db.extent(b)[1];
        let mut batches = vec![UpdateBatch::new(); 4];
        batches[0].write_attr(eb0, 0, Value::Int(5));
        batches[1].write_attr(eb0, 9, Value::Int(6)); // attr out of range
        batches[2].write_attr(eb0, 0, Value::Int(7)).delete(eb1);
        batches[3].write_attr(eb1, 1, Value::Text("gone".into())); // deleted by 2
        let mut serial = db.clone();
        let mut sched = CommitScheduler::new();
        for batch in &batches {
            let _ = batch.apply(&mut serial, &g);
            sched.stage(batch.clone());
        }
        let epoch = db.epoch();
        let verdicts = sched.commit(&mut db, &g).expect("the flush succeeds");
        assert!(matches!(verdicts[1], Err(BatchError::BadAttr { .. })), "{verdicts:?}");
        assert_eq!(verdicts[3], Err(BatchError::Deleted(eb1)));
        for i in [0, 2] {
            assert_eq!(verdicts[i].as_ref().map(|r| r.epoch), Ok(epoch + 1), "batch {i}");
        }
        assert_eq!(db.epoch(), epoch + 1, "one epoch step for the group");
        assert_eq!(db.element(eb0).attrs[0], Value::Int(7), "stage order wins");
        assert_eq!(db.same_state(&serial, false), Ok(()));
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn a_group_that_commits_nothing_leaves_the_database_byte_identical() {
        let (g, mut db) = tiny();
        let eb0 = db.extent(g.node_by_name("b").unwrap())[0];
        let mut sched = CommitScheduler::new();
        let mut bad = UpdateBatch::new();
        bad.write_attr(eb0, 9, Value::Text("never interned".into()));
        sched.stage(bad);
        let before = db.clone();
        let verdicts = sched.commit(&mut db, &g).expect("nothing to flush");
        assert!(matches!(verdicts[..], [Err(BatchError::BadAttr { .. })]), "{verdicts:?}");
        assert_eq!(db.same_state(&before, true), Ok(()), "epoch included");
    }
}

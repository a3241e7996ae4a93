//! Atomic update batches over [`Database`].
//!
//! An [`UpdateBatch`] collects many logical operations — attribute writes,
//! instance deletes, element inserts, occurrence edits — validates them
//! *together* against the pre-batch database (cross-op conflict detection,
//! arity and placement checks, per-color coverage so inter-color
//! constraints cannot be half-satisfied), and applies them atomically as
//! **savepoint + write-through**: [`UpdateBatch::apply`] keeps a handle
//! clone of the caller's database (refcount bumps, no data), writes every
//! mutation through the caller's handle — copying only the chunks and
//! columns the batch touches — and puts the savepoint back if the commit
//! point fails. A reader holding a
//! [`Snapshot`](crate::database::Snapshot) taken before
//! [`UpdateBatch::apply`] keeps the pre-batch version of every structure
//! (extents, color trees, value index) and never
//! observes a half-applied batch — the shape GroveDB's `batch.rs` gives
//! its merkle subtrees, transplanted onto MCT color forests.
//!
//! Duplicate maintenance is included: an attribute write fans out to every
//! physical copy of the instance, an occurrence append stores a copy when
//! the canonical element already occurs in that color, and a delete
//! removes the occurrences of the canonical element *and* of all its
//! copies, retracting the extent entry and value-index postings with
//! them. A batch is the store's one write front end: the structural
//! mutators it drives are crate-private.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::{ColorId, PlacementId};

use crate::database::{Database, ElementId, OccId};
use crate::effect::{self, shadow, Footprint};
use crate::value::Value;
use colorist_trace::span;

/// Where a new occurrence goes in one color's forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPosition {
    /// The color receiving the occurrence.
    pub color: ColorId,
    /// The schema placement instantiated by the occurrence.
    pub placement: PlacementId,
    /// Parent occurrence in that color's tree: a pre-batch id, or the one
    /// the k-th `AddOccurrence` of this batch to the color placed (the
    /// color's pre-batch occurrence count plus k). `None` at a root
    /// placement, and at a heterogeneous root (§4.2): an inserted
    /// instance's first occurrence in the color.
    pub parent: Option<OccId>,
}

/// One link-table entry recorded alongside an inserted relationship
/// element: the participant instance on `edge` that the new relationship
/// instance references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLink {
    /// The ER edge being linked (its `rel` must be the inserted node).
    pub edge: EdgeId,
    /// The participant instance: a pre-batch element (canonical or copy),
    /// or one an earlier `Insert` of this batch allocated.
    pub participant: ElementId,
}

/// One logical operation inside an [`UpdateBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOp {
    /// Overwrite one attribute of a logical instance. Applies to the
    /// canonical element and every physical copy (duplicate maintenance),
    /// whichever of them `element` names.
    WriteAttr {
        /// Canonical element or any copy of the instance to write.
        element: ElementId,
        /// Attribute index within the element.
        attr: usize,
        /// The new value.
        value: Value,
    },
    /// Delete a logical instance everywhere: every occurrence of its
    /// canonical element and of every copy leaves every color, and the
    /// extent and value-index contributions retract.
    Delete {
        /// Canonical element or any copy of the doomed instance.
        element: ElementId,
    },
    /// Insert a new canonical element and push its link-table entries;
    /// `AddOccurrence` ops place it, in every color whose forest places
    /// `node` (the coverage half of the ICIC obligations). Later ops name
    /// it by its id: `element_count()` plus the elements allocated before.
    Insert {
        /// The ER node type of the new instance.
        node: NodeId,
        /// Full stored attribute vector: declared attributes followed by
        /// one idref slot per idref edge on this node, in schema order.
        attrs: Vec<Value>,
        /// Link-table entries (for relationship nodes).
        links: Vec<BatchLink>,
    },
    /// Add one occurrence of an instance, pre-batch or inserted earlier in
    /// the batch. It binds the canonical element iff the canonical has no
    /// occurrence in that color yet, before the batch or earlier in it;
    /// otherwise it stores a fresh physical copy.
    AddOccurrence {
        /// Canonical element or any pre-batch copy of the instance.
        element: ElementId,
        /// Where the new occurrence goes.
        position: BatchPosition,
    },
    /// Remove specific occurrences (pre-batch ids) from one color;
    /// descendants are removed transitively.
    RemoveOccurrences {
        /// The color to edit.
        color: ColorId,
        /// Pre-batch occurrence ids to remove.
        occs: Vec<OccId>,
    },
}

/// Why a batch was rejected. Validation runs before any mutation, so a
/// rejected batch leaves the database untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// An op referenced an element id outside the store.
    UnknownElement(ElementId),
    /// An op referenced an instance that was already deleted.
    Deleted(ElementId),
    /// An attribute index out of range for the element.
    BadAttr {
        /// The element written.
        element: ElementId,
        /// The out-of-range attribute index.
        attr: usize,
    },
    /// An insert's attribute vector does not match the node's stored arity
    /// (declared attributes plus idref slots).
    Arity {
        /// The inserted node type.
        node: NodeId,
        /// The arity the schema requires.
        expected: usize,
        /// The arity the op supplied.
        got: usize,
    },
    /// An insert misses a color whose forest places the node — applying it
    /// would leave the inter-color constraints half-satisfied.
    IcicIncomplete {
        /// The inserted node type.
        node: NodeId,
        /// The color with no position.
        color: ColorId,
    },
    /// A position's placement/color/parent combination is inconsistent
    /// with the schema.
    BadPosition(String),
    /// A `RemoveOccurrences` op referenced an occurrence outside the
    /// color's tree.
    UnknownOccurrence {
        /// The color edited.
        color: ColorId,
        /// The out-of-range occurrence id.
        occ: OccId,
    },
    /// An insert's link entry is inconsistent (an edge of another
    /// relationship, or a participant of the wrong node).
    BadLink(String),
    /// Two ops in the batch contend for the same target (double write of
    /// one attribute, delete of a written instance, …).
    Conflict(String),
    /// The paged storage backend failed to commit the batch's dirty
    /// segments (an I/O error). Raised *before* the commit point, so the
    /// live database and its backend state are untouched.
    Storage(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::UnknownElement(e) => write!(f, "unknown element {e}"),
            BatchError::Deleted(e) => write!(f, "element {e} is deleted"),
            BatchError::BadAttr { element, attr } => {
                write!(f, "attribute {attr} out of range for element {element}")
            }
            BatchError::Arity { node, expected, got } => {
                write!(f, "node {} expects arity {expected}, got {got}", node.0)
            }
            BatchError::IcicIncomplete { node, color } => {
                write!(f, "insert of node {} misses color {}", node.0, color.0)
            }
            BatchError::BadPosition(msg) => write!(f, "bad position: {msg}"),
            BatchError::UnknownOccurrence { color, occ } => {
                write!(f, "unknown occurrence {occ:?} in color {}", color.0)
            }
            BatchError::BadLink(msg) => write!(f, "bad link: {msg}"),
            BatchError::Conflict(msg) => write!(f, "conflicting ops: {msg}"),
            BatchError::Storage(msg) => write!(f, "storage backend commit failed: {msg}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// What a committed batch did, for callers and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReceipt {
    /// Number of ops applied.
    pub ops: usize,
    /// Canonical element ids created by `Insert` ops, in op order.
    pub inserted: Vec<ElementId>,
    /// Physical duplicate writes: one per copy an attribute write fans out
    /// to beyond the canonical element, and one per copy an occurrence
    /// append stores.
    pub duplicate_writes: u64,
    /// Occurrences removed by deletes and occurrence edits (subtrees
    /// included).
    pub occurrences_removed: u64,
    /// The database epoch after the commit (a group-committed batch
    /// carries its group's epoch).
    pub epoch: u64,
    /// Pages written by the paged storage backend's commit transaction
    /// (0 on the heap backend, and for batches that dirtied nothing).
    pub pages_written: u64,
}

/// The commit point a single batch and a commit group share: write the
/// dirty segments through the paged backend as one transaction. Returns the pages written (0 on the
/// heap backend). Runs *before* the staged state is published, so on
/// `Err` the caller still holds its savepoint.
pub(crate) fn commit_staged(db: &mut Database) -> Result<u64, BatchError> {
    let flush = db.flush_storage().map_err(|e| BatchError::Storage(e.to_string()))?;
    if flush.pages_written > 0 {
        let mut sspan = span("storage", "flush:batch");
        sspan.counter("page_writes", flush.pages_written);
    }
    Ok(flush.pages_written)
}

/// A validated-then-atomic collection of update operations.
///
/// ```text
/// let mut batch = UpdateBatch::new();
/// batch.write_attr(e, 0, Value::Int(7));
/// batch.delete(stale);
/// let receipt = batch.apply(&mut db, &graph)?;
/// ```
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    ops: Vec<BatchOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued ops, in application order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Queue an arbitrary op.
    pub fn push(&mut self, op: BatchOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Queue an attribute write (canonical + all copies).
    pub fn write_attr(&mut self, element: ElementId, attr: usize, value: Value) -> &mut Self {
        self.push(BatchOp::WriteAttr { element, attr, value })
    }

    /// Queue an instance delete.
    pub fn delete(&mut self, element: ElementId) -> &mut Self {
        self.push(BatchOp::Delete { element })
    }

    /// Queue an element insert (place it with [`UpdateBatch::add_occurrence`]).
    pub fn insert(&mut self, node: NodeId, attrs: Vec<Value>, links: Vec<BatchLink>) -> &mut Self {
        self.push(BatchOp::Insert { node, attrs, links })
    }

    /// Queue an occurrence append.
    pub fn add_occurrence(&mut self, element: ElementId, position: BatchPosition) -> &mut Self {
        self.push(BatchOp::AddOccurrence { element, position })
    }

    /// Validate every op against `db` without mutating anything.
    pub fn validate(&self, db: &Database, graph: &ErGraph) -> Result<(), BatchError> {
        self.replay(db, graph).map(drop)
    }

    /// [`UpdateBatch::validate`], returning phase 2 as replayed.
    fn replay<'a>(&self, db: &'a Database, graph: &ErGraph) -> Result<Replay<'a>, BatchError> {
        let schema = &db.schema;
        // canonical instances doomed by Delete ops, for conflict checks
        let mut doomed: HashSet<ElementId> = HashSet::new();
        for op in &self.ops {
            if let BatchOp::Delete { element } = op {
                let canon = resolve_live(db, *element)?;
                if !doomed.insert(canon) {
                    return Err(BatchError::Conflict(format!("instance {canon} deleted twice")));
                }
            }
        }
        let mut written: HashSet<(ElementId, usize)> = HashSet::new();
        let mut replay = Replay::new(db);
        for op in &self.ops {
            match op {
                BatchOp::Delete { .. } => {}
                BatchOp::WriteAttr { element, attr, .. } => {
                    let canon = resolve_live(db, *element)?;
                    if db.element(canon).attrs.len() <= *attr {
                        return Err(BatchError::BadAttr { element: canon, attr: *attr });
                    }
                    if doomed.contains(&canon) {
                        return Err(BatchError::Conflict(format!(
                            "instance {canon} both written and deleted"
                        )));
                    }
                    if !written.insert((canon, *attr)) {
                        return Err(BatchError::Conflict(format!(
                            "attribute {attr} of {canon} written twice"
                        )));
                    }
                }
                BatchOp::Insert { node, attrs, links } => {
                    let expected = graph.node(*node).attributes.len()
                        + schema
                            .idrefs()
                            .iter()
                            .filter(|x| graph.edge(x.edge).rel == *node)
                            .count();
                    if attrs.len() != expected {
                        return Err(BatchError::Arity { node: *node, expected, got: attrs.len() });
                    }
                    replay.insert(*node);
                    for l in links {
                        let edge = graph.edge(l.edge);
                        if edge.rel != *node {
                            return Err(BatchError::BadLink(format!(
                                "edge {:?} is not a relationship edge of node {}",
                                l.edge, node.0
                            )));
                        }
                        let target = replay.resolve(l.participant)?;
                        if replay.node(target) != edge.participant {
                            return Err(BatchError::BadLink(format!(
                                "participant {target} is not of node {}",
                                edge.participant.0
                            )));
                        }
                        if doomed.contains(&target) {
                            return Err(BatchError::Conflict(format!(
                                "insert links to instance {target} deleted in the same batch"
                            )));
                        }
                    }
                }
                BatchOp::AddOccurrence { element, position } => {
                    let canon = replay.resolve(*element)?;
                    if doomed.contains(&canon) {
                        return Err(BatchError::Conflict(format!(
                            "occurrence added for instance {canon} deleted in the same batch"
                        )));
                    }
                    check_position(db, &replay, &doomed, canon, position)?;
                    replay.append(position.color, position.placement, canon);
                }
                BatchOp::RemoveOccurrences { color, occs } => {
                    if color.idx() >= db.color_count() {
                        return Err(BatchError::BadPosition(format!(
                            "color {} out of range",
                            color.0
                        )));
                    }
                    let len = db.color(*color).occs().len();
                    for &o in occs {
                        if o.idx() >= len {
                            return Err(BatchError::UnknownOccurrence { color: *color, occ: o });
                        }
                    }
                }
            }
        }
        // ICIC coverage: every inserted instance occurs in every color
        // whose forest places its node
        for (&id, &node) in &replay.inserted {
            let places = |c: ColorId| !schema.placements_of_in_color(node, c).is_empty();
            if let Some(color) =
                schema.colors().find(|&c| places(c) && !replay.bound.contains(&(c, id)))
            {
                return Err(BatchError::IcicIncomplete { node, color });
            }
        }
        Ok(replay)
    }

    /// Validate, then apply atomically. On `Ok` the database has advanced
    /// by the whole batch (and its epoch has moved); on `Err` it is
    /// byte-identical to before the call. Readers holding a [`Snapshot`]
    /// taken earlier keep the pre-batch state either way.
    ///
    /// [`Snapshot`]: crate::database::Snapshot
    pub fn apply(&self, db: &mut Database, graph: &ErGraph) -> Result<BatchReceipt, BatchError> {
        db.or_roll_back(|db| {
            let (mut receipt, _) = self.stage(db, graph, cfg!(debug_assertions))?;
            receipt.pages_written = commit_staged(db)?;
            Ok(receipt)
        })
    }

    /// [`UpdateBatch::apply`] with the B002 instrumentation on in **any**
    /// build: the batch is analysed against `db`, the shadow tracker
    /// records every key the commit's mutators actually touch, and the
    /// caller receives the static footprint and the touched keys to check
    /// [`Footprint::covers`] itself — the batch oracle runs this in
    /// release.
    pub fn apply_verified(
        &self,
        db: &mut Database,
        graph: &ErGraph,
    ) -> Result<(BatchReceipt, Footprint, Footprint), BatchError> {
        db.or_roll_back(|db| {
            let (mut receipt, verified) = self.stage(db, graph, true)?;
            receipt.pages_written = commit_staged(db)?;
            let (footprint, touched) = verified.unwrap_or_default();
            Ok((receipt, footprint, touched))
        })
    }

    /// Validate against `db`, then write every op through it — no
    /// savepoint, no flush: the caller owns the savepoint and owes
    /// [`commit_staged`] before publishing. A validation failure returns
    /// before anything is written. With `verify` (every debug build) the
    /// batch is analysed against the state it meets and the shadow tracker
    /// runs, and the static footprint is returned with the keys the
    /// mutators touched (B002, asserted here in debug builds).
    pub(crate) fn stage(
        &self,
        db: &mut Database,
        graph: &ErGraph,
        verify: bool,
    ) -> Result<(BatchReceipt, Option<(Footprint, Footprint)>), BatchError> {
        let mut bspan = span("batch", "apply");
        bspan.counter("batch_ops", self.ops.len() as u64);
        let mut copies = self.replay(db, graph)?.copies.into_iter();
        let footprint = verify.then(|| {
            let footprint = effect::analyze_traced(self, db, graph);
            shadow::start();
            footprint
        });
        let mut receipt = BatchReceipt { ops: self.ops.len(), ..BatchReceipt::default() };
        let mut touched_colors: BTreeSet<ColorId> = BTreeSet::new();

        // 1. attribute writes (fan out to copies; the trees still carry
        // the pre-batch labels here, which is what `copies_of` reads)
        for op in &self.ops {
            if let BatchOp::WriteAttr { element, attr, value } = op {
                let canon = db.element(*element).canonical;
                db.write_attr(canon, *attr, value.clone());
                for c in db.copies_of(canon) {
                    db.write_attr(c, *attr, value.clone());
                    receipt.duplicate_writes += 1;
                }
            }
        }

        // 2. inserts and occurrence appends, in op order — both only
        // append, so pre-batch occurrence ids stay valid throughout
        for op in &self.ops {
            match op {
                BatchOp::Insert { node, attrs, links } => {
                    let id = db.insert_element(*node, attrs.clone());
                    receipt.inserted.push(id);
                    let ordinal = db.element(id).ordinal;
                    for l in links {
                        let participant = db.element(l.participant).ordinal;
                        db.push_link(l.edge, ordinal, participant);
                    }
                }
                BatchOp::AddOccurrence { element, position } => {
                    // bind or copy as the validation replay decided
                    let canon = db.element(*element).canonical;
                    let el = if copies.next() == Some(true) {
                        receipt.duplicate_writes += 1;
                        db.insert_copy(canon)
                    } else {
                        canon
                    };
                    db.push_occurrence(position.color, el, position.placement, position.parent);
                    touched_colors.insert(position.color);
                }
                _ => {}
            }
        }

        // 3. explicit occurrence removals (pre-batch ids; still valid)
        for op in &self.ops {
            if let BatchOp::RemoveOccurrences { color, occs } = op {
                receipt.occurrences_removed += db.remove_occurrences(*color, occs) as u64;
                touched_colors.insert(*color);
            }
        }

        // 4. one relabel per structurally edited color
        for c in touched_colors {
            db.relabel_color(c);
        }

        // 5. deletes last (they relabel the colors they empty themselves)
        for op in &self.ops {
            if let BatchOp::Delete { element } = op {
                db.kill_links_of(graph, *element);
                receipt.occurrences_removed += db.remove_element_occurrences(*element) as u64;
            }
        }

        let verified = footprint.map(|footprint| (footprint, shadow::stop()));
        // B002 — footprint soundness, asserted on every debug-build commit
        debug_assert_eq!(
            verified.as_ref().map_or(Ok(()), |(fp, touched)| fp.covers(touched)),
            Ok(())
        );
        debug_assert_eq!(db.check_integrity(), Ok(()));
        receipt.epoch = db.epoch();
        Ok((receipt, verified))
    }
}

/// Resolve pre-batch element `e` to its live canonical instance.
pub(crate) fn resolve_live(db: &Database, e: ElementId) -> Result<ElementId, BatchError> {
    if e.idx() >= db.element_count() {
        return Err(BatchError::UnknownElement(e));
    }
    let canon = db.element(e).canonical;
    if !db.is_live(canon) {
        return Err(BatchError::Deleted(canon));
    }
    Ok(canon)
}

/// Placement/color/parent consistency for one occurrence of `canon`.
fn check_position(
    db: &Database,
    replay: &Replay<'_>,
    doomed: &HashSet<ElementId>,
    canon: ElementId,
    p: &BatchPosition,
) -> Result<(), BatchError> {
    let node = replay.node(canon);
    let pl = (db.schema.placements().get(p.placement.idx()))
        .filter(|pl| pl.node == node && pl.color == p.color)
        .ok_or_else(|| {
            BatchError::BadPosition(format!(
                "placement {} is no placement of node {} in color {}",
                p.placement, node.0, p.color.0
            ))
        })?;
    // a root placement, or a heterogeneous root (§4.2): an instance this
    // batch inserted, at its first occurrence in the color
    let may_be_root = pl.parent.is_none()
        || (replay.inserted.contains_key(&canon) && !replay.bound.contains(&(p.color, canon)));
    match (pl.parent, p.parent) {
        (_, None) if may_be_root => Ok(()),
        (None, Some(_)) => Err(BatchError::BadPosition(format!(
            "placement {} is a root but a parent occurrence was given",
            p.placement
        ))),
        (_, None) => Err(BatchError::BadPosition(format!(
            "placement {} requires a parent occurrence",
            p.placement
        ))),
        (Some((pp, _)), Some(occ)) => {
            let (placement, parent_canon) = replay
                .occurrence(p.color, occ)
                .ok_or(BatchError::UnknownOccurrence { color: p.color, occ })?;
            if placement != pp {
                return Err(BatchError::BadPosition(format!(
                    "parent occurrence sits at {placement}, placement {} requires parent {pp}",
                    p.placement
                )));
            }
            if doomed.contains(&parent_canon) {
                return Err(BatchError::Conflict(format!(
                    "parent instance {parent_canon} is deleted in the same batch"
                )));
            }
            Ok(())
        }
    }
}

/// Phase 2 of a batch — inserts and occurrence appends — replayed in op
/// order against the pre-batch database, writing nothing. Validation walks
/// it, `stage` follows its binding decisions and [`effect::analyze_batch`]
/// walks it too, so all three name the same ids.
pub(crate) struct Replay<'a> {
    db: &'a Database,
    next_id: u32,
    /// The canonicals inserted so far, with their node.
    inserted: BTreeMap<ElementId, NodeId>,
    next_ordinal: BTreeMap<NodeId, u32>,
    /// Per color, the placement and canonical of each occurrence appended.
    appended: BTreeMap<ColorId, Vec<(PlacementId, ElementId)>>,
    /// `(color, canonical)` pairs an append has met: from then on the
    /// canonical occurs in the color.
    bound: BTreeSet<(ColorId, ElementId)>,
    /// Per append, in op order: whether it stores a copy.
    copies: Vec<bool>,
}

impl<'a> Replay<'a> {
    pub(crate) fn new(db: &'a Database) -> Self {
        Replay {
            db,
            next_id: db.element_count() as u32,
            inserted: BTreeMap::new(),
            next_ordinal: BTreeMap::new(),
            appended: BTreeMap::new(),
            bound: BTreeSet::new(),
            copies: Vec::new(),
        }
    }

    fn allocate(&mut self) -> ElementId {
        self.next_id += 1;
        ElementId(self.next_id - 1)
    }

    /// Allocate an inserted canonical of `node`: its id and ordinal.
    pub(crate) fn insert(&mut self, node: NodeId) -> (ElementId, u32) {
        let id = self.allocate();
        let slot = self.next_ordinal.entry(node).or_insert_with(|| self.db.ordinal_count(node));
        let ordinal = *slot;
        *slot += 1;
        self.inserted.insert(id, node);
        (id, ordinal)
    }

    /// The live canonical `e` names: a pre-batch element, or a canonical
    /// inserted earlier in the batch.
    pub(crate) fn resolve(&self, e: ElementId) -> Result<ElementId, BatchError> {
        if self.inserted.contains_key(&e) {
            return Ok(e);
        }
        resolve_live(self.db, e)
    }

    fn node(&self, canon: ElementId) -> NodeId {
        self.inserted.get(&canon).copied().unwrap_or_else(|| self.db.element(canon).node)
    }

    /// Append one occurrence of `canon`; returns the copy it allocates.
    /// The store's one binding rule: an occurrence binds the canonical
    /// element iff the canonical itself occurs in the color neither before
    /// the batch nor earlier in it, and stores a fresh copy otherwise.
    pub(crate) fn append(
        &mut self,
        color: ColorId,
        placement: PlacementId,
        canon: ElementId,
    ) -> Option<ElementId> {
        self.appended.entry(color).or_default().push((placement, canon));
        let db = self.db;
        let placed = !self.bound.insert((color, canon))
            || (!self.inserted.contains_key(&canon)
                && (db.occurrences_of_logical(color, canon).iter())
                    .any(|&o| db.color(color).occ(o).element == canon));
        self.copies.push(placed);
        placed.then(|| self.allocate())
    }

    /// The placement and canonical of occurrence `occ` in `color`, pre-batch
    /// or appended so far.
    fn occurrence(&self, color: ColorId, occ: OccId) -> Option<(PlacementId, ElementId)> {
        let tree = self.db.color(color);
        match occ.idx().checked_sub(tree.occs().len()) {
            None => {
                let o = tree.occ(occ);
                Some((o.placement, self.db.element(o.element).canonical))
            }
            Some(k) => self.appended.get(&color)?.get(k).copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::tiny_db as tiny;
    use colorist_mct::ColorId;

    #[test]
    fn batch_commits_atomically_and_reports() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let eb1 = db.extent(b)[1];
        let mut batch = UpdateBatch::new();
        batch.write_attr(eb0, 1, Value::Text("patched".into()));
        batch.delete(eb1);
        let epoch0 = db.epoch();
        let receipt = batch.apply(&mut db, &g).expect("valid batch");
        assert_eq!(receipt.ops, 2);
        assert_eq!(receipt.occurrences_removed, 1);
        assert_eq!(receipt.epoch, db.epoch());
        assert!(db.epoch() > epoch0);
        assert_eq!(db.element(eb0).attrs[1], Value::Text("patched".into()));
        assert!(!db.is_live(eb1));
        assert_eq!(db.extent(b).len(), 1);
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn rejected_batch_mutates_nothing() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let before = db.clone();
        let cases: Vec<(UpdateBatch, BatchError)> = vec![
            (
                {
                    let mut x = UpdateBatch::new();
                    x.write_attr(eb0, 1, Value::Int(1)).write_attr(eb0, 1, Value::Int(2));
                    x.clone()
                },
                BatchError::Conflict(format!("attribute 1 of {eb0} written twice")),
            ),
            (
                {
                    let mut x = UpdateBatch::new();
                    x.write_attr(eb0, 1, Value::Int(1)).delete(eb0);
                    x.clone()
                },
                BatchError::Conflict(format!("instance {eb0} both written and deleted")),
            ),
            (
                {
                    let mut x = UpdateBatch::new();
                    x.delete(ElementId(999));
                    x.clone()
                },
                BatchError::UnknownElement(ElementId(999)),
            ),
            (
                {
                    let mut x = UpdateBatch::new();
                    x.write_attr(eb0, 7, Value::Int(1));
                    x.clone()
                },
                BatchError::BadAttr { element: eb0, attr: 7 },
            ),
        ];
        for (batch, want) in cases {
            let got = batch.apply(&mut db, &g).expect_err("must reject");
            assert_eq!(got, want);
            assert_eq!(db.epoch(), before.epoch(), "rejection must not move the epoch");
            assert_eq!(db.extent(b), before.extent(b));
        }
    }

    #[test]
    fn insert_validates_arity_coverage_and_positions() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let r = g.node_by_name("r").unwrap();
        let c = ColorId(0);
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let pr = db.schema.placements_of_in_color(r, c)[0];
        let at = |parent| BatchPosition { color: c, placement: pb, parent };
        let row = || vec![Value::Int(9), Value::Text("w".into())];
        let new = ElementId(db.element_count() as u32);
        let rejects = |batch: &mut UpdateBatch, db: &mut Database| {
            let before = db.clone();
            let err = batch.apply(db, &g).expect_err("must reject");
            assert_eq!(db.same_state(&before, true), Ok(()));
            err
        };
        // wrong arity
        let mut batch = UpdateBatch::new();
        batch.insert(b, vec![Value::Int(9)], vec![]);
        assert_eq!(
            rejects(&mut batch, &mut db),
            BatchError::Arity { node: b, expected: 2, got: 1 }
        );
        // no occurrence in the only color
        let mut batch = UpdateBatch::new();
        batch.insert(b, row(), vec![]);
        assert_eq!(rejects(&mut batch, &mut db), BatchError::IcicIncomplete { node: b, color: c });
        // an op may name only an element an earlier insert allocated
        let mut batch = UpdateBatch::new();
        batch.add_occurrence(new, at(None)).insert(b, row(), vec![]);
        assert_eq!(rejects(&mut batch, &mut db), BatchError::UnknownElement(new));
        // a parentless occurrence at a non-root placement is a
        // heterogeneous root: only an inserted instance's first in the color
        let eb0 = db.extent(b)[0];
        for batch in [
            UpdateBatch::new().add_occurrence(eb0, at(None)),
            UpdateBatch::new()
                .insert(b, row(), vec![])
                .add_occurrence(new, at(None))
                .add_occurrence(new, at(None)),
        ] {
            assert!(matches!(rejects(batch, &mut db), BatchError::BadPosition(_)));
        }
        let receipt = UpdateBatch::new()
            .insert(b, row(), vec![])
            .add_occurrence(new, at(None))
            .apply(&mut db, &g);
        assert_eq!(receipt.map(|r| r.inserted), Ok(vec![new]));
        assert_eq!(db.color(c).occ(db.occurrences_of_logical(c, new)[0]).parent, None);
        // a parent may be an occurrence placed earlier in the same batch:
        // a new `r` under a0, and a new `b` under it
        let a0 = db
            .color(c)
            .of_placement(db.schema.placements_of_in_color(g.node_by_name("a").unwrap(), c)[0])[0];
        let (new_r, new_b) = (ElementId(new.0 + 1), ElementId(new.0 + 2));
        let under_new_r = OccId(db.color(c).occs().len() as u32);
        let mut batch = UpdateBatch::new();
        batch.insert(r, vec![], vec![]).insert(b, row(), vec![]);
        batch.add_occurrence(new_r, BatchPosition { color: c, placement: pr, parent: Some(a0) });
        batch.add_occurrence(new_b, at(Some(under_new_r)));
        let receipt = batch.apply(&mut db, &g).expect("valid insert");
        assert_eq!(receipt.inserted, [new_r, new_b]);
        let [occ_r, occ_b] = [new_r, new_b].map(|e| db.occurrences_of_logical(c, e)[0]);
        assert_eq!(db.color(c).occ(occ_b).parent, Some(occ_r));
        assert_eq!(db.extent(b).len(), 4);
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn writes_fan_out_to_copies() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let r = g.node_by_name("r").unwrap();
        let c = ColorId(0);
        let eb0 = db.extent(b)[0];
        let copy = db.insert_copy(eb0);
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let parent = db.color(c).of_placement(db.schema.placements_of_in_color(r, c)[0])[1];
        db.push_occurrence(c, copy, pb, Some(parent));
        db.relabel_color(c);
        let mut batch = UpdateBatch::new();
        batch.write_attr(copy, 1, Value::Text("both".into()));
        let receipt = batch.apply(&mut db, &g).expect("valid batch");
        assert_eq!(receipt.duplicate_writes, 1);
        assert_eq!(db.element(eb0).attrs[1], Value::Text("both".into()));
        assert_eq!(db.element(copy).attrs[1], Value::Text("both".into()));
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn snapshot_survives_a_commit() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb1 = db.extent(b)[1];
        let snap = db.snapshot();
        let mut batch = UpdateBatch::new();
        batch.delete(eb1);
        batch.apply(&mut db, &g).expect("valid batch");
        assert_eq!(snap.extent(b).len(), 2, "snapshot must keep the pre-batch extent");
        assert!(snap.is_live(eb1));
        assert!(!db.is_live(eb1));
    }
}

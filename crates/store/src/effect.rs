//! Static batch effect analysis (DESIGN.md §13): footprints,
//! commutativity certificates, and the independence-scheduled group
//! commit.
//!
//! [`analyze_batch`] is an abstract interpretation of an
//! [`UpdateBatch`] program against the pre-batch [`Database`]: without
//! executing anything it computes the batch's [`Footprint`] — every
//! `(element, attr)` write cell, every deleted logical instance, and
//! every derived structure the commit will touch (extent slots,
//! ordinal-index entries, value-index postings, statistics columns,
//! color label surfaces, link-table cells). The phase order of
//! `UpdateBatch::apply` is fixed (writes → inserts/occurrence appends →
//! occurrence removals → relabels → deletes), so the element ids and
//! ordinals of *future* inserts are statically predictable and the
//! footprint can name them exactly.
//!
//! The analysis carries a diagnostic family of its own, continuing the
//! repo's P/S code convention:
//!
//! * **B001** — intra-batch conflict localization: the op *indices* and
//!   the precise [`EffectKey`] two ops contend on (the refined form of
//!   `BatchError::Conflict`).
//! * **B002** — footprint soundness: a shadow tracker instruments the
//!   `Arc::make_mut` mutators in `database.rs` and records every key a
//!   commit actually touches; [`Footprint::covers`] asserts the touched
//!   set is contained in the static footprint. `UpdateBatch::apply`
//!   runs the check automatically under `cfg(debug_assertions)`;
//!   `UpdateBatch::apply_verified` runs it in any build (the oracle's
//!   `--independence-seeds` sweep uses it in release).
//! * **B003** — pairwise commutativity: [`certify`] proves two batches
//!   with disjoint footprints commit in either order with identical
//!   final state — *including* identical statistics and epoch — or
//!   names a witnessing overlap key.
//! * **B004** — snapshot-epoch safety: [`Footprint::invalidates`]
//!   proves a batch cannot change the answers of any plan whose
//!   [`ReadFootprint`] (computed by the query layer from the verifier's
//!   per-register lattice) is disjoint from the batch's write surface.
//!
//! On top sits the first consumer, [`CommitScheduler`]: stage several
//! batches, partition them into independence classes — each footprint is
//! analysed once and registers its claims (see [`certify`]) in a
//! claim → batches map, so a class is whatever a shared or rival claim
//! connects — and group-commit them through **one** staging object, one
//! epoch bump per class — the static-analysis foundation for
//! multi-writer scaling. Pairwise independence extends to classes
//! because every cross-batch interaction that could widen a batch's
//! footprint mid-run (an added copy fanning out another batch's write, a
//! new link killed by another batch's delete, an occurrence added to a
//! color another batch relabels) is itself a certified conflict, so it
//! keeps the interacting batches inside one class.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::ColorId;

use crate::batch::{commit_staged, BatchError, BatchOp, BatchReceipt, UpdateBatch};
use crate::database::{Database, ElementId};
use crate::value::Value;

/// One key in a batch's effect surface — the unit both the static
/// footprint and the shadow tracker speak, and the witness type named
/// by conflict certificates (B001/B003) and snapshot-safety refutations
/// (B004).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum EffectKey {
    /// An `(element, attr)` attribute write cell (canonical or copy).
    Write(ElementId, usize),
    /// A logical instance (named by its canonical element) that a batch
    /// deletes, writes, or structurally extends.
    Instance(ElementId),
    /// A node's extent (membership changes: insert or delete).
    Extent(NodeId),
    /// An ordinal-index slot `(node, ordinal)` — tombstoned by deletes,
    /// appended by inserts.
    Ordinal(NodeId, u32),
    /// A value-index posting `(node, attr, element)`.
    Posting(NodeId, usize, ElementId),
    /// A statistics column `(node, attr)` — refreshed whenever the
    /// column's stored content changes.
    Column(NodeId, usize),
    /// A color's whole label surface: any structural edit relabels the
    /// color and remaps every `OccId` in it.
    Color(ColorId),
    /// A link-table cell `(edge, relationship ordinal)`.
    Link(EdgeId, u32),
    /// The element-id allocator (two allocating batches assign ids in
    /// commit order).
    Alloc,
    /// The text symbol table (two batches interning new symbols assign
    /// them in commit order).
    Intern,
}

impl fmt::Display for EffectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EffectKey::Write(e, a) => write!(f, "write cell {e}.attr{a}"),
            EffectKey::Instance(e) => write!(f, "instance {e}"),
            EffectKey::Extent(n) => write!(f, "extent of node {}", n.0),
            EffectKey::Ordinal(n, o) => write!(f, "ordinal slot ({}, {o})", n.0),
            EffectKey::Posting(n, a, e) => write!(f, "posting (node {}, attr {a}, {e})", n.0),
            EffectKey::Column(n, a) => write!(f, "statistics column (node {}, attr {a})", n.0),
            EffectKey::Color(c) => write!(f, "color {}", c.0),
            EffectKey::Link(e, o) => write!(f, "link cell ({e}, rel ordinal {o})"),
            EffectKey::Alloc => write!(f, "element-id allocator"),
            EffectKey::Intern => write!(f, "text symbol table"),
        }
    }
}

/// The static effect footprint of one batch against one pre-batch
/// database: every key [`UpdateBatch::apply`] may touch. Sound by
/// construction (B002 audits it against executions) and precise enough
/// to certify commutativity (B003) cell-by-cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// `(element, attr)` write cells, canonical **and** every physical
    /// copy (attribute writes fan out).
    pub writes: BTreeSet<(ElementId, usize)>,
    /// Canonical elements of instances whose attributes are written.
    pub written_instances: BTreeSet<ElementId>,
    /// Canonical elements of instances the batch deletes.
    pub deleted: BTreeSet<ElementId>,
    /// Canonical elements (pre-existing or predicted inserts) gaining
    /// occurrences.
    pub occ_added: BTreeSet<ElementId>,
    /// Canonical participant instances referenced by insert links.
    pub link_targets: BTreeSet<ElementId>,
    /// Nodes whose extent membership changes (inserts/deletes).
    pub extent_nodes: BTreeSet<NodeId>,
    /// Ordinal-index slots tombstoned or appended.
    pub ordinals: BTreeSet<(NodeId, u32)>,
    /// Value-index postings inserted, moved, or retracted.
    pub postings: BTreeSet<(NodeId, usize, ElementId)>,
    /// Statistics columns refreshed (their stored content changes).
    pub stat_columns: BTreeSet<(NodeId, usize)>,
    /// Nodes whose statistics row (extent cardinality) changes.
    pub stat_nodes: BTreeSet<NodeId>,
    /// Colors structurally edited — the whole color's label surface,
    /// since any edit relabels and remaps every `OccId`.
    pub colors: BTreeSet<ColorId>,
    /// Link-table cells pushed or killed.
    pub links: BTreeSet<(EdgeId, u32)>,
    /// Element ids the batch will allocate (inserts and copies),
    /// predicted from the fixed phase order.
    pub allocated: BTreeSet<ElementId>,
    /// Text values the batch interns that the pre-batch symbol table
    /// does not hold, in first-intern order.
    pub new_symbols: Vec<String>,
    /// Whether the batch relabels anything (and therefore recomputes
    /// the per-placement occurrence summaries). Deterministic from the
    /// final trees, so never a conflict by itself.
    pub placement_stats: bool,
}

/// Key counts per derived structure — the receipt-level digest of a
/// [`Footprint`], deterministic for a given batch and pre-state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FootprintSummary {
    /// `(element, attr)` write cells (copies included).
    pub write_cells: u64,
    /// Deleted logical instances.
    pub deleted_instances: u64,
    /// Nodes whose extent membership changes.
    pub extent_nodes: u64,
    /// Ordinal-index slots touched.
    pub ordinal_slots: u64,
    /// Value-index postings touched.
    pub postings: u64,
    /// Statistics columns refreshed.
    pub statistics_columns: u64,
    /// Colors relabelled.
    pub colors: u64,
    /// Link-table cells touched.
    pub link_cells: u64,
}

impl FootprintSummary {
    /// Total effect keys across every derived structure — the
    /// deterministic counter threaded through the `effect` trace span.
    pub fn effect_keys(&self) -> u64 {
        self.write_cells
            + self.deleted_instances
            + self.extent_nodes
            + self.ordinal_slots
            + self.postings
            + self.statistics_columns
            + self.colors
            + self.link_cells
    }
}

impl fmt::Display for FootprintSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} effect keys ({} writes, {} deletes, {} extents, {} ordinals, {} postings, \
             {} stat columns, {} colors, {} links)",
            self.effect_keys(),
            self.write_cells,
            self.deleted_instances,
            self.extent_nodes,
            self.ordinal_slots,
            self.postings,
            self.statistics_columns,
            self.colors,
            self.link_cells
        )
    }
}

impl Footprint {
    /// The receipt-level digest.
    pub fn summary(&self) -> FootprintSummary {
        FootprintSummary {
            write_cells: self.writes.len() as u64,
            deleted_instances: self.deleted.len() as u64,
            extent_nodes: self.extent_nodes.len() as u64,
            ordinal_slots: self.ordinals.len() as u64,
            postings: self.postings.len() as u64,
            statistics_columns: self.stat_columns.len() as u64,
            colors: self.colors.len() as u64,
            link_cells: self.links.len() as u64,
        }
    }

    /// Whether the footprint contains an effect key.
    pub fn contains(&self, key: &EffectKey) -> bool {
        match key {
            EffectKey::Write(e, a) => self.writes.contains(&(*e, *a)),
            EffectKey::Instance(e) => {
                self.deleted.contains(e)
                    || self.written_instances.contains(e)
                    || self.occ_added.contains(e)
                    || self.link_targets.contains(e)
            }
            EffectKey::Extent(n) => self.extent_nodes.contains(n),
            EffectKey::Ordinal(n, o) => self.ordinals.contains(&(*n, *o)),
            EffectKey::Posting(n, a, e) => self.postings.contains(&(*n, *a, *e)),
            EffectKey::Column(n, a) => self.stat_columns.contains(&(*n, *a)),
            EffectKey::Color(c) => self.colors.contains(c),
            EffectKey::Link(e, o) => self.links.contains(&(*e, *o)),
            EffectKey::Alloc => !self.allocated.is_empty(),
            EffectKey::Intern => !self.new_symbols.is_empty(),
        }
    }

    /// B002 — soundness: every key an execution actually touched must
    /// be in the static footprint. Returns the first violation.
    pub fn covers(&self, touched: &TouchedSet) -> Result<(), String> {
        let fail = |key: &dyn fmt::Display| {
            Err(format!("B002: execution touched {key} outside the static footprint"))
        };
        if let Some(&(e, a)) = touched.writes.difference(&self.writes).next() {
            return fail(&EffectKey::Write(e, a));
        }
        if let Some(&e) = touched.deleted.difference(&self.deleted).next() {
            return fail(&EffectKey::Instance(e));
        }
        if let Some(&e) = touched.occ_elements.difference(&self.occ_added).next() {
            return fail(&format!("occurrence of {}", EffectKey::Instance(e)));
        }
        if let Some(&n) = touched.extent_nodes.difference(&self.extent_nodes).next() {
            return fail(&EffectKey::Extent(n));
        }
        if let Some(&(n, o)) = touched.ordinals.difference(&self.ordinals).next() {
            return fail(&EffectKey::Ordinal(n, o));
        }
        if let Some(&(n, a, e)) = touched.postings.difference(&self.postings).next() {
            return fail(&EffectKey::Posting(n, a, e));
        }
        if let Some(&(n, a)) = touched.stat_columns.difference(&self.stat_columns).next() {
            return fail(&EffectKey::Column(n, a));
        }
        if let Some(&n) = touched.stat_nodes.difference(&self.stat_nodes).next() {
            return fail(&format!("statistics row of node {}", n.0));
        }
        if let Some(&c) = touched.colors.difference(&self.colors).next() {
            return fail(&EffectKey::Color(c));
        }
        if let Some(&(e, o)) = touched.links.difference(&self.links).next() {
            return fail(&EffectKey::Link(e, o));
        }
        let predicted: BTreeSet<ElementId> = self.allocated.iter().copied().collect();
        if let Some(&e) = touched.allocated.difference(&predicted).next() {
            return fail(&format!("allocation of {e}"));
        }
        let symbols: BTreeSet<&str> = self.new_symbols.iter().map(String::as_str).collect();
        if let Some(s) = touched.new_symbols.iter().find(|s| !symbols.contains(s.as_str())) {
            return fail(&format!("new symbol {s:?}"));
        }
        if touched.placement_stats && !self.placement_stats {
            return fail(&"placement-occurrence statistics");
        }
        Ok(())
    }

    /// B004 — snapshot-epoch safety. `None` means this batch cannot
    /// change the answer of any plan with read footprint `reads`:
    /// executing the plan after the commit equals executing it on a
    /// snapshot pinned before. `Some(key)` names the overlap that
    /// refutes the certificate.
    pub fn invalidates(&self, reads: &ReadFootprint) -> Option<EffectKey> {
        if let Some(&c) = self.colors.iter().find(|c| reads.colors.contains(c)) {
            return Some(EffectKey::Color(c));
        }
        if let Some(&n) = self.extent_nodes.iter().find(|n| reads.nodes.contains(n)) {
            return Some(EffectKey::Extent(n));
        }
        if let Some(&(n, a)) = self.stat_columns.iter().find(|k| reads.attrs.contains(k)) {
            return Some(EffectKey::Column(n, a));
        }
        if let Some(&(e, o)) = self.links.iter().find(|(e, _)| reads.edges.contains(e)) {
            return Some(EffectKey::Link(e, o));
        }
        None
    }
}

/// What a query plan reads, at the granularity the write-side
/// [`Footprint`] exposes: node extents/ordinal slots, attribute
/// columns, color label surfaces, link tables. Computed by the query
/// layer (`colorist_query::plan_read_footprint`) from the verifier's
/// per-register abstract values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadFootprint {
    /// Nodes whose extent / ordinal index / element population is read.
    pub nodes: BTreeSet<NodeId>,
    /// `(node, attr)` columns read by predicates, idref probes, and
    /// group-bys.
    pub attrs: BTreeSet<(NodeId, usize)>,
    /// Colors navigated (scans, structural joins, crossings).
    pub colors: BTreeSet<ColorId>,
    /// ER edges whose link tables or idref columns are probed.
    pub edges: BTreeSet<EdgeId>,
}

/// The keys one execution actually touched, recorded by the shadow
/// tracker inside the `Arc::make_mut` mutators of `database.rs` (B002's
/// ground truth).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchedSet {
    /// Attribute cells written.
    pub writes: BTreeSet<(ElementId, usize)>,
    /// Canonical instances whose derived structures were retracted.
    pub deleted: BTreeSet<ElementId>,
    /// Canonical instances that gained occurrences.
    pub occ_elements: BTreeSet<ElementId>,
    /// Nodes whose extent vector was edited.
    pub extent_nodes: BTreeSet<NodeId>,
    /// Ordinal slots written (appends and tombstones).
    pub ordinals: BTreeSet<(NodeId, u32)>,
    /// Value-index postings inserted, moved, or removed.
    pub postings: BTreeSet<(NodeId, usize, ElementId)>,
    /// Statistics columns refreshed.
    pub stat_columns: BTreeSet<(NodeId, usize)>,
    /// Nodes whose extent-cardinality row moved.
    pub stat_nodes: BTreeSet<NodeId>,
    /// Colors structurally edited or relabelled.
    pub colors: BTreeSet<ColorId>,
    /// Link cells pushed or killed.
    pub links: BTreeSet<(EdgeId, u32)>,
    /// Element ids allocated.
    pub allocated: BTreeSet<ElementId>,
    /// Text values newly interned.
    pub new_symbols: BTreeSet<String>,
    /// Whether placement-occurrence summaries were recomputed.
    pub placement_stats: bool,
}

impl TouchedSet {
    /// Whether the execution touched an effect key — the dynamic side
    /// of the precision check on certified-conflicting pairs.
    pub fn contains(&self, key: &EffectKey) -> bool {
        match key {
            EffectKey::Write(e, a) => self.writes.contains(&(*e, *a)),
            EffectKey::Instance(e) => {
                self.deleted.contains(e)
                    || self.occ_elements.contains(e)
                    || self.writes.iter().any(|(w, _)| w == e)
            }
            EffectKey::Extent(n) => self.extent_nodes.contains(n),
            EffectKey::Ordinal(n, o) => self.ordinals.contains(&(*n, *o)),
            EffectKey::Posting(n, a, e) => self.postings.contains(&(*n, *a, *e)),
            EffectKey::Column(n, a) => self.stat_columns.contains(&(*n, *a)),
            EffectKey::Color(c) => self.colors.contains(c),
            EffectKey::Link(e, o) => self.links.contains(&(*e, *o)),
            EffectKey::Alloc => !self.allocated.is_empty(),
            EffectKey::Intern => !self.new_symbols.is_empty(),
        }
    }
}

/// The thread-local shadow tracker behind B002. Inactive (and nearly
/// free) unless a verified apply turns it on; `UpdateBatch::apply`
/// activates it automatically in debug builds, and
/// `UpdateBatch::apply_verified` in any build.
pub(crate) mod shadow {
    use super::TouchedSet;
    use crate::database::ElementId;
    use colorist_er::{EdgeId, NodeId};
    use colorist_mct::ColorId;
    use std::cell::RefCell;

    thread_local! {
        static TRACKER: RefCell<Option<TouchedSet>> = const { RefCell::new(None) };
    }

    /// Start recording on this thread (mutations outside a tracked
    /// apply are not recorded).
    pub(crate) fn start() {
        TRACKER.with(|t| *t.borrow_mut() = Some(TouchedSet::default()));
    }

    /// Stop recording and return what was touched.
    pub(crate) fn stop() -> TouchedSet {
        TRACKER.with(|t| t.borrow_mut().take()).unwrap_or_default()
    }

    fn note(f: impl FnOnce(&mut TouchedSet)) {
        TRACKER.with(|t| {
            if let Some(ts) = t.borrow_mut().as_mut() {
                f(ts);
            }
        });
    }

    pub(crate) fn write(e: ElementId, attr: usize) {
        note(|t| {
            t.writes.insert((e, attr));
        });
    }

    pub(crate) fn deleted(canon: ElementId) {
        note(|t| {
            t.deleted.insert(canon);
        });
    }

    pub(crate) fn occ_element(canon: ElementId) {
        note(|t| {
            t.occ_elements.insert(canon);
        });
    }

    pub(crate) fn extent(node: NodeId) {
        note(|t| {
            t.extent_nodes.insert(node);
        });
    }

    pub(crate) fn ordinal(node: NodeId, ordinal: u32) {
        note(|t| {
            t.ordinals.insert((node, ordinal));
        });
    }

    pub(crate) fn posting(node: NodeId, attr: usize, e: ElementId) {
        note(|t| {
            t.postings.insert((node, attr, e));
        });
    }

    pub(crate) fn stat_column(node: NodeId, attr: usize) {
        note(|t| {
            t.stat_columns.insert((node, attr));
        });
    }

    pub(crate) fn stat_node(node: NodeId) {
        note(|t| {
            t.stat_nodes.insert(node);
        });
    }

    pub(crate) fn color(c: ColorId) {
        note(|t| {
            t.colors.insert(c);
        });
    }

    pub(crate) fn link(edge: EdgeId, rel_ordinal: u32) {
        note(|t| {
            t.links.insert((edge, rel_ordinal));
        });
    }

    pub(crate) fn alloc(e: ElementId) {
        note(|t| {
            t.allocated.insert(e);
        });
    }

    pub(crate) fn new_symbol(s: &str) {
        note(|t| {
            t.new_symbols.insert(s.to_owned());
        });
    }

    pub(crate) fn placement_stats() {
        note(|t| t.placement_stats = true);
    }
}

/// One B-family diagnostic from the effect analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDiag {
    /// Stable code (`B001`).
    pub code: &'static str,
    /// Indices (into `UpdateBatch::ops`) of the ops involved.
    pub ops: Vec<usize>,
    /// The contended key, when one can be named.
    pub key: Option<EffectKey>,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for BatchDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[op", self.code)?;
        for (i, op) in self.ops.iter().enumerate() {
            write!(f, "{}{op}", if i == 0 { " " } else { "," })?;
        }
        write!(f, "]: {}", self.msg)?;
        if let Some(k) = &self.key {
            write!(f, " ({k})")?;
        }
        Ok(())
    }
}

/// The result of analyzing one batch: its static footprint plus the
/// B001 intra-batch conflict diagnostics. Total — ops whose references
/// do not resolve contribute nothing (`UpdateBatch::validate` rejects
/// them before any commit).
#[derive(Debug, Clone, Default)]
pub struct EffectAnalysis {
    /// The static effect footprint.
    pub footprint: Footprint,
    /// B001 conflict localizations.
    pub diags: Vec<BatchDiag>,
}

/// [`analyze_batch`] under the `effect` trace span every commit path
/// emits, with the footprint's key count as its counter.
pub(crate) fn analyze_traced(
    batch: &UpdateBatch,
    db: &Database,
    graph: &ErGraph,
) -> EffectAnalysis {
    let mut span = colorist_trace::span("effect", "analyze");
    let analysis = analyze_batch(batch, db, graph);
    span.counter("effect_keys", analysis.footprint.summary().effect_keys());
    analysis
}

/// Abstractly interpret `batch` against the pre-batch `db`, mirroring
/// the exact maintenance each phase of `UpdateBatch::apply` performs
/// (see the §12.2 table) without executing any of it.
pub fn analyze_batch(batch: &UpdateBatch, db: &Database, graph: &ErGraph) -> EffectAnalysis {
    let mut fp = Footprint::default();
    let mut diags = Vec::new();

    let resolve = |e: ElementId| -> Option<ElementId> {
        (e.idx() < db.element_count()).then(|| db.element(e).canonical).filter(|&c| db.is_live(c))
    };
    let occurs_in = |canon: ElementId| -> Vec<ColorId> {
        (0..db.color_count())
            .map(|c| ColorId(c as u16))
            .filter(|&c| !db.occurrences_of_logical(c, canon).is_empty())
            .collect()
    };
    // whether the canonical element itself (not a copy) is placed in some
    // color pre-batch — the exact test apply's AddOccurrence phase makes
    // when deciding between binding the canonical and allocating a copy
    let placed_pre = |canon: ElementId| -> bool {
        (0..db.color_count()).any(|c| {
            let c = ColorId(c as u16);
            db.occurrences_of_logical(c, canon).iter().any(|&o| db.color(c).occ(o).element == canon)
        })
    };
    let record_symbol = |fp: &mut Footprint, v: &Value| {
        if let Value::Text(s) = v {
            if db.interner().get(s).is_none() && !fp.new_symbols.iter().any(|x| x == s) {
                fp.new_symbols.push(s.clone());
            }
        }
    };

    // deletes first: B001's write/delete and occurrence/delete checks
    // need the full doomed set, like validate's own first pass
    let mut doomed: BTreeMap<ElementId, usize> = BTreeMap::new();
    for (i, op) in batch.ops().iter().enumerate() {
        if let BatchOp::Delete { element } = op {
            let Some(canon) = resolve(*element) else { continue };
            if let Some(&j) = doomed.get(&canon) {
                diags.push(BatchDiag {
                    code: "B001",
                    ops: vec![j, i],
                    key: Some(EffectKey::Instance(canon)),
                    msg: format!("instance {canon} deleted twice"),
                });
                continue;
            }
            doomed.insert(canon, i);
            fp.deleted.insert(canon);
            let el = db.element(canon);
            let (node, ordinal) = (el.node, el.ordinal);
            fp.ordinals.insert((node, ordinal));
            fp.extent_nodes.insert(node);
            fp.stat_nodes.insert(node);
            for a in 0..el.attrs.len() {
                fp.postings.insert((node, a, canon));
                fp.stat_columns.insert((node, a));
            }
            fp.colors.extend(occurs_in(canon));
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
    }

    // phase 1 — attribute writes (fan out to copies)
    let mut written: BTreeMap<(ElementId, usize), usize> = BTreeMap::new();
    for (i, op) in batch.ops().iter().enumerate() {
        if let BatchOp::WriteAttr { element, attr, value } = op {
            let Some(canon) = resolve(*element) else { continue };
            let el = db.element(canon);
            if el.attrs.len() <= *attr {
                continue;
            }
            if let Some(&j) = doomed.get(&canon) {
                diags.push(BatchDiag {
                    code: "B001",
                    ops: vec![i.min(j), i.max(j)],
                    key: Some(EffectKey::Instance(canon)),
                    msg: format!("instance {canon} both written (op {i}) and deleted (op {j})"),
                });
            }
            if let Some(&j) = written.get(&(canon, *attr)) {
                diags.push(BatchDiag {
                    code: "B001",
                    ops: vec![j, i],
                    key: Some(EffectKey::Write(canon, *attr)),
                    msg: format!("attribute {attr} of {canon} written twice"),
                });
                continue;
            }
            written.insert((canon, *attr), i);
            record_symbol(&mut fp, value);
            fp.writes.insert((canon, *attr));
            fp.written_instances.insert(canon);
            // write fan-out, resolved exactly as the apply phase does
            for c in db.copies_of(canon) {
                fp.writes.insert((c, *attr));
            }
            fp.postings.insert((el.node, *attr, canon));
            fp.stat_columns.insert((el.node, *attr));
        }
    }

    // phase 2 — inserts and occurrence appends, in op order: the fixed
    // phase order makes allocated ids and ordinals statically exact
    let mut next_id = db.element_count() as u32;
    let mut next_ordinal: BTreeMap<NodeId, u32> = BTreeMap::new();
    let mut newly_placed: BTreeSet<ElementId> = BTreeSet::new();
    for (i, op) in batch.ops().iter().enumerate() {
        match op {
            BatchOp::Insert { node, attrs, positions, links } => {
                let id = ElementId(next_id);
                next_id += 1;
                fp.allocated.insert(id);
                fp.occ_added.insert(id);
                let ordinal = {
                    let o = next_ordinal.entry(*node).or_insert_with(|| db.ordinal_count(*node));
                    let v = *o;
                    *o += 1;
                    v
                };
                fp.ordinals.insert((*node, ordinal));
                fp.extent_nodes.insert(*node);
                fp.stat_nodes.insert(*node);
                for (a, v) in attrs.iter().enumerate() {
                    record_symbol(&mut fp, v);
                    fp.postings.insert((*node, a, id));
                    fp.stat_columns.insert((*node, a));
                }
                for l in links {
                    fp.links.insert((l.edge, ordinal));
                    let edge = graph.edge(l.edge);
                    if let Some(t) =
                        db.canonical_by_ordinal(edge.participant, l.participant_ordinal)
                    {
                        fp.link_targets.insert(t);
                        if let Some(&j) = doomed.get(&t) {
                            diags.push(BatchDiag {
                                code: "B001",
                                ops: vec![i.min(j), i.max(j)],
                                key: Some(EffectKey::Instance(t)),
                                msg: format!(
                                    "insert links to instance {t} deleted in the same batch"
                                ),
                            });
                        }
                    }
                }
                for (k, p) in positions.iter().enumerate() {
                    if k > 0 {
                        fp.allocated.insert(ElementId(next_id));
                        next_id += 1;
                    }
                    fp.colors.insert(p.color);
                }
            }
            BatchOp::AddOccurrence { element, position } => {
                let Some(canon) = resolve(*element) else { continue };
                if let Some(&j) = doomed.get(&canon) {
                    diags.push(BatchDiag {
                        code: "B001",
                        ops: vec![i.min(j), i.max(j)],
                        key: Some(EffectKey::Instance(canon)),
                        msg: format!(
                            "occurrence added for instance {canon} deleted in the same batch"
                        ),
                    });
                }
                // placed = canonical occurrence pre-batch, or an earlier
                // append in this batch (removals run in a later phase)
                let placed = newly_placed.contains(&canon) || placed_pre(canon);
                if placed {
                    fp.allocated.insert(ElementId(next_id));
                    next_id += 1;
                } else {
                    newly_placed.insert(canon);
                }
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

    fp.placement_stats = !fp.colors.is_empty();
    EffectAnalysis { footprint: fp, diags }
}

/// B003 — a pairwise commutativity certificate over two footprints
/// computed against the **same** pre-state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The batches may commit in either order: the final database —
    /// extents, trees, indexes, statistics, **and epoch** — is
    /// byte-identical both ways, and both orders validate.
    Independent,
    /// The batches contend; `witness` names an overlapping key.
    Conflicting {
        /// A key both footprints contain.
        witness: EffectKey,
        /// Why the overlap orders the batches.
        detail: String,
    },
}

impl Certificate {
    /// Whether the certificate proves independence.
    pub fn is_independent(&self) -> bool {
        matches!(self, Certificate::Independent)
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Certificate::Independent => write!(f, "B003: independent (commutes)"),
            Certificate::Conflicting { witness, detail } => {
                write!(f, "B003: conflicting on {witness} — {detail}")
            }
        }
    }
}

/// The part an instance plays in a footprint, for the instance-level
/// conflict rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Role {
    Deleted,
    Written,
    OccAdded,
    LinkTarget,
}

impl Role {
    /// The parts another batch may not play on the same instance. A delete
    /// orders against any other touch (the late order would fail
    /// validation, or fan out to a different copy set and land on a
    /// different epoch); an added occurrence orders against a write (an
    /// added copy changes the write's fan-out) and against another added
    /// occurrence. Symmetric by construction.
    fn rivals(self) -> &'static [Role] {
        use Role::*;
        match self {
            Deleted => &[Deleted, Written, OccAdded, LinkTarget],
            Written => &[Deleted, OccAdded],
            OccAdded => &[Deleted, Written, OccAdded],
            LinkTarget => &[Deleted],
        }
    }

    fn verb(self) -> &'static str {
        match self {
            Role::Deleted => "deleted",
            Role::Written => "written",
            Role::OccAdded => "given an occurrence",
            Role::LinkTarget => "linked to by an insert",
        }
    }
}

/// One unit of a footprint's write surface at the granularity commit
/// order is observable: cell-level where the structures commute by value
/// (extents, sorted indexes, recomputed statistics), structure-level
/// where they do not — whole colors (relabels remap every `OccId`), the
/// element-id allocator, and the symbol table. Two footprints conflict
/// iff one holds a claim that [rivals](Claim::rivals) a claim of the
/// other; [`certify`] and the scheduler's class map both read the rule
/// from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Claim {
    Cell(ElementId, usize),
    Instance(ElementId, Role),
    Color(ColorId),
    Ordinal(NodeId, u32),
    Posting(NodeId, usize, ElementId),
    Link(EdgeId, u32),
    Alloc,
    Intern,
}

impl Claim {
    /// The claims of another batch this one cannot coexist with: the
    /// rival roles on the same instance, or — everywhere else — itself.
    fn rivals(self) -> Vec<Claim> {
        match self {
            Claim::Instance(e, role) => {
                role.rivals().iter().map(|&r| Claim::Instance(e, r)).collect()
            }
            other => vec![other],
        }
    }

    fn witness(self) -> EffectKey {
        match self {
            Claim::Cell(e, a) => EffectKey::Write(e, a),
            Claim::Instance(e, _) => EffectKey::Instance(e),
            Claim::Color(c) => EffectKey::Color(c),
            Claim::Ordinal(n, o) => EffectKey::Ordinal(n, o),
            Claim::Posting(n, a, e) => EffectKey::Posting(n, a, e),
            Claim::Link(e, o) => EffectKey::Link(e, o),
            Claim::Alloc => EffectKey::Alloc,
            Claim::Intern => EffectKey::Intern,
        }
    }

    /// Why sharing this claim (against `rival`) orders two batches.
    fn detail(self, rival: Claim) -> String {
        match (self, rival) {
            (Claim::Instance(_, mine), Claim::Instance(_, theirs)) => {
                format!("{} by one batch, {} by the other", mine.verb(), theirs.verb())
            }
            _ => "both batches claim it, and commit order decides what it holds".into(),
        }
    }
}

impl Footprint {
    /// The footprint as conflict claims, most specific witness first.
    fn claims(&self) -> Vec<Claim> {
        let instances = [
            (&self.deleted, Role::Deleted),
            (&self.written_instances, Role::Written),
            (&self.occ_added, Role::OccAdded),
            (&self.link_targets, Role::LinkTarget),
        ];
        let mut claims: Vec<Claim> = self.writes.iter().map(|&(e, a)| Claim::Cell(e, a)).collect();
        for (set, role) in instances {
            claims.extend(set.iter().map(|&e| Claim::Instance(e, role)));
        }
        claims.extend(self.colors.iter().map(|&c| Claim::Color(c)));
        claims.extend(self.ordinals.iter().map(|&(n, o)| Claim::Ordinal(n, o)));
        claims.extend(self.postings.iter().map(|&(n, a, e)| Claim::Posting(n, a, e)));
        claims.extend(self.links.iter().map(|&(e, o)| Claim::Link(e, o)));
        claims.extend((!self.allocated.is_empty()).then_some(Claim::Alloc));
        claims.extend((!self.new_symbols.is_empty()).then_some(Claim::Intern));
        claims
    }
}

/// Certify whether two batches (whose footprints were computed against
/// the same pre-state) commute. A footprint's *claims* are its write
/// surface at the granularity commit order is observable — cells, slots
/// and postings; whole colors, the id allocator and the symbol table; and
/// per instance the role the batch plays on it — and the batches are
/// independent iff no claim of one rivals a claim of the other.
pub fn certify(a: &Footprint, b: &Footprint) -> Certificate {
    let theirs: BTreeSet<Claim> = b.claims().into_iter().collect();
    for mine in a.claims() {
        if let Some(rival) = mine.rivals().into_iter().find(|r| theirs.contains(r)) {
            return Certificate::Conflicting {
                witness: mine.witness(),
                detail: mine.detail(rival),
            };
        }
    }
    Certificate::Independent
}

/// Partition footprints (in stage order) into independence classes: the
/// connected components of the conflict graph, found through a claim →
/// holders map instead of pairwise certificates. Each class is sorted by
/// stage order; classes are ordered by their earliest member.
fn independence_classes<'a>(footprints: impl Iterator<Item = &'a Footprint>) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], i: usize) -> usize {
        if parent[i] != i {
            parent[i] = find(parent, parent[i]);
        }
        parent[i]
    }
    let mut holders: BTreeMap<Claim, Vec<usize>> = BTreeMap::new();
    let mut parent: Vec<usize> = Vec::new();
    for (i, fp) in footprints.enumerate() {
        parent.push(i);
        let claims = fp.claims();
        for rival in claims.iter().flat_map(|c| c.rivals()) {
            for &j in holders.get(&rival).map_or(&[][..], Vec::as_slice) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri.max(rj)] = ri.min(rj);
            }
        }
        for c in claims {
            holders.entry(c).or_default().push(i);
        }
    }
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..parent.len() {
        by_root.entry(find(&mut parent, i)).or_default().push(i);
    }
    by_root.into_values().collect()
}

/// A staged multi-batch commit plan: per-batch footprints and the
/// independence classes they induce.
#[derive(Debug, Clone)]
pub struct CommitPlan {
    /// Footprint per staged batch, in stage order.
    pub footprints: Vec<Footprint>,
    /// Independence classes: connected components of the conflict
    /// graph, each sorted by stage order; classes ordered by their
    /// earliest member. Distinct classes are mutually independent.
    pub classes: Vec<Vec<usize>>,
}

/// Receipt of one group-committed independence class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupReceipt {
    /// Stage indices of the class's batches, in commit order.
    pub members: Vec<usize>,
    /// Per-batch receipts (epochs rewritten to the group's commit
    /// epoch).
    pub receipts: Vec<BatchReceipt>,
    /// The single epoch the class committed under.
    pub epoch: u64,
}

/// The first consumer of the certificates: stage several batches,
/// partition them into independence classes, and group-commit them as
/// **one staged version** — every batch writes through the caller's
/// database in stage order (which *is* the serial order, so the final
/// state needs no commutativity argument), each stale statistics column is
/// rebuilt once, dirty segments flush once, and the epoch advances by
/// one per class: a class of mutually conflicting batches is one version
/// step, and receipts carry their class's epoch.
///
/// A batch that fails validation aborts the whole group: the caller's
/// database is put back to the savepoint taken on entry — byte-identical
/// to before the call — and the error is returned with the failing stage
/// index.
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

    /// Number of staged batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The staged batches, in stage order.
    pub fn batches(&self) -> &[UpdateBatch] {
        &self.batches
    }

    /// Analyze every staged batch against `db` (once each) and partition
    /// them into independence classes.
    pub fn plan(&self, db: &Database, graph: &ErGraph) -> CommitPlan {
        let footprints: Vec<Footprint> =
            self.batches.iter().map(|b| analyze_traced(b, db, graph).footprint).collect();
        let classes = independence_classes(footprints.iter());
        CommitPlan { footprints, classes }
    }

    /// Group-commit every staged batch through `db`: one savepoint, one
    /// statistics rebuild and one flush for the group, one epoch bump per
    /// independence class. On error `db` is byte-identical to before the
    /// call and the failing stage index is returned with the batch error
    /// (a failed flush is charged to the batch that closes the group).
    pub fn commit(
        &self,
        db: &mut Database,
        graph: &ErGraph,
    ) -> Result<Vec<GroupReceipt>, (usize, BatchError)> {
        db.or_roll_back(|db| self.stage_all(db, graph))
    }

    fn stage_all(
        &self,
        db: &mut Database,
        graph: &ErGraph,
    ) -> Result<Vec<GroupReceipt>, (usize, BatchError)> {
        let Some(closing) = self.batches.len().checked_sub(1) else { return Ok(Vec::new()) };
        let base = db.epoch();
        let mut analyses: Vec<Option<EffectAnalysis>> =
            self.batches.iter().map(|b| Some(analyze_traced(b, db, graph))).collect();
        let classes = independence_classes(analyses.iter().flatten().map(|a| &a.footprint));
        let mut class_of = vec![0; self.batches.len()];
        for (k, class) in classes.iter().enumerate() {
            for &i in class {
                class_of[i] = k;
            }
        }
        let mut receipts = Vec::with_capacity(self.batches.len());
        for (i, batch) in self.batches.iter().enumerate() {
            // the pre-group analysis is exact for a class's first member
            // (everything staged before it is certified independent of
            // it); a later member follows writes it conflicts with and is
            // re-analysed behind them
            let analysis = if classes[class_of[i]][0] == i { analyses[i].take() } else { None };
            let staged =
                batch.stage(db, graph, analysis, cfg!(debug_assertions)).map_err(|e| (i, e))?;
            receipts.push(Some(BatchReceipt {
                epoch: base + 1 + class_of[i] as u64,
                ..staged.receipt
            }));
        }
        db.set_epoch(base + classes.len() as u64);
        let pages_written = commit_staged(db).map_err(|e| (closing, e))?;
        if let Some(Some(last)) = receipts.last_mut() {
            last.pages_written = pages_written;
        }
        Ok(classes
            .into_iter()
            .enumerate()
            .map(|(k, members)| GroupReceipt {
                receipts: members.iter().filter_map(|&i| receipts[i].take()).collect(),
                members,
                epoch: base + 1 + k as u64,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPosition;
    use crate::database::DatabaseBuilder;
    use colorist_er::{Attribute, ErDiagram};

    fn tiny() -> (ErGraph, Database) {
        let mut d = ErDiagram::new("t");
        d.add_entity("a", vec![Attribute::key("id")]).unwrap();
        d.add_entity("b", vec![Attribute::key("id"), Attribute::text("x")]).unwrap();
        d.add_rel_1m("r", "a", "b").unwrap();
        let g = ErGraph::from_diagram(&d).unwrap();
        let s = colorist_core::design(&g, colorist_core::Strategy::En).unwrap();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let r = g.node_by_name("r").unwrap();
        let c = ColorId(0);
        let pa = s.placements_of_in_color(a, c)[0];
        let pr = s.placements_of_in_color(r, c)[0];
        let pb = s.placements_of_in_color(b, c)[0];
        let mut bd = DatabaseBuilder::new(s.clone(), g.node_count());
        let ea0 = bd.add_canonical(a, vec![Value::Int(0)]);
        let ea1 = bd.add_canonical(a, vec![Value::Int(1)]);
        let er0 = bd.add_canonical(r, vec![]);
        let er1 = bd.add_canonical(r, vec![]);
        let eb0 = bd.add_canonical(b, vec![Value::Int(0), Value::Text("u".into())]);
        let eb1 = bd.add_canonical(b, vec![Value::Int(1), Value::Text("v".into())]);
        let oa0 = bd.add_occurrence(c, ea0, pa, None);
        let _oa1 = bd.add_occurrence(c, ea1, pa, None);
        let or0 = bd.add_occurrence(c, er0, pr, Some(oa0));
        let or1 = bd.add_occurrence(c, er1, pr, Some(oa0));
        bd.add_occurrence(c, eb0, pb, Some(or0));
        bd.add_occurrence(c, eb1, pb, Some(or1));
        (g, bd.finish())
    }

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
        batch.insert(
            b,
            vec![Value::Int(9), Value::Text("w".into())],
            vec![BatchPosition { color: c, placement: pb, parent: Some(parent) }],
            vec![],
        );
        batch.delete(eb1);
        let analysis = analyze_batch(&batch, &db, &g);
        assert!(analysis.diags.is_empty(), "{:?}", analysis.diags);
        let (receipt, analysis2, touched) = batch.apply_verified(&mut db, &g).expect("valid");
        // B002: dynamic ⊆ static
        assert_eq!(analysis2.footprint.covers(&touched), Ok(()));
        assert_eq!(analysis.footprint, analysis2.footprint);
        // the receipt digest matches the analysis and counts something
        assert_eq!(receipt.footprint, analysis.footprint.summary());
        assert!(receipt.footprint.effect_keys() > 0);
        // the predicted insert id is the one the commit allocated
        assert!(analysis.footprint.allocated.contains(&receipt.inserted[0]));
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn b001_localizes_intra_batch_conflicts() {
        let (g, db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let eb1 = db.extent(b)[1];
        let mut batch = UpdateBatch::new();
        batch.write_attr(eb0, 0, Value::Int(1)); // op 0
        batch.write_attr(eb0, 0, Value::Int(2)); // op 1: double write
        batch.write_attr(eb1, 1, Value::Int(3)); // op 2
        batch.delete(eb1); // op 3: write + delete
        let analysis = analyze_batch(&batch, &db, &g);
        let codes: Vec<_> = analysis.diags.iter().map(|d| (d.code, d.ops.clone())).collect();
        assert!(codes.contains(&("B001", vec![0, 1])), "{codes:?}");
        assert!(codes.contains(&("B001", vec![2, 3])), "{codes:?}");
        let dup = analysis.diags.iter().find(|d| d.ops == vec![0, 1]).unwrap();
        assert_eq!(dup.key, Some(EffectKey::Write(eb0, 0)));
        assert!(dup.to_string().starts_with("B001[op 0,1]"), "{dup}");
    }

    #[test]
    fn disjoint_batches_certify_independent_and_commute() {
        let (g, db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let eb1 = db.extent(b)[1];
        let mut x = UpdateBatch::new();
        x.write_attr(eb0, 0, Value::Int(100));
        let mut y = UpdateBatch::new();
        y.write_attr(eb1, 0, Value::Int(200));
        let fx = analyze_batch(&x, &db, &g).footprint;
        let fy = analyze_batch(&y, &db, &g).footprint;
        assert_eq!(certify(&fx, &fy), Certificate::Independent);
        // both commit orders land on byte-identical state, epoch included
        let mut d1 = db.clone();
        x.apply(&mut d1, &g).unwrap();
        y.apply(&mut d1, &g).unwrap();
        let mut d2 = db.clone();
        y.apply(&mut d2, &g).unwrap();
        x.apply(&mut d2, &g).unwrap();
        assert_eq!(d1.same_state(&d2, true), Ok(()));
    }

    #[test]
    fn conflicts_name_a_witness_key() {
        let (g, db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let eb1 = db.extent(b)[1];
        // same write cell
        let mut x = UpdateBatch::new();
        x.write_attr(eb0, 0, Value::Int(1));
        let fx = analyze_batch(&x, &db, &g).footprint;
        match certify(&fx, &fx.clone()) {
            Certificate::Conflicting { witness: EffectKey::Write(e, 0), .. } => {
                assert_eq!(e, eb0);
            }
            other => panic!("want write conflict, got {other:?}"),
        }
        // write vs delete of the same instance
        let mut y = UpdateBatch::new();
        y.delete(eb0);
        let fy = analyze_batch(&y, &db, &g).footprint;
        match certify(&fx, &fy) {
            Certificate::Conflicting { witness: EffectKey::Instance(e), .. } => {
                assert_eq!(e, eb0);
            }
            other => panic!("want instance conflict, got {other:?}"),
        }
        // two deletes structurally edit the same color
        let mut z = UpdateBatch::new();
        z.delete(eb1);
        let fz = analyze_batch(&z, &db, &g).footprint;
        match certify(&fy, &fz) {
            Certificate::Conflicting { witness: EffectKey::Color(c), .. } => {
                assert_eq!(c, ColorId(0));
            }
            other => panic!("want color conflict, got {other:?}"),
        }
        // two allocating batches order the id counter
        let c = ColorId(0);
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let pr = db.schema.placements_of_in_color(g.node_by_name("r").unwrap(), c)[0];
        let parent = db.color(c).of_placement(pr)[0];
        let ins = |v: i64, s: &str| {
            let mut w = UpdateBatch::new();
            w.insert(
                b,
                vec![Value::Int(v), Value::Text(s.into())],
                vec![BatchPosition { color: c, placement: pb, parent: Some(parent) }],
                vec![],
            );
            w
        };
        let fi = analyze_batch(&ins(8, "u"), &db, &g).footprint;
        let fj = analyze_batch(&ins(9, "v"), &db, &g).footprint;
        match certify(&fi, &fj) {
            // both predict the same next element id, so the overlap is
            // witnessed before the color / allocator checks even run
            Certificate::Conflicting { witness, .. } => {
                assert!(
                    matches!(
                        witness,
                        EffectKey::Instance(_) | EffectKey::Color(_) | EffectKey::Alloc
                    ),
                    "{witness}"
                );
            }
            other => panic!("want conflict, got {other:?}"),
        }
        assert!(fi.contains(&EffectKey::Alloc));
        assert!(fj.contains(&EffectKey::Alloc));
    }

    #[test]
    fn read_footprint_invalidation_names_the_overlap() {
        let (g, db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb1 = db.extent(b)[1];
        let mut y = UpdateBatch::new();
        y.delete(eb1);
        let fy = analyze_batch(&y, &db, &g).footprint;
        let mut reads = ReadFootprint::default();
        reads.nodes.insert(g.node_by_name("a").unwrap());
        assert_eq!(fy.invalidates(&reads), None, "disjoint reads stay valid");
        reads.colors.insert(ColorId(0));
        assert_eq!(fy.invalidates(&reads), Some(EffectKey::Color(ColorId(0))));
        let mut reads2 = ReadFootprint::default();
        reads2.nodes.insert(b);
        assert_eq!(fy.invalidates(&reads2), Some(EffectKey::Extent(b)));
    }

    #[test]
    fn scheduler_partitions_classes_and_bumps_once_per_class() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let eb1 = db.extent(b)[1];
        let mut s = CommitScheduler::new();
        let mut x = UpdateBatch::new();
        x.write_attr(eb0, 0, Value::Int(1));
        s.stage(x);
        let mut y = UpdateBatch::new();
        y.write_attr(eb0, 1, Value::Int(2)); // same instance? no — same cell? no.
        s.stage(y);
        let mut z = UpdateBatch::new();
        z.write_attr(eb1, 0, Value::Int(3));
        s.stage(z);
        let plan = s.plan(&db, &g);
        // batches 0 and 1 share the posting surface of eb0? they write
        // different attrs of the same instance — disjoint cells, disjoint
        // postings, so all three are mutually independent
        assert_eq!(plan.classes, vec![vec![0], vec![1], vec![2]]);
        for (i, a) in plan.footprints.iter().enumerate() {
            for b in &plan.footprints[i + 1..] {
                assert!(certify(a, b).is_independent(), "the class map and certify agree");
            }
        }
        let epoch0 = db.epoch();
        let groups = s.commit(&mut db, &g).expect("all valid");
        assert_eq!(groups.len(), 3);
        for (k, gr) in groups.iter().enumerate() {
            assert_eq!(gr.epoch, epoch0 + 1 + k as u64);
            assert!(gr.receipts.iter().all(|r| r.epoch == gr.epoch));
        }
        assert_eq!(db.epoch(), epoch0 + 3);
        assert_eq!(db.element(eb0).attrs[0], Value::Int(1));
        assert_eq!(db.element(eb0).attrs[1], Value::Int(2));
        assert_eq!(db.element(eb1).attrs[0], Value::Int(3));
        assert_eq!(db.check_integrity(), Ok(()));

        // conflicting batches fuse into one class under one epoch bump
        let mut s2 = CommitScheduler::new();
        let mut p = UpdateBatch::new();
        p.write_attr(eb0, 0, Value::Int(7));
        s2.stage(p);
        let mut q = UpdateBatch::new();
        q.write_attr(eb0, 0, Value::Int(8));
        s2.stage(q);
        let plan2 = s2.plan(&db, &g);
        assert_eq!(plan2.classes, vec![vec![0, 1]]);
        let epoch1 = db.epoch();
        let groups2 = s2.commit(&mut db, &g).expect("sequential within class");
        assert_eq!(groups2.len(), 1);
        assert_eq!(groups2[0].epoch, epoch1 + 1);
        assert_eq!(db.epoch(), epoch1 + 1, "one bump for the whole class");
        assert_eq!(db.element(eb0).attrs[0], Value::Int(8), "stage order wins");
    }

    #[test]
    fn a_failing_later_class_leaves_the_database_byte_identical() {
        let (g, mut db) = tiny();
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let eb1 = db.extent(b)[1];
        let mut s = CommitScheduler::new();
        let mut ok = UpdateBatch::new();
        ok.write_attr(eb0, 0, Value::Int(5));
        ok.delete(eb1);
        s.stage(ok);
        let mut bad = UpdateBatch::new();
        bad.write_attr(eb0, 9, Value::Int(6)); // attr out of range
        s.stage(bad);
        let before = db.clone();
        let err = s.commit(&mut db, &g).expect_err("second class fails");
        assert_eq!(err.0, 1);
        assert!(matches!(err.1, BatchError::BadAttr { .. }));
        // the first class was staged through `db` before the failure; the
        // savepoint puts every structure back, epoch and statistics too
        assert_eq!(db.same_state(&before, true), Ok(()));
        assert!(db.stale_columns.is_empty());
        assert_eq!(db.check_integrity(), Ok(()));
    }
}

//! The stored MCT database: elements plus per-color labelled occurrence
//! trees.
//!
//! **Elements** are the stored XML elements. Every logical ER instance has
//! exactly one *canonical* element; un-normalized schemas (DEEP, UNDR)
//! additionally store *copies* — physically duplicated elements with their
//! own attribute storage, which is why Table 1 shows DEEP at 6.08M elements
//! against 2.64M for every node-normalized schema. Attribute storage is
//! columnar: a row per element in per-node-type attribute columns
//! (`crate::columns`), read through the [`ElementRef`] view.
//!
//! **Occurrences** are positions in a color's tree. A canonical element has
//! at most one occurrence per color (the MCT invariant: a node belongs to
//! exactly one rooted tree per color it carries); each copy element has
//! exactly one occurrence. Occurrences carry `(start, end, level)` interval
//! labels, the DFS numbering of each color's forest, so that `a` is an
//! ancestor of `d` iff `a.start < d.start && d.end <= a.end` — the
//! primitive behind structural joins. Structural writes keep the labels
//! and the per-tree indexes in place ([`ColorTree`], DESIGN.md §5a).

use crate::columns::{Cell, ColumnSharing, ElementRef, Elements, Staged};
use crate::effect::shadow;
use crate::index::{IndexEntry, ValueIndex};
use crate::storage::{Backing, SegId};
use crate::value::{Interner, Value, ValueKey};
use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::{ColorId, MctSchema, PlacementId};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

pub use crate::tree::{ColorTree, Occurrence};

/// Tombstone marker in the ordinal index: this ordinal's instance was
/// deleted. Ordinals are never reused, so a stale link or idref value can
/// only resolve to `None`, never to a different element.
pub(crate) const TOMBSTONE: ElementId = ElementId(u32::MAX);

/// How the executor and the join dispatchers pick kernels, and — because
/// the planner must never vary independently of the kernels in a
/// differential run — which planner the query layer uses.
///
/// * [`CostModel`](KernelDispatch::CostModel) (the default): index probes,
///   and gallop where the side sizes favour it by the crossover
///   `small · ⌈log₂ large⌉ < large`.
/// * [`Ratio`](KernelDispatch::Ratio): index probes, and gallop where the
///   smaller side is under a fixed 1/16 of the larger. The "one variable
///   at a time" partner for the gallop crossover.
/// * [`Reference`](KernelDispatch::Reference): linear extent walks,
///   stack-merge joins, per-op hash builds. The partner for kernel
///   differentials.
///
/// The planner does not read the mode: a plan is a function of the
/// pattern and the schema alone, so every mode runs the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelDispatch {
    /// Index probes + cost-model gallop crossover.
    #[default]
    CostModel,
    /// Index probes + fixed-ratio gallop crossover.
    Ratio,
    /// Reference kernels.
    Reference,
}

/// Identifier of a stored element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u32);

/// Identifier of an occurrence within one color's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OccId(pub u32);

impl ElementId {
    /// Index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl OccId {
    /// Index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "el{}", self.0)
    }
}

/// A complete stored database over one schema.
///
/// Every bulk structure sits behind [`Arc`]s, so cloning a database —
/// and therefore taking a [`Snapshot`] or a savepoint — costs refcount
/// bumps plus a schema clone, never a data copy. Mutators go through
/// [`Arc::make_mut`]: while no clone shares a structure the write lands
/// in place; once one does, the *unit* the write touches is copied first
/// (copy-on-write) — one chunk of one attribute column, one value-index
/// run, one color's tree or one slot table (DESIGN.md §12.4) — so every outstanding
/// snapshot keeps reading the exact pre-write version of the extents,
/// color trees and value index it was taken over. The
/// [`Database::epoch`] counter stamps committed mutations so versions are
/// distinguishable.
#[derive(Debug, Clone)]
pub struct Database {
    /// The schema this database conforms to.
    pub schema: MctSchema,
    /// Element headers and the per-node attribute columns.
    pub(crate) elements: Elements,
    /// One tree per color, each with its own copy-on-write unit: a
    /// structural write replaces the labelled versions of the colors it
    /// touches and shares the rest.
    pub(crate) colors: Vec<ColorTree>,
    /// **Live** canonical elements per ER node type (the extent), in
    /// ascending `ElementId` order (which is also insertion order).
    /// Deletes retract their entry — scans and reference joins walk live
    /// instances only.
    pub(crate) extents: Arc<Vec<Vec<ElementId>>>,
    /// Per ER node type: ordinal → canonical element, the id→element index
    /// behind link/idref resolution. Append-only and dense —
    /// `by_ordinal[n][k]` is the instance with ordinal `k` — it never
    /// shrinks: deletes tombstone the slot (see [`Database::canonical_by_ordinal`])
    /// so ordinals are never reused.
    pub(crate) by_ordinal: Arc<Vec<Vec<ElementId>>>,
    /// Per ER edge: participant ordinal per relationship ordinal — the
    /// parent-child adjacency the trees encode, stored explicitly so that
    /// link (parent-child) joins stay exact under any schema and so that
    /// update cascades can follow existing links. `u32::MAX` marks a
    /// deleted link.
    pub(crate) links: Arc<Vec<Vec<u32>>>,
    /// Per ER edge: relationship ordinals per participant ordinal.
    pub(crate) rev_links: Arc<Vec<Vec<Vec<u32>>>>,
    /// Text symbol table: every stored text attribute value is interned, so
    /// join keys are `Copy` (see [`crate::value::ValueKey`]) and text cells
    /// are symbols.
    pub(crate) interner: Arc<Interner>,
    /// Sorted `(node, attr, key, element)` postings over canonical
    /// elements — the persistent attribute/id value index (DESIGN.md §10).
    /// Built at `finish`, maintained by [`Database::write_attr`],
    /// [`Database::insert_element`] and
    /// [`Database::remove_element_occurrences`]; invariant under relabels
    /// because it is keyed by element, not occurrence.
    pub(crate) value_index: Arc<ValueIndex>,
    /// Kernel-dispatch mode; see [`KernelDispatch`]. The
    /// differential property tests and the oracle sweep flip this to pin
    /// fast ≡ reference on the same database.
    pub(crate) dispatch: KernelDispatch,
    /// Version counter: bumped by every committed mutation (writes,
    /// inserts, deletes, occurrence edits, link edits, relabels).
    pub(crate) epoch: u64,
    /// How this database is backed (DESIGN.md §14): the pure heap by
    /// default, or attached to a paged [`crate::page::StorageBackend`]
    /// with a segment directory and dirty-segment tracking. Excluded from
    /// [`Database::same_state`] — backing is orthogonal to content.
    pub(crate) storage: Backing,
}

/// A consistent read view of a [`Database`] at one [`epoch`](Database::epoch).
///
/// Cheap to take ([`Database::snapshot`] clones `Arc` handles, not data)
/// and independent of the source afterwards: a writer mutating the
/// database copies any shared structure before touching it, so every
/// kernel family — reference, indexed, cost-based — executed against the
/// snapshot answers from exactly the pre-mutation version. `Snapshot`
/// derefs to [`Database`], so the whole read API (and the query layer's
/// `compile`/`optimize`/`execute`) accepts `&snapshot` wherever it accepts
/// `&Database`. A snapshot is `Send + Sync`: concurrent readers on other
/// threads keep answering from it while the writer proceeds.
#[derive(Debug, Clone)]
pub struct Snapshot {
    db: Database,
}

impl Snapshot {
    /// The epoch the snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.db.epoch
    }

    /// The frozen database version.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl Database {
    /// All stored elements, in id order.
    pub fn elements(&self) -> impl Iterator<Item = ElementRef<'_>> + Clone {
        (0..self.elements.len() as u32).map(|e| self.element(ElementId(e)))
    }

    /// The element with the given id.
    #[inline]
    pub fn element(&self, e: ElementId) -> ElementRef<'_> {
        let h = self.elements.header(e);
        ElementRef {
            node: h.node,
            ordinal: h.ordinal,
            canonical: h.canonical,
            attrs: self.elements.attrs(h, &self.interner),
        }
    }

    /// What this database shares with `other` of the attribute column
    /// `(node, attr)` — the copy-on-write unit of an attribute write
    /// (DESIGN.md §12.4).
    pub fn column_sharing(&self, other: &Database, node: NodeId, attr: usize) -> ColumnSharing {
        self.elements.sharing(&other.elements, node, attr)
    }

    /// The physical copies of canonical element `canon`, in ascending id
    /// order, resolved through the logical-occurrence index (a copy exists
    /// only as an occurrence, so the trees name every reachable one).
    /// Occurrences pushed since the last relabel are not indexed yet: call
    /// it before a structural edit, not between the edit and its relabel.
    pub fn copies_of(&self, canon: ElementId) -> Vec<ElementId> {
        let mut copies: Vec<ElementId> = (0..self.colors.len() as u16)
            .map(ColorId)
            .flat_map(|c| {
                self.occurrences_of_logical(c, canon)
                    .iter()
                    .map(move |&o| self.color(c).occ(o).element)
            })
            .filter(|&e| e != canon)
            .collect();
        copies.sort_unstable();
        copies.dedup();
        copies
    }

    /// Run `f` on this database and, if it fails, put back the handle
    /// taken on entry: a savepoint costs refcount bumps, the writes `f`
    /// makes copy only what they touch, and on `Err` the database is
    /// byte-identical — epoch and storage state included — to
    /// before the call.
    pub(crate) fn or_roll_back<T, E>(
        &mut self,
        f: impl FnOnce(&mut Database) -> Result<T, E>,
    ) -> Result<T, E> {
        let savepoint = self.clone();
        let out = f(self);
        if out.is_err() {
            *self = savepoint;
        }
        out
    }

    /// The cell that stores `v`, interning its text if it has any. The
    /// symbol table is copied (when shared) only for a symbol it does not
    /// hold yet.
    fn cell(&mut self, v: Value) -> Cell {
        let Value::Text(s) = v else { return Cell::Num(v) };
        if let Some(sym) = self.interner.get(&s) {
            return Cell::Sym(sym);
        }
        self.storage.mark(SegId::Symbols);
        let sym = Arc::make_mut(&mut self.interner).intern(&s);
        shadow::note(|t| {
            t.new_symbols.insert(s);
        });
        Cell::Sym(sym)
    }

    /// Write one attribute value, interning text so the value stays
    /// joinable through the `Copy` key path, and (for canonical elements)
    /// moving the value-index posting from the old key to the new one.
    /// This is the **only** attribute write path — there is deliberately no
    /// raw mutable element access, so the index cannot go stale.
    pub fn write_attr(&mut self, e: ElementId, attr: usize, v: Value) {
        let cell = self.cell(v);
        self.storage.mark(SegId::Elements);
        let new_key = cell.key(&self.interner);
        let old_key = self.elements.write(e, attr, cell, &self.interner);
        let h = self.elements.header(e);
        let (node, is_canonical) = (h.node, h.canonical == e);
        shadow::note(|t| {
            t.writes.insert((e, attr));
            if is_canonical {
                t.postings.insert((node, attr, e));
            }
        });
        if is_canonical {
            self.storage.mark(SegId::Postings);
            // stored values are always interned, but stay total if not
            if let Some(old_key) = old_key {
                Arc::make_mut(&mut self.value_index).reindex(node, attr, e, old_key, new_key);
            } else {
                Arc::make_mut(&mut self.value_index).insert(IndexEntry {
                    node,
                    attr: attr as u32,
                    key: new_key,
                    element: e,
                });
            }
        }
        self.epoch += 1;
    }

    /// The persistent attribute/id value index.
    #[inline]
    pub(crate) fn value_index(&self) -> &ValueIndex {
        &self.value_index
    }

    /// Whether execution is pinned to the reference kernels (linear scans,
    /// stack-merge joins, per-op hash builds) instead of the index/gallop
    /// fast paths. Answers must be byte-identical either way; the
    /// differential tests and the oracle sweep compare both.
    pub(crate) fn reference_kernels(&self) -> bool {
        self.dispatch == KernelDispatch::Reference
    }

    /// The kernel-dispatch mode.
    pub fn kernel_dispatch(&self) -> KernelDispatch {
        self.dispatch
    }

    /// Set the kernel-dispatch mode: [`KernelDispatch::Reference`] pins
    /// the reference kernels, [`KernelDispatch::Ratio`] the fixed-ratio
    /// gallop crossover, [`KernelDispatch::CostModel`] restores the
    /// default. Plans do not depend on the mode, so a differential
    /// compares exactly one variable — the kernels.
    pub fn set_kernel_dispatch(&mut self, dispatch: KernelDispatch) {
        self.dispatch = dispatch;
    }

    /// The text symbol table.
    #[inline]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The `Copy` join key of a value under this database's symbol table.
    /// Never allocates. Panics on text never stored in this database (all
    /// build and write paths intern).
    pub fn join_key(&self, v: &Value) -> ValueKey {
        self.interner.key(v)
    }

    /// Non-panicking [`Database::join_key`]: `None` for text never stored
    /// in this database (such a value can match nothing).
    pub fn try_join_key(&self, v: &Value) -> Option<ValueKey> {
        self.interner.try_key(v)
    }

    /// The tree of one color.
    pub fn color(&self, c: ColorId) -> &ColorTree {
        &self.colors[c.idx()]
    }

    /// Number of colors.
    pub fn color_count(&self) -> usize {
        self.colors.len()
    }

    /// **Live** canonical elements (the logical extent) of an ER node
    /// type, in ascending id order. Deleted instances are absent — use
    /// [`Database::canonical_by_ordinal`] to resolve stored ordinals.
    pub fn extent(&self, node: NodeId) -> &[ElementId] {
        &self.extents[node.idx()]
    }

    /// The canonical element of logical instance `(node, ordinal)`, or
    /// `None` when the ordinal was never assigned or the instance has been
    /// deleted. Ordinals are append-only and never reused, so a stored
    /// link or idref value can only resolve to the element it always named
    /// — or to nothing.
    pub fn canonical_by_ordinal(&self, node: NodeId, ordinal: u32) -> Option<ElementId> {
        let &e = self.by_ordinal.get(node.idx())?.get(ordinal as usize)?;
        (e != TOMBSTONE).then_some(e)
    }

    /// Number of ordinals ever assigned for `node` — the ordinal the next
    /// insert receives. Unlike `extent(node).len()`, this never
    /// decreases.
    pub fn ordinal_count(&self, node: NodeId) -> u32 {
        self.by_ordinal.get(node.idx()).map_or(0, |v| v.len() as u32)
    }

    /// Whether the logical instance behind `e` (canonical or copy) is
    /// live, i.e. has not been deleted.
    pub fn is_live(&self, e: ElementId) -> bool {
        // a copy carries its canonical's node and ordinal
        let h = self.elements.header(e);
        self.canonical_by_ordinal(h.node, h.ordinal) == Some(h.canonical)
    }

    /// The version counter: bumped by every committed mutation. A
    /// [`Snapshot`] with the same epoch as a database derived from it holds
    /// byte-identical data.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Take a consistent read snapshot of the current version — a few
    /// `Arc` bumps plus a schema clone, never a data copy. Writers
    /// proceeding on `self` copy shared structures before mutating them,
    /// so the snapshot keeps answering from the pre-write version.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { db: self.clone() }
    }

    /// Occurrences of the logical instance behind `e` in color `c` — the
    /// *color crossing* primitive, and the duplicate-expansion step for
    /// un-normalized schemas.
    /// A copy carries its canonical's node and ordinal, so one element
    /// load and two array loads answer it.
    #[inline]
    pub fn occurrences_of_logical(&self, c: ColorId, e: ElementId) -> &[OccId] {
        let el = self.element(e);
        self.colors[c.idx()].of_logical(el.node, el.ordinal)
    }

    /// Attribute index of `attr` in the ER node's declaration.
    pub fn attr_index(&self, graph: &ErGraph, node: NodeId, attr: &str) -> Option<usize> {
        graph.node(node).attributes.iter().position(|a| a.name == attr)
    }

    /// Attribute index (within the relationship element's stored attribute
    /// vector) of the idref value for a value-encoded ER edge: idref values
    /// are appended after the declared attributes, in the order the schema
    /// lists its idref links for that relationship.
    pub fn idref_attr_index(&self, graph: &ErGraph, edge: EdgeId) -> Option<usize> {
        let rel = graph.edge(edge).rel;
        let declared = graph.node(rel).attributes.len();
        self.schema
            .idrefs()
            .iter()
            .filter(|l| graph.edge(l.edge).rel == rel)
            .position(|l| l.edge == edge)
            .map(|pos| declared + pos)
    }

    /// Total number of stored elements (canonical + copies).
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// The participant ordinal linked to relationship instance
    /// `rel_ordinal` via `edge` (`None` if the link was deleted).
    pub fn link(&self, edge: EdgeId, rel_ordinal: u32) -> Option<u32> {
        let v = self.links.get(edge.idx())?.get(rel_ordinal as usize).copied()?;
        (v != u32::MAX).then_some(v)
    }

    /// Relationship ordinals linked to participant instance
    /// `participant_ordinal` via `edge` (deleted links excluded).
    pub fn linked_rels(&self, edge: EdgeId, participant_ordinal: u32) -> Vec<u32> {
        let rels = match self
            .rev_links
            .get(edge.idx())
            .and_then(|rv| rv.get(participant_ordinal as usize))
        {
            Some(v) => v,
            None => return Vec::new(),
        };
        rels.iter().copied().filter(|&r| self.links[edge.idx()][r as usize] != u32::MAX).collect()
    }

    /// Record a new relationship instance's link (insert maintenance).
    /// `rel_ordinal` must be the next dense ordinal for the edge.
    pub(crate) fn push_link(&mut self, edge: EdgeId, rel_ordinal: u32, participant: u32) {
        shadow::note(|t| {
            t.links.insert((edge, rel_ordinal));
        });
        self.storage.mark(SegId::Links);
        self.storage.mark(SegId::RevLinks);
        let links = Arc::make_mut(&mut self.links);
        let rev_links = Arc::make_mut(&mut self.rev_links);
        if links.len() <= edge.idx() {
            links.resize(edge.idx() + 1, Vec::new());
            rev_links.resize(edge.idx() + 1, Vec::new());
        }
        let v = &mut links[edge.idx()];
        assert_eq!(v.len(), rel_ordinal as usize, "link ordinals must stay dense");
        v.push(participant);
        let rv = &mut rev_links[edge.idx()];
        if rv.len() <= participant as usize {
            rv.resize(participant as usize + 1, Vec::new());
        }
        rv[participant as usize].push(rel_ordinal);
        self.epoch += 1;
    }

    /// Invalidate a relationship instance's link (delete maintenance).
    pub(crate) fn kill_link(&mut self, edge: EdgeId, rel_ordinal: u32) {
        if let Some(v) = Arc::make_mut(&mut self.links)
            .get_mut(edge.idx())
            .and_then(|l| l.get_mut(rel_ordinal as usize))
        {
            *v = u32::MAX;
            shadow::note(|t| {
                t.links.insert((edge, rel_ordinal));
            });
            self.storage.mark(SegId::Links);
        }
        self.epoch += 1;
    }

    /// Invalidate every link entry touching a deleted instance: a
    /// relationship loses its own links; a participant kills the links of
    /// every relationship instance referencing it (those relationship
    /// elements are about to lose their occurrences as well, structurally
    /// or through their own delete op).
    pub(crate) fn kill_links_of(&mut self, graph: &ErGraph, t: ElementId) {
        let el = self.element(t);
        let (node, ordinal) = (el.node, el.ordinal);
        for &(e, _) in graph.incident(node) {
            let edge = graph.edge(e);
            if edge.rel == node {
                self.kill_link(e, ordinal);
            } else {
                for ro in self.linked_rels(e, ordinal) {
                    // kill the whole relationship instance (both edges)
                    let rel = edge.rel;
                    for &(e2, _) in graph.incident(rel) {
                        if graph.edge(e2).rel == rel {
                            self.kill_link(e2, ro);
                        }
                    }
                }
            }
        }
    }

    /// Label the occurrences pushed into a color since its last relabel:
    /// splice them into document order and into the color's indexes
    /// (DESIGN.md §5a). Linear in the color's occurrences, with no hashing
    /// and no allocation per occurrence; an unedited color is not copied.
    /// The engine relabels eagerly after each update batch, charged to
    /// update cost like TIMBER's index maintenance.
    pub(crate) fn relabel_color(&mut self, c: ColorId) {
        shadow::note(|t| {
            t.colors.insert(c);
        });
        self.storage.mark(SegId::Tree(c.0));
        self.colors[c.idx()].integrate(&self.elements);
        self.epoch += 1;
    }

    /// Insert a new canonical element, returning its id. The caller must
    /// add occurrences (then relabel) to make it reachable. Adds one value
    /// index posting per attribute. The new instance's ordinal comes from
    /// the append-only ordinal index, **not** from the extent length — the
    /// two diverge once anything has been deleted.
    pub(crate) fn insert_element(&mut self, node: NodeId, attrs: Vec<Value>) -> ElementId {
        let cells: Vec<Cell> = attrs.into_iter().map(|v| self.cell(v)).collect();
        let arity = cells.len();
        let id = ElementId(self.elements.len() as u32);
        let ordinal = self.by_ordinal[node.idx()].len() as u32;
        shadow::note(|t| {
            t.allocated.insert(id);
            t.ordinals.insert((node, ordinal));
            t.extent_nodes.insert(node);
            t.postings.extend((0..arity).map(|a| (node, a, id)));
        });
        self.storage.mark(SegId::Elements);
        self.storage.mark(SegId::Ordinals);
        self.storage.mark(SegId::Postings);
        {
            let index = Arc::make_mut(&mut self.value_index);
            for (a, cell) in cells.iter().enumerate() {
                index.insert(IndexEntry {
                    node,
                    attr: a as u32,
                    key: cell.key(&self.interner),
                    element: id,
                });
            }
        }
        self.elements.push(node, ordinal, id, cells, &self.interner);
        Arc::make_mut(&mut self.extents)[node.idx()].push(id);
        Arc::make_mut(&mut self.by_ordinal)[node.idx()].push(id);
        self.epoch += 1;
        id
    }

    /// Insert a copy of an existing element (un-normalized maintenance).
    ///
    /// Copies are **occurrence-only**: they are reachable exclusively
    /// through the color trees. The extent, the ordinal index and the value
    /// index all track canonical elements only
    /// — the same invariant [`DatabaseBuilder::add_copy`] maintains and
    /// [`Database::check_integrity`] audits (S008) — so a copy registers
    /// in none of them; its attribute values mirror the canonical's
    /// postings.
    pub(crate) fn insert_copy(&mut self, of: ElementId) -> ElementId {
        let canon = self.element(of).canonical;
        debug_assert!(self.is_live(canon), "insert_copy of a deleted instance");
        let id = self.elements.push_copy(canon);
        shadow::note(|t| {
            t.allocated.insert(id);
        });
        self.storage.mark(SegId::Elements);
        self.epoch += 1;
        id
    }

    /// Append an occurrence to a color's pending tail: unlabelled and
    /// unindexed until [`Database::relabel_color`], which lands it as the
    /// last child of `parent` (a root after every other).
    pub(crate) fn push_occurrence(
        &mut self,
        c: ColorId,
        element: ElementId,
        placement: PlacementId,
        parent: Option<OccId>,
    ) -> OccId {
        let canon = self.element(element).canonical;
        shadow::note(|t| {
            t.colors.insert(c);
            t.occ_added.insert(canon);
        });
        self.storage.mark(SegId::Tree(c.0));
        let id = self.colors[c.idx()].push(element, placement, parent);
        self.epoch += 1;
        id
    }

    /// Remove occurrences (by id) from a color, with their descendants.
    /// Each labelled subtree is drained as the contiguous id range it is:
    /// what follows moves back and labels and indexes stay exact. Pending
    /// occurrences keep their order with parents remapped. Returns the
    /// number removed.
    pub(crate) fn remove_occurrences(&mut self, c: ColorId, remove: &[OccId]) -> usize {
        shadow::note(|t| {
            t.colors.insert(c);
        });
        self.storage.mark(SegId::Tree(c.0));
        self.epoch += 1;
        self.colors[c.idx()].remove(remove)
    }

    /// Delete the logical instance behind `e` (canonical or copy): every
    /// occurrence of its canonical element **and of every physical copy**
    /// leaves every color (subtrees included), and the derived structures
    /// retract with it — the extent entry and the per-attribute value-index
    /// postings — mirroring
    /// [`Database::insert_element`]'s maintenance so deletes go through
    /// one audited path just like [`Database::write_attr`]. The ordinal
    /// slot is tombstoned, never reused: stale links and idref values
    /// resolve to `None` from then on.
    ///
    /// Idempotent: a second call for the same instance (or for one of its
    /// copies) removes nothing and retracts nothing. Relabels every
    /// affected color. Returns the number of occurrences removed.
    pub(crate) fn remove_element_occurrences(&mut self, e: ElementId) -> usize {
        let canon = self.element(e).canonical;
        let (node, ordinal) = {
            let el = self.element(canon);
            (el.node, el.ordinal)
        };
        let mut total = 0;
        for c in 0..self.colors.len() {
            let c = ColorId(c as u16);
            // the whole logical instance, from the logical index: copies
            // share its (node, ordinal), where matching `o.element == e`
            // would leave their occurrences behind on DEEP/UNDR. Pending
            // occurrences are not indexed yet.
            let tree = &self.colors[c.idx()];
            let mut doomed = tree.of_logical(node, ordinal).to_vec();
            doomed.extend(
                tree.pending()
                    .filter(|(_, o)| self.element(o.element).canonical == canon)
                    .map(|(id, _)| id),
            );
            if !doomed.is_empty() {
                total += self.remove_occurrences(c, &doomed);
                self.relabel_color(c);
            }
        }
        if self.canonical_by_ordinal(node, ordinal) == Some(canon) {
            // first delete of this instance: retract the derived structures
            let arity = self.elements.arity(node);
            shadow::note(|t| {
                t.deleted.insert(canon);
                t.ordinals.insert((node, ordinal));
                t.extent_nodes.insert(node);
                t.postings.extend((0..arity).map(|a| (node, a, canon)));
            });
            self.storage.mark(SegId::Ordinals);
            self.storage.mark(SegId::Postings);
            Arc::make_mut(&mut self.by_ordinal)[node.idx()][ordinal as usize] = TOMBSTONE;
            let extent = &mut Arc::make_mut(&mut self.extents)[node.idx()];
            if let Ok(pos) = extent.binary_search(&canon) {
                extent.remove(pos);
            }
            {
                let index = Arc::make_mut(&mut self.value_index);
                let attrs = self.elements.attrs(self.elements.header(canon), &self.interner);
                for a in 0..arity {
                    // stored values are always interned, but stay total
                    if let Some(key) = attrs.key(a) {
                        index.remove(IndexEntry { node, attr: a as u32, key, element: canon });
                    }
                }
            }
            self.epoch += 1;
        }
        total
    }

    /// S008 — extent/element/index desync audit. Checks the invariants the
    /// mutation choke points maintain: extents list exactly the live
    /// canonical elements of their node in ascending order; every live
    /// ordinal slot round-trips through its element; copies are
    /// unreachable from extents, the ordinal index, and the value index;
    /// no color tree holds an occurrence of a deleted instance or at a
    /// placement of another color; value-index
    /// postings cover live canonicals exactly once per attribute.
    ///
    /// S009 — the tree audit behind in-place structural maintenance: in
    /// every color, labels are the exact DFS numbering of the parent
    /// pointers with document order equal to id order, every per-placement,
    /// per-node and logical-index entry matches its occurrence. Linear,
    /// with one stack
    /// of open ancestors as its only per-tree allocation.
    ///
    /// S010 — the column audit: every attribute column of a node holds one
    /// cell per row of the node's table, element headers and `(node, row)`
    /// map onto each other both ways without gaps, every text symbol is in
    /// the symbol table, and the value index equals a per-column rebuild
    /// (each run sorted, each posting keyed by its cell). Linear.
    ///
    /// Returns the first violation as `Err("S008: …")`, `Err("S009: …")`
    /// or `Err("S010: …")`.
    pub fn check_integrity(&self) -> Result<(), String> {
        self.elements.audit(&self.interner).map_err(|msg| format!("S010: {msg}"))?;
        let fail = |msg: String| Err(format!("S008: {msg}"));
        for (n, extent) in self.extents.iter().enumerate() {
            let node = NodeId(n as u32);
            for w in extent.windows(2) {
                if w[0] >= w[1] {
                    return fail(format!("extent of node {n} is not in ascending id order"));
                }
            }
            for &e in extent {
                let el = self.element(e);
                if el.canonical != e {
                    return fail(format!("extent of node {n} lists copy {e}"));
                }
                if el.node != node {
                    return fail(format!("extent of node {n} lists {e} of node {}", el.node.0));
                }
                if self.canonical_by_ordinal(node, el.ordinal) != Some(e) {
                    return fail(format!(
                        "extent of node {n} lists {e} but ordinal {} does not resolve to it",
                        el.ordinal
                    ));
                }
            }
            for a in 0..self.elements.arity(node) {
                let postings = self.value_index.of_attr(node, a).len();
                if postings != extent.len() {
                    return fail(format!(
                        "value index holds {postings} postings for (node {n}, attr {a}) \
                         over an extent of {}",
                        extent.len()
                    ));
                }
            }
        }
        for (n, slots) in self.by_ordinal.iter().enumerate() {
            let node = NodeId(n as u32);
            let mut live = 0;
            for (k, &e) in slots.iter().enumerate() {
                if e == TOMBSTONE {
                    continue;
                }
                live += 1;
                let h = self.elements.header(e);
                if h.node != node || h.ordinal as usize != k || h.canonical != e {
                    return fail(format!("ordinal slot ({n}, {k}) holds mismatched element {e}"));
                }
            }
            // every extent entry resolved through its own slot above, so
            // equal counts leave no live slot outside the extent
            if live != self.extents[n].len() {
                return fail(format!(
                    "node {n} has {live} live ordinal slots but an extent of {}",
                    self.extents[n].len()
                ));
            }
        }
        for (ci, tree) in self.colors.iter().enumerate() {
            for o in tree.occs() {
                if !self.is_live(o.element) {
                    return fail(format!(
                        "color {ci} holds an occurrence of deleted element {}",
                        o.element
                    ));
                }
                let placement = self.schema.placements().get(o.placement.idx());
                if placement.is_none_or(|p| p.color.idx() != ci) {
                    return fail(format!(
                        "color {ci} holds an occurrence at placement {} of another color",
                        o.placement
                    ));
                }
            }
        }
        let mut postings = 0;
        for n in 0..self.extents.len() {
            let node = NodeId(n as u32);
            for a in 0..self.elements.arity(node) {
                let run = self.value_index.of_attr(node, a);
                postings += run.len();
                let key_at = self.elements.keys(node, a, &self.interner);
                for (i, en) in run.iter().enumerate() {
                    let h = self.elements.header(en.element);
                    if h.canonical != en.element {
                        return fail(format!("value index posts copy {}", en.element));
                    }
                    if h.node != en.node {
                        return fail(format!(
                            "value index posting for {} names the wrong node",
                            en.element
                        ));
                    }
                    if self.canonical_by_ordinal(h.node, h.ordinal) != Some(en.element) {
                        return fail(format!("value index posts deleted element {}", en.element));
                    }
                    // with the per-column counts above, sorted postings
                    // whose keys are their cells' are exactly what a
                    // per-column rebuild makes
                    let sorted =
                        i == 0 || (run[i - 1].key, run[i - 1].element) < (en.key, en.element);
                    let placed = en.node == node && en.attr as usize == a;
                    if !sorted || !placed || key_at(h.row) != Some(en.key) {
                        return Err(format!(
                            "S010: value index posting (node {n}, attr {a}, {}) is out of order \
                             or disagrees with its column",
                            en.element
                        ));
                    }
                }
            }
        }
        if postings != self.value_index.len() {
            return Err(format!(
                "S010: the value index holds {} postings outside every column",
                self.value_index.len() - postings
            ));
        }
        for (ci, tree) in self.colors.iter().enumerate() {
            tree.audit(&self.elements).map_err(|msg| format!("S009: color {ci}: {msg}"))?;
        }
        Ok(())
    }

    /// Overwrite the epoch counter. Crate-internal: a commit group is one
    /// epoch step, however many mutations its batches made.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Whether the link table holds a cell for `(edge, rel_ordinal)` —
    /// live **or** already killed. The static effect analysis needs this
    /// distinction ([`Database::link`] conflates dead and absent):
    /// [`Database::kill_link`] touches a dead cell but not an absent one.
    pub(crate) fn link_slot_exists(&self, edge: EdgeId, rel_ordinal: u32) -> bool {
        self.links.get(edge.idx()).is_some_and(|l| (rel_ordinal as usize) < l.len())
    }

    /// Deep structural equality of two databases over the same schema:
    /// elements, color trees (with their per-placement, per-node and
    /// logical-occurrence indexes), extents, ordinal index, link tables,
    /// symbol table, value index,
    /// dispatch mode — and, when `include_epoch`, the version counter.
    /// Returns the first mismatching structure by name. This is the
    /// oracles' "byte-identical final state" assertion (the schema itself
    /// is not compared; both sides of a check are derived from one
    /// database).
    pub fn same_state(&self, other: &Database, include_epoch: bool) -> Result<(), String> {
        let check = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("databases differ in {what}"))
            }
        };
        // the symbol table first: text cells compare by symbol under it
        check(self.interner == other.interner, "symbol table")?;
        check(self.elements.same_content(&other.elements, &self.interner), "elements")?;
        check(self.colors == other.colors, "color trees")?;
        check(self.extents == other.extents, "extents")?;
        check(self.by_ordinal == other.by_ordinal, "ordinal index")?;
        check(self.links == other.links, "link tables")?;
        check(self.rev_links == other.rev_links, "reverse link tables")?;
        check(self.value_index == other.value_index, "value index")?;
        check(self.dispatch == other.dispatch, "kernel dispatch")?;
        if include_epoch {
            check(self.epoch == other.epoch, "epoch")?;
        }
        Ok(())
    }
}

/// Incremental builder used by the materializer.
#[derive(Debug)]
pub struct DatabaseBuilder {
    schema: MctSchema,
    /// Staged as plain vectors, cut into chunks once at `finish`.
    elements: Staged,
    /// Text is interned as canonical elements arrive, in element order.
    interner: Interner,
    /// The cells of the element being added.
    cells: Vec<Cell>,
    extents: Vec<Vec<ElementId>>,
    colors: Vec<ColorTree>,
    links: Vec<Vec<u32>>,
}

impl DatabaseBuilder {
    /// Start building a database for `schema` over a graph with
    /// `node_count` ER node types.
    pub fn new(schema: MctSchema, node_count: usize) -> Self {
        let placements = schema.placements().len();
        let colors =
            (0..schema.color_count()).map(|_| ColorTree::new(placements, node_count)).collect();
        DatabaseBuilder {
            schema,
            elements: Staged::new(node_count),
            interner: Interner::default(),
            cells: Vec::new(),
            extents: vec![Vec::new(); node_count],
            colors,
            links: Vec::new(),
        }
    }

    /// Provide the per-edge link vectors (participant ordinal per
    /// relationship ordinal), as produced by the canonical instance.
    pub fn set_links(&mut self, links: Vec<Vec<u32>>) {
        self.links = links;
    }

    /// The schema being populated.
    pub fn schema(&self) -> &MctSchema {
        &self.schema
    }

    /// Add the canonical element of logical instance `(node, ordinal)`,
    /// interning its text. Ordinals must arrive densely in order per node,
    /// and every element of a node stores the same number of attributes.
    pub fn add_canonical<'v>(
        &mut self,
        node: NodeId,
        attrs: impl IntoIterator<Item = &'v Value>,
    ) -> ElementId {
        let id = ElementId(self.elements.len() as u32);
        let ordinal = self.extents[node.idx()].len() as u32;
        let interner = &mut self.interner;
        self.cells.extend(attrs.into_iter().map(|v| match v {
            Value::Text(s) => Cell::Sym(interner.intern(s)),
            v => Cell::Num(v.clone()),
        }));
        self.elements.push(node, ordinal, id, self.cells.drain(..), &self.interner);
        self.extents[node.idx()].push(id);
        id
    }

    /// Add a physical copy of a canonical element: its cells, copied into
    /// a row of its own.
    pub fn add_copy(&mut self, of: ElementId) -> ElementId {
        debug_assert_eq!(
            self.elements.header(of).canonical,
            of,
            "copies must reference canonical elements"
        );
        self.elements.push_copy(of)
    }

    /// Add an occurrence (parents must be added before children; siblings
    /// keep the order they are added in).
    pub fn add_occurrence(
        &mut self,
        c: ColorId,
        element: ElementId,
        placement: PlacementId,
        parent: Option<OccId>,
    ) -> OccId {
        self.colors[c.idx()].push(element, placement, parent)
    }

    /// Label every color and freeze: builds the persistent attribute/id
    /// value index over the canonical elements, a run per column. Each
    /// color is labelled the way a structural write is — its whole forest
    /// integrated as one pending tail into an empty tree.
    pub fn finish(mut self) -> Database {
        let interner = self.interner;
        let value_index = self.elements.build_index(&interner);
        let elements = self.elements.freeze();
        for tree in &mut self.colors {
            tree.integrate(&elements);
        }
        // reverse link index
        let mut rev_links: Vec<Vec<Vec<u32>>> = Vec::with_capacity(self.links.len());
        for per_edge in &self.links {
            let max = per_edge.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
            let mut rv: Vec<Vec<u32>> = vec![Vec::new(); max];
            for (ro, &po) in per_edge.iter().enumerate() {
                rv[po as usize].push(ro as u32);
            }
            rev_links.push(rv);
        }
        // at build time every ordinal is live, so the ordinal index starts
        // as a copy of the extents and only ever diverges through deletes
        let by_ordinal = self.extents.clone();
        Database {
            schema: self.schema,
            elements,
            colors: self.colors,
            extents: Arc::new(self.extents),
            by_ordinal: Arc::new(by_ordinal),
            links: Arc::new(self.links),
            rev_links: Arc::new(rev_links),
            interner: Arc::new(interner),
            value_index: Arc::new(value_index),
            dispatch: KernelDispatch::default(),
            epoch: 0,
            storage: Backing::default(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use colorist_er::{Attribute, ErDiagram};

    /// A one-color schema over `a -1:m- b` through relationship `r`.
    pub(crate) fn tiny() -> (ErGraph, MctSchema) {
        let mut d = ErDiagram::new("t");
        d.add_entity("a", vec![Attribute::key("id")]).unwrap();
        d.add_entity("b", vec![Attribute::key("id"), Attribute::text("x")]).unwrap();
        d.add_rel_1m("r", "a", "b").unwrap();
        let g = ErGraph::from_diagram(&d).unwrap();
        let s = colorist_core::design(&g, colorist_core::Strategy::En).unwrap();
        (g, s)
    }

    /// a0 -> r0 -> b0, a0 -> r1 -> b1, a1 (childless)
    pub(crate) fn build(g: &ErGraph, s: &MctSchema) -> Database {
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let r = g.node_by_name("r").unwrap();
        let c = ColorId(0);
        let pa = s.placements_of_in_color(a, c)[0];
        let pr = s.placements_of_in_color(r, c)[0];
        let pb = s.placements_of_in_color(b, c)[0];
        let mut bd = DatabaseBuilder::new(s.clone(), g.node_count());
        let ea0 = bd.add_canonical(a, &[Value::Int(0)]);
        let ea1 = bd.add_canonical(a, &[Value::Int(1)]);
        let er0 = bd.add_canonical(r, &[]);
        let er1 = bd.add_canonical(r, &[]);
        let eb0 = bd.add_canonical(b, &[Value::Int(0), Value::Text("u".into())]);
        let eb1 = bd.add_canonical(b, &[Value::Int(1), Value::Text("v".into())]);
        let oa0 = bd.add_occurrence(c, ea0, pa, None);
        let _oa1 = bd.add_occurrence(c, ea1, pa, None);
        let or0 = bd.add_occurrence(c, er0, pr, Some(oa0));
        let or1 = bd.add_occurrence(c, er1, pr, Some(oa0));
        bd.add_occurrence(c, eb0, pb, Some(or0));
        bd.add_occurrence(c, eb1, pb, Some(or1));
        bd.finish()
    }

    /// [`build`] over [`tiny`].
    pub(crate) fn tiny_db() -> (ErGraph, Database) {
        let (g, s) = tiny();
        let db = build(&g, &s);
        (g, db)
    }

    #[test]
    fn labels_nest_properly() {
        let (g, s) = tiny();
        let db = build(&g, &s);
        let t = db.color(ColorId(0));
        assert_eq!(t.occs().len(), 6);
        // document order by start, intervals well-formed
        let mut prev = 0;
        for o in t.occs() {
            assert!(o.start > prev, "document order violated");
            assert!(o.end > o.start);
            prev = o.start;
        }
        // parent intervals contain children
        for o in t.occs() {
            if let Some(p) = o.parent {
                let parent = t.occ(p);
                assert!(parent.start < o.start && o.end <= parent.end);
                assert_eq!(parent.level + 1, o.level);
            }
        }
    }

    #[test]
    fn extents_and_logical_occurrences() {
        let (g, s) = tiny();
        let db = build(&g, &s);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        assert_eq!(db.extent(a).len(), 2);
        assert_eq!(db.extent(b).len(), 2);
        let eb0 = db.extent(b)[0];
        let occs = db.occurrences_of_logical(ColorId(0), eb0);
        assert_eq!(occs.len(), 1);
        assert_eq!(db.color(ColorId(0)).occ(occs[0]).element, eb0);
    }

    #[test]
    fn copies_share_logical_identity() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let copy = db.insert_copy(eb0);
        assert!(db.element(copy).is_copy(copy));
        assert_eq!(db.element(copy).canonical, eb0);
        assert_eq!(db.element(copy).attrs, db.element(eb0).attrs);
        // place the copy under the other r occurrence and relabel
        let c = ColorId(0);
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let parent = db
            .color(c)
            .of_placement(db.schema.placements_of_in_color(g.node_by_name("r").unwrap(), c)[0])[0];
        db.push_occurrence(c, copy, pb, Some(parent));
        db.relabel_color(c);
        assert_eq!(db.occurrences_of_logical(c, eb0).len(), 2);
    }

    #[test]
    fn remove_occurrences_cascades() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let c = ColorId(0);
        let a = g.node_by_name("a").unwrap();
        // remove a0's occurrence: r0, r1, b0, b1 go with it
        let pa = db.schema.placements_of_in_color(a, c)[0];
        let oa0 = db.color(c).of_placement(pa)[0];
        let removed = db.remove_occurrences(c, &[oa0]);
        db.relabel_color(c);
        assert_eq!(removed, 5);
        assert_eq!(db.color(c).occs().len(), 1); // a1 remains
    }

    #[test]
    fn link_storage_push_kill_and_reverse() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let r = g.node_by_name("r").unwrap();
        let e_ra = g
            .edge_ids()
            .find(|&e| g.edge(e).rel == r && g.edge(e).participant == g.node_by_name("a").unwrap())
            .unwrap();
        // build() does not set links; push some for the two r instances
        db.push_link(e_ra, 0, 0);
        db.push_link(e_ra, 1, 0);
        assert_eq!(db.link(e_ra, 0), Some(0));
        assert_eq!(db.linked_rels(e_ra, 0), vec![0, 1]);
        db.kill_link(e_ra, 0);
        assert_eq!(db.link(e_ra, 0), None);
        assert_eq!(db.linked_rels(e_ra, 0), vec![1]);
        // out-of-range lookups are safe
        assert_eq!(db.link(e_ra, 99), None);
        assert!(db.linked_rels(e_ra, 99).is_empty());
    }

    #[test]
    fn remove_element_clears_all_colors() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let n = db.remove_element_occurrences(eb0);
        assert_eq!(n, 1);
        assert_eq!(db.color(ColorId(0)).occs().len(), 5);
    }

    #[test]
    fn delete_retracts_extent_and_index() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let key = db.join_key(&Value::Int(0));
        assert_eq!(db.value_index().matching(b, 0, key).len(), 1);
        db.remove_element_occurrences(eb0);
        // extent, ordinal resolution and postings all retract
        assert_eq!(db.extent(b).len(), 1);
        assert!(!db.extent(b).contains(&eb0));
        assert_eq!(db.canonical_by_ordinal(b, 0), None);
        assert!(!db.is_live(eb0));
        assert!(db.value_index().matching(b, 0, key).is_empty());
        assert_eq!(db.check_integrity(), Ok(()));
        // ordinals are never reused: a later insert gets a fresh one
        let fresh = db.insert_element(b, vec![Value::Int(9), Value::Text("w".into())]);
        assert_eq!(db.element(fresh).ordinal, 2);
        assert_eq!(db.ordinal_count(b), 3);
    }

    #[test]
    fn delete_is_idempotent() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        assert_eq!(db.remove_element_occurrences(eb0), 1);
        let epoch = db.epoch();
        assert_eq!(db.remove_element_occurrences(eb0), 0);
        assert_eq!(db.epoch(), epoch, "repeat delete must be a no-op");
        assert_eq!(db.extent(b).len(), 1);
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn delete_through_a_copy_then_the_canonical_is_idempotent() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let b = g.node_by_name("b").unwrap();
        let r = g.node_by_name("r").unwrap();
        let c = ColorId(0);
        let eb0 = db.extent(b)[0];
        let copy = db.insert_copy(eb0);
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let parent = db.color(c).of_placement(db.schema.placements_of_in_color(r, c)[0])[1];
        db.push_occurrence(c, copy, pb, Some(parent));
        db.relabel_color(c);
        assert_eq!(db.remove_element_occurrences(copy), 2);
        let epoch = db.epoch();
        assert_eq!(db.remove_element_occurrences(eb0), 0, "second delete removes nothing");
        assert_eq!(db.epoch(), epoch, "repeat delete must be a no-op");
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn delete_of_canonical_removes_copy_occurrences() {
        // the DEEP/UNDR shape: a duplicated placement holds a *copy*, and
        // deleting the instance (by canonical or copy id) must remove it
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let b = g.node_by_name("b").unwrap();
        let r = g.node_by_name("r").unwrap();
        let c = ColorId(0);
        let eb0 = db.extent(b)[0];
        let copy = db.insert_copy(eb0);
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let parent = db.color(c).of_placement(db.schema.placements_of_in_color(r, c)[0])[1];
        db.push_occurrence(c, copy, pb, Some(parent));
        db.relabel_color(c);
        assert_eq!(db.occurrences_of_logical(c, eb0).len(), 2);
        // deleting via the copy's id resolves to the whole instance
        let n = db.remove_element_occurrences(copy);
        assert_eq!(n, 2, "canonical and copy occurrences must both go");
        assert!(db.color(c).occs().iter().all(|o| db.element(o.element).canonical != eb0));
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn snapshot_pins_the_pre_mutation_state() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let snap = db.snapshot();
        let epoch0 = db.epoch();
        db.write_attr(eb0, 1, Value::Text("changed".into()));
        db.remove_element_occurrences(db.extent(b)[1]);
        assert!(db.epoch() > epoch0);
        // the snapshot still sees both instances, the old value and the
        // old postings
        assert_eq!(snap.epoch(), epoch0);
        assert_eq!(snap.extent(b).len(), 2);
        assert_eq!(snap.element(eb0).attrs[1], Value::Text("u".into()));
        assert_eq!(snap.value_index().of_attr(b, 0).len(), 2);
        assert_eq!(snap.color(ColorId(0)).occs().len(), 6);
        assert_eq!(snap.check_integrity(), Ok(()));
        // and the live database moved on
        assert_eq!(db.extent(b).len(), 1);
        assert_eq!(db.element(eb0).attrs[1], Value::Text("changed".into()));
    }

    /// `a0` over `n` relationship instances, each over one `b` with an
    /// integer id and one of three tags — enough elements for several
    /// chunks, deterministic so two builds are equal.
    fn wide(g: &ErGraph, s: &MctSchema, n: i64) -> Database {
        let [a, b, r] = ["a", "b", "r"].map(|name| g.node_by_name(name).unwrap());
        let c = ColorId(0);
        let [pa, pr, pb] = [a, r, b].map(|node| s.placements_of_in_color(node, c)[0]);
        let mut bd = DatabaseBuilder::new(s.clone(), g.node_count());
        let ea0 = bd.add_canonical(a, &[Value::Int(0)]);
        let oa0 = bd.add_occurrence(c, ea0, pa, None);
        for i in 0..n {
            let er = bd.add_canonical(r, &[]);
            let eb = bd.add_canonical(b, &[Value::Int(i), Value::Text(format!("tag{}", i % 3))]);
            let or = bd.add_occurrence(c, er, pr, Some(oa0));
            bd.add_occurrence(c, eb, pb, Some(or));
        }
        bd.finish()
    }

    /// Regression: writing text the symbol table already holds used to
    /// take `Arc::make_mut` on the table anyway and, against a live
    /// snapshot, copy all of it.
    #[test]
    fn writing_interned_text_leaves_the_symbol_table_shared() {
        let (g, s) = tiny();
        let mut db = wide(&g, &s, 8);
        let b = g.node_by_name("b").unwrap();
        let snap = db.snapshot();
        db.write_attr(db.extent(b)[0], 1, Value::Text("tag2".into()));
        assert!(Arc::ptr_eq(&db.interner, &snap.interner), "no new symbol, no copy");
        db.write_attr(db.extent(b)[0], 1, Value::Text("brand new".into()));
        assert!(!Arc::ptr_eq(&db.interner, &snap.interner), "a new symbol copies on write");
        assert!(snap.interner().get("brand new").is_none());
    }

    /// The copy-on-write unit: after a one-cell write against a pinned
    /// snapshot, every column but the written one and every posting run
    /// but the touched one is still the snapshot's own allocation, the
    /// written column shares every chunk but the written cell's, no other
    /// structure was copied at all, and the snapshot still equals a
    /// database that never saw the write.
    #[test]
    fn a_one_cell_write_shares_every_untouched_chunk_and_column_with_the_snapshot() {
        let (g, s) = tiny();
        let b = g.node_by_name("b").unwrap();
        let n = 4 * crate::chunked::CHUNK_LEN as i64;
        let pristine = wide(&g, &s, n);
        let mut db = wide(&g, &s, n);
        let mut lcg = 0x2545_f491_4f6c_dd1d_u64;
        for round in 0..24 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let target = db.extent(b)[(lcg >> 33) as usize % db.extent(b).len()];
            let attr = round % 2;
            let value =
                if attr == 0 { Value::Int(-(round as i64)) } else { Value::Text("tag1".into()) };
            let snap = db.snapshot();
            let before = snap.element(target).attrs[attr].clone();
            db.write_attr(target, attr, value.clone());
            for node in g.node_ids() {
                for a in 0..db.elements.arity(node) {
                    let shared = db.column_sharing(&snap, node, a);
                    let written = (node, a) == (b, attr);
                    assert_eq!(shared.column, !written, "round {round}: column ({}, {a})", node.0);
                    let copied = shared.chunks - shared.shared_chunks;
                    assert_eq!(copied, usize::from(written), "round {round}: ({}, {a})", node.0);
                }
            }
            assert_eq!(db.column_sharing(&snap, b, attr).chunks, 4, "several chunks to share");
            let copied: Vec<_> = db
                .value_index
                .runs()
                .zip(snap.value_index.runs())
                .filter(|(live, pinned)| !Arc::ptr_eq(live, pinned))
                .map(|(live, _)| (live[0].node, live[0].attr as usize))
                .collect();
            let moved = value != before;
            assert_eq!(copied, if moved { vec![(b, attr)] } else { vec![] }, "round {round}");
            assert!(db
                .colors
                .iter()
                .zip(&snap.colors)
                .all(|(a, b)| std::ptr::eq(a.occs(), b.occs())));
            assert!(Arc::ptr_eq(&db.extents, &snap.extents));
            assert!(Arc::ptr_eq(&db.by_ordinal, &snap.by_ordinal));
            assert!(Arc::ptr_eq(&db.interner, &snap.interner));
            assert_eq!(snap.element(target).attrs[attr], before);
            assert_eq!(db.element(target).attrs[attr], value);
            if round == 0 {
                assert_eq!(snap.same_state(&pristine, true), Ok(()));
            }
        }
        assert_eq!(db.check_integrity(), Ok(()));
    }

    #[test]
    fn integrity_audit_names_each_structure() {
        // negative paths for each audited structure: break exactly one and
        // assert the S008 report names it, not merely that *something* fails
        let (g, s) = tiny();
        let db = build(&g, &s);
        assert_eq!(db.check_integrity(), Ok(()));
        let b = g.node_by_name("b").unwrap();
        // 1. extent slot: scrambled order
        {
            let mut broken = db.clone();
            Arc::make_mut(&mut broken.extents)[b.idx()].reverse();
            let err = broken.check_integrity().unwrap_err();
            assert!(err.contains("extent of node"), "{err}");
        }
        // 2. ordinal tombstone with a surviving extent entry
        {
            let mut broken = db.clone();
            Arc::make_mut(&mut broken.by_ordinal)[b.idx()][0] = TOMBSTONE;
            let err = broken.check_integrity().unwrap_err();
            assert!(err.contains("ordinal 0 does not resolve"), "{err}");
        }
        // 3. a retracted value-index posting
        {
            let mut broken = db.clone();
            let eb0 = broken.extent(b)[0];
            let key = broken.join_key(&Value::Int(0));
            Arc::make_mut(&mut broken.value_index).remove(IndexEntry {
                node: b,
                attr: 0,
                key,
                element: eb0,
            });
            let err = broken.check_integrity().unwrap_err();
            assert!(err.contains("value index holds"), "{err}");
        }
    }

    #[test]
    fn integrity_audit_reports_desync() {
        let (g, s) = tiny();
        let db = build(&g, &s);
        assert_eq!(db.check_integrity(), Ok(()));
        let b = g.node_by_name("b").unwrap();
        // manufacture each desync class the S008 audit exists for
        // 1. an extent retraction without the matching posting retraction
        {
            let mut broken = db.clone();
            Arc::make_mut(&mut broken.extents)[b.idx()].pop();
            let err = broken.check_integrity().unwrap_err();
            assert!(err.starts_with("S008"), "{err}");
        }
        // 2. a tombstoned ordinal whose extent entry survives (the pre-fix
        //    delete shape inverted: ordinal index and extent disagree)
        {
            let mut broken = db.clone();
            Arc::make_mut(&mut broken.by_ordinal)[b.idx()][0] = TOMBSTONE;
            let err = broken.check_integrity().unwrap_err();
            assert!(err.starts_with("S008"), "{err}");
        }
        // 3. a copy reachable from an extent
        {
            let mut broken = db.clone();
            let eb0 = broken.extent(b)[0];
            let copy = broken.insert_copy(eb0);
            Arc::make_mut(&mut broken.extents)[b.idx()].push(copy);
            let err = broken.check_integrity().unwrap_err();
            assert!(err.starts_with("S008"), "{err}");
        }
    }
}

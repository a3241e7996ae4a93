//! The store's read interface: occurrence sets and the operations a query
//! plan runs over them (DESIGN.md §10a).
//!
//! A plan step asks for a set — the occurrences of a node in a color,
//! those a fixed ER path below or above a set, the occurrences of some
//! elements in another color — and a [`Reader`] answers with an opaque
//! [`OccSet`]. How it answers stays inside the store: the color trees,
//! the value-index postings, the merge, gallop and parent-walk kernels,
//! the [`KernelDispatch`](crate::database::KernelDispatch) mode and the
//! paged page accounting. Every operation charges its counters to its reader,
//! and the cost annotation prices the same operations through the
//! estimators at the end of this module, so an estimate and a measurement
//! share their formulas.
//!
//! `OccId` order is document order in every color (`crate::tree`). The
//! sets rely on it; nothing outside the store sees it.

use crate::database::{Database, ElementId, OccId};
use crate::index::IndexEntry;
use crate::join::{self, AttrRef, SemiSide};
use crate::metrics::Metrics;
use crate::storage::StorageCtx;
use crate::tree::{ColorTree, Occurrence};
use crate::value::{Value, ValueKey};
use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::{ColorId, PlacementId};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::mem::{size_of, size_of_val};
use std::{fmt, io};

/// Comparison operators for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
}

/// An attribute predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute index in the node's declaration.
    pub attr: usize,
    /// Operator.
    pub op: CmpOp,
    /// Comparison constant.
    pub value: Value,
}

impl Predicate {
    /// Evaluate against a concrete value.
    pub fn eval(&self, v: &Value) -> bool {
        let ord = v.total_cmp(&self.value);
        match self.op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Gt => ord == Ordering::Greater,
        }
    }
}

/// Occurrences in one color, in document order and duplicate-free. A set
/// borrows the stored list when an operation selects one wholesale (an
/// unpredicated scan, a single-placement descent target) and owns what it
/// computed otherwise. It means something only to the database whose
/// reader produced it.
#[derive(Debug, Clone)]
pub struct OccSet<'d> {
    color: ColorId,
    occs: Cow<'d, [OccId]>,
}

impl OccSet<'_> {
    /// The color the occurrences live in.
    pub fn color(&self) -> ColorId {
        self.color
    }

    /// Number of occurrences (physical tuples, copies included).
    pub fn len(&self) -> usize {
        self.occs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.occs.is_empty()
    }
}

/// Why a read could not be served.
#[derive(Debug)]
pub enum ReadError {
    /// The database has no such color.
    NoColor {
        /// The color asked for.
        color: ColorId,
        /// How many colors the database has.
        colors: usize,
    },
    /// Elements of `node` store no attribute `attr`.
    NoAttr {
        /// The node type read.
        node: NodeId,
        /// The attribute index asked for.
        attr: usize,
    },
    /// A grouped value was never interned in this database.
    NotInterned(Value),
    /// The schema does not idref-encode the edge.
    NotIdrefEncoded(EdgeId),
    /// A page the read needed could not be served: the backend read
    /// failed, or its bytes do not match the directory's checksum.
    Page(io::Error),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::NoColor { color, colors } => {
                write!(f, "color {color} out of range ({colors} colors)")
            }
            ReadError::NoAttr { node, attr } => {
                write!(f, "attribute #{attr} out of range for node {}", node.0)
            }
            ReadError::NotInterned(v) => write!(f, "value `{v}` was never interned"),
            ReadError::NotIdrefEncoded(e) => write!(f, "edge {} is not idref-encoded", e.0),
            ReadError::Page(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Page(e)
    }
}

/// One query's reads: the counters they charge and, on a paged database,
/// the query's page accounting — a cold per-query clock over the attached
/// segment directory, faulting its misses through the attachment's shared
/// page cache, so the page counters are deterministic however many
/// workers share the database. Take one per query with
/// [`Database::reader`].
#[derive(Debug)]
pub struct Reader<'d> {
    db: &'d Database,
    storage: StorageCtx,
    /// Everything the reads so far charged.
    pub metrics: Metrics,
}

impl Database {
    /// A reader over this database, with zeroed counters.
    pub fn reader(&self) -> Reader<'_> {
        Reader { db: self, storage: self.storage_ctx(), metrics: Metrics::default() }
    }

    /// The first occurrence, in document order, at `placement` — e.g. a
    /// parent for a [`BatchPosition`](crate::batch::BatchPosition).
    pub fn occurrence_at(&self, placement: PlacementId) -> Option<OccId> {
        let color = self.schema.placements().get(placement.idx())?.color;
        self.colors.get(color.idx())?.of_placement(placement).first().copied()
    }

    fn tree(&self, c: ColorId) -> Result<&ColorTree, ReadError> {
        self.colors.get(c.idx()).ok_or(ReadError::NoColor { color: c, colors: self.colors.len() })
    }

    /// The occurrences in `tree` of the logical instance behind `e`.
    #[inline]
    fn logical<'t>(&self, tree: &'t ColorTree, e: ElementId) -> &'t [OccId] {
        let h = self.elements.header(e);
        tree.of_logical(h.node, h.ordinal)
    }
}

/// Probe the value index for the `node` elements satisfying `p`, calling
/// `hit` with each matching key group; returns the postings the probe
/// reads and the index lookups it charges. An equality probe
/// binary-searches the column for its one key group (text never interned
/// matches nothing). A range predicate walks the column's whole run group
/// by group, one key comparison per distinct stored value, taking whole
/// groups — never per element.
fn probe<'i>(
    db: &'i Database,
    node: NodeId,
    p: &Predicate,
    mut hit: impl FnMut(&'i [IndexEntry]),
) -> (&'i [IndexEntry], u64) {
    let index = db.value_index();
    match p.op {
        CmpOp::Eq => {
            let group =
                db.try_join_key(&p.value).map_or(&[][..], |k| index.matching(node, p.attr, k));
            hit(group);
            (group, 1)
        }
        CmpOp::Lt | CmpOp::Gt => {
            let want = if p.op == CmpOp::Lt { Ordering::Less } else { Ordering::Greater };
            let mut lookups = 0;
            for (key, group) in index.groups(node, p.attr) {
                lookups += 1;
                if db.interner().key_value_cmp(key, &p.value) == want {
                    hit(group);
                }
            }
            (index.of_attr(node, p.attr), lookups)
        }
    }
}

/// The placement `via.len()` levels above `p`, if `p`'s upward chain
/// realizes `via` (ancestor side first).
fn chain_top(db: &Database, p: PlacementId, via: &[EdgeId]) -> Option<PlacementId> {
    let mut cur = p;
    for &expected in via.iter().rev() {
        match db.schema.placement(cur).parent {
            Some((pp, e)) if e == expected => cur = pp,
            _ => return None,
        }
    }
    Some(cur)
}

/// The placements of node `n` in color `c`, without collecting them.
fn placements_in(db: &Database, c: ColorId, n: NodeId) -> impl Iterator<Item = PlacementId> + '_ {
    db.schema.placements_of(n).iter().copied().filter(move |&p| db.schema.placement(p).color == c)
}

/// Placements of `node` in `color` whose upward chain realizes `via` —
/// the landing spots of a path-exact descent.
fn path_placements<'a>(
    db: &'a Database,
    color: ColorId,
    node: NodeId,
    via: &'a [EdgeId],
) -> impl Iterator<Item = PlacementId> + 'a {
    placements_in(db, color, node).filter(move |&p| chain_top(db, p, via).is_some())
}

/// Widen `occs` to every occurrence (copies included) of the same logical
/// instances in `color`. On schemas with duplicated placements a logical
/// instance's occurrences are scattered over several subtrees and no
/// single one need carry a whole chain (the turning point of an
/// ascent-then-descent on DEEP). Borrowed, zero-copy, when the
/// occurrences' node has a single placement in the color, so node-normal
/// schemas pay nothing.
fn widen<'v>(
    db: &Database,
    tree: &ColorTree,
    color: ColorId,
    occs: &'v [OccId],
) -> Cow<'v, [OccId]> {
    if let Some(&o) = occs.first() {
        let node = db.schema.placement(tree.occ(o).placement).node;
        if placements_in(db, color, node).nth(1).is_none() {
            return Cow::Borrowed(occs);
        }
    }
    Cow::Owned(occurrences_of(db, tree, occs.iter().map(|&o| tree.occ(o).element)))
}

/// Every occurrence in `tree` of the logical instances of `elems`, in
/// document order and duplicate-free.
fn occurrences_of(
    db: &Database,
    tree: &ColorTree,
    elems: impl ExactSizeIterator<Item = ElementId>,
) -> Vec<OccId> {
    let mut occs = Vec::with_capacity(elems.len());
    for e in elems {
        occs.extend_from_slice(db.logical(tree, e));
    }
    occs.sort_unstable();
    occs.dedup();
    occs
}

/// The members of `src` an ascent climbs from: those whose placement's
/// upward chain realizes `via` and ends at `node`, decided once per placement.
fn ascent_sources(
    db: &Database,
    tree: &ColorTree,
    src: &[OccId],
    node: NodeId,
    via: &[EdgeId],
) -> Vec<OccId> {
    let mut valid: Vec<Option<bool>> = vec![None; db.schema.placements().len()];
    let mut climbs = |p: PlacementId| {
        *valid[p.idx()].get_or_insert_with(|| {
            chain_top(db, p, via).is_some_and(|t| db.schema.placement(t).node == node)
        })
    };
    src.iter().copied().filter(|&o| climbs(tree.occ(o).placement)).collect()
}

impl<'d> Reader<'d> {
    /// The occurrences of `node` in `color`, optionally those whose
    /// element satisfies `pred`. A predicate is answered by a value-index
    /// probe, or under the reference kernels by a linear walk of the
    /// node's occurrences.
    pub fn scan(
        &mut self,
        color: ColorId,
        node: NodeId,
        pred: Option<&Predicate>,
    ) -> Result<OccSet<'d>, ReadError> {
        let db = self.db;
        let tree = db.tree(color)?;
        let all = tree.of_node(node);
        let indexed = pred.is_some() && !db.reference_kernels();
        if !indexed {
            // no probe: the node's whole document-order list is read
            self.metrics.elements_scanned += all.len() as u64;
            self.metrics.bytes_touched += size_of_val(all) as u64;
            self.storage.touch_occs(color, all, &mut self.metrics)?;
        }
        let occs = match pred {
            // the stored list IS the answer: borrow
            None => Cow::Borrowed(all),
            Some(p) if indexed => {
                // attribute arity is uniform per node type, so the linear
                // walk's per-element bounds check reduces to one
                // representative
                if let Some(&o) = all.first() {
                    let el = db.element(tree.occ(o).element);
                    if el.attrs.get(p.attr).is_none() {
                        return Err(ReadError::NoAttr { node: el.node, attr: p.attr });
                    }
                }
                // copies mirror their canonical's attributes, so the
                // element-level index is complete: expand each match to
                // its occurrences in this color
                let v = occurrences_of(db, tree, self.select(node, p)?.into_iter());
                let m = &mut self.metrics;
                m.elements_scanned += v.len() as u64;
                m.elements_skipped += (all.len() as u64).saturating_sub(v.len() as u64);
                m.bytes_touched += size_of_val(v.as_slice()) as u64;
                self.storage.touch_occs(color, &v, m)?;
                Cow::Owned(v)
            }
            Some(p) => {
                let Reader { storage, metrics: m, .. } = self;
                let mut v = Vec::new();
                for &o in all {
                    let e = tree.occ(o).element;
                    storage.touch_element(e, m)?;
                    let el = db.element(e);
                    let Some(av) = el.attrs.get(p.attr) else {
                        return Err(ReadError::NoAttr { node: el.node, attr: p.attr });
                    };
                    if p.eval(av) {
                        v.push(o);
                    }
                }
                Cow::Owned(v)
            }
        };
        Ok(OccSet { color, occs })
    }

    /// The canonical elements of `node` whose attribute satisfies `pred`,
    /// by a value-index probe, in index order (key, then id).
    pub fn select(&mut self, node: NodeId, pred: &Predicate) -> Result<Vec<ElementId>, ReadError> {
        let db = self.db;
        let mut elems = Vec::new();
        let (read, lookups) =
            probe(db, node, pred, |group| elems.extend(group.iter().map(|en| en.element)));
        self.metrics.index_lookups += lookups;
        self.storage.touch_postings(db.value_index(), read, &mut self.metrics)?;
        Ok(elems)
    }

    /// The occurrences of `node` exactly `via.len()` levels below `src`,
    /// at placements whose upward chain realizes `via` (ancestor side
    /// first): one path-exact structural semi-join keeping descendants.
    pub fn descend(
        &mut self,
        src: &OccSet<'_>,
        node: NodeId,
        via: &[EdgeId],
    ) -> Result<OccSet<'d>, ReadError> {
        self.structural(src, node, via, SemiSide::Descendant)
    }

    /// The occurrences of `node` exactly `via.len()` levels above the
    /// members of `src` whose placement chain realizes `via`: one
    /// path-exact structural semi-join keeping ancestors.
    pub fn ascend(
        &mut self,
        src: &OccSet<'_>,
        node: NodeId,
        via: &[EdgeId],
    ) -> Result<OccSet<'d>, ReadError> {
        self.structural(src, node, via, SemiSide::Ancestor)
    }

    fn structural(
        &mut self,
        src: &OccSet<'_>,
        node: NodeId,
        via: &[EdgeId],
        keep: SemiSide,
    ) -> Result<OccSet<'d>, ReadError> {
        let db = self.db;
        let Reader { storage, metrics: m, .. } = self;
        let color = src.color;
        let tree = db.tree(color)?;
        let src = widen(db, tree, color, &src.occs);
        storage.touch_occs(color, &src, m)?;
        let k = Some(via.len() as u16);
        let out = match keep {
            SemiSide::Descendant => {
                // the per-placement lists are sorted and pairwise
                // disjoint: a k-way merge unions them, without copying
                // at all when a single placement is valid
                let lists: Vec<&[OccId]> =
                    path_placements(db, color, node, via).map(|p| tree.of_placement(p)).collect();
                let targets = join::kmerge_sorted(&lists);
                if let Cow::Owned(_) = targets {
                    // the union materialized: charge the ids it moved
                    m.bytes_touched += size_of_val(targets.as_ref()) as u64;
                }
                storage.touch_occs(color, &targets, m)?;
                join::structural_semi_join(db, color, &src, &targets, keep, k, m)
            }
            SemiSide::Ancestor => {
                let anc = tree.of_node(node);
                let desc = ascent_sources(db, tree, &src, node, via);
                if join::ascent_walks(db, anc.len(), desc.len(), via.len()) {
                    let touch = |hop: &[OccId], m: &mut Metrics| storage.touch_occs(color, hop, m);
                    join::parent_walk(tree, &desc, via.len(), anc.len(), m, touch)?
                } else {
                    storage.touch_occs(color, anc, m)?;
                    join::structural_semi_join(db, color, anc, &desc, keep, k, m)
                }
            }
        };
        Ok(OccSet { color, occs: Cow::Owned(out) })
    }

    /// Every occurrence in `color` of the logical instances of `elems`,
    /// uncharged: how a value or link semi-join's output re-enters a tree.
    pub fn enter(&self, color: ColorId, elems: &[ElementId]) -> Result<OccSet<'d>, ReadError> {
        let db = self.db;
        let tree = db.tree(color)?;
        Ok(OccSet { color, occs: Cow::Owned(occurrences_of(db, tree, elems.iter().copied())) })
    }

    /// A color crossing: [`Reader::enter`] charged as one crossing that
    /// reads `elems` and the occurrences it lands on.
    pub fn cross(&mut self, color: ColorId, elems: &[ElementId]) -> Result<OccSet<'d>, ReadError> {
        self.metrics.color_crossings += 1;
        self.metrics.elements_scanned += elems.len() as u64;
        self.metrics.bytes_touched += size_of_val(elems) as u64;
        let set = self.enter(color, elems)?;
        self.storage.touch_occs(color, &set.occs, &mut self.metrics)?;
        Ok(set)
    }

    /// The logical instances behind `set`, as canonical elements in
    /// ascending id order, uncharged.
    pub fn canonical(&self, set: &OccSet<'_>) -> Vec<ElementId> {
        let (db, tree) = (self.db, &self.db.colors[set.color.idx()]);
        let mut v: Vec<ElementId> =
            set.occs.iter().map(|&o| db.elements.header(tree.occ(o).element).canonical).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The occurrences in both `a` and `b`, which must share a color: an
    /// uncharged sorted merge.
    pub fn intersect(&self, a: &OccSet<'_>, b: &OccSet<'_>) -> OccSet<'d> {
        debug_assert_eq!(a.color, b.color, "intersecting sets of two colors");
        let (va, vb): (&[OccId], &[OccId]) = (&a.occs, &b.occs);
        let mut out = Vec::with_capacity(va.len().min(vb.len()));
        let (mut i, mut j) = (0, 0);
        while i < va.len() && j < vb.len() {
            match va[i].cmp(&vb[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    out.push(va[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        OccSet { color: a.color, occs: Cow::Owned(out) }
    }

    /// Logical duplicate elimination over canonical elements, which
    /// [`Reader::canonical`] already made distinct: charges one
    /// elimination and the ids it moves, and hands `elems` back.
    pub fn distinct(&mut self, elems: Vec<ElementId>) -> Vec<ElementId> {
        self.metrics.dup_eliminations += 1;
        self.metrics.bytes_touched += size_of_val(elems.as_slice()) as u64;
        elems
    }

    /// The number of distinct values of attribute `attr` over `elems` —
    /// a group-by's group count. Copies keys and sorts them: no hashing,
    /// no per-element string.
    pub fn group_count(&mut self, elems: &[ElementId], attr: usize) -> Result<usize, ReadError> {
        let db = self.db;
        let Reader { storage, metrics: m, .. } = self;
        m.group_bys += 1;
        storage.touch_elements(elems, m)?;
        m.elements_scanned += elems.len() as u64;
        m.bytes_touched += (elems.len() * size_of::<ValueKey>()) as u64;
        let mut keys: Vec<ValueKey> = Vec::with_capacity(elems.len());
        for &e in elems {
            let el = db.element(e);
            let Some(v) = el.attrs.get(attr) else {
                return Err(ReadError::NoAttr { node: el.node, attr });
            };
            keys.push(el.attrs.key(attr).ok_or_else(|| ReadError::NotInterned(v.clone()))?);
        }
        keys.sort_unstable();
        keys.dedup();
        Ok(keys.len())
    }

    /// Value semi-join across the idref-encoded ER edge `edge`: from
    /// relationship elements to the participants their idrefs name
    /// (`from_rel`), or from participants to the relationship elements
    /// naming them. Canonical elements out, ascending and distinct.
    ///
    /// The forward direction resolves each idref value through the
    /// ordinal index (a deleted target's tombstone makes it dangle
    /// safely); the reverse probes the value index once per source
    /// ordinal. Under the reference kernels both hash-join the source
    /// against the full target extent.
    pub fn idref_semi(
        &mut self,
        graph: &ErGraph,
        edge: EdgeId,
        from_rel: bool,
        src: &[ElementId],
    ) -> Result<Vec<ElementId>, ReadError> {
        let db = self.db;
        let Reader { storage, metrics: m, .. } = self;
        let e = graph.edge(edge);
        let idref = db.idref_attr_index(graph, edge).ok_or(ReadError::NotIdrefEncoded(edge))?;
        storage.touch_elements(src, m)?;
        let mut out: Vec<ElementId> = if db.reference_kernels() {
            let (rels, parts) =
                if from_rel { (src, db.extent(e.participant)) } else { (db.extent(e.rel), src) };
            storage.touch_elements(if from_rel { parts } else { rels }, m)?;
            let pairs = join::value_join(db, rels, AttrRef::Attr(idref), parts, AttrRef::Id, m);
            pairs.into_iter().map(|(r, p)| if from_rel { p } else { r }).collect()
        } else {
            // one ordinal or index probe per source element: no hash table
            // to build, and the target extent is never walked
            let target = if from_rel { e.participant } else { e.rel };
            m.value_joins += 1;
            m.join_probes += src.len() as u64;
            m.index_lookups += src.len() as u64;
            m.elements_skipped += db.extent(target).len() as u64;
            m.bytes_touched += (src.len() * size_of::<ValueKey>()) as u64;
            let mut out = Vec::with_capacity(src.len());
            for &x in src {
                if from_rel {
                    // non-numeric idref values reference no id
                    let ValueKey::Num(k) = join::attr_key(db, x, AttrRef::Attr(idref)) else {
                        continue;
                    };
                    if let Ok(i) = u32::try_from(k) {
                        storage.touch_ordinal(target, i, m)?;
                        out.extend(db.canonical_by_ordinal(target, i));
                    }
                } else {
                    let key = ValueKey::Num(db.element(x).ordinal as i64);
                    let slice = db.value_index().matching(target, idref, key);
                    storage.touch_postings(db.value_index(), slice, m)?;
                    out.extend(slice.iter().map(|en| en.element));
                }
            }
            m.elements_scanned += (src.len() + out.len()) as u64;
            out
        };
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Link semi-join across ER edge `edge`: a parent-child step resolved
    /// through the stored link adjacency, exact on any schema, in the
    /// direction and with the output of [`Reader::idref_semi`]. Counts as
    /// one structural join.
    pub fn link_semi(
        &mut self,
        graph: &ErGraph,
        edge: EdgeId,
        from_rel: bool,
        src: &[ElementId],
    ) -> Result<Vec<ElementId>, ReadError> {
        let db = self.db;
        let Reader { storage, metrics: m, .. } = self;
        let e = graph.edge(edge);
        m.structural_joins += 1;
        m.elements_scanned += src.len() as u64;
        // one adjacency lookup per source element
        m.join_probes += src.len() as u64;
        m.bytes_touched += size_of_val(src) as u64;
        storage.touch_elements(src, m)?;
        let mut out: Vec<ElementId> = Vec::new();
        if from_rel {
            for &w in src {
                let ro = db.element(w).ordinal;
                storage.touch_link(edge, ro, m)?;
                if let Some(po) = db.link(edge, ro) {
                    storage.touch_ordinal(e.participant, po, m)?;
                    out.extend(db.canonical_by_ordinal(e.participant, po));
                }
            }
        } else {
            for &x in src {
                for ro in db.linked_rels(edge, db.element(x).ordinal) {
                    // the filter inside linked_rels re-read the link slot
                    // of every candidate relationship
                    storage.touch_link(edge, ro, m)?;
                    storage.touch_ordinal(e.rel, ro, m)?;
                    out.extend(db.canonical_by_ordinal(e.rel, ro));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// estimators: what the reads above will charge, from exact stored counts

/// Predicted counter charges of one read, in the units its [`Reader`]
/// method charges them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReadCost {
    /// `elements_scanned`.
    pub scanned: f64,
    /// `join_probes`.
    pub probes: f64,
    /// `bytes_touched`.
    pub bytes: f64,
    /// `index_lookups`.
    pub index_lookups: f64,
    /// For a descent or ascent: the kernel the default dispatch runs it on.
    pub kernel: Option<StructKernel>,
}

/// The kernel a descent or ascent runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructKernel {
    /// The stack merge over both sides.
    Merge,
    /// The gallop-skipping semi-join.
    Gallop,
    /// An ascent climbing parent links, never reading the ancestor list.
    ParentWalk,
}

const OCC_ID: f64 = size_of::<OccId>() as f64;
const ELEMENT: f64 = size_of::<ElementId>() as f64;
const KEY: f64 = size_of::<ValueKey>() as f64;
const OCCURRENCE: f64 = size_of::<Occurrence>() as f64;

impl Database {
    /// Occurrences of `node` in `color`; 0 for a color the database lacks.
    pub fn occ_count(&self, color: ColorId, node: NodeId) -> usize {
        self.colors.get(color.idx()).map_or(0, |t| t.of_node(node).len())
    }

    /// Occurrences of `node` in `color` at placements whose upward chain
    /// realizes `via` — the targets of a [`Reader::descend`].
    pub fn path_occ_count(&self, color: ColorId, node: NodeId, via: &[EdgeId]) -> usize {
        let Some(tree) = self.colors.get(color.idx()) else { return 0 };
        path_placements(self, color, node, via).map(|p| tree.of_placement(p).len()).sum()
    }

    /// Distinct stored values of attribute `attr` of `node`.
    pub fn distinct_values(&self, node: NodeId, attr: usize) -> usize {
        self.value_index().groups(node, attr).count()
    }

    /// The output rows and charges of [`Reader::scan`] under the default
    /// dispatch. Exact: a predicate counts the occurrences of exactly the
    /// elements the index probe returns.
    pub fn scan_cost(
        &self,
        color: ColorId,
        node: NodeId,
        pred: Option<&Predicate>,
    ) -> (f64, ReadCost) {
        let (rows, index_lookups) = match pred {
            None => (self.occ_count(color, node), 0),
            Some(_) if color.idx() >= self.colors.len() => (0, 0),
            Some(p) => {
                let tree = &self.colors[color.idx()];
                let mut occs = 0;
                let (_, lookups) = probe(self, node, p, |group| {
                    for en in group {
                        occs += self.logical(tree, en.element).len();
                    }
                });
                (occs, lookups)
            }
        };
        let rows = rows as f64;
        let cost = ReadCost {
            scanned: rows,
            bytes: rows * OCC_ID,
            index_lookups: index_lookups as f64,
            ..ReadCost::default()
        };
        (rows, cost)
    }

    /// The output rows and charges of [`Reader::descend`] from `src`
    /// (widened) occurrences, which hold the share `src_share` of their
    /// node's occurrences in `color`: each target is kept at that rate.
    pub fn descend_cost(
        &self,
        color: ColorId,
        node: NodeId,
        via: &[EdgeId],
        src: f64,
        src_share: f64,
    ) -> (f64, ReadCost) {
        let Some(tree) = self.colors.get(color.idx()) else { return (0.0, ReadCost::default()) };
        let (placements, targets) = path_placements(self, color, node, via)
            .fold((0, 0.0), |(n, t), p| (n + 1, t + tree.of_placement(p).len() as f64));
        let rows = targets * src_share;
        let mut cost = semi_join(src, targets, rows);
        if placements > 1 {
            // the k-way union materializes
            cost.bytes += targets * OCC_ID;
        }
        (rows, cost)
    }

    /// The charges of [`Reader::ascend`] from `src` occurrences whose
    /// placement chain realizes `via`, on the kernel the default dispatch
    /// picks: the parent walk is charged as if no source were an orphan
    /// and none shared a parent.
    pub fn ascend_cost(&self, color: ColorId, node: NodeId, via: &[EdgeId], src: f64) -> ReadCost {
        let anc = self.occ_count(color, node);
        let n = src.round() as usize;
        if join::walk_wins(anc, n, via.len(), join::gallop_cost_wins(n.min(anc), n.max(anc))) {
            let read = src * via.len() as f64;
            let kernel = Some(StructKernel::ParentWalk);
            ReadCost { scanned: read, bytes: read * OCCURRENCE, kernel, ..ReadCost::default() }
        } else {
            semi_join(anc as f64, src, 0.0)
        }
    }
}

/// A structural semi-join over `anc` ancestors and `desc` descendants —
/// the join half of [`Reader::descend`], and [`Reader::ascend`] off the
/// parent walk — on the kernel the default dispatch picks, mirroring its
/// exact accounting (merge stack depth estimated at 1). `kept` is the
/// number of descendants a descent keeps, 0 for an ascent.
fn semi_join(anc: f64, desc: f64, kept: f64) -> ReadCost {
    let (small, large) = if anc <= desc { (anc, desc) } else { (desc, anc) };
    let (scanned, probes, kernel) =
        if join::gallop_cost_wins(small.round() as usize, large.round() as usize) {
            // each driving element binary-searches the large side; probes
            // and the scan charge both track what the search exposes.
            // Ancestors driving a descent scan their whole windows, so they
            // expose at least every descendant the descent keeps
            let log2_ceil = if large <= 1.0 { 0.0 } else { large.log2().ceil() };
            let windows = if anc <= desc { kept } else { 0.0 };
            let examined = (small * log2_ceil + windows).min(large);
            (small + examined, examined, StructKernel::Gallop)
        } else {
            // the merge walks both sides once and probes the stack per
            // descendant
            (anc + desc, desc, StructKernel::Merge)
        };
    let bytes = scanned * OCCURRENCE;
    ReadCost { scanned, probes, bytes, index_lookups: 0.0, kernel: Some(kernel) }
}

impl ReadCost {
    /// [`Reader::idref_semi`] from `src` elements matching `matched`, on
    /// the ordinal or reverse index probe.
    pub fn idref_semi(src: f64, matched: f64) -> ReadCost {
        ReadCost {
            scanned: src + matched,
            probes: src,
            bytes: src * KEY,
            index_lookups: src,
            kernel: None,
        }
    }

    /// [`Reader::link_semi`] from `src` elements.
    pub fn link_semi(src: f64) -> ReadCost {
        ReadCost { scanned: src, probes: src, bytes: src * ELEMENT, ..ReadCost::default() }
    }

    /// [`Reader::cross`] of `elems` elements.
    pub fn cross(elems: f64) -> ReadCost {
        ReadCost { scanned: elems, bytes: elems * ELEMENT, ..ReadCost::default() }
    }

    /// [`Reader::distinct`] over `elems` elements.
    pub fn distinct(elems: f64) -> ReadCost {
        ReadCost { bytes: elems * ELEMENT, ..ReadCost::default() }
    }

    /// [`Reader::group_count`] over `elems` elements.
    pub fn group(elems: f64) -> ReadCost {
        ReadCost { scanned: elems, bytes: elems * KEY, ..ReadCost::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::KernelDispatch;
    use crate::join::tests::{below, random_db};
    use crate::join::{parent_walk, structural_semi_join_merge as merge};

    /// The parent walk equals the reference merge on every ascent of up to
    /// four edges a random DEEP or UNDR instance offers, from random
    /// source subsets that mix chain-valid and chain-invalid placements,
    /// widened copies and orphans: kernel against kernel on the same
    /// chain-valid sources, and the default reader against the reader
    /// pinned to the reference kernels.
    #[test]
    fn parent_walk_matches_reference_merge_on_random_ascents() {
        use colorist_core::Strategy;
        let (mut walked, mut orphans, mut widened) = (0usize, 0usize, 0usize);
        for (strategy, seed) in [(Strategy::Deep, 7u64), (Strategy::Undr, 11)] {
            let db = random_db(strategy, 6, seed);
            let mut reference = db.clone();
            reference.set_kernel_dispatch(KernelDispatch::Reference);
            let mut rng = seed;
            for (i, pl) in db.schema.placements().iter().enumerate() {
                let (color, tree) = (pl.color, db.color(pl.color));
                let all = tree.of_node(pl.node);
                for k in [1usize, 2, 4] {
                    // the `via` of a k-edge ascent from this placement
                    let (mut top, mut via) = (PlacementId(i as u32), Vec::new());
                    while via.len() < k {
                        let Some((pp, e)) = db.schema.placement(top).parent else { break };
                        (top, via) = (pp, [vec![e], via].concat());
                    }
                    if via.len() < k {
                        continue;
                    }
                    let node = db.schema.placement(top).node;
                    for density in [1u64, 2, 8] {
                        let occs: Vec<OccId> =
                            all.iter().copied().filter(|_| below(&mut rng, density) == 0).collect();
                        let src = OccSet { color, occs: Cow::Owned(occs) };
                        let wide = widen(&db, tree, color, &src.occs);
                        widened += usize::from(matches!(wide, Cow::Owned(_)));
                        let desc = ascent_sources(&db, tree, &wide, node, &via);
                        let orphan =
                            |&&o: &&OccId| (0..k).try_fold(o, |o, _| tree.occ(o).parent).is_none();
                        orphans += desc.iter().filter(orphan).count();
                        let (anc, m) = (tree.of_node(node), &mut Metrics::default());
                        let walk = parent_walk(tree, &desc, k, anc.len(), m, |_, _| Ok(()));
                        let merged =
                            merge(&db, color, anc, &desc, SemiSide::Ancestor, Some(k as u16), m);
                        let ctx = format!("{strategy}: placement {i}, k {k}, 1/{density}");
                        assert_eq!(walk.unwrap(), merged, "{ctx}: kernels disagree");
                        walked += usize::from(join::ascent_walks(&db, anc.len(), desc.len(), k));
                        // and to the sources' own node, where `via` does not end
                        for to in [node, pl.node] {
                            let auto = db.reader().ascend(&src, to, &via).unwrap();
                            let slow = reference.reader().ascend(&src, to, &via).unwrap();
                            assert_eq!(auto.occs, slow.occs, "{ctx}: readers disagree on {to:?}");
                        }
                    }
                }
            }
        }
        // the sweep must reach what it claims to cover
        assert!(walked > 0, "no ascent dispatched to the parent walk");
        assert!(orphans > 0, "no chain-valid source was an orphan");
        assert!(widened > 0, "no source set widened over several placements");
    }
}

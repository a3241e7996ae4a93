//! One color's labelled occurrence tree, maintained by structural writes
//! without a rebuild (DESIGN.md §5a, §12.2).
//!
//! The read kernels rely on one invariant: **`OccId` order is document
//! order**, and `(start, end)` are the DFS counter numbering of the parent
//! forest — the labels `1..=2n` with no gap, so `a` is an ancestor of `d`
//! iff `a.start < d.start && d.end <= a.end`. Every sorted `OccId` list the
//! query layer merges, dedups or binary-searches depends on it.
//!
//! A tree is its labelled part — the occurrences in document order and the
//! indexes over them, behind one [`Arc`], the copy-on-write unit — plus a
//! pending tail. Structural writes keep the invariant like this:
//!
//! * [`ColorTree::push`] appends to the pending tail, unlabelled, and
//!   copies nothing;
//! * [`ColorTree::integrate`] splices the tail into document order — each
//!   pending subtree lands as the last child of its parent, in push order,
//!   pending roots at the end, which is exactly where a DFS over the whole
//!   forest puts it — moving the ids and labels of what follows;
//! * [`ColorTree::remove`] drains each doomed labelled subtree as the
//!   contiguous id range (and label range) it is, moving what follows back.
//!
//! Either edit is a [`Moves`] map over old ids and one over old labels,
//! piecewise constant between the edit's cut points. The new labelled
//! version is written from the old one in one forward pass per structure —
//! occurrences, per-placement and per-node id lists, logical-occurrence
//! rows — copying runs and adding a constant, with no hashing and no
//! allocation per occurrence; the old version is never touched, so
//! snapshots keep reading it. The builder and the loader integrate a whole
//! forest as one pending tail over an empty labelled part, so build, load
//! and structural writes share one path, and a maintained tree equals,
//! field for field, one built from scratch.

use crate::columns::Elements;
use crate::database::{ElementId, OccId};
use colorist_er::NodeId;
use colorist_mct::PlacementId;
use std::sync::Arc;

/// One position in a color's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// The stored element at this position.
    pub element: ElementId,
    /// The schema placement this position instantiates.
    pub placement: PlacementId,
    /// Parent occurrence within the same color.
    pub parent: Option<OccId>,
    /// DFS interval start.
    pub start: u32,
    /// DFS interval end (`start < desc.start && desc.end <= end` ⇔ ancestor).
    pub end: u32,
    /// Depth in the color tree.
    pub level: u16,
}

/// One color's labelled tree, plus the occurrences pushed into it since it
/// was last labelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorTree {
    /// Replaced, never edited, by a structural write.
    labelled: Arc<Labelled>,
    /// Unlabelled and unindexed, in push order; their ids continue after
    /// the labelled ones.
    pending: Vec<Occurrence>,
}

/// Occurrences in document order with exact DFS labels, and the indexes
/// over them.
#[derive(Debug, PartialEq, Eq)]
struct Labelled {
    occs: Vec<Occurrence>,
    /// Per placement (indexed by `PlacementId`), occurrence ids in
    /// document order.
    by_placement: Vec<Vec<OccId>>,
    /// Per ER node type, occurrence ids in document order — XPath steps
    /// match labels, not placements.
    by_node: Vec<Vec<OccId>>,
    /// Per ER node type, the occurrences of each logical instance by
    /// ordinal (copies share their canonical's ordinal).
    logical: Vec<OrdinalRows>,
}

/// The logical-occurrence index of one ER node type in one color, as
/// compressed rows: the occurrences of ordinal `k` are
/// `ids[offsets[k]..offsets[k + 1]]`, in document order. Canonical form:
/// empty when the node has no occurrence in the color, otherwise the last
/// row is non-empty — what a from-scratch build produces.
#[derive(Debug, Default, PartialEq, Eq)]
struct OrdinalRows {
    offsets: Vec<u32>,
    ids: Vec<OccId>,
}

/// An inserted occurrence's new id and the keys of the three indexes.
#[derive(Debug, Clone, Copy)]
struct Laid {
    id: OccId,
    placement: PlacementId,
    node: NodeId,
    ordinal: u32,
}

/// How an edit moves old ids, or old labels: a value below `starts[0]`
/// stays; from `starts[g]` up to the next start it moves by `delta[g]`
/// (a wrapping add, so a move down is the two's complement) or, where that
/// is `None`, is removed. Starts ascend; of equal starts the last counts.
#[derive(Debug, Default)]
struct Moves {
    starts: Vec<u32>,
    delta: Vec<Option<u32>>,
}

impl Moves {
    fn push(&mut self, start: u32, delta: Option<u32>) {
        self.starts.push(start);
        self.delta.push(delta);
    }

    /// Where old value `v` lands, unless it is removed.
    fn map(&self, v: u32) -> Option<u32> {
        match self.starts.partition_point(|&s| s <= v) {
            0 => Some(v),
            g => self.delta[g - 1].map(|d| v.wrapping_add(d)),
        }
    }

    fn id(&self, o: OccId) -> Option<OccId> {
        self.map(o.0).map(OccId)
    }

    /// [`Moves::map`] of every old id below `n`, as a table ([`GONE`] for
    /// a removed one): one load per lookup, where the id lists that are
    /// not sorted would branch unpredictably.
    fn table(&self, n: usize) -> Vec<u32> {
        let mut table: Vec<u32> = (0..self.starts[0]).collect();
        for (g, &start) in self.starts.iter().enumerate() {
            let end = self.starts.get(g + 1).map_or(n as u32, |&next| next);
            match self.delta[g] {
                Some(d) => table.extend((start..end).map(|v| v.wrapping_add(d))),
                None => table.resize(end as usize, GONE),
            }
        }
        table
    }
}

/// A removed id in a [`Moves::table`].
const GONE: u32 = u32::MAX;

/// Stable counting sort by a dense key below `keys`: the items of key `k`
/// are `out[at[k]..at[k + 1]]`, in input order.
pub(crate) fn group<T: Copy>(
    items: &[T],
    keys: usize,
    key: impl Fn(&T) -> usize,
) -> (Vec<usize>, Vec<T>) {
    let mut at = vec![0; keys + 1];
    for t in items {
        at[key(t) + 1] += 1;
    }
    for k in 0..keys {
        at[k + 1] += at[k];
    }
    let mut next = at.clone();
    let mut out = items.to_vec();
    for t in items {
        let slot = &mut next[key(t)];
        out[*slot] = *t;
        *slot += 1;
    }
    (at, out)
}

/// A sorted id list after an edit: each run of old ids between two starts
/// of `ids` moved by its constant (or dropped), and `adds` (new ids,
/// ascending) merged in where they fall.
fn splice_list(list: &[OccId], adds: &[Laid], ids: &Moves) -> Vec<OccId> {
    let mut out = Vec::with_capacity(list.len() + adds.len());
    let mut at = list.partition_point(|o| o.0 < ids.starts[0]);
    out.extend_from_slice(&list[..at]);
    let mut k = 0;
    for (g, &start) in ids.starts.iter().enumerate() {
        let end = ids
            .starts
            .get(g + 1)
            .map_or(list.len(), |&next| at + list[at..].partition_point(|o| o.0 < next));
        if let Some(d) = ids.delta[g] {
            let first = start.wrapping_add(d);
            while k < adds.len() && adds[k].id.0 < first {
                out.push(adds[k].id);
                k += 1;
            }
            out.extend(list[at..end].iter().map(|o| OccId(o.0.wrapping_add(d))));
        }
        at = end;
    }
    out.extend(adds[k..].iter().map(|a| a.id));
    out
}

/// An index entry list of the S009 audit: ids below `n`, strictly
/// ascending, each `owns` (its occurrence carries the list's key). Returns
/// the number listed.
fn audit_list(
    what: &str,
    ids: &[OccId],
    n: usize,
    owns: impl Fn(usize) -> bool,
) -> Result<usize, String> {
    let misfiled = (ids.iter().enumerate())
        .find(|&(i, &o)| o.idx() >= n || (i > 0 && ids[i - 1] >= o) || !owns(o.idx()));
    match misfiled {
        Some((_, o)) => Err(format!("the {what} index misfiles occurrence {}", o.0)),
        None => Ok(ids.len()),
    }
}

impl OrdinalRows {
    fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    #[inline]
    fn row(&self, ordinal: u32) -> &[OccId] {
        let k = ordinal as usize;
        match self.offsets.get(k..k + 2) {
            Some(&[lo, hi]) => &self.ids[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// [`splice_list`] row by row, through the id table of the edit. An
    /// edit either removes ids or adds them (`adds`, sorted by ordinal,
    /// ids ascending within one), never both; rows it leaves alone move
    /// as one run.
    fn splice(&self, adds: &[Laid], new_id: &[u32]) -> OrdinalRows {
        let moved = |o: &OccId| OccId(new_id[o.idx()]);
        let kept = |o: &&OccId| new_id[o.idx()] != GONE;
        let Some(last) = adds.last() else {
            let mut ids = Vec::with_capacity(self.ids.len());
            ids.extend(self.ids.iter().map(moved).filter(|o| o.0 != GONE));
            if ids.len() == self.ids.len() {
                return OrdinalRows { offsets: self.offsets.clone(), ids };
            }
            // a removal: recount the rows, then drop trailing empty ones
            let mut offsets = Vec::with_capacity(self.offsets.len());
            let mut n = 0;
            offsets.push(0);
            for w in self.offsets.windows(2) {
                n += self.ids[w[0] as usize..w[1] as usize].iter().filter(kept).count() as u32;
                offsets.push(n);
            }
            let used = offsets.iter().rposition(|&o| o != n).map_or(0, |k| k + 2);
            offsets.truncate(used);
            return OrdinalRows { offsets, ids };
        };
        let old_rows = self.rows();
        let rows = old_rows.max(last.ordinal as usize + 1);
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut ids = Vec::with_capacity(self.ids.len() + adds.len());
        offsets.push(0);
        let (mut done, mut a) = (0, 0);
        while done < rows {
            // the rows up to the next one with adds keep their shape
            let next = adds.get(a).map_or(rows, |add| add.ordinal as usize);
            let (lo, hi) = (done.min(old_rows), next.min(old_rows));
            if lo < hi {
                let (from, to) = (self.offsets[lo], self.offsets[hi]);
                let shift = ids.len() as u32 - from;
                ids.extend(self.ids[from as usize..to as usize].iter().map(moved));
                offsets.extend(self.offsets[lo + 1..=hi].iter().map(|&o| o + shift));
            }
            offsets.resize(next + 1, ids.len() as u32);
            if next == rows {
                break;
            }
            // that row: its old ids merged with its adds
            let here = a + adds[a..].iter().take_while(|add| add.ordinal as usize == next).count();
            for o in self.row(next as u32).iter().map(moved) {
                while a < here && adds[a].id < o {
                    ids.push(adds[a].id);
                    a += 1;
                }
                ids.push(o);
            }
            ids.extend(adds[a..here].iter().map(|add| add.id));
            a = here;
            offsets.push(ids.len() as u32);
            done = next + 1;
        }
        OrdinalRows { offsets, ids }
    }
}

impl Labelled {
    /// The version after an edit: old occurrences and index entries moved
    /// by `ids` and `labels` (or dropped), and `laid` — inserted
    /// occurrences, labelled, in document order, with `adds` their new ids
    /// and keys — merged in. `first_parent` is the parent of the first
    /// edited subtree, whose ancestors are the only occurrences before the
    /// first cut that move: their end.
    fn edit(
        &self,
        ids: &Moves,
        labels: &Moves,
        first_parent: Option<OccId>,
        laid: &[Occurrence],
        adds: &[Laid],
    ) -> Labelled {
        let n0 = self.occs.len();
        let new_id = ids.table(n0);
        let mut occs = Vec::with_capacity(n0 + laid.len());
        occs.extend_from_slice(&self.occs[..ids.starts[0] as usize]);
        // an interval before the first cut that reaches any cut contains
        // the first one
        let mut up = first_parent;
        while let Some(a) = up {
            occs[a.idx()].end = labels.map(self.occs[a.idx()].end).expect("an ancestor stays");
            up = self.occs[a.idx()].parent;
        }
        let mut k = 0;
        for (g, &start) in ids.starts.iter().enumerate() {
            let Some(d) = ids.delta[g] else { continue };
            let first = start.wrapping_add(d);
            while k < laid.len() && adds[k].id.0 < first {
                occs.push(laid[k]);
                k += 1;
            }
            let end = ids.starts.get(g + 1).map_or(n0, |&next| next as usize);
            occs.extend(self.occs[start as usize..end].iter().map(|o| Occurrence {
                start: o.start.wrapping_add(d.wrapping_mul(2)),
                end: labels.map(o.end).expect("a surviving label"),
                parent: o.parent.map(|p| OccId(new_id[p.idx()])),
                ..*o
            }));
        }
        occs.extend_from_slice(&laid[k..]);

        let (at, of_placement) = group(adds, self.by_placement.len(), |a| a.placement.idx());
        let by_placement = (self.by_placement.iter().enumerate())
            .map(|(p, list)| splice_list(list, &of_placement[at[p]..at[p + 1]], ids))
            .collect();
        let (at, of_node) = group(adds, self.by_node.len(), |a| a.node.idx());
        let mut by_node = Vec::with_capacity(self.by_node.len());
        let mut logical = Vec::with_capacity(self.logical.len());
        for (n, (list, rows)) in self.by_node.iter().zip(&self.logical).enumerate() {
            let adds = &of_node[at[n]..at[n + 1]];
            by_node.push(splice_list(list, adds, ids));
            let by_ordinal = match adds.iter().map(|a| a.ordinal as usize + 1).max() {
                Some(keys) => group(adds, keys, |a| a.ordinal as usize).1,
                None => Vec::new(),
            };
            logical.push(rows.splice(&by_ordinal, &new_id));
        }
        Labelled { occs, by_placement, by_node, logical }
    }
}

impl ColorTree {
    /// An empty tree over a schema with `placements` placements and an ER
    /// graph with `nodes` node types.
    pub(crate) fn new(placements: usize, nodes: usize) -> ColorTree {
        let labelled = Labelled {
            occs: Vec::new(),
            by_placement: vec![Vec::new(); placements],
            by_node: vec![Vec::new(); nodes],
            logical: (0..nodes).map(|_| OrdinalRows::default()).collect(),
        };
        ColorTree { labelled: Arc::new(labelled), pending: Vec::new() }
    }

    /// All labelled occurrences, in document order (sorted by `start`).
    pub fn occs(&self) -> &[Occurrence] {
        &self.labelled.occs
    }

    /// The labelled occurrence with the given id.
    #[inline]
    pub fn occ(&self, o: OccId) -> &Occurrence {
        &self.labelled.occs[o.idx()]
    }

    /// Occurrence ids instantiating a placement, in document order.
    #[inline]
    pub fn of_placement(&self, p: PlacementId) -> &[OccId] {
        self.labelled.by_placement.get(p.idx()).map_or(&[], Vec::as_slice)
    }

    /// Occurrence ids of every element labelled with the ER node type, in
    /// document order (all placements of the node in this color).
    #[inline]
    pub fn of_node(&self, n: NodeId) -> &[OccId] {
        self.labelled.by_node.get(n.idx()).map_or(&[], Vec::as_slice)
    }

    /// Occurrences of logical instance `(node, ordinal)`, in document order:
    /// two array loads.
    #[inline]
    pub(crate) fn of_logical(&self, node: NodeId, ordinal: u32) -> &[OccId] {
        self.labelled.logical.get(node.idx()).map_or(&[], |rows| rows.row(ordinal))
    }

    /// The occurrences pushed since the last integration, with their ids.
    pub(crate) fn pending(&self) -> impl Iterator<Item = (OccId, &Occurrence)> {
        let first = self.labelled.occs.len();
        self.pending.iter().enumerate().map(move |(j, o)| (OccId((first + j) as u32), o))
    }

    /// Append an unlabelled occurrence to the pending tail.
    pub(crate) fn push(
        &mut self,
        element: ElementId,
        placement: PlacementId,
        parent: Option<OccId>,
    ) -> OccId {
        let id = OccId((self.labelled.occs.len() + self.pending.len()) as u32);
        debug_assert!(parent.is_none_or(|p| p < id), "a parent precedes its children");
        self.pending.push(Occurrence { element, placement, parent, start: 0, end: 0, level: 0 });
        id
    }

    /// Splice the pending tail into document order: label it, move the
    /// labelled part's ids and labels past it, and merge it into the
    /// indexes. The result equals a DFS relabel of the whole forest.
    pub(crate) fn integrate(&mut self, elements: &Elements) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let old = &*self.labelled;
        let (n0, m) = (old.occs.len(), pending.len());
        // pending children of each pending occurrence, in push order
        let mut kid_at = vec![0u32; m + 1];
        // the pending subtrees hanging off the labelled part or the root,
        // as (threshold, local id): a subtree's labels start at its
        // parent's end label; pending roots follow every labelled one
        let root_thr = 2 * n0 as u32 + 1;
        let mut tops: Vec<(u32, u32)> = Vec::new();
        for (j, o) in pending.iter().enumerate() {
            match o.parent {
                Some(p) if p.idx() >= n0 => kid_at[p.idx() - n0 + 1] += 1,
                Some(p) => tops.push((old.occs[p.idx()].end, j as u32)),
                None => tops.push((root_thr, j as u32)),
            }
        }
        for j in 0..m {
            kid_at[j + 1] += kid_at[j];
        }
        let mut kids = vec![0u32; kid_at[m] as usize];
        let mut next = kid_at.clone();
        for (j, o) in pending.iter().enumerate() {
            if let Some(p) = o.parent.filter(|p| p.idx() >= n0) {
                let slot = &mut next[p.idx() - n0];
                kids[*slot as usize] = j as u32;
                *slot += 1;
            }
        }
        tops.sort_unstable();

        // lay the subtrees out in threshold order, each by DFS: the k-th
        // laid-out occurrence takes id `pos + k` and, at threshold `thr`,
        // labels counted from `thr + 2k`; old ids from `pos` and old labels
        // from `thr` move up past everything laid out so far
        let mut laid: Vec<Occurrence> = Vec::with_capacity(m);
        let (mut ids, mut labels) = (Moves::default(), Moves::default());
        let mut stack: Vec<(u32, u32, u32)> = Vec::new(); // (local id, next kid, laid slot)
        for &(thr, top) in &tops {
            let k = laid.len() as u32;
            let o = pending[top as usize];
            let (pos, level) = match o.parent {
                None => (n0 as u32, 0),
                Some(p) => (
                    old.occs.partition_point(|d| d.start <= thr) as u32,
                    old.occs[p.idx()].level + 1,
                ),
            };
            let parent = o.parent.map(|p| ids.id(p).expect("an old parent stays"));
            let mut counter = thr + 2 * k;
            laid.push(Occurrence { start: counter, parent, level, ..o });
            stack.push((top, kid_at[top as usize], k));
            while let Some(frame) = stack.last_mut() {
                let (j, kid, slot) = *frame;
                if kid < kid_at[j as usize + 1] {
                    frame.1 += 1;
                    let child = kids[kid as usize];
                    counter += 1;
                    laid.push(Occurrence {
                        start: counter,
                        parent: Some(OccId(pos + slot)),
                        level: laid[slot as usize].level + 1,
                        ..pending[child as usize]
                    });
                    stack.push((child, kid_at[child as usize], laid.len() as u32 - 1));
                } else {
                    counter += 1;
                    laid[slot as usize].end = counter;
                    stack.pop();
                }
            }
            let total = laid.len() as u32;
            if labels.starts.last() == Some(&thr) {
                ids.delta.pop();
                labels.delta.pop();
                ids.delta.push(Some(total));
                labels.delta.push(Some(2 * total));
            } else {
                ids.push(pos, Some(total));
                labels.push(thr, Some(2 * total));
            }
        }
        assert_eq!(laid.len(), m, "integrate lost occurrences (cycle in parents?)");

        let mut adds = Vec::with_capacity(m);
        let mut from = 0;
        for (&pos, total) in ids.starts.iter().zip(&ids.delta) {
            let total = total.expect("an insertion removes nothing") as usize;
            for (k, o) in laid.iter().enumerate().take(total).skip(from) {
                let el = elements.header(o.element);
                let (node, ordinal) = (el.node, el.ordinal);
                adds.push(Laid {
                    id: OccId(pos + k as u32),
                    placement: o.placement,
                    node,
                    ordinal,
                });
            }
            from = total;
        }
        let first_parent = pending[tops[0].1 as usize].parent;
        self.labelled = Arc::new(old.edit(&ids, &labels, first_parent, &laid, &adds));
    }

    /// Remove the given occurrences and, transitively, every descendant —
    /// labelled or pending. A labelled subtree is a contiguous range of ids
    /// and of labels: the new labelled version leaves it out and moves what
    /// follows back. Pending survivors keep their order, parents remapped.
    /// Returns the number removed.
    pub(crate) fn remove(&mut self, doomed: &[OccId]) -> usize {
        let old = &*self.labelled;
        let n0 = old.occs.len();
        let subtree_end = |o: OccId| {
            let (after, end) = (o.idx() + 1, old.occs[o.idx()].end);
            (after + old.occs[after..].partition_point(|d| d.start < end)) as u32
        };
        let mut spans: Vec<(u32, u32)> =
            doomed.iter().filter(|o| o.idx() < n0).map(|&o| (o.0, subtree_end(o))).collect();
        spans.sort_unstable();
        spans.dedup_by(|inner, outer| inner.0 < outer.1); // nested in an earlier one
        let (mut ids, mut labels) = (Moves::default(), Moves::default());
        let mut total = 0u32;
        for &(lo, hi) in &spans {
            let root = &old.occs[lo as usize];
            total += hi - lo;
            ids.push(lo, None);
            ids.push(hi, Some(total.wrapping_neg()));
            labels.push(root.start, None);
            labels.push(root.end + 1, Some((2 * total).wrapping_neg()));
        }
        // the pending tail: dead when doomed or under a dead parent
        // (parents precede children); survivors get their new local index
        const DEAD: u32 = u32::MAX;
        let mut fate = vec![0u32; self.pending.len()];
        for o in doomed.iter().filter(|o| o.idx() >= n0) {
            fate[o.idx() - n0] = DEAD;
        }
        let mut kept = 0;
        for (j, o) in self.pending.iter().enumerate() {
            let dead = fate[j] == DEAD
                || match o.parent {
                    Some(p) if p.idx() >= n0 => fate[p.idx() - n0] == DEAD,
                    Some(p) => ids.id(p).is_none(),
                    None => false,
                };
            fate[j] = if dead { DEAD } else { kept };
            kept += u32::from(!dead);
        }
        let removed = total as usize + self.pending.len() - kept as usize;
        if removed == 0 {
            return 0;
        }
        if let Some(&(lo, _)) = spans.first() {
            let first_parent = old.occs[lo as usize].parent;
            self.labelled = Arc::new(old.edit(&ids, &labels, first_parent, &[], &[]));
        }
        let n0_new = n0 as u32 - total;
        let pending = std::mem::take(&mut self.pending);
        self.pending = (pending.into_iter().zip(&fate))
            .filter(|&(_, &f)| f != DEAD)
            .map(|(o, _)| Occurrence {
                parent: o.parent.map(|p| match p.idx().checked_sub(n0) {
                    Some(local) => OccId(n0_new + fate[local]),
                    None => ids.id(p).expect("a survivor's parent survives"),
                }),
                ..o
            })
            .collect();
        removed
    }

    /// The S009 tree audit: nothing pending; labels are the exact DFS
    /// counter numbering of the parent pointers, with document order equal
    /// to id order; and every index lists each occurrence exactly once,
    /// under its own key, in ascending order. Linear; allocates one stack
    /// of open ancestors.
    pub(crate) fn audit(&self, elements: &Elements) -> Result<(), String> {
        if !self.pending.is_empty() {
            return Err(format!(
                "{} occurrences were pushed but never relabelled",
                self.pending.len()
            ));
        }
        let t = &*self.labelled;
        let n = t.occs.len();
        let mut open: Vec<u32> = Vec::new();
        let mut counter = 0u32;
        let close = |a: u32, counter: &mut u32| {
            *counter += 1;
            let end = t.occs[a as usize].end;
            if end == *counter {
                Ok(())
            } else {
                Err(format!("occurrence {a} ends at {end}, but its subtree closes at {counter}"))
            }
        };
        for (i, o) in t.occs.iter().enumerate() {
            while let Some(&a) = open.last().filter(|&&a| Some(OccId(a)) != o.parent) {
                close(a, &mut counter)?;
                open.pop();
            }
            if o.parent.is_some() && open.is_empty() {
                return Err(format!("occurrence {i} does not follow its parent in document order"));
            }
            counter += 1;
            if o.start != counter || o.level as usize != open.len() {
                return Err(format!(
                    "occurrence {i} has (start {}, level {}) where the DFS gives ({counter}, {})",
                    o.start,
                    o.level,
                    open.len()
                ));
            }
            open.push(i as u32);
        }
        while let Some(a) = open.pop() {
            close(a, &mut counter)?;
        }
        // each occurrence's logical key, looked up once
        let keys: Vec<(NodeId, u32)> = (t.occs.iter())
            .map(|o| {
                let el = elements.header(o.element);
                (el.node, el.ordinal)
            })
            .collect();
        let mut listed = [0; 3];
        for (p, ids) in t.by_placement.iter().enumerate() {
            listed[0] += audit_list("placement", ids, n, |o| t.occs[o].placement.idx() == p)?;
        }
        for (node, (ids, rows)) in t.by_node.iter().zip(&t.logical).enumerate() {
            listed[1] += audit_list("node", ids, n, |o| keys[o].0.idx() == node)?;
            let canonical = match rows.offsets.as_slice() {
                [] => true,
                [first, .., last] => {
                    *first == 0
                        && *last as usize == rows.ids.len()
                        && rows.offsets.windows(2).all(|w| w[0] <= w[1])
                        && !rows.row(rows.rows() as u32 - 1).is_empty()
                }
                [_] => false,
            };
            if !canonical {
                return Err(format!("the logical rows of node {node} are malformed"));
            }
            for k in 0..rows.rows() as u32 {
                let key = (NodeId(node as u32), k);
                listed[2] += audit_list("logical", rows.row(k), n, |o| keys[o] == key)?;
            }
        }
        match listed.iter().position(|&l| l != n) {
            Some(i) => Err(format!(
                "the {} index lists {} of {n} occurrences",
                ["placement", "node", "logical"][i],
                listed[i]
            )),
            None => Ok(()),
        }
    }
}

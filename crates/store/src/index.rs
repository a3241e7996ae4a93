//! The persistent attribute value index (DESIGN.md §10).
//!
//! TIMBER never walks a document linearly: element lists arrive from index
//! lookups, so query cost tracks the *selected* data, not the stored data.
//! This module gives the executor the same property. [`ValueIndex`] holds
//! one sorted run of [`IndexEntry`] records per `(node, attr)` **column**,
//! covering every attribute of every **canonical** element (copies always
//! carry the same attribute values as their canonical, and extents list
//! canonicals only, so indexing canonicals is complete). Every probe
//! addresses exactly one column, and each run sits behind its own
//! [`Arc`], so a maintenance write against a shared index copies the one
//! column it lands in and leaves every other run shared (DESIGN.md §12.4).
//! Concatenated in `(node, attr)` order the runs are the index's global
//! posting order — the row order of the paged postings segment.
//!
//! Keying by element rather than occurrence makes the index invariant under
//! the operations that churn occurrence ids: `relabel_color` remaps every
//! `OccId` after a structural update without touching this index. The
//! maintenance points are attribute writes, element inserts, and logical
//! deletes, all of which funnel through `Database::write_attr` /
//! `insert_element` / `remove_element_occurrences` — a delete retracts the
//! instance's postings along with its extent entry, so index probes never
//! see ghost elements that scans no longer return.
//!
//! Lookups are two `partition_point` binary searches within the column
//! (equality probes) or a bounded group walk (range predicates, which must
//! compare stored keys to the constant in *value* order — see
//! `Interner::key_value_cmp` — because `ValueKey`'s derived order
//! interleaves variants differently than `Value::total_cmp`).

use crate::database::ElementId;
use crate::value::ValueKey;
use colorist_er::NodeId;
use std::ops::Range;
use std::sync::Arc;

/// One posting of the value index: canonical `element` (of ER type `node`)
/// has `key` as the join key of its attribute `attr`.
///
/// The derived lexicographic order — node, then attribute, then key, then
/// element — is the index's sort order, so an entry doubles as its own
/// binary-search probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexEntry {
    /// The ER node type (extents are per-node, and so are index ranges).
    pub node: NodeId,
    /// Attribute position in the element's stored attribute vector
    /// (declared attributes first, then idref appendix values).
    pub attr: u32,
    /// The `Copy` join key of the stored value (text interned).
    pub key: ValueKey,
    /// The canonical element holding the value.
    pub element: ElementId,
}

/// Sorted per-`(node, attr)` value index over canonical elements.
///
/// Built once in `DatabaseBuilder::finish`, a run per attribute column of
/// the element store, and maintained by the database's
/// write paths; a maintenance write costs one binary search plus an `O(n)`
/// shift within the one column it touches (TIMBER charges index
/// maintenance to update cost the same way).
#[derive(Debug, Clone, Default)]
pub struct ValueIndex {
    /// `[node][attr]` posting runs, each sorted by key then element.
    columns: Vec<Vec<Arc<Vec<IndexEntry>>>>,
}

/// Content equality: a column that was never created and one whose
/// postings were all retracted are the same (empty) column.
impl PartialEq for ValueIndex {
    fn eq(&self, other: &Self) -> bool {
        let nodes = self.columns.len().max(other.columns.len());
        (0..nodes).all(|n| {
            let attrs = |ix: &ValueIndex| ix.columns.get(n).map_or(0, Vec::len);
            let node = NodeId(n as u32);
            (0..attrs(self).max(attrs(other)))
                .all(|a| self.of_attr(node, a) == other.of_attr(node, a))
        })
    }
}

impl Eq for ValueIndex {}

impl ValueIndex {
    /// Rebuild an index from already-sorted postings, as the paged storage
    /// loader decodes them (the postings segment stores entries in index
    /// order).
    pub(crate) fn from_entries(entries: Vec<IndexEntry>) -> ValueIndex {
        debug_assert!(entries.windows(2).all(|w| w[0] <= w[1]), "postings must arrive sorted");
        let mut index = ValueIndex::default();
        for run in entries.chunk_by(|a, b| (a.node, a.attr) == (b.node, b.attr)) {
            index.set_run(run[0].node, run[0].attr as usize, run.to_vec());
        }
        index
    }

    /// Install the whole posting run of `(node, attr)`, sorted by key then
    /// element — how a build and a load lay the index down, a column at a
    /// time.
    pub(crate) fn set_run(&mut self, node: NodeId, attr: usize, run: Vec<IndexEntry>) {
        debug_assert!(run.windows(2).all(|w| w[0] < w[1]), "a run is sorted and distinct");
        *self.column_mut(node, attr) = run;
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.runs().map(|r| r.len()).sum()
    }

    /// Every posting run, in `(node, attr)` order: concatenated, the row
    /// order of the paged postings segment.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &Arc<Vec<IndexEntry>>> {
        self.columns.iter().flatten()
    }

    /// All postings for `(node, attr)`, sorted by key then element.
    #[inline]
    pub fn of_attr(&self, node: NodeId, attr: usize) -> &[IndexEntry] {
        self.columns.get(node.idx()).and_then(|c| c.get(attr)).map_or(&[], |run| run.as_slice())
    }

    /// The postings matching an equality probe, sorted by element (which is
    /// extent order — canonical ids ascend within a node's extent).
    #[inline]
    pub fn matching(&self, node: NodeId, attr: usize, key: ValueKey) -> &[IndexEntry] {
        let run = self.of_attr(node, attr);
        let lo = run.partition_point(|e| e.key < key);
        let hi = run.partition_point(|e| e.key <= key);
        &run[lo..hi]
    }

    /// Walk the distinct-key groups of `(node, attr)` in key order — the
    /// range-predicate path: the caller orders each group's key against the
    /// comparison constant (`Interner::key_value_cmp`) and takes whole
    /// groups, paying one comparison per distinct stored value instead of
    /// one per element.
    #[inline]
    pub fn groups(&self, node: NodeId, attr: usize) -> Groups<'_> {
        Groups { rest: self.of_attr(node, attr) }
    }

    /// Position of `slice`'s first posting in the global posting order.
    /// `slice` must be a non-empty sub-slice of one column's run, as
    /// `matching`/`of_attr` return them.
    pub(crate) fn row_of(&self, slice: &[IndexEntry]) -> Option<u64> {
        let first = slice.first()?;
        let run = self.of_attr(first.node, first.attr as usize);
        let within = (slice.as_ptr() as usize).checked_sub(run.as_ptr() as usize)?
            / std::mem::size_of::<IndexEntry>();
        if within + slice.len() > run.len() {
            return None; // not a slice of this index
        }
        let (node, attr) = (first.node.idx(), first.attr as usize);
        let earlier = self.columns[..node].iter().flatten().chain(&self.columns[node][..attr]);
        let before: usize = earlier.map(|r| r.len()).sum();
        Some((before + within) as u64)
    }

    /// The ascending row ranges whose postings may differ from `old`'s —
    /// skipping shared runs by pointer, trimming common prefix and suffix —
    /// and the row from which all may have moved, if a run changed length.
    pub(crate) fn changed_since(&self, old: &ValueIndex) -> (Vec<Range<u64>>, Option<u64>) {
        let (mut ranges, mut row) = (Vec::new(), 0);
        for n in 0..self.columns.len().max(old.columns.len()) {
            let attrs = |ix: &ValueIndex| ix.columns.get(n).map_or(0, Vec::len);
            for a in 0..attrs(self).max(attrs(old)) {
                let node = NodeId(n as u32);
                let (new, was) = (self.of_attr(node, a), old.of_attr(node, a));
                if !std::ptr::eq(new, was) {
                    let prefix = new.iter().zip(was).take_while(|(x, y)| x == y).count();
                    if new.len() != was.len() {
                        return (ranges, Some(row + prefix as u64));
                    }
                    let same = new.iter().rev().zip(was.iter().rev()).take_while(|(x, y)| x == y);
                    let suffix = same.count();
                    if prefix < new.len() {
                        ranges.push(row + prefix as u64..row + (new.len() - suffix) as u64);
                    }
                }
                row += new.len() as u64;
            }
        }
        (ranges, None)
    }

    /// The run of `(node, attr)` for writing: created if the column is new,
    /// copied first if a clone of the index still shares it.
    fn column_mut(&mut self, node: NodeId, attr: usize) -> &mut Vec<IndexEntry> {
        if self.columns.len() <= node.idx() {
            self.columns.resize(node.idx() + 1, Vec::new());
        }
        let cols = &mut self.columns[node.idx()];
        if cols.len() <= attr {
            cols.resize(attr + 1, Arc::default());
        }
        Arc::make_mut(&mut cols[attr])
    }

    /// Add a posting (element insert maintenance). No-op if the exact
    /// posting is already present.
    pub fn insert(&mut self, entry: IndexEntry) {
        let run = self.column_mut(entry.node, entry.attr as usize);
        if let Err(pos) = run.binary_search(&entry) {
            run.insert(pos, entry);
        }
    }

    /// Drop a posting (the old-value half of an attribute overwrite).
    /// No-op if absent.
    pub fn remove(&mut self, entry: IndexEntry) {
        if let Ok(pos) = self.of_attr(entry.node, entry.attr as usize).binary_search(&entry) {
            self.column_mut(entry.node, entry.attr as usize).remove(pos);
        }
    }

    /// Attribute-overwrite maintenance: move `element`'s posting for
    /// `(node, attr)` from `old_key` to `new_key`.
    pub fn reindex(
        &mut self,
        node: NodeId,
        attr: usize,
        element: ElementId,
        old_key: ValueKey,
        new_key: ValueKey,
    ) {
        if old_key == new_key {
            return;
        }
        self.remove(IndexEntry { node, attr: attr as u32, key: old_key, element });
        self.insert(IndexEntry { node, attr: attr as u32, key: new_key, element });
    }
}

/// Iterator over the distinct-key groups of one `(node, attr)` index range
/// (see [`ValueIndex::groups`]).
#[derive(Debug)]
pub struct Groups<'a> {
    rest: &'a [IndexEntry],
}

impl<'a> Iterator for Groups<'a> {
    type Item = (ValueKey, &'a [IndexEntry]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let first = self.rest.first()?;
        let n = self.rest.iter().take_while(|e| e.key == first.key).count();
        let (group, rest) = self.rest.split_at(n);
        self.rest = rest;
        Some((first.key, group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{Database, DatabaseBuilder};
    use crate::value::{Interner, Value};
    use colorist_er::{Attribute, ErDiagram, ErGraph};
    use colorist_mct::ColorId;

    /// Linear-scan reference lookup (test oracle for the binary-search
    /// paths): elements of `node` whose `attr` value keys equal `key(v)`.
    fn matching_linear(
        index: &ValueIndex,
        interner: &Interner,
        node: NodeId,
        attr: usize,
        v: &Value,
    ) -> Vec<ElementId> {
        let key = interner.try_key(v);
        index
            .runs()
            .flat_map(|r| r.iter())
            .filter(|e| e.node == node && e.attr == attr as u32 && Some(e.key) == key)
            .map(|e| e.element)
            .collect()
    }

    /// Two-entity database with mixed int/text attributes and a copy, so
    /// the canonical-only rule is exercised.
    fn setup() -> (ErGraph, Database) {
        let mut d = ErDiagram::new("t");
        d.add_entity("a", vec![Attribute::key("id"), Attribute::text("tag")]).unwrap();
        d.add_entity("b", vec![Attribute::key("id")]).unwrap();
        d.add_rel_1m("r", "a", "b").unwrap();
        let g = ErGraph::from_diagram(&d).unwrap();
        let s = colorist_core::design(&g, colorist_core::Strategy::En).unwrap();
        let c = ColorId(0);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let pa = s.placements_of_in_color(a, c)[0];
        let pb = s.placements_of_in_color(b, c)[0];
        let mut bd = DatabaseBuilder::new(s, g.node_count());
        for i in 0..6i64 {
            let e = bd.add_canonical(a, &[Value::Int(i), Value::Text(format!("tag_{}", i % 3))]);
            bd.add_occurrence(c, e, pa, None);
        }
        for i in 0..4i64 {
            let e = bd.add_canonical(b, &[Value::Int(i % 2)]);
            bd.add_occurrence(c, e, pb, None);
        }
        // one copy: must not add postings
        let first_a = ElementId(0);
        bd.add_copy(first_a);
        (g, bd.finish())
    }

    #[test]
    fn build_covers_canonicals_only_and_probes_match_linear() {
        let (g, db) = setup();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let idx = db.value_index();
        // 6 a-elements × 2 attrs + 4 b-elements × 1 attr; the copy adds none
        assert_eq!(idx.len(), 16);
        for (node, attr, v) in [
            (a, 0, Value::Int(3)),
            (a, 1, Value::Text("tag_1".into())),
            (b, 0, Value::Int(1)),
            (b, 0, Value::Int(9)), // matches nothing
            (a, 1, Value::Text("never-stored".into())),
        ] {
            let fast: Vec<ElementId> = match db.try_join_key(&v) {
                Some(k) => idx.matching(node, attr, k).iter().map(|e| e.element).collect(),
                None => Vec::new(),
            };
            assert_eq!(fast, matching_linear(idx, db.interner(), node, attr, &v), "{v}");
        }
        // probe results agree with a predicate walk over the extent
        let hits: Vec<ElementId> = idx
            .matching(a, 1, db.join_key(&Value::Text("tag_2".into())))
            .iter()
            .map(|e| e.element)
            .collect();
        let walked: Vec<ElementId> = db
            .extent(a)
            .iter()
            .copied()
            .filter(|&e| db.element(e).attrs[1].matches(&Value::Text("tag_2".into())))
            .collect();
        assert_eq!(hits, walked);
    }

    #[test]
    fn groups_walk_in_key_order_and_partition_the_range() {
        let (g, db) = setup();
        let a = g.node_by_name("a").unwrap();
        let idx = db.value_index();
        let mut total = 0;
        let mut prev: Option<ValueKey> = None;
        for (key, group) in idx.groups(a, 0) {
            assert!(prev.is_none_or(|p| p < key), "keys ascend");
            assert!(group.iter().all(|e| e.key == key));
            total += group.len();
            prev = Some(key);
        }
        assert_eq!(total, idx.of_attr(a, 0).len());
        assert_eq!(idx.groups(a, 0).count(), 6, "ids are unique");
        assert_eq!(idx.groups(a, 1).count(), 3, "three tag values");
    }

    #[test]
    fn write_attr_moves_postings_and_insert_element_adds_them() {
        let (g, db) = setup();
        let mut db = db;
        let a = g.node_by_name("a").unwrap();
        let e0 = db.extent(a)[0];
        let old_hits = db.value_index().matching(a, 1, db.join_key(&Value::Text("tag_0".into())));
        assert!(old_hits.iter().any(|en| en.element == e0));
        db.write_attr(e0, 1, Value::Text("fresh".into()));
        let idx = db.value_index();
        assert!(
            !idx.matching(a, 1, db.join_key(&Value::Text("tag_0".into())))
                .iter()
                .any(|en| en.element == e0),
            "old posting removed"
        );
        let fresh = idx.matching(a, 1, db.join_key(&Value::Text("fresh".into())));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].element, e0);
        assert_eq!(idx.len(), 16, "a move keeps the posting count");

        let e_new = db.insert_element(a, vec![Value::Int(99), Value::Text("tag_0".into())]);
        let idx = db.value_index();
        assert_eq!(idx.len(), 18, "two new postings");
        assert!(idx
            .matching(a, 0, db.join_key(&Value::Int(99)))
            .iter()
            .any(|en| en.element == e_new));
    }

    #[test]
    fn writes_to_copies_leave_the_index_alone() {
        let (g, db) = setup();
        let mut db = db;
        let a = g.node_by_name("a").unwrap();
        let copy = ElementId(db.element_count() as u32 - 1);
        assert!(db.element(copy).is_copy(copy), "setup appended a copy last");
        let before = db.value_index().len();
        db.write_attr(copy, 1, Value::Text("copy-only".into()));
        assert_eq!(db.value_index().len(), before);
        assert!(
            db.value_index()
                .matching(a, 1, db.join_key(&Value::Text("copy-only".into())))
                .is_empty(),
            "copies contribute no postings"
        );
    }
}

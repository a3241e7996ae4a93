//! Statistics catalog — the estimation substrate of the cost-based planner
//! (DESIGN.md §11).
//!
//! Not to be confused with [`crate::stats`]: **this** module is the
//! optimizer's catalog, maintained incrementally at the mutation choke
//! points and consulted at plan time, while `stats` is the one-shot
//! Table-1 *storage accounting* (elements, attributes, content nodes,
//! data bytes) computed for reporting only.
//!
//! Three families of summaries, all deterministic functions of the stored
//! data:
//!
//! * **Column statistics** — per `(node, attr)`: row count, distinct-key
//!   count, and an equi-depth histogram over the attribute's join keys,
//!   computed from the persistent value index (the index's distinct-key
//!   groups are exactly the histogram's raw material). Bucket boundaries
//!   always align with group boundaries, so one stored key never spans two
//!   buckets — which bounds every estimate's absolute error by the deepest
//!   bucket (see [`Statistics::max_bucket_rows`], the bound the property
//!   tests assert).
//! * **Extent cardinalities** — canonical instances per ER node type.
//! * **Parent-fanout summaries** — occurrence counts per schema placement
//!   (the denominator/numerator pairs behind average child fanout along a
//!   placement edge), counted at build and moved by delta as occurrences
//!   come and go.
//!
//! Maintenance rides the same choke points as the value index:
//! `Database::write_attr`, `insert_element` and
//! `remove_element_occurrences` mark the columns they change stale and a
//! commit point rebuilds each stale column once
//! (`Database::refresh_statistics`); `Database::push_occurrence` and
//! `remove_occurrences` move the placement counts. A rebuild recomputes
//! the column from the index, so the catalog is always byte-identical to a
//! from-scratch build — an invariant the tests and the S009 audit pin.
//!
//! Every summary carries a **version** ([`Statistics::version`], keyed by
//! [`StatKey`]) that moves whenever the summary is rebuilt. A cached plan
//! records the versions of exactly the summaries it was costed from and
//! stays valid while they stand still (DESIGN.md §15.4).
//!
//! Histogram keys are ordered by **value order** (the order
//! `Interner::key_value_cmp` answers range predicates in), not by
//! [`ValueKey`]'s derived `Ord`, whose variant interleaving differs; see
//! [`key_order`].

use crate::index::ValueIndex;
use crate::value::{Interner, ValueKey};
use colorist_er::NodeId;
use colorist_mct::{ColorId, PlacementId};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Number of equi-depth buckets per column histogram. Small enough that a
/// catalog refresh is a rounding error next to the index maintenance it
/// rides on; the estimation error bound is one bucket's depth, i.e. about
/// `rows / HISTOGRAM_BUCKETS` plus the largest single-key group.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Predicate comparison kinds the estimator understands (mirrors the query
/// layer's operators without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// Equality probe.
    Eq,
    /// Strictly-less range.
    Lt,
    /// Strictly-greater range.
    Gt,
}

/// An estimated fraction of rows, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selectivity(pub f64);

/// An estimated row count (fractional: estimates are expectations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cardinality(pub f64);

impl Cardinality {
    /// Round to a whole-row count.
    pub fn rows(self) -> u64 {
        self.0.max(0.0).round() as u64
    }
}

/// One equi-depth histogram bucket: a contiguous run of distinct-key groups
/// in value order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Smallest key in the bucket (value order).
    pub lo: ValueKey,
    /// Largest key in the bucket (value order).
    pub hi: ValueKey,
    /// Rows (postings) in the bucket.
    pub rows: u64,
    /// Distinct keys in the bucket.
    pub distinct: u64,
}

/// Statistics of one `(node, attr)` column.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ColumnStats {
    /// Total postings (canonical elements carrying the attribute).
    pub rows: u64,
    /// Distinct stored join keys.
    pub distinct: u64,
    /// Equi-depth buckets in value order (empty iff `rows == 0`).
    pub buckets: Vec<Bucket>,
}

impl ColumnStats {
    /// Build from the column's index postings (sorted by key in the index's
    /// derived order; regrouped and re-sorted into value order here).
    fn build(postings: &[crate::index::IndexEntry], interner: &Interner) -> ColumnStats {
        // distinct-key groups (postings arrive grouped by derived key order)
        let mut groups: Vec<(ValueKey, u64)> = Vec::new();
        for e in postings {
            match groups.last_mut() {
                Some((k, n)) if *k == e.key => *n += 1,
                _ => groups.push((e.key, 1)),
            }
        }
        groups.sort_by(|a, b| key_order(interner, a.0, b.0));
        let rows: u64 = groups.iter().map(|g| g.1).sum();
        let distinct = groups.len() as u64;
        let target = rows.div_ceil(HISTOGRAM_BUCKETS as u64).max(1);
        let mut buckets = Vec::new();
        let mut cur: Option<Bucket> = None;
        for &(k, n) in &groups {
            match cur.as_mut() {
                Some(b) => {
                    b.hi = k;
                    b.rows += n;
                    b.distinct += 1;
                }
                None => cur = Some(Bucket { lo: k, hi: k, rows: n, distinct: 1 }),
            }
            if cur.as_ref().is_some_and(|b| b.rows >= target) {
                buckets.push(cur.take().expect("bucket present"));
            }
        }
        buckets.extend(cur);
        ColumnStats { rows, distinct, buckets }
    }

    /// Depth of the deepest bucket — the absolute error bound of every
    /// estimate over this column (a distinct key never spans buckets, so a
    /// range misestimates at most the one straddling bucket, and an
    /// equality probe at most the bucket holding its key).
    pub fn max_bucket_rows(&self) -> u64 {
        self.buckets.iter().map(|b| b.rows).max().unwrap_or(0)
    }

    /// Estimated matching rows for a predicate, given the ordering of each
    /// stored key against the comparison constant (`cmp(key)` must return
    /// `key.cmp(constant)` in value order, as `Interner::key_value_cmp`
    /// does).
    pub fn estimate(
        &self,
        kind: CmpKind,
        mut cmp: impl FnMut(ValueKey) -> Ordering,
    ) -> Cardinality {
        let mut est = 0.0;
        for b in &self.buckets {
            let (lo, hi) = (cmp(b.lo), cmp(b.hi));
            match kind {
                CmpKind::Eq => {
                    // the bucket contains the constant: uniform over its
                    // distinct keys
                    if lo != Ordering::Greater && hi != Ordering::Less {
                        est += b.rows as f64 / b.distinct.max(1) as f64;
                    }
                }
                CmpKind::Lt => {
                    if hi == Ordering::Less {
                        est += b.rows as f64; // bucket entirely below
                    } else if lo == Ordering::Less {
                        est += b.rows as f64 / 2.0; // straddles: half-bucket
                    }
                }
                CmpKind::Gt => {
                    if lo == Ordering::Greater {
                        est += b.rows as f64;
                    } else if hi == Ordering::Greater {
                        est += b.rows as f64 / 2.0;
                    }
                }
            }
        }
        Cardinality(est)
    }
}

/// One independently versioned summary of the catalog — what a cached
/// plan can depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StatKey {
    /// The histogram and distinct count of one `(node, attr)` column.
    Column(NodeId, usize),
    /// The extent cardinality of one node.
    Extent(NodeId),
    /// The label surface of one color: its occurrence lists and the
    /// placement-occurrence counts behind the fanout summaries.
    Color(ColorId),
}

/// The per-database statistics catalog.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    /// `[node][attr]` column statistics.
    columns: Vec<Vec<ColumnStats>>,
    /// Canonical instances per ER node type.
    extent_rows: Vec<u64>,
    /// Occurrences per schema placement (all colors).
    placement_occs: Vec<u64>,
    /// How many times each summary has been rebuilt (absent = never).
    /// Not part of the catalog's *content*: equality (and hence
    /// `Database::same_state`) ignores it, because two maintenance
    /// histories that converge to the same summaries are the same catalog.
    versions: BTreeMap<StatKey, u64>,
}

/// Content equality: the summaries, not the maintenance history. Two
/// catalogs reached by different numbers of refreshes (e.g. either order
/// of two commuting batches, or a from-scratch build vs. an incrementally
/// maintained one) compare equal whenever their summaries agree.
impl PartialEq for Statistics {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns
            && self.extent_rows == other.extent_rows
            && self.placement_occs == other.placement_occs
    }
}

impl Statistics {
    /// Build every summary from scratch. `arity` gives the stored attribute
    /// count per node (declared attributes plus idref appendix).
    pub fn build(
        node_count: usize,
        arity: impl Fn(usize) -> usize,
        extent_rows: Vec<u64>,
        placement_occs: Vec<u64>,
        index: &ValueIndex,
        interner: &Interner,
    ) -> Statistics {
        let columns = (0..node_count)
            .map(|n| {
                let node = NodeId(n as u32);
                (0..arity(n))
                    .map(|a| ColumnStats::build(index.of_attr(node, a), interner))
                    .collect()
            })
            .collect();
        Statistics { columns, extent_rows, placement_occs, versions: BTreeMap::new() }
    }

    /// How many times the summary behind `key` has been rebuilt since
    /// [`Statistics::build`] (0 = never). Within one database's history a
    /// summary whose version has not moved has not changed.
    pub fn version(&self, key: StatKey) -> u64 {
        self.versions.get(&key).copied().unwrap_or(0)
    }

    fn bump(&mut self, key: StatKey) {
        *self.versions.entry(key).or_default() += 1;
    }

    /// Recompute one column from the index (attribute-write / element-insert
    /// maintenance). Grows the node's column vector if the attribute is new.
    pub fn refresh_column(
        &mut self,
        node: NodeId,
        attr: usize,
        index: &ValueIndex,
        interner: &Interner,
    ) {
        if self.columns.len() <= node.idx() {
            self.columns.resize(node.idx() + 1, Vec::new());
        }
        let cols = &mut self.columns[node.idx()];
        if cols.len() <= attr {
            cols.resize(attr + 1, ColumnStats::default());
        }
        cols[attr] = ColumnStats::build(index.of_attr(node, attr), interner);
        self.bump(StatKey::Column(node, attr));
    }

    /// Record one new canonical instance (element-insert maintenance).
    pub fn note_insert(&mut self, node: NodeId) {
        if self.extent_rows.len() <= node.idx() {
            self.extent_rows.resize(node.idx() + 1, 0);
        }
        self.extent_rows[node.idx()] += 1;
        self.bump(StatKey::Extent(node));
    }

    /// Record one deleted canonical instance (element-delete maintenance) —
    /// the retraction mirror of [`Statistics::note_insert`].
    pub fn note_delete(&mut self, node: NodeId) {
        if let Some(rows) = self.extent_rows.get_mut(node.idx()) {
            *rows = rows.saturating_sub(1);
        }
        self.bump(StatKey::Extent(node));
    }

    /// Count one occurrence added at (or removed from) placement `p`
    /// (structural-write maintenance, by delta). The version moves when
    /// the color is relabelled.
    pub fn note_occurrence(&mut self, p: PlacementId, added: bool) {
        let count = &mut self.placement_occs[p.idx()];
        *count = if added { *count + 1 } else { *count - 1 };
    }

    /// Record that `color` was relabelled: its label surface — occurrence
    /// lists and placement counts — may have changed.
    pub fn note_relabel(&mut self, color: ColorId) {
        self.bump(StatKey::Color(color));
    }

    /// Canonical instances of an ER node type.
    pub fn extent_rows(&self, node: NodeId) -> u64 {
        self.extent_rows.get(node.idx()).copied().unwrap_or(0)
    }

    /// Statistics of one column, if the node stores that attribute.
    pub fn column(&self, node: NodeId, attr: usize) -> Option<&ColumnStats> {
        self.columns.get(node.idx()).and_then(|c| c.get(attr))
    }

    /// Occurrences instantiating a placement (all colors).
    pub fn placement_occs(&self, p: PlacementId) -> u64 {
        self.placement_occs.get(p.idx()).copied().unwrap_or(0)
    }

    /// Average children at `child` per parent occurrence at `parent` — the
    /// parent-fanout summary (each child occurrence has exactly one parent
    /// occurrence, so the ratio of counts is the mean fanout).
    pub fn fanout(&self, parent: PlacementId, child: PlacementId) -> f64 {
        let p = self.placement_occs(parent);
        if p == 0 {
            return 0.0;
        }
        self.placement_occs(child) as f64 / p as f64
    }

    /// The absolute error bound of predicate estimates on a column (one
    /// bucket's depth; 0 for an unknown column, whose estimate is exactly 0).
    pub fn max_bucket_rows(&self, node: NodeId, attr: usize) -> u64 {
        self.column(node, attr).map_or(0, ColumnStats::max_bucket_rows)
    }

    /// Estimated rows of `node` matching a predicate on `attr`, with
    /// `cmp(key)` ordering each stored key against the comparison constant
    /// in value order.
    pub fn estimate_matches(
        &self,
        node: NodeId,
        attr: usize,
        kind: CmpKind,
        cmp: impl FnMut(ValueKey) -> Ordering,
    ) -> Cardinality {
        self.column(node, attr).map_or(Cardinality(0.0), |c| c.estimate(kind, cmp))
    }

    /// Estimated selectivity (fraction of the column's rows) of a predicate.
    pub fn selectivity(
        &self,
        node: NodeId,
        attr: usize,
        kind: CmpKind,
        cmp: impl FnMut(ValueKey) -> Ordering,
    ) -> Selectivity {
        match self.column(node, attr) {
            Some(c) if c.rows > 0 => {
                Selectivity((c.estimate(kind, cmp).0 / c.rows as f64).clamp(0.0, 1.0))
            }
            _ => Selectivity(0.0),
        }
    }
}

/// Order two stored join keys in **value order** — the order in which
/// `Interner::key_value_cmp` answers range predicates: numeric variants
/// promote to `f64` against one another, text resolves through the symbol
/// table and sorts greatest. This differs from `ValueKey`'s derived `Ord`
/// (all `Num` before all `Bits`, raw bit order among floats), which the
/// index uses for binary-search layout but which does not match value
/// comparisons. Ties (distinct keys comparing equal, impossible for keys of
/// one column) fall back to the derived order so the sort stays total.
pub fn key_order(interner: &Interner, a: ValueKey, b: ValueKey) -> Ordering {
    use ValueKey::*;
    let sem = match (a, b) {
        (Num(x), Num(y)) => x.cmp(&y),
        (Num(x), Bits(y)) => (x as f64).total_cmp(&f64::from_bits(y)),
        (Bits(x), Num(y)) => f64::from_bits(x).total_cmp(&(y as f64)),
        (Bits(x), Bits(y)) => f64::from_bits(x).total_cmp(&f64::from_bits(y)),
        (Sym(x), Sym(y)) => interner.resolve(x).cmp(interner.resolve(y)),
        (Num(_) | Bits(_), Sym(_)) => Ordering::Less,
        (Sym(_), Num(_) | Bits(_)) => Ordering::Greater,
    };
    sem.then_with(|| a.cmp(&b))
}

/// Cost-model crossover between the stack-merge and gallop structural
/// kernels: gallop wins when the driving (small) side's binary searches —
/// about `⌈log₂ large⌉` probes each — are estimated below walking the large
/// side end to end, i.e. `small · ⌈log₂ large⌉ < large`. This replaces the
/// fixed [`crate::join::GALLOP_RATIO`] ratio under cost-model dispatch; the
/// ratio remains the statistics-free fallback (heuristic dispatch).
pub fn gallop_cost_wins(small: usize, large: usize) -> bool {
    small.saturating_mul(log2_ceil(large)) < large
}

/// `⌈log₂ n⌉` (0 for `n ≤ 1`).
fn log2_ceil(n: usize) -> usize {
    (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexEntry;
    use crate::value::Value;
    use crate::ElementId;

    fn postings(keys: &[ValueKey]) -> Vec<IndexEntry> {
        let node = NodeId(0);
        let mut v: Vec<IndexEntry> = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| IndexEntry { node, attr: 0, key, element: ElementId(i as u32) })
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn equi_depth_buckets_align_to_groups() {
        // 64 rows over 8 distinct keys, skewed: key 0 has 57 rows
        let mut keys = vec![ValueKey::Num(0); 57];
        for k in 1..8 {
            keys.push(ValueKey::Num(k));
        }
        let it = Interner::default();
        let c = ColumnStats::build(&postings(&keys), &it);
        assert_eq!(c.rows, 64);
        assert_eq!(c.distinct, 8);
        // the skewed group lands whole in one bucket
        assert!(c.buckets.iter().any(|b| b.rows >= 57));
        let total: u64 = c.buckets.iter().map(|b| b.rows).sum();
        assert_eq!(total, 64);
        let distinct: u64 = c.buckets.iter().map(|b| b.distinct).sum();
        assert_eq!(distinct, 8);
        // buckets are disjoint and ordered
        for w in c.buckets.windows(2) {
            assert_eq!(key_order(&it, w[0].hi, w[1].lo), Ordering::Less);
        }
    }

    #[test]
    fn estimates_within_one_bucket_of_truth() {
        // uniform-ish: 200 rows over 50 keys
        let keys: Vec<ValueKey> = (0..200).map(|i| ValueKey::Num(i % 50)).collect();
        let it = Interner::default();
        let c = ColumnStats::build(&postings(&keys), &it);
        let bound = c.max_bucket_rows() as f64;
        for v in [-1i64, 0, 7, 25, 49, 50, 200] {
            let truth_lt = keys.iter().filter(|k| matches!(k, ValueKey::Num(x) if *x < v)).count();
            let truth_eq = keys.iter().filter(|k| matches!(k, ValueKey::Num(x) if *x == v)).count();
            let cv = Value::Int(v);
            let est_lt = c.estimate(CmpKind::Lt, |k| it.key_value_cmp(k, &cv));
            let est_eq = c.estimate(CmpKind::Eq, |k| it.key_value_cmp(k, &cv));
            assert!((est_lt.0 - truth_lt as f64).abs() <= bound, "lt {v}");
            assert!((est_eq.0 - truth_eq as f64).abs() <= bound, "eq {v}");
        }
    }

    #[test]
    fn value_order_differs_from_derived_order_on_negative_floats() {
        let it = Interner::default();
        let neg = ValueKey::Bits((-2.5f64).to_bits());
        let pos = ValueKey::Bits(2.5f64.to_bits());
        let int = ValueKey::Num(1);
        // derived order: Num < Bits, and negative floats have the high bit
        assert!(int < neg && pos < neg);
        // value order: -2.5 < 1 < 2.5
        assert_eq!(key_order(&it, neg, int), Ordering::Less);
        assert_eq!(key_order(&it, int, pos), Ordering::Less);
    }

    #[test]
    fn gallop_crossover_tracks_the_log_model() {
        // the kernels-test sizes: 1:160 gallops, 40:160 merges
        assert!(gallop_cost_wins(1, 160));
        assert!(!gallop_cost_wins(40, 160));
        // more aggressive than the fixed ratio where the log is small
        assert!(gallop_cost_wins(19, 160)); // 19·16 ≥ 160 but 19·8 < 160
        assert!(!gallop_cost_wins(0, 0));
        assert!(gallop_cost_wins(0, 1));
    }

    #[test]
    fn versions_move_per_summary_and_are_not_content() {
        let mut a = Statistics::default();
        let mut b = Statistics::default();
        let (n0, n1) = (NodeId(0), NodeId(1));
        assert_eq!(a.version(StatKey::Extent(n0)), 0);
        a.note_insert(n0);
        a.note_delete(n0);
        a.note_relabel(ColorId(0));
        a.refresh_column(n0, 1, &ValueIndex::default(), &Interner::default());
        // each rebuild moves exactly its own summary's version
        assert_eq!(a.version(StatKey::Extent(n0)), 2);
        assert_eq!(a.version(StatKey::Color(ColorId(0))), 1);
        assert_eq!(a.version(StatKey::Column(n0, 1)), 1);
        for untouched in [StatKey::Extent(n1), StatKey::Color(ColorId(1)), StatKey::Column(n0, 0)] {
            assert_eq!(a.version(untouched), 0, "{untouched:?}");
        }
        // same content reached through a shorter maintenance history:
        // equal despite the diverged versions — same_state must not see them
        b.note_insert(n0);
        b.note_delete(n0);
        b.refresh_column(n0, 1, &ValueIndex::default(), &Interner::default());
        assert_eq!(a, b);
        assert_ne!(a.version(StatKey::Color(ColorId(0))), b.version(StatKey::Color(ColorId(0))));
    }

    #[test]
    fn selectivity_clamps_and_handles_unknown_columns() {
        let s = Statistics::default();
        let n = NodeId(3);
        assert_eq!(s.extent_rows(n), 0);
        assert!(s.column(n, 0).is_none());
        let est = s.estimate_matches(n, 0, CmpKind::Eq, |_| Ordering::Equal);
        assert_eq!(est.rows(), 0);
        let sel = s.selectivity(n, 0, CmpKind::Eq, |_| Ordering::Equal);
        assert_eq!(sel.0, 0.0);
    }
}

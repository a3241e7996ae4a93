//! The join kernels behind the store's read interface (`crate::read`).
//!
//! **Structural semi-join** (after Al-Khalifa et al., ICDE 2002): given
//! ancestor candidates and descendant candidates in one color, both in
//! document order, keep the side that has a containment partner on the
//! other — a single stack-based merge, `O(|anc| + |desc|)`, no hashing, no
//! value materialization, and never a pair list: the executor only ever
//! semi-joins.
//!
//! **Value join**: the id/idref fallback for associations a schema does not
//! capture structurally. Builds a hash table over one side's attribute
//! values and probes with the other side — every probe materializes and
//! hashes attribute values, which is the cost asymmetry the paper's whole
//! design space is about (and which `benches/structural_vs_value.rs`
//! measures). The reader's indexed idref probes replace it except under
//! the reference kernels.
//!
//! The structural semi-join comes in two interchangeable implementations:
//! the stack **merge**, which walks both inputs end to end, and a
//! **gallop** variant that binary-searches past non-joining runs when one
//! side is much smaller — the small side drives, and each of its
//! occurrences either probes the large side's `start`-sorted window
//! (ancestors driving) or, keeping descendants, climbs its parent chain
//! and membership-tests the ancestor list (descendants driving).
//! [`structural_semi_join`] dispatches between them per the database's
//! `KernelDispatch`: by the cost model's crossover [`gallop_cost_wins`] by
//! default, by the fixed [`GALLOP_RATIO`] under `Ratio`, and never to
//! gallop under `Reference`. Both produce byte-identical output; only the
//! deterministic cost counters differ (gallop charges what it examined and
//! credits `elements_skipped` with what it leapt over).
//!
//! An **ascent** (the ancestors exactly `k` edges above some sources) has
//! a third kernel, the **parent walk** ([`parent_walk`]): `k` parent hops
//! per source and a sort, never reading the ancestor list. It takes every
//! ascent on which it reads less ([`walk_wins`]), so a gallop that keeps
//! ancestors always lets them drive.

use crate::database::{ColorTree, Database, ElementId, OccId, Occurrence};
use crate::metrics::Metrics;
use crate::value::ValueKey;
use colorist_mct::ColorId;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io;

/// What a value join compares on one side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrRef {
    /// The element's implicit id (the logical ordinal every element carries
    /// as an XML `id` attribute; idref attributes store these).
    Id,
    /// A declared attribute, by index into the element's attribute vector.
    Attr(usize),
}

/// The `Copy` join key of an element's referenced value — zero allocations
/// per call (text resolves through the database's symbol table).
#[inline]
pub fn attr_key(db: &Database, e: ElementId, r: AttrRef) -> ValueKey {
    match r {
        AttrRef::Id => ValueKey::Num(db.element(db.element(e).canonical).ordinal as i64),
        AttrRef::Attr(i) => {
            let attrs = db.element(e).attrs;
            attrs.key(i).unwrap_or_else(|| db.join_key(&attrs[i]))
        }
    }
}

/// Fixed-ratio fallback for the merge-vs-gallop dispatch: under
/// [`KernelDispatch::Ratio`](crate::database::KernelDispatch::Ratio),
/// gallop runs when `min(|anc|, |desc|) * GALLOP_RATIO < max(|anc|,
/// |desc|)`. The merge costs `O(|anc| + |desc|)` regardless of asymmetry
/// while gallop costs `O(small · (log large + matches))`, so the crossover
/// is where the small side's per-element binary search beats walking the
/// large side; 16 approximates the `log`-factor with a wide safety margin.
/// The default dispatch
/// ([`CostModel`](crate::database::KernelDispatch::CostModel)) replaces
/// the fixed ratio with the cost model's crossover, [`gallop_cost_wins`],
/// which tracks the actual `⌈log₂ large⌉` instead of a constant.
pub const GALLOP_RATIO: usize = 16;

/// Cost-model crossover between the stack-merge and gallop structural
/// kernels: gallop wins when the driving (small) side's binary searches —
/// about `⌈log₂ large⌉` probes each — are estimated below walking the large
/// side end to end, i.e. `small · ⌈log₂ large⌉ < large`. The default
/// dispatch uses it in place of the fixed [`GALLOP_RATIO`], and the query
/// layer's cost annotations predict the kernel with it.
pub fn gallop_cost_wins(small: usize, large: usize) -> bool {
    let log2_ceil = (usize::BITS - large.saturating_sub(1).leading_zeros()) as usize;
    small.saturating_mul(log2_ceil) < large
}

/// Deterministic, size-only gallop dispatch decision, per the database's
/// [`KernelDispatch`](crate::database::KernelDispatch) mode.
fn gallop_applies(db: &Database, anc: usize, desc: usize) -> bool {
    use crate::database::KernelDispatch;
    let (small, large) = if anc <= desc { (anc, desc) } else { (desc, anc) };
    match db.kernel_dispatch() {
        KernelDispatch::Reference => false,
        KernelDispatch::Ratio => small.saturating_mul(GALLOP_RATIO) < large,
        KernelDispatch::CostModel => gallop_cost_wins(small, large),
    }
}

/// Whether the parent walk, which reads at most `src · k` occurrences,
/// beats the kernel that would otherwise run an ascent of `k` edges from
/// `src` sources to `anc` ancestors: the merge, reading `anc + src`, or a
/// gallop the descendants drive, which climbs the same chains and
/// binary-searches the list besides.
pub fn walk_wins(anc: usize, src: usize, k: usize, gallop: bool) -> bool {
    k > 0 && if gallop { src < anc } else { src.saturating_mul(k) < anc + src }
}

/// Size-only dispatch of an ascent to [`parent_walk`] per the database's
/// `KernelDispatch`: never under `Reference`, which keeps the merge.
pub fn ascent_walks(db: &Database, anc: usize, src: usize, k: usize) -> bool {
    !db.reference_kernels() && walk_wins(anc, src, k, gallop_applies(db, anc, src))
}

/// Gallop cost accounting: the driving (small) side plus everything the
/// large side actually exposed is scanned; the rest of the large side was
/// proven irrelevant without being touched.
fn charge_gallop(metrics: &mut Metrics, small: usize, large: usize, examined: u64) {
    metrics.elements_scanned += small as u64 + examined;
    metrics.elements_skipped += (large as u64).saturating_sub(examined);
    metrics.bytes_touched += (small as u64 + examined) * std::mem::size_of::<Occurrence>() as u64;
}

/// Hash value join: pairs `(l, r)` with `l.attrs[left_attr]` matching
/// `r.attrs[right_attr]`.
pub fn value_join(
    db: &Database,
    left: &[ElementId],
    left_attr: AttrRef,
    right: &[ElementId],
    right_attr: AttrRef,
    metrics: &mut Metrics,
) -> Vec<(ElementId, ElementId)> {
    metrics.value_joins += 1;
    metrics.elements_scanned += (left.len() + right.len()) as u64;
    metrics.bytes_touched += ((left.len() + right.len()) * std::mem::size_of::<ValueKey>()) as u64;
    // build on the smaller side
    let (build, build_attr, probe, probe_attr, swapped) = if left.len() <= right.len() {
        (left, left_attr, right, right_attr, false)
    } else {
        (right, right_attr, left, left_attr, true)
    };
    let mut table: HashMap<ValueKey, Vec<ElementId>> = HashMap::with_capacity(build.len());
    for &e in build {
        table.entry(attr_key(db, e, build_attr)).or_default().push(e);
    }
    let mut out = Vec::new();
    metrics.join_probes += probe.len() as u64;
    for &e in probe {
        // keys are Copy (text is interned): no per-probe String allocation
        if let Some(matches) = table.get(&attr_key(db, e, probe_attr)) {
            for &m in matches {
                out.push(if swapped { (e, m) } else { (m, e) });
            }
        }
    }
    out
}

/// Which side a [`structural_semi_join`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemiSide {
    /// Keep ancestors having at least one qualifying descendant.
    Ancestor,
    /// Keep descendants having at least one qualifying ancestor.
    Descendant,
}

/// Structural **semi**-join: the subset of one side with at least one
/// containment partner on the other, in color `c`.
///
/// It never materializes `(anc, desc)` pairs — each kept occurrence is
/// emitted exactly once — so the output is at most one side's input, not
/// the cross product. `depth` of `Some(k)` additionally requires the level
/// distance to be exactly `k` (so `Some(1)` is parent-child); `None`
/// accepts any ancestor-descendant distance.
///
/// Both inputs must be sorted by `start` (document order). The output is in
/// document order and duplicate-free. Dispatches to
/// [`structural_semi_join_gallop`] where the database's `KernelDispatch`
/// favours it — the [`gallop_cost_wins`] crossover by default, the fixed
/// [`GALLOP_RATIO`] under `Ratio`, never under `Reference` — and to
/// [`structural_semi_join_merge`] otherwise; the output is identical
/// either way.
pub fn structural_semi_join(
    db: &Database,
    c: ColorId,
    anc: &[OccId],
    desc: &[OccId],
    keep: SemiSide,
    depth: Option<u16>,
    metrics: &mut Metrics,
) -> Vec<OccId> {
    if gallop_applies(db, anc.len(), desc.len()) {
        structural_semi_join_gallop(db, c, anc, desc, keep, depth, metrics)
    } else {
        structural_semi_join_merge(db, c, anc, desc, keep, depth, metrics)
    }
}

/// The stack-merge reference implementation of [`structural_semi_join`]:
/// one pass over both inputs, with early exit as soon as a kept
/// occurrence's first partner is found.
pub fn structural_semi_join_merge(
    db: &Database,
    c: ColorId,
    anc: &[OccId],
    desc: &[OccId],
    keep: SemiSide,
    depth: Option<u16>,
    metrics: &mut Metrics,
) -> Vec<OccId> {
    metrics.structural_joins += 1;
    metrics.elements_scanned += (anc.len() + desc.len()) as u64;
    metrics.bytes_touched += ((anc.len() + desc.len()) * std::mem::size_of::<Occurrence>()) as u64;
    let tree = db.color(c);
    let occ = |o: OccId| -> &Occurrence { tree.occ(o) };
    let level_ok = |a: &Occurrence, d: &Occurrence| {
        depth.is_none_or(|k| a.level as u32 + k as u32 == d.level as u32)
    };

    let mut out = Vec::new();
    // (ancestor, already emitted) — the emitted flag makes the Ancestor
    // side duplicate-free without a pair vector or a hash set
    let mut stack: Vec<(OccId, bool)> = Vec::new();
    let (mut ai, mut di) = (0usize, 0usize);
    while di < desc.len() {
        let d = occ(desc[di]);
        // push ancestors that start before d
        while ai < anc.len() && occ(anc[ai]).start < d.start {
            // pop finished ancestors first
            while let Some(&(top, _)) = stack.last() {
                if occ(top).end < occ(anc[ai]).start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push((anc[ai], false));
            ai += 1;
        }
        // pop ancestors that ended before d starts
        while let Some(&(top, _)) = stack.last() {
            if occ(top).end < d.start {
                stack.pop();
            } else {
                break;
            }
        }
        match keep {
            SemiSide::Descendant => {
                for &(a, _) in stack.iter() {
                    metrics.join_probes += 1;
                    let ao = occ(a);
                    if ao.start < d.start && d.end <= ao.end && level_ok(ao, d) {
                        out.push(desc[di]);
                        break; // early exit: one partner suffices
                    }
                }
            }
            SemiSide::Ancestor => {
                for (a, emitted) in stack.iter_mut() {
                    metrics.join_probes += 1;
                    if *emitted {
                        continue;
                    }
                    let ao = occ(*a);
                    if ao.start < d.start && d.end <= ao.end && level_ok(ao, d) {
                        out.push(*a);
                        *emitted = true;
                    }
                }
            }
        }
        di += 1;
    }
    // Descendant outputs arrive in document order already; ancestors are
    // emitted at their first partner, so restore document order
    if keep == SemiSide::Ancestor {
        out.sort_unstable();
    }
    out
}

/// Gallop-skipping implementation of [`structural_semi_join`]: the
/// smaller side drives and the larger side is entered by binary search, so
/// runs of the large input with no partner are never touched (they are
/// credited to `Metrics::elements_skipped`). With few ancestors, or
/// whenever ancestors are kept, each ancestor binary-searches the
/// descendants for its `(start, end)` window (interval nesting within one
/// color tree makes every window entry a true descendant); with few
/// descendants kept, each climbs its parent chain and membership-tests the
/// ancestor list (document order is `OccId` order, so membership is a
/// binary search). An ancestor stops scanning its window at the first
/// qualifying descendant when ancestors are kept, a descendant stops
/// climbing at the first qualifying ancestor. Output is byte-identical to
/// [`structural_semi_join_merge`] — document order, duplicate-free.
pub fn structural_semi_join_gallop(
    db: &Database,
    c: ColorId,
    anc: &[OccId],
    desc: &[OccId],
    keep: SemiSide,
    depth: Option<u16>,
    metrics: &mut Metrics,
) -> Vec<OccId> {
    metrics.structural_joins += 1;
    let tree = db.color(c);
    let occ = |o: OccId| -> &Occurrence { tree.occ(o) };
    let level_ok = |a: &Occurrence, d: &Occurrence| {
        depth.is_none_or(|k| a.level as u32 + k as u32 == d.level as u32)
    };
    let mut out = Vec::new();
    let mut examined: u64 = 0;
    if anc.len() <= desc.len() || keep == SemiSide::Ancestor {
        // ancestors drive: window-scan the descendants per ancestor
        for &a in anc {
            let ao = occ(a);
            let lo = desc.partition_point(|&d| occ(d).start <= ao.start);
            for &d in &desc[lo..] {
                let dd = occ(d);
                if dd.start >= ao.end {
                    break;
                }
                examined += 1;
                metrics.join_probes += 1;
                if dd.end <= ao.end && level_ok(ao, dd) {
                    match keep {
                        SemiSide::Ancestor => {
                            out.push(a);
                            break; // early exit: one partner suffices
                        }
                        // nested ancestors may both expose the same
                        // descendant; dedup below
                        SemiSide::Descendant => out.push(d),
                    }
                }
            }
        }
        if keep == SemiSide::Descendant {
            out.sort_unstable();
            out.dedup();
        }
        charge_gallop(metrics, anc.len(), desc.len(), examined);
    } else {
        // descendants drive and are kept: climb, membership-test `anc`
        for &d in desc {
            let mut cur = occ(d).parent;
            let mut dist: u16 = 1;
            while let Some(p) = cur {
                examined += 1;
                // with an exact depth only the k-th parent can qualify, so
                // the chain is climbed without probing until that level
                if depth.is_none_or(|k| k == dist) {
                    metrics.join_probes += 1;
                    if anc.binary_search(&p).is_ok() {
                        out.push(d);
                        break; // early exit: one partner suffices
                    }
                }
                if depth.is_some_and(|k| dist >= k) {
                    break;
                }
                cur = occ(p).parent;
                dist = dist.saturating_add(1);
            }
        }
        charge_gallop(metrics, desc.len(), anc.len(), examined);
    }
    out
}

/// Parent-walk ascent: the ancestors exactly `k ≥ 1` edges above `src`,
/// in document order and duplicate-free. That is what a depth-`k`
/// [`structural_semi_join`] keeps of an `anc`-long list holding them all,
/// but the list is never read. Each hop moves every occurrence to its
/// parent, drops orphans (partial participation: no parent that high) and
/// climbs a shared parent once. It charges the records it reads: the
/// sources, then each intermediate level, which it `touch`es; the `k`-th
/// ancestors are known by id. The unread list is `elements_skipped`.
pub fn parent_walk(
    tree: &ColorTree,
    src: &[OccId],
    k: usize,
    anc: usize,
    metrics: &mut Metrics,
    mut touch: impl FnMut(&[OccId], &mut Metrics) -> io::Result<()>,
) -> io::Result<Vec<OccId>> {
    debug_assert!(k > 0, "an ascent climbs at least one edge");
    metrics.structural_joins += 1;
    let mut read = 0;
    let mut cur = src.to_vec();
    for hop in 0..k {
        if hop > 0 {
            touch(&cur, metrics)?;
        }
        read += cur.len() as u64;
        cur.retain_mut(|o| match tree.occ(*o).parent {
            Some(p) => {
                *o = p;
                true
            }
            None => false,
        });
        // siblings land on their parent side by side
        cur.dedup();
    }
    // ancestors of one node that nest in one another arrive out of order
    cur.sort_unstable();
    cur.dedup();
    metrics.elements_scanned += read;
    metrics.bytes_touched += read * std::mem::size_of::<Occurrence>() as u64;
    metrics.elements_skipped += (anc as u64).saturating_sub(cur.len() as u64);
    Ok(cur)
}

/// K-way merge of sorted, pairwise-disjoint occurrence lists (e.g. the
/// per-placement document-order lists of one node in one color) into one
/// sorted list. Borrows when at most one input is non-empty, so the
/// single-placement case of a `Down` step allocates nothing. Inputs being
/// disjoint, no deduplication is performed.
pub fn kmerge_sorted<'a>(lists: &[&'a [OccId]]) -> Cow<'a, [OccId]> {
    let mut live = lists.iter().copied().filter(|l| !l.is_empty());
    match (live.next(), live.next()) {
        (None, _) => Cow::Borrowed(&[]),
        (Some(only), None) => Cow::Borrowed(only),
        _ => {
            // the stable sort merges the concatenation's sorted runs
            let mut out = lists.concat();
            out.sort();
            Cow::Owned(out)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::database::{DatabaseBuilder, KernelDispatch};
    use crate::value::Value;
    use colorist_er::{Attribute, ErDiagram, ErGraph};

    /// Quadratic nested-loop oracles.
    mod naive {
        use super::*;

        /// Every `(ancestor, descendant)` pair under interval containment.
        pub fn structural_join(
            db: &Database,
            c: ColorId,
            anc: &[OccId],
            desc: &[OccId],
        ) -> Vec<(OccId, OccId)> {
            let tree = db.color(c);
            let mut out = Vec::new();
            for &d in desc {
                for &a in anc {
                    let (ao, dd) = (tree.occ(a), tree.occ(d));
                    if ao.start < dd.start && dd.end <= ao.end {
                        out.push((a, d));
                    }
                }
            }
            out
        }

        /// The referenced value of an element (clones text).
        fn attr_value(db: &Database, e: ElementId, r: AttrRef) -> Value {
            match r {
                AttrRef::Id => Value::Int(db.element(db.element(e).canonical).ordinal as i64),
                AttrRef::Attr(i) => db.element(e).attrs[i].clone(),
            }
        }

        /// Every `(l, r)` pair whose referenced values match.
        pub fn value_join(
            db: &Database,
            left: &[ElementId],
            left_attr: AttrRef,
            right: &[ElementId],
            right_attr: AttrRef,
        ) -> Vec<(ElementId, ElementId)> {
            let mut out = Vec::new();
            for &l in left {
                for &r in right {
                    if attr_value(db, l, left_attr).matches(&attr_value(db, r, right_attr)) {
                        out.push((l, r));
                    }
                }
            }
            out
        }
    }

    /// Build a database over a 1:m chain with `n_a` roots each having
    /// `per_a` relationship children each with one `b` child.
    fn chain_db(n_a: usize, per_a: usize) -> (ErGraph, Database) {
        let mut d = ErDiagram::new("t");
        d.add_entity("a", vec![Attribute::key("id")]).unwrap();
        d.add_entity("b", vec![Attribute::key("id"), Attribute::key("a_ref")]).unwrap();
        d.add_rel_1m("r", "a", "b").unwrap();
        let g = ErGraph::from_diagram(&d).unwrap();
        let s = colorist_core::design(&g, colorist_core::Strategy::En).unwrap();
        let c = ColorId(0);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let r = g.node_by_name("r").unwrap();
        let pa = s.placements_of_in_color(a, c)[0];
        let pr = s.placements_of_in_color(r, c)[0];
        let pb = s.placements_of_in_color(b, c)[0];
        let mut bd = DatabaseBuilder::new(s, g.node_count());
        let mut bi = 0i64;
        for ai in 0..n_a {
            let ea = bd.add_canonical(a, &[Value::Int(ai as i64)]);
            let oa = bd.add_occurrence(c, ea, pa, None);
            for _ in 0..per_a {
                let er = bd.add_canonical(r, &[]);
                let or = bd.add_occurrence(c, er, pr, Some(oa));
                let eb = bd.add_canonical(b, &[Value::Int(bi), Value::Int(ai as i64)]);
                bd.add_occurrence(c, eb, pb, Some(or));
                bi += 1;
            }
        }
        (g, bd.finish())
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
    fn value_join_matches_naive_and_counts() {
        let (g, db) = chain_db(6, 2);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let la = db.extent(a).to_vec();
        let lb = db.extent(b).to_vec();
        let mut m = Metrics::default();
        // join a.id = b.a_ref
        let fast = value_join(&db, &la, AttrRef::Attr(0), &lb, AttrRef::Attr(1), &mut m);
        let mut slow = naive::value_join(&db, &la, AttrRef::Attr(0), &lb, AttrRef::Attr(1));
        let mut fast_sorted = fast.clone();
        fast_sorted.sort_unstable();
        slow.sort_unstable();
        assert_eq!(fast_sorted, slow);
        assert_eq!(fast.len(), 12);
        assert_eq!(m.value_joins, 1);
        assert_eq!(m.elements_scanned, 18);
    }

    /// Semi-join oracle: every containment pair, depth-filtered, one side
    /// kept, dedup.
    fn semi_via_pairs(
        db: &Database,
        c: ColorId,
        anc: &[OccId],
        desc: &[OccId],
        keep: SemiSide,
        depth: Option<u16>,
    ) -> Vec<OccId> {
        let tree = db.color(c);
        let mut out: Vec<OccId> = naive::structural_join(db, c, anc, desc)
            .into_iter()
            .filter(|&(a, d)| {
                depth
                    .is_none_or(|k| tree.occ(a).level as u32 + k as u32 == tree.occ(d).level as u32)
            })
            .map(|(a, d)| match keep {
                SemiSide::Ancestor => a,
                SemiSide::Descendant => d,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn structural_semi_join_matches_filtered_pair_join() {
        let (g, mut db) = chain_db(5, 3);
        // Pin the ratio fallback: the assertions below spell out the merge
        // kernel's exact charging, which the cost model would trade away by
        // galloping the single-ancestor cases.
        db.set_kernel_dispatch(crate::database::KernelDispatch::Ratio);
        let c = ColorId(0);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let r = g.node_by_name("r").unwrap();
        let pa = db.schema.placements_of_in_color(a, c)[0];
        let pr = db.schema.placements_of_in_color(r, c)[0];
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let anc_sets = [
            db.color(c).of_placement(pa).to_vec(),
            db.color(c).of_placement(pr).to_vec(),
            vec![db.color(c).of_placement(pa)[2]],
        ];
        let desc_sets =
            [db.color(c).of_placement(pb).to_vec(), db.color(c).of_placement(pr).to_vec()];
        for anc in &anc_sets {
            for desc in &desc_sets {
                for depth in [None, Some(1), Some(2), Some(7)] {
                    for keep in [SemiSide::Ancestor, SemiSide::Descendant] {
                        let mut m = Metrics::default();
                        let fast = structural_semi_join(&db, c, anc, desc, keep, depth, &mut m);
                        let slow = semi_via_pairs(&db, c, anc, desc, keep, depth);
                        assert_eq!(fast, slow, "{keep:?} depth {depth:?}");
                        assert_eq!(m.structural_joins, 1);
                        assert_eq!(m.elements_scanned, (anc.len() + desc.len()) as u64);
                    }
                }
            }
        }
    }

    /// Database over two entities sharing a text attribute with a small
    /// vocabulary (so text joins have real fan-out), plus an int key.
    fn text_db(n_a: usize, n_b: usize) -> (ErGraph, Database) {
        let mut d = ErDiagram::new("t");
        d.add_entity("a", vec![Attribute::key("id"), Attribute::text("tag")]).unwrap();
        d.add_entity("b", vec![Attribute::key("id"), Attribute::text("tag")]).unwrap();
        d.add_rel_1m("r", "a", "b").unwrap();
        let g = ErGraph::from_diagram(&d).unwrap();
        let s = colorist_core::design(&g, colorist_core::Strategy::En).unwrap();
        let c = ColorId(0);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let pa = s.placements_of_in_color(a, c)[0];
        let pb = s.placements_of_in_color(b, c)[0];
        let mut bd = DatabaseBuilder::new(s, g.node_count());
        for i in 0..n_a {
            let e =
                bd.add_canonical(a, &[Value::Int(i as i64), Value::Text(format!("tag_{}", i % 3))]);
            bd.add_occurrence(c, e, pa, None);
        }
        for i in 0..n_b {
            let e =
                bd.add_canonical(b, &[Value::Int(i as i64), Value::Text(format!("tag_{}", i % 4))]);
            bd.add_occurrence(c, e, pb, None);
        }
        (g, bd.finish())
    }

    #[test]
    fn interned_text_value_join_matches_cloning_oracle() {
        let (g, db) = text_db(9, 14);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let la = db.extent(a).to_vec();
        let lb = db.extent(b).to_vec();
        let mut m = Metrics::default();
        // a.tag = b.tag — the text path the interner makes allocation-free
        let mut fast = value_join(&db, &la, AttrRef::Attr(1), &lb, AttrRef::Attr(1), &mut m);
        let mut slow = naive::value_join(&db, &la, AttrRef::Attr(1), &lb, AttrRef::Attr(1));
        fast.sort_unstable();
        slow.sort_unstable();
        assert_eq!(fast, slow);
        assert!(!fast.is_empty(), "vocabularies overlap on tag_0..tag_2");
        // key equality agrees with Value::matches on the text path
        for (l, r) in &fast {
            assert_eq!(attr_key(&db, *l, AttrRef::Attr(1)), attr_key(&db, *r, AttrRef::Attr(1)));
        }
    }

    #[test]
    fn value_join_sees_text_written_after_build() {
        let (g, db) = text_db(4, 6);
        let mut db = db;
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        // write a brand-new string (not in the build vocabulary) to one
        // element on each side: write_attr must intern it so the join still
        // matches them up
        db.write_attr(db.extent(a)[0], 1, Value::Text("fresh".into()));
        db.write_attr(db.extent(b)[5], 1, Value::Text("fresh".into()));
        let la = db.extent(a).to_vec();
        let lb = db.extent(b).to_vec();
        let mut m = Metrics::default();
        let mut fast = value_join(&db, &la, AttrRef::Attr(1), &lb, AttrRef::Attr(1), &mut m);
        let mut slow = naive::value_join(&db, &la, AttrRef::Attr(1), &lb, AttrRef::Attr(1));
        fast.sort_unstable();
        slow.sort_unstable();
        assert_eq!(fast, slow);
        assert!(fast.contains(&(db.extent(a)[0], db.extent(b)[5])));
    }

    #[test]
    fn value_join_build_side_selection_is_transparent() {
        let (g, db) = chain_db(2, 5);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let la = db.extent(a).to_vec();
        let lb = db.extent(b).to_vec();
        let mut m = Metrics::default();
        // left bigger than right: output sides must stay (left, right)
        let out = value_join(&db, &lb, AttrRef::Attr(1), &la, AttrRef::Id, &mut m);
        for (l, r) in out {
            assert_eq!(db.element(l).node, b);
            assert_eq!(db.element(r).node, a);
        }
    }

    /// The dispatchers go gallop only past the size ratio, never when the
    /// database pins the reference kernels, and the gallop cost model
    /// credits `elements_skipped` for the untouched large-side remainder.
    #[test]
    fn dispatch_ratio_and_reference_pin() {
        let (g, mut db) = chain_db(40, 4);
        let c = ColorId(0);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let pa = db.schema.placements_of_in_color(a, c)[0];
        let pb = db.schema.placements_of_in_color(b, c)[0];
        let all_a = db.color(c).of_placement(pa).to_vec();
        let all_b = db.color(c).of_placement(pb).to_vec();
        let semi = |db: &Database, anc: &[OccId]| {
            let mut m = Metrics::default();
            (structural_semi_join(db, c, anc, &all_b, SemiSide::Descendant, None, &mut m), m)
        };
        let one_a = [all_a[7]]; // 160 ≫ 16·1
        let (out, gallop_m) = semi(&db, &one_a);
        assert_eq!(out.len(), 4, "one a owns 4 bs");
        assert!(gallop_m.elements_skipped > 0, "dispatcher chose gallop");
        assert!(gallop_m.elements_scanned < 161, "gallop scans less than the merge walk");

        db.set_kernel_dispatch(KernelDispatch::Reference);
        let (ref_out, ref_m) = semi(&db, &one_a);
        assert_eq!(ref_out, out, "pinning the reference path never changes answers");
        assert_eq!(ref_m.elements_skipped, 0, "merge skips nothing");
        assert_eq!(ref_m.elements_scanned, 161);
        db.set_kernel_dispatch(KernelDispatch::CostModel);

        // balanced sides stay on the merge even unpinned: 40·⌈log₂ 160⌉ ≥ 160
        let (_, bal_m) = semi(&db, &all_a);
        assert_eq!((bal_m.elements_skipped, bal_m.elements_scanned), (0, 200));

        // 19 vs 160 separates the two non-reference dispatchers: the cost
        // model gallops (19·⌈log₂ 160⌉ = 152 < 160) while the ratio fallback
        // merges (19·16 = 304 ≥ 160).
        let (cost_out, cost_m) = semi(&db, &all_a[..19]);
        assert!(cost_m.elements_skipped > 0, "cost model chose gallop");
        db.set_kernel_dispatch(KernelDispatch::Ratio);
        let (ratio_out, ratio_m) = semi(&db, &all_a[..19]);
        assert_eq!(ratio_out, cost_out, "dispatch mode never changes answers");
        assert_eq!(ratio_m.elements_skipped, 0, "ratio fallback stayed on the merge");
        assert_eq!(ratio_m.elements_scanned, 19 + 160);
        assert!(
            cost_m.elements_scanned + cost_m.join_probes + cost_m.bytes_touched
                <= ratio_m.elements_scanned + ratio_m.join_probes + ratio_m.bytes_touched,
            "cost dispatch never exceeds the fallback's gate sum here"
        );
    }

    #[test]
    fn kmerge_sorted_merges_disjoint_lists_and_borrows_trivial_cases() {
        let (g, db) = chain_db(6, 2);
        let c = ColorId(0);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let la = db.color(c).of_placement(db.schema.placements_of_in_color(a, c)[0]);
        let lb = db.color(c).of_placement(db.schema.placements_of_in_color(b, c)[0]);
        let merged = kmerge_sorted(&[la, lb]);
        let mut expected: Vec<OccId> = la.iter().chain(lb.iter()).copied().collect();
        expected.sort_unstable();
        assert_eq!(merged.as_ref(), expected.as_slice());
        assert!(matches!(kmerge_sorted(&[la, lb]), std::borrow::Cow::Owned(_)));
        assert!(matches!(kmerge_sorted(&[la]), std::borrow::Cow::Borrowed(_)));
        assert!(matches!(kmerge_sorted(&[la, &[]]), std::borrow::Cow::Borrowed(_)));
        assert!(kmerge_sorted(&[]).is_empty());
        assert!(kmerge_sorted(&[&[], &[]]).is_empty());
    }

    /// splitmix64: a tiny deterministic source for the random draws.
    pub(crate) fn below(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// A random attribute-free instance of `strategy`'s TPC-W schema, `per`
    /// instances per node: root placements root each one, child placements
    /// hang 0–2 random ones under each parent, and about half of them hold
    /// a parentless orphan too (§4.2). Later occurrences in a color copy.
    pub(crate) fn random_db(strategy: colorist_core::Strategy, per: usize, seed: u64) -> Database {
        let g = ErGraph::from_diagram(&colorist_er::catalog::tpcw()).unwrap();
        let schema = colorist_core::design(&g, strategy).unwrap();
        let mut b = DatabaseBuilder::new(schema.clone(), g.node_count());
        let canon: Vec<Vec<ElementId>> =
            g.node_ids().map(|n| (0..per).map(|_| b.add_canonical(n, &[])).collect()).collect();
        let mut rng = seed;
        for color in schema.colors() {
            let mut bound = vec![vec![false; per]; g.node_count()];
            let mut at: Vec<Vec<OccId>> = vec![Vec::new(); schema.placements().len()];
            for &root in schema.roots(color) {
                for p in schema.subtree(root) {
                    let mut parents: Vec<Option<OccId>> = Vec::new();
                    match schema.placement(p).parent {
                        None => parents.resize(per, None),
                        Some((pp, _)) => {
                            for &o in &at[pp.idx()] {
                                parents.extend((0..below(&mut rng, 3)).map(|_| Some(o)));
                            }
                            parents.extend((below(&mut rng, 2) == 0).then_some(None));
                        }
                    }
                    let node = schema.placement(p).node.idx();
                    for (i, parent) in parents.into_iter().enumerate() {
                        // a root placement roots every instance in turn
                        let ordinal =
                            if p == root { i } else { below(&mut rng, per as u64) as usize };
                        let c = canon[node][ordinal];
                        let e = if bound[node][ordinal] { b.add_copy(c) } else { c };
                        bound[node][ordinal] = true;
                        at[p.idx()].push(b.add_occurrence(color, e, p, parent));
                    }
                }
            }
        }
        b.finish()
    }

    /// Where a node nests in itself (a recursive relationship placed
    /// structurally), sources in document order can reach their ancestors
    /// out of order: the walk still returns them sorted, as the merge does.
    #[test]
    fn parent_walk_sorts_the_ancestors_of_a_recursive_nesting() {
        let dsl = "diagram t\nentity a { id* }\nrel sup 1:m a@boss -- a@sub\n";
        let g = ErGraph::from_diagram(&colorist_er::parse::parse_diagram(dsl).unwrap()).unwrap();
        let (a, sup) = (g.node_by_name("a").unwrap(), g.node_by_name("sup").unwrap());
        let edge = |role: &str| g.edge_ids().find(|&e| g.edge(e).role.as_deref() == Some(role));
        let (boss, sub) = (edge("boss").unwrap(), edge("sub").unwrap());
        let mut sb = colorist_mct::MctSchemaBuilder::new("t", "nested");
        let c = sb.add_color();
        let p0 = sb.add_root(c, a);
        let p1 = sb.add_child(p0, boss, sup);
        let p2 = sb.add_child(p1, sub, a);
        let p3 = sb.add_child(p2, boss, sup);
        let p4 = sb.add_child(p3, sub, a);
        let mut bd = DatabaseBuilder::new(sb.finish(&g).unwrap(), g.node_count());
        let mut add = |node, p, parent| {
            let e = bd.add_canonical(node, &[]);
            bd.add_occurrence(c, e, p, parent)
        };
        // a0 ⊃ s0 ⊃ a1 ⊃ s1 ⊃ a2, then a0's second child s2
        let a0 = add(a, p0, None);
        let s0 = add(sup, p1, Some(a0));
        let a1 = add(a, p2, Some(s0));
        let s1 = add(sup, p3, Some(a1));
        add(a, p4, Some(s1));
        add(sup, p1, Some(a0));
        let db = bd.finish();
        let (tree, m) = (db.color(c), &mut Metrics::default());
        let (anc, src) = (tree.of_node(a), tree.of_node(sup));
        let walk = parent_walk(tree, src, 1, anc.len(), m, |_, _| Ok(())).unwrap();
        let merge = structural_semi_join_merge(&db, c, anc, src, SemiSide::Ancestor, Some(1), m);
        assert_eq!(walk, merge);
        assert_eq!(walk.len(), 2, "a0 and a1 each supervise");
    }

    /// Gallop dispatch is an implementation detail: for random (ancestor,
    /// descendant) subset pairs of random DEEP and UNDR instances — dense,
    /// sparse, empty and wildly asymmetric, the ancestor node up to four
    /// placements above the descendant's — the gallop kernel and the
    /// dispatching semi-join both return byte-identical output to the merge
    /// reference, on both keep sides and at bounded depths.
    #[test]
    fn gallop_semi_join_matches_merge_on_random_subsets() {
        let mut gallop_engaged = 0usize;
        for (strategy, seed) in
            [(colorist_core::Strategy::Deep, 3), (colorist_core::Strategy::Undr, 5)]
        {
            let db = random_db(strategy, 8, seed);
            let placements = db.schema.placements();
            for case in 0..96u64 {
                let mut rng = 0xA11_CE5u64.wrapping_add(case);
                let pd = &placements[below(&mut rng, placements.len() as u64) as usize];
                let mut pa = pd;
                for _ in 0..=below(&mut rng, 4) {
                    if let Some((up, _)) = pa.parent {
                        pa = db.schema.placement(up);
                    }
                }
                let (color, tree) = (pd.color, db.color(pd.color));
                // subsets at three densities per side: keeping every
                // occurrence, ~1/8, or ~1/64 — sparse-vs-dense pairs cross
                // the dispatch crossover
                let mut subset = |all: &[OccId]| -> Vec<OccId> {
                    let den = [1u64, 8, 64][below(&mut rng, 3) as usize];
                    all.iter().copied().filter(|_| below(&mut rng, den) == 0).collect()
                };
                let anc = subset(tree.of_node(pa.node));
                let desc = subset(tree.of_node(pd.node));
                for keep in [SemiSide::Ancestor, SemiSide::Descendant] {
                    for depth in [None, Some(1), Some(2), Some(4)] {
                        let (mut ma, mut m) = (Metrics::default(), Metrics::default());
                        let merge = structural_semi_join_merge(
                            &db, color, &anc, &desc, keep, depth, &mut m,
                        );
                        let ctx = format!("{strategy} case {case}: keep {keep:?} depth {depth:?}");
                        let auto =
                            structural_semi_join(&db, color, &anc, &desc, keep, depth, &mut ma);
                        assert_eq!(auto, merge, "{ctx}: dispatch");
                        let gallop = structural_semi_join_gallop(
                            &db, color, &anc, &desc, keep, depth, &mut m,
                        );
                        assert_eq!(gallop, merge, "{ctx}: gallop");
                        if ma.elements_skipped > 0 {
                            gallop_engaged += 1;
                        }
                    }
                }
            }
        }
        // the sweep must actually cross the dispatch crossover, not pass
        // vacuously on the merge path everywhere
        assert!(gallop_engaged > 0, "no case engaged the gallop kernel");
    }
}

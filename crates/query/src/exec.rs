//! Plan execution against a stored database.
//!
//! Execution is **panic-free**: every register access, color/node/edge id,
//! and set-kind expectation is checked, and violations surface as
//! [`QueryError::Exec`] (or [`QueryError::NotIdrefEncoded`] for a value
//! join across an edge the schema does not encode). A plan produced by
//! [`compile`](crate::compile::compile) against the database's own schema
//! never trips these checks; they exist so adversarial or stale plans —
//! e.g. replayed against a different schema by the differential-testing
//! oracle — return `Err` instead of aborting the process.

use crate::error::QueryError;
use crate::pattern::CmpOp;
use crate::plan::{Op, Plan, Reg, VDir};
use colorist_er::{EdgeId, ErEdge, ErGraph, NodeId};
use colorist_mct::{ColorId, PlacementId};
use colorist_store::{
    attr_key, kmerge_sorted, structural_semi_join, value_join, AttrRef, ColorTree, Database,
    ElementId, Metrics, OccId, SemiSide, Snapshot, StorageCtx, ValueKey,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The outcome of executing one query plan.
///
/// ```
/// use colorist_core::{design, Strategy};
/// use colorist_datagen::{generate, materialize, ScaleProfile};
/// use colorist_er::{catalog, ErGraph};
/// use colorist_query::{compile, execute, PatternBuilder};
///
/// let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
/// let schema = design(&g, Strategy::Af).unwrap();
/// let instance = generate(&g, &ScaleProfile::tpcw(&g, 20), 42);
/// let db = materialize(&g, &schema, &instance);
///
/// let q = PatternBuilder::new(&g, "Q")
///     .node("country")
///     .node("customer")
///     .chain(0, 1, &["in", "address", "has"])
///     .unwrap()
///     .output(1)
///     .build()
///     .unwrap();
/// let plan = compile(&g, &db.schema, &q).unwrap();
/// let r = execute(&db, &g, &plan).unwrap();
/// assert_eq!(r.results, r.distinct, "AF is node normal: no physical copies");
/// assert_eq!(r.distinct, r.elements.len() as u64);
/// assert_eq!(r.metrics.value_joins, 0, "AF recovers this chain structurally");
/// ```
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Physical result tuples — includes copies on un-normalized schemas
    /// (the parenthesized numbers of Table 1).
    pub results: u64,
    /// Distinct logical results.
    pub distinct: u64,
    /// The distinct logical answers, as canonical element ids (sorted).
    pub elements: Vec<ElementId>,
    /// Measured metrics (plan ops + volumes + wall time).
    pub metrics: Metrics,
}

/// The measured cost of one plan operator during one execution — the
/// `EXPLAIN ANALYZE` row for that operator.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Index into [`Plan::ops`].
    pub op: usize,
    /// The [`Metrics`] delta this operator charged: deterministic counters
    /// only (`elapsed` inside is always zero; the measured wall time lives
    /// in [`OpProfile::elapsed`]). Summed over a plan's profiles, the
    /// deltas reproduce the query's top-level counter totals exactly.
    pub metrics: Metrics,
    /// Physical tuples entering the operator (both sides for `Intersect`,
    /// 0 for `Scan`, whose input is storage itself).
    pub rows_in: u64,
    /// Physical tuples the operator produced (group count for `GroupBy`).
    pub rows_out: u64,
    /// Measured wall time of this operator alone (machine-dependent, unlike
    /// every other field).
    pub elapsed: Duration,
}

/// The short kind label of an operator, used in span names and
/// `EXPLAIN ANALYZE` rows.
pub fn op_kind(op: &Op) -> &'static str {
    match op {
        Op::Scan { .. } => "scan",
        Op::StructSemi { .. } => "struct_semi",
        Op::ValueSemi { .. } => "value_semi",
        Op::LinkSemi { .. } => "link_semi",
        Op::Cross { .. } => "cross",
        Op::Intersect { .. } => "intersect",
        Op::Distinct { .. } => "distinct",
        Op::GroupBy { .. } => "group_by",
    }
}

/// A register value during execution. Sets borrow storage (`'d` is the
/// database borrow) whenever an operator selects an existing document-order
/// list wholesale — an unpredicated `Scan` returns the node's occurrence
/// list without copying it — and own their backing only when an operator
/// actually computed a new set.
#[derive(Debug, Clone)]
enum SetVal<'d> {
    Occs { color: ColorId, occs: Cow<'d, [OccId]> },
    Elems(Cow<'d, [ElementId]>),
    Groups { count: usize, elems: Cow<'d, [ElementId]> },
}

impl SetVal<'_> {
    /// Physical tuples this value holds directly (copies included for
    /// occurrence sets; groups report their backing elements).
    fn physical_len(&self) -> u64 {
        match self {
            SetVal::Occs { occs, .. } => occs.len() as u64,
            SetVal::Elems(e) => e.len() as u64,
            SetVal::Groups { elems, .. } => elems.len() as u64,
        }
    }
}

/// Execute a compiled plan.
///
/// On success, `results` counts the physical tuples the output produced
/// *before* logical duplicate elimination (`Distinct`/`GroupBy` pass their
/// input's physical count through), and `distinct` the logical answers —
/// so `results >= distinct` always, with equality on schemas that store
/// no copies of the output node.
pub fn execute(db: &Database, graph: &ErGraph, plan: &Plan) -> Result<QueryResult, QueryError> {
    run(db, graph, plan, None)
}

/// Execute a compiled plan against a consistent [`Snapshot`].
///
/// A snapshot pins the copy-on-write version of every structure a kernel
/// reads (extents, color trees, value index), so the
/// answer equals what [`execute`] returned against the database at
/// snapshot time — byte for byte — no matter what batches have committed
/// since. Emits a `snapshot` span carrying the deterministic
/// `snapshot_reads` counter so traced runs account snapshot traffic
/// separately from live reads.
pub fn execute_snapshot(
    snap: &Snapshot,
    graph: &ErGraph,
    plan: &Plan,
) -> Result<QueryResult, QueryError> {
    let mut span = colorist_trace::span("snapshot", format_args!("query:{}", plan.name));
    span.counter("snapshot_reads", 1);
    run(snap.database(), graph, plan, None)
}

/// Execute a compiled plan, additionally attributing every metric to the
/// operator that charged it — the measurement side of `EXPLAIN ANALYZE`
/// (rendered by [`crate::explain::explain_analyze`]).
///
/// The profile's counter deltas partition the query totals exactly: summing
/// [`OpProfile::metrics`] over all operators reproduces every counter of
/// `QueryResult::metrics` (`results`, `distinct_results` and `elapsed` are
/// query-level and stay zero in the deltas).
///
/// ```
/// use colorist_core::{design, Strategy};
/// use colorist_datagen::{generate, materialize, ScaleProfile};
/// use colorist_er::{catalog, ErGraph};
/// use colorist_query::{compile, execute_profiled, PatternBuilder};
///
/// let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
/// let schema = design(&g, Strategy::Shallow).unwrap();
/// let instance = generate(&g, &ScaleProfile::tpcw(&g, 20), 42);
/// let db = materialize(&g, &schema, &instance);
///
/// let q = PatternBuilder::new(&g, "Q")
///     .node("country")
///     .node("customer")
///     .chain(0, 1, &["in", "address", "has"])
///     .unwrap()
///     .output(1)
///     .build()
///     .unwrap();
/// let plan = compile(&g, &db.schema, &q).unwrap();
/// let (r, profile) = execute_profiled(&db, &g, &plan).unwrap();
///
/// assert_eq!(profile.len(), plan.ops.len(), "one profile row per operator");
/// let probes: u64 = profile.iter().map(|p| p.metrics.join_probes).sum();
/// assert_eq!(probes, r.metrics.join_probes, "deltas sum to the totals");
/// ```
pub fn execute_profiled(
    db: &Database,
    graph: &ErGraph,
    plan: &Plan,
) -> Result<(QueryResult, Vec<OpProfile>), QueryError> {
    let mut profiles = Vec::with_capacity(plan.ops.len());
    let r = run(db, graph, plan, Some(&mut profiles))?;
    Ok((r, profiles))
}

/// Physical tuples entering `op`, given the current register contents.
fn rows_in(regs: &[Option<SetVal>], op: &Op) -> u64 {
    let phys = |r: Reg| regs.get(r).and_then(Option::as_ref).map_or(0, SetVal::physical_len);
    match op {
        Op::Scan { .. } => 0,
        Op::StructSemi { src, .. }
        | Op::ValueSemi { src, .. }
        | Op::LinkSemi { src, .. }
        | Op::Cross { src, .. }
        | Op::Distinct { src, .. }
        | Op::GroupBy { src, .. } => phys(*src),
        Op::Intersect { a, b, .. } => phys(*a) + phys(*b),
    }
}

fn run(
    db: &Database,
    graph: &ErGraph,
    plan: &Plan,
    mut profile: Option<&mut Vec<OpProfile>>,
) -> Result<QueryResult, QueryError> {
    let mut query_span =
        colorist_trace::span("query", format_args!("execute:{}:{}", plan.name, plan.strategy));
    let start = Instant::now();
    let mut metrics = Metrics::default();
    // paged reads: a per-query cold accounting clock over the attached
    // backend's segment directory, faulting its misses through the
    // attachment's shared page cache (a free no-op on the heap backend).
    // Per-query clocks keep the page counters deterministic regardless of
    // how many suite workers share the database.
    let mut storage = db.storage_ctx();
    let mut regs: Vec<Option<SetVal>> = vec![None; plan.reg_count];
    // physical tuple count per register: Distinct and GroupBy compress
    // logically but inherit their source's physical count, so the output
    // register's entry is exactly the pre-dedup tuple count (the
    // parenthesized duplicate counts of Table 1)
    let mut phys: Vec<u64> = vec![0; plan.reg_count];

    for (oi, op) in plan.ops.iter().enumerate() {
        // observation is opt-in per call (profiling) or per process
        // (tracing); the plain path pays no clock reads or snapshots
        let observing = profile.is_some() || query_span.is_recording();
        let before = observing.then(|| (metrics, rows_in(&regs, op), Instant::now()));
        let mut op_span = colorist_trace::span("op", op_kind(op));

        let dst = op.dst();
        let val = eval(db, graph, &mut metrics, &mut storage, &regs, op)?;
        if dst >= regs.len() {
            return Err(QueryError::Exec(format!(
                "destination register r{dst} out of bounds ({} registers)",
                regs.len()
            )));
        }
        phys[dst] = match op {
            Op::Distinct { src, .. } | Op::GroupBy { src, .. } => phys[*src],
            _ => val.physical_len(),
        };
        let rows_out = match &val {
            SetVal::Groups { count, .. } => *count as u64,
            v => v.physical_len(),
        };
        regs[dst] = Some(val);

        if let Some((snapshot, rows_in, op_start)) = before {
            let delta = metrics.since(&snapshot);
            let elapsed = op_start.elapsed();
            if op_span.is_recording() {
                let rows = [("rows_in", rows_in), ("rows_out", rows_out)];
                for (key, value) in rows.into_iter().chain(delta.counters()) {
                    if value > 0 {
                        op_span.counter(key, value);
                    }
                }
            }
            if let Some(p) = profile.as_deref_mut() {
                p.push(OpProfile { op: oi, metrics: delta, rows_in, rows_out, elapsed });
            }
        }
    }

    let out = match regs.get_mut(plan.output).map(Option::take) {
        Some(Some(v)) => v,
        _ => {
            return Err(QueryError::Exec(format!("output register r{} is unset", plan.output)));
        }
    };
    let results = phys[plan.output];
    let (elements, count_groups) = match out {
        SetVal::Occs { color, occs } => (occs_to_canonical_inner(db, db.color(color), &occs), None),
        SetVal::Elems(elems) => (elems.into_owned(), None),
        SetVal::Groups { count, elems } => (elems.into_owned(), Some(count as u64)),
    };
    let distinct = count_groups.unwrap_or(elements.len() as u64);
    metrics.results = results;
    metrics.distinct_results = distinct;
    metrics.elapsed = start.elapsed();
    if query_span.is_recording() {
        for (key, value) in metrics.counters() {
            if value > 0 {
                query_span.counter(key, value);
            }
        }
    }
    Ok(QueryResult { results, distinct, elements, metrics })
}

fn eval<'d>(
    db: &'d Database,
    graph: &ErGraph,
    metrics: &mut Metrics,
    storage: &mut StorageCtx,
    regs: &[Option<SetVal<'d>>],
    op: &Op,
) -> Result<SetVal<'d>, QueryError> {
    match op {
        Op::Scan { color, node, pred, .. } => {
            let tree = color_tree(db, *color, "Scan")?;
            let all = tree.of_node(*node);
            let occs: Cow<'d, [OccId]> = match pred {
                None => {
                    // the stored document-order list IS the answer: borrow
                    metrics.elements_scanned += all.len() as u64;
                    metrics.bytes_touched += std::mem::size_of_val(all) as u64;
                    storage.touch_occs(*color, all, metrics)?;
                    Cow::Borrowed(all)
                }
                Some(p) if !db.reference_kernels() => {
                    // index probe: resolve matching canonical elements from
                    // the sorted value index, then expand to occurrences in
                    // this color (copies mirror their canonical's
                    // attributes, so the element-level index is complete)
                    if let Some(&o) = all.first() {
                        // attribute arity is uniform per node type, so the
                        // linear walk's per-element bounds check reduces to
                        // one representative
                        let el = db.element(tree.occ(o).element);
                        if el.attrs.get(p.attr).is_none() {
                            return Err(QueryError::Exec(format!(
                                "Scan: predicate attribute #{} out of range for `{}`",
                                p.attr,
                                graph.node(el.node).name
                            )));
                        }
                    }
                    let index = db.value_index();
                    let mut elems: Vec<ElementId> = Vec::new();
                    match p.op {
                        CmpOp::Eq => {
                            metrics.index_lookups += 1;
                            if let Some(k) = db.try_join_key(&p.value) {
                                let slice = index.matching(*node, p.attr, k);
                                storage.touch_postings(index, slice, metrics)?;
                                elems.extend(slice.iter().map(|en| en.element));
                            } // never-interned text matches nothing
                        }
                        CmpOp::Lt | CmpOp::Gt => {
                            // a range predicate walks the attribute's whole
                            // posting run (group by group), so it reads
                            // every posting page of the column
                            storage.touch_postings(index, index.of_attr(*node, p.attr), metrics)?;
                            // one key comparison per distinct stored value,
                            // taking whole groups — never per element
                            let want = match p.op {
                                CmpOp::Lt => Ordering::Less,
                                _ => Ordering::Greater,
                            };
                            for (key, group) in index.groups(*node, p.attr) {
                                metrics.index_lookups += 1;
                                if db.interner().key_value_cmp(key, &p.value) == want {
                                    elems.extend(group.iter().map(|en| en.element));
                                }
                            }
                        }
                    }
                    let mut v: Vec<OccId> = Vec::with_capacity(elems.len());
                    for e in elems {
                        v.extend(db.occurrences_of_logical(*color, e).iter().copied());
                    }
                    v.sort_unstable();
                    metrics.elements_scanned += v.len() as u64;
                    metrics.elements_skipped += (all.len() as u64).saturating_sub(v.len() as u64);
                    metrics.bytes_touched += std::mem::size_of_val(v.as_slice()) as u64;
                    storage.touch_occs(*color, &v, metrics)?;
                    Cow::Owned(v)
                }
                Some(p) => {
                    // reference path: linear walk of the node's extent
                    metrics.elements_scanned += all.len() as u64;
                    metrics.bytes_touched += std::mem::size_of_val(all) as u64;
                    storage.touch_occs(*color, all, metrics)?;
                    let mut v = Vec::new();
                    for &o in all {
                        storage.touch_element(tree.occ(o).element, metrics)?;
                        let el = db.element(tree.occ(o).element);
                        let Some(av) = el.attrs.get(p.attr) else {
                            return Err(QueryError::Exec(format!(
                                "Scan: predicate attribute #{} out of range for `{}`",
                                p.attr,
                                graph.node(el.node).name
                            )));
                        };
                        if p.eval(av) {
                            v.push(o);
                        }
                    }
                    Cow::Owned(v)
                }
            };
            Ok(SetVal::Occs { color: *color, occs })
        }

        Op::StructSemi { src, color, node, via, dir, .. } => {
            check_node(graph, *node, "StructSemi")?;
            let src_val = expect_occs(regs, *src, *color, "StructSemi")?;
            // On schemas with duplicated placements, a logical instance's
            // occurrences are scattered over several subtrees and no single
            // one need carry the whole chain (e.g. the turning point of an
            // ascent-then-descent plan on DEEP). Widen to every occurrence
            // of the same logical instances before joining; a no-op on
            // node-normal schemas.
            let src_val = expand_to_logical_occs(db, *color, src_val);
            let tree = color_tree(db, *color, "StructSemi")?;
            storage.touch_occs(*color, &src_val, metrics)?;
            let k = via.len() as u16;
            match dir {
                VDir::Down => {
                    // descendants at path-valid placements, exactly k below
                    // — a single semi-join pass, no pair materialization.
                    // The per-placement lists are already sorted and
                    // pairwise disjoint: a k-way merge unions them without
                    // the flat_map + full re-sort (and without copying at
                    // all when a single placement is valid)
                    let valid = valid_desc_placements(db, *color, *node, via);
                    let lists: Vec<&[OccId]> =
                        valid.iter().map(|&p| tree.of_placement(p)).collect();
                    let targets = kmerge_sorted(&lists);
                    if let Cow::Owned(_) = targets {
                        // the union materialized: charge the ids it moved
                        metrics.bytes_touched += std::mem::size_of_val(targets.as_ref()) as u64;
                    }
                    storage.touch_occs(*color, &targets, metrics)?;
                    let out = structural_semi_join(
                        db,
                        *color,
                        &src_val,
                        &targets,
                        SemiSide::Descendant,
                        Some(k),
                        metrics,
                    );
                    Ok(SetVal::Occs { color: *color, occs: Cow::Owned(out) })
                }
                VDir::Up => {
                    // ancestors exactly k above, along the matching chain
                    storage.touch_occs(*color, tree.of_node(*node), metrics)?;
                    let valid = valid_desc_placement_set(db, *color, *node, via, &src_val, tree);
                    let desc: Vec<OccId> = src_val
                        .iter()
                        .copied()
                        .filter(|&o| valid.contains(&tree.occ(o).placement))
                        .collect();
                    let out = structural_semi_join(
                        db,
                        *color,
                        tree.of_node(*node),
                        &desc,
                        SemiSide::Ancestor,
                        Some(k),
                        metrics,
                    );
                    Ok(SetVal::Occs { color: *color, occs: Cow::Owned(out) })
                }
            }
        }

        Op::ValueSemi { src, edge, src_is_rel, enter, .. } => {
            let src_elems = to_elems(db, regs, *src, "ValueSemi")?;
            let e = check_edge(graph, *edge, "ValueSemi")?;
            let idref_idx = db
                .idref_attr_index(graph, *edge)
                .ok_or_else(|| QueryError::NotIdrefEncoded { edge: edge_label(graph, *edge) })?;
            storage.touch_elements(&src_elems, metrics)?;
            let matched: Vec<ElementId> = if db.reference_kernels() {
                // reference path: per-op hash join against the full extent
                if *src_is_rel {
                    // src holds relationship elements; probe participant ids
                    let extent = db.extent(e.participant);
                    storage.touch_elements(extent, metrics)?;
                    value_join(
                        db,
                        &src_elems,
                        AttrRef::Attr(idref_idx),
                        extent,
                        AttrRef::Id,
                        metrics,
                    )
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect()
                } else {
                    let extent = db.extent(e.rel);
                    storage.touch_elements(extent, metrics)?;
                    value_join(
                        db,
                        extent,
                        AttrRef::Attr(idref_idx),
                        &src_elems,
                        AttrRef::Id,
                        metrics,
                    )
                    .into_iter()
                    .map(|(l, _)| l)
                    .collect()
                }
            } else if *src_is_rel {
                // forward direction: each relationship's idref value names
                // a participant ordinal, resolved through the persistent
                // ordinal index (tombstones make deleted targets dangle
                // safely) — no hash table to build
                metrics.value_joins += 1;
                metrics.join_probes += src_elems.len() as u64;
                metrics.index_lookups += src_elems.len() as u64;
                metrics.elements_skipped += db.extent(e.participant).len() as u64;
                metrics.bytes_touched += (src_elems.len() * std::mem::size_of::<ValueKey>()) as u64;
                let mut out = Vec::with_capacity(src_elems.len());
                for &w in src_elems.iter() {
                    if let ValueKey::Num(k) = attr_key(db, w, AttrRef::Attr(idref_idx)) {
                        if let Ok(i) = u32::try_from(k) {
                            storage.touch_ordinal(e.participant, i, metrics)?;
                            if let Some(p) = db.canonical_by_ordinal(e.participant, i) {
                                out.push(p);
                            }
                        }
                    } // non-numeric idref values reference no id
                }
                metrics.elements_scanned += (src_elems.len() + out.len()) as u64;
                out
            } else {
                // reverse direction: which relationship elements reference
                // these ids? — one sorted-index probe per source ordinal
                // instead of hashing the whole relationship extent
                metrics.value_joins += 1;
                let extent_len = db.extent(e.rel).len();
                metrics.join_probes += src_elems.len() as u64;
                metrics.index_lookups += src_elems.len() as u64;
                metrics.elements_skipped += extent_len as u64;
                metrics.bytes_touched += (src_elems.len() * std::mem::size_of::<ValueKey>()) as u64;
                let index = db.value_index();
                let mut out = Vec::new();
                for &x in src_elems.iter() {
                    let key = ValueKey::Num(db.element(x).ordinal as i64);
                    let slice = index.matching(e.rel, idref_idx, key);
                    storage.touch_postings(index, slice, metrics)?;
                    out.extend(slice.iter().map(|en| en.element));
                }
                metrics.elements_scanned += (src_elems.len() + out.len()) as u64;
                out
            };
            let mut elems = matched;
            elems.sort_unstable();
            elems.dedup();
            reenter(db, *enter, elems, "ValueSemi")
        }

        Op::LinkSemi { src, edge, src_is_rel, enter, .. } => {
            // a parent-child step resolved through the stored link
            // adjacency: exact on any schema
            metrics.structural_joins += 1;
            let src_elems = to_elems(db, regs, *src, "LinkSemi")?;
            metrics.elements_scanned += src_elems.len() as u64;
            // one adjacency lookup per source element
            metrics.join_probes += src_elems.len() as u64;
            metrics.bytes_touched += (src_elems.len() * std::mem::size_of::<ElementId>()) as u64;
            let e = check_edge(graph, *edge, "LinkSemi")?;
            storage.touch_elements(&src_elems, metrics)?;
            let mut out: Vec<ElementId> = Vec::new();
            if *src_is_rel {
                for &w in src_elems.iter() {
                    let ro = db.element(w).ordinal;
                    storage.touch_link(*edge, ro, metrics)?;
                    if let Some(po) = db.link(*edge, ro) {
                        storage.touch_ordinal(e.participant, po, metrics)?;
                        out.extend(db.canonical_by_ordinal(e.participant, po));
                    }
                }
            } else {
                for &x in src_elems.iter() {
                    let po = db.element(x).ordinal;
                    for ro in db.linked_rels(*edge, po) {
                        // the filter inside linked_rels re-read the link
                        // slot of every candidate relationship
                        storage.touch_link(*edge, ro, metrics)?;
                        storage.touch_ordinal(e.rel, ro, metrics)?;
                        out.extend(db.canonical_by_ordinal(e.rel, ro));
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            reenter(db, *enter, out, "LinkSemi")
        }

        Op::Cross { src, color, .. } => {
            metrics.color_crossings += 1;
            let elems = to_elems(db, regs, *src, "Cross")?;
            metrics.elements_scanned += elems.len() as u64;
            metrics.bytes_touched += (elems.len() * std::mem::size_of::<ElementId>()) as u64;
            color_tree(db, *color, "Cross")?;
            let occs = elems_to_occs(db, *color, &elems);
            storage.touch_occs(*color, &occs, metrics)?;
            Ok(SetVal::Occs { color: *color, occs: Cow::Owned(occs) })
        }

        Op::Intersect { a, b, .. } => {
            let (ca, va) = match get_reg(regs, *a, "Intersect")? {
                SetVal::Occs { color, occs } => (*color, occs),
                _ => {
                    return Err(QueryError::Exec(format!(
                        "Intersect: register r{a} does not hold an occurrence set"
                    )));
                }
            };
            let vb = expect_occs(regs, *b, ca, "Intersect")?;
            // sorted merge
            let mut out = Vec::with_capacity(va.len().min(vb.len()));
            let (mut i, mut j) = (0, 0);
            while i < va.len() && j < vb.len() {
                match va[i].cmp(&vb[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        out.push(va[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            Ok(SetVal::Occs { color: ca, occs: Cow::Owned(out) })
        }

        Op::Distinct { src, .. } => {
            metrics.dup_eliminations += 1;
            let elems = to_elems(db, regs, *src, "Distinct")?;
            metrics.bytes_touched += (elems.len() * std::mem::size_of::<ElementId>()) as u64;
            // the result must outlive the source register it may borrow
            Ok(SetVal::Elems(Cow::Owned(elems.into_owned())))
        }

        Op::GroupBy { src, attr, .. } => {
            metrics.group_bys += 1;
            let elems = to_elems(db, regs, *src, "GroupBy")?;
            storage.touch_elements(&elems, metrics)?;
            metrics.elements_scanned += elems.len() as u64;
            metrics.bytes_touched += (elems.len() * std::mem::size_of::<ValueKey>()) as u64;
            // Copy keys + sort/dedup: no hashing, no per-element String
            let mut keys: Vec<ValueKey> = Vec::with_capacity(elems.len());
            for &e in elems.iter() {
                let el = db.element(e);
                let Some(v) = el.attrs.get(*attr) else {
                    return Err(QueryError::Exec(format!(
                        "GroupBy: attribute #{attr} out of range for `{}`",
                        graph.node(el.node).name
                    )));
                };
                let Some(k) = el.attrs.key(*attr) else {
                    return Err(QueryError::Exec(format!(
                        "GroupBy: value `{v}` was never interned in this database"
                    )));
                };
                keys.push(k);
            }
            keys.sort_unstable();
            keys.dedup();
            Ok(SetVal::Groups { count: keys.len(), elems: Cow::Owned(elems.into_owned()) })
        }
    }
}

/// Wrap a semi-join's element output, re-entering a colored tree when the
/// plan continues structurally.
fn reenter<'d>(
    db: &'d Database,
    enter: Option<ColorId>,
    elems: Vec<ElementId>,
    who: &str,
) -> Result<SetVal<'d>, QueryError> {
    match enter {
        Some(c) => {
            color_tree(db, c, who)?;
            Ok(SetVal::Occs { color: c, occs: Cow::Owned(elems_to_occs(db, c, &elems)) })
        }
        None => Ok(SetVal::Elems(Cow::Owned(elems))),
    }
}

/// The colored tree, or an error for a color id the database lacks.
fn color_tree<'d>(db: &'d Database, c: ColorId, who: &str) -> Result<&'d ColorTree, QueryError> {
    if (c.0 as usize) < db.color_count() {
        Ok(db.color(c))
    } else {
        Err(QueryError::Exec(format!(
            "{who}: color {c} out of range ({} colors)",
            db.color_count()
        )))
    }
}

/// Validate an ER node id against the graph.
fn check_node(graph: &ErGraph, n: NodeId, who: &str) -> Result<(), QueryError> {
    if n.idx() < graph.node_count() {
        Ok(())
    } else {
        Err(QueryError::Exec(format!("{who}: ER node {n:?} out of range")))
    }
}

/// Validate an ER edge id against the graph.
fn check_edge<'g>(graph: &'g ErGraph, e: EdgeId, who: &str) -> Result<&'g ErEdge, QueryError> {
    if e.idx() < graph.edge_count() {
        Ok(graph.edge(e))
    } else {
        Err(QueryError::Exec(format!("{who}: ER edge {e:?} out of range")))
    }
}

/// Human-readable `relationship[participant]` label of an ER edge.
fn edge_label(graph: &ErGraph, e: EdgeId) -> String {
    let ed = graph.edge(e);
    format!("{}[{}]", graph.node(ed.rel).name, graph.node(ed.participant).name)
}

/// The set value in register `r`, or a typed error when the register is
/// out of bounds or unset.
fn get_reg<'v, 'd>(
    regs: &'v [Option<SetVal<'d>>],
    r: Reg,
    who: &str,
) -> Result<&'v SetVal<'d>, QueryError> {
    match regs.get(r) {
        Some(Some(v)) => Ok(v),
        Some(None) => Err(QueryError::Exec(format!("{who}: register r{r} is unset"))),
        None => Err(QueryError::Exec(format!(
            "{who}: register r{r} out of bounds ({} registers)",
            regs.len()
        ))),
    }
}

/// The occurrence set in register `r`, which must be in `color`.
fn expect_occs<'v, 'd>(
    regs: &'v [Option<SetVal<'d>>],
    r: Reg,
    color: ColorId,
    who: &str,
) -> Result<&'v [OccId], QueryError> {
    match get_reg(regs, r, who)? {
        SetVal::Occs { color: c, occs } => {
            if *c != color {
                return Err(QueryError::Exec(format!(
                    "{who}: register r{r} holds occurrences of color {c}, expected {color}"
                )));
            }
            Ok(occs)
        }
        _ => Err(QueryError::Exec(format!("{who}: register r{r} does not hold an occurrence set"))),
    }
}

/// Canonical (logical) elements behind register `r`, sorted distinct.
/// Borrows the register's slice when it already holds elements.
fn to_elems<'v, 'd>(
    db: &Database,
    regs: &'v [Option<SetVal<'d>>],
    r: Reg,
    who: &str,
) -> Result<Cow<'v, [ElementId]>, QueryError> {
    Ok(match get_reg(regs, r, who)? {
        SetVal::Occs { color, occs } => {
            let tree = color_tree(db, *color, who)?;
            Cow::Owned(occs_to_canonical_inner(db, tree, occs))
        }
        SetVal::Elems(e) => Cow::Borrowed(e.as_ref()),
        SetVal::Groups { elems, .. } => Cow::Borrowed(elems.as_ref()),
    })
}

fn occs_to_canonical_inner(
    db: &Database,
    tree: &colorist_store::ColorTree,
    occs: &[OccId],
) -> Vec<ElementId> {
    let mut v: Vec<ElementId> =
        occs.iter().map(|&o| db.element(tree.occ(o).element).canonical).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// All occurrences of the logical instances of `elems` in `color`.
fn elems_to_occs(db: &Database, color: ColorId, elems: &[ElementId]) -> Vec<OccId> {
    let mut occs: Vec<OccId> =
        elems.iter().flat_map(|&e| db.occurrences_of_logical(color, e).iter().copied()).collect();
    occs.sort_unstable();
    occs.dedup();
    occs
}

/// Widen `occs` to every occurrence (copies included) of the same logical
/// instances in `color`. Identity (borrowed, zero-copy) when the
/// occurrences' node has a single placement in the color, so node-normal
/// schemas pay nothing.
fn expand_to_logical_occs<'v>(
    db: &Database,
    color: ColorId,
    occs: &'v [OccId],
) -> Cow<'v, [OccId]> {
    let tree = db.color(color);
    if let Some(&o) = occs.first() {
        let node = db.schema.placement(tree.occ(o).placement).node;
        if db.schema.placements_of_in_color(node, color).len() <= 1 {
            return Cow::Borrowed(occs);
        }
    }
    let mut out: Vec<OccId> = occs
        .iter()
        .flat_map(|&o| db.occurrences_of_logical(color, tree.occ(o).element).iter().copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    Cow::Owned(out)
}

/// Placements of `node` in `color` whose upward chain realizes exactly
/// `via` (ancestor-side-first) — the valid landing spots of a path-exact
/// descent.
pub(crate) fn valid_desc_placements(
    db: &Database,
    color: ColorId,
    node: colorist_er::NodeId,
    via: &[colorist_er::EdgeId],
) -> Vec<PlacementId> {
    db.schema
        .placements_of_in_color(node, color)
        .into_iter()
        .filter(|&p| chain_matches(db, p, via))
        .collect()
}

/// For ascents: the set of source placements whose upward chain matches.
pub(crate) fn valid_desc_placement_set(
    db: &Database,
    _color: ColorId,
    _node: colorist_er::NodeId,
    via: &[colorist_er::EdgeId],
    src: &[OccId],
    tree: &colorist_store::ColorTree,
) -> HashSet<PlacementId> {
    let mut distinct: HashSet<PlacementId> = src.iter().map(|&o| tree.occ(o).placement).collect();
    distinct.retain(|&p| chain_matches(db, p, via));
    distinct
}

/// Does `p`'s upward chain realize `via` (ancestor-side-first)?
fn chain_matches(db: &Database, p: PlacementId, via: &[colorist_er::EdgeId]) -> bool {
    let mut cur = p;
    for &expected in via.iter().rev() {
        match db.schema.placement(cur).parent {
            Some((pp, e)) if e == expected => cur = pp,
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::pattern::PatternBuilder;
    use colorist_core::{design, Strategy};
    use colorist_datagen::{generate, materialize, ScaleProfile};
    use colorist_er::catalog;
    use colorist_store::Value;

    fn setup(strategy: Strategy) -> (ErGraph, Database) {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let p = ScaleProfile::tpcw(&g, 60);
        let inst = generate(&g, &p, 77);
        let schema = design(&g, strategy).unwrap();
        let db = materialize(&g, &schema, &inst);
        (g, db)
    }

    fn q1(g: &ErGraph) -> crate::pattern::Pattern {
        // country 0 is the hottest under the generator's squared-uniform
        // skew, so it reliably has orders at this small scale
        PatternBuilder::new(g, "Q1")
            .node("country")
            .pred_eq("id", Value::Int(0))
            .node("order")
            .chain(0, 1, &["in", "address", "has", "customer", "make"])
            .unwrap()
            .output(1)
            .build()
            .unwrap()
    }

    #[test]
    fn q1_runs_on_af_with_zero_value_joins() {
        let (g, db) = setup(Strategy::Af);
        let plan = compile(&g, &db.schema, &q1(&g)).unwrap();
        let m = plan.static_metrics();
        assert_eq!(m.value_joins, 0, "Figure 3 makes Q1 purely structural\n{plan}");
        assert_eq!(m.color_crossings, 0);
        assert_eq!(m.structural_joins, 1, "a single // step\n{plan}");
        let r = execute(&db, &g, &plan).unwrap();
        assert!(r.results > 0, "country 0 should have orders");
        assert_eq!(r.results, r.distinct, "AF is node normal");
    }

    #[test]
    fn q1_needs_value_joins_on_shallow() {
        let (g, db) = setup(Strategy::Shallow);
        let plan = compile(&g, &db.schema, &q1(&g)).unwrap();
        let m = plan.static_metrics();
        assert!(m.value_joins >= 2, "SHALLOW must pay value joins\n{plan}");
    }

    #[test]
    fn q1_equivalent_across_all_strategies() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let p = ScaleProfile::tpcw(&g, 60);
        let inst = generate(&g, &p, 77);
        let mut reference: Option<Vec<ElementId>> = None;
        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            let db = materialize(&g, &schema, &inst);
            let plan = compile(&g, &db.schema, &q1(&g)).unwrap();
            let r = execute(&db, &g, &plan).unwrap();
            match &reference {
                None => reference = Some(r.elements.clone()),
                Some(exp) => assert_eq!(
                    &r.elements, exp,
                    "{s}: logical answers must be schema-independent\n{plan}"
                ),
            }
        }
    }

    /// Pin the result-accounting semantics: `results` is the physical
    /// tuple count *before* duplicate elimination (so adding `Distinct`
    /// changes `distinct`, never `results`), and `GroupBy` reports its
    /// group count as `distinct` while passing the physical count through.
    #[test]
    fn result_counts_are_exact_pre_and_post_distinct() {
        // DEEP duplicates `item` under every `order_line` (the M:N
        // unfolding), so an order→item chain produces physical duplicates
        // that Distinct must collapse
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let p = ScaleProfile::tpcw(&g, 60);
        let inst = generate(&g, &p, 77);
        let schema = design(&g, Strategy::Deep).unwrap();
        let db = materialize(&g, &schema, &inst);

        let base = |distinct: bool| {
            let mut b = PatternBuilder::new(&g, "Qc")
                .node("order")
                .node("item")
                .chain(0, 1, &["order_line"])
                .unwrap()
                .output(1);
            if distinct {
                b = b.distinct();
            }
            b.build().unwrap()
        };

        let plain = execute(&db, &g, &compile(&g, &db.schema, &base(false)).unwrap()).unwrap();
        let dedup = execute(&db, &g, &compile(&g, &db.schema, &base(true)).unwrap()).unwrap();
        // Distinct collapses the logical answer but must not change the
        // physical count
        assert_eq!(dedup.results, plain.results, "physical count is pre-dedup");
        assert_eq!(dedup.distinct, dedup.elements.len() as u64);
        assert_eq!(dedup.elements, plain.elements, "same logical answer");
        assert!(dedup.results >= dedup.distinct);
        assert!(plain.results > plain.distinct, "DEEP duplicates items under order lines");

        // GroupBy: distinct = group count, physical passes through
        let grouped = PatternBuilder::new(&g, "Qg")
            .node("order")
            .node("item")
            .chain(0, 1, &["order_line"])
            .unwrap()
            .output(1)
            .distinct()
            .group_by("title")
            .build()
            .unwrap();
        let gr = execute(&db, &g, &compile(&g, &db.schema, &grouped).unwrap()).unwrap();
        assert_eq!(gr.results, plain.results, "GroupBy inherits the physical count");
        assert!(gr.distinct >= 1, "at least one name group");
        assert!(gr.distinct <= plain.elements.len() as u64, "no more groups than elements");
    }

    /// Adversarial plans return typed errors instead of aborting: unset
    /// and out-of-bounds registers, kind mismatches, color mismatches, and
    /// value joins across edges the schema does not idref-encode.
    #[test]
    fn malformed_plans_error_instead_of_panicking() {
        let (g, db) = setup(Strategy::Af);
        let country = g.node_by_name("country").unwrap();
        let plan = |ops: Vec<Op>, output: Reg, reg_count: usize| Plan {
            name: "adversarial".into(),
            strategy: "AF".into(),
            ops,
            output,
            reg_count,
            metrics: Metrics::default(),
            charges: Vec::new(),
            costs: Vec::new(),
        };
        let scan = Op::Scan { dst: 0, color: ColorId(0), node: country, pred: None };

        // unset output register
        let r = execute(&db, &g, &plan(vec![], 0, 1));
        assert!(matches!(r, Err(QueryError::Exec(_))), "{r:?}");

        // out-of-bounds output register
        let r = execute(&db, &g, &plan(vec![scan.clone()], 7, 1));
        assert!(matches!(r, Err(QueryError::Exec(_))), "{r:?}");

        // Intersect over a non-occurrence register
        let r = execute(
            &db,
            &g,
            &plan(
                vec![
                    scan.clone(),
                    Op::Distinct { dst: 1, src: 0 },
                    Op::Intersect { dst: 2, a: 1, b: 0 },
                ],
                2,
                3,
            ),
        );
        assert!(matches!(r, Err(QueryError::Exec(_))), "{r:?}");

        // Intersect with an unset input
        let r =
            execute(&db, &g, &plan(vec![scan.clone(), Op::Intersect { dst: 1, a: 0, b: 2 }], 1, 3));
        assert!(matches!(r, Err(QueryError::Exec(_))), "{r:?}");

        // StructSemi in a color the register does not hold
        let r = execute(
            &db,
            &g,
            &plan(
                vec![
                    scan.clone(),
                    Op::StructSemi {
                        dst: 1,
                        src: 0,
                        color: ColorId(9),
                        node: country,
                        via: vec![],
                        dir: VDir::Down,
                    },
                ],
                1,
                2,
            ),
        );
        assert!(matches!(r, Err(QueryError::Exec(_))), "{r:?}");

        // ValueSemi across a structurally-realized (non-idref) edge: AF
        // realizes every edge structurally, so no edge is idref-encoded
        let r = execute(
            &db,
            &g,
            &plan(
                vec![
                    scan,
                    Op::ValueSemi {
                        dst: 1,
                        src: 0,
                        edge: EdgeId(0),
                        src_is_rel: false,
                        enter: None,
                    },
                ],
                1,
                2,
            ),
        );
        assert!(matches!(r, Err(QueryError::NotIdrefEncoded { .. })), "{r:?}");
    }
}

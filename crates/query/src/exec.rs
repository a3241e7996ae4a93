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
//!
//! The executor walks the plan and keeps its registers; every read an
//! operator makes — scans, structural steps, crossings, semi-joins and the
//! counters and pages they charge — goes through one store
//! [`Reader`].

use crate::error::QueryError;
use crate::plan::{Op, Plan, Reg, VDir};
use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_mct::ColorId;
use colorist_store::{Database, ElementId, Metrics, OccSet, ReadError, Reader, Snapshot};
use std::borrow::Cow;
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

/// A register value during execution. An occurrence set borrows storage
/// whenever its operator selected a stored list wholesale (an unpredicated
/// `Scan` returns the node's occurrence list without copying it).
#[derive(Debug, Clone)]
enum SetVal<'d> {
    Occs(OccSet<'d>),
    Elems(Vec<ElementId>),
    Groups { count: usize, elems: Vec<ElementId> },
}

impl SetVal<'_> {
    /// Physical tuples this value holds directly (copies included for
    /// occurrence sets; groups report their backing elements).
    fn physical_len(&self) -> u64 {
        match self {
            SetVal::Occs(s) => s.len() as u64,
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
    let mut rd = db.reader();
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
        let before = observing.then(|| (rd.metrics, rows_in(&regs, op), Instant::now()));
        let mut op_span = colorist_trace::span("op", op_kind(op));

        let dst = op.dst();
        let val = eval(graph, &mut rd, &regs, op)?;
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
            let delta = rd.metrics.since(&snapshot);
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
        SetVal::Occs(s) => (rd.canonical(&s), None),
        SetVal::Elems(elems) => (elems, None),
        SetVal::Groups { count, elems } => (elems, Some(count as u64)),
    };
    let distinct = count_groups.unwrap_or(elements.len() as u64);
    let mut metrics = rd.metrics;
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
    graph: &ErGraph,
    rd: &mut Reader<'d>,
    regs: &[Option<SetVal<'d>>],
    op: &Op,
) -> Result<SetVal<'d>, QueryError> {
    match op {
        Op::Scan { color, node, pred, .. } => {
            let set = rd.scan(*color, *node, pred.as_ref()).map_err(read_err(graph, "Scan"))?;
            Ok(SetVal::Occs(set))
        }

        Op::StructSemi { src, color, node, via, dir, .. } => {
            check_node(graph, *node, "StructSemi")?;
            let src = expect_occs(regs, *src, *color, "StructSemi")?;
            let out = match dir {
                VDir::Down => rd.descend(src, *node, via),
                VDir::Up => rd.ascend(src, *node, via),
            };
            Ok(SetVal::Occs(out.map_err(read_err(graph, "StructSemi"))?))
        }

        Op::ValueSemi { src, edge, src_is_rel, enter, .. } => {
            let src = to_elems(rd, regs, *src, "ValueSemi")?;
            check_edge(graph, *edge, "ValueSemi")?;
            let out = rd.idref_semi(graph, *edge, *src_is_rel, &src);
            reenter(graph, rd, *enter, out, "ValueSemi")
        }

        Op::LinkSemi { src, edge, src_is_rel, enter, .. } => {
            let src = to_elems(rd, regs, *src, "LinkSemi")?;
            check_edge(graph, *edge, "LinkSemi")?;
            let out = rd.link_semi(graph, *edge, *src_is_rel, &src);
            reenter(graph, rd, *enter, out, "LinkSemi")
        }

        Op::Cross { src, color, .. } => {
            let elems = to_elems(rd, regs, *src, "Cross")?;
            let set = rd.cross(*color, &elems).map_err(read_err(graph, "Cross"))?;
            Ok(SetVal::Occs(set))
        }

        Op::Intersect { a, b, .. } => {
            let SetVal::Occs(sa) = get_reg(regs, *a, "Intersect")? else {
                return Err(QueryError::Exec(format!(
                    "Intersect: register r{a} does not hold an occurrence set"
                )));
            };
            let sb = expect_occs(regs, *b, sa.color(), "Intersect")?;
            Ok(SetVal::Occs(rd.intersect(sa, sb)))
        }

        Op::Distinct { src, .. } => {
            let elems = to_elems(rd, regs, *src, "Distinct")?;
            // the result must outlive the source register it may borrow
            Ok(SetVal::Elems(rd.distinct(elems.into_owned())))
        }

        Op::GroupBy { src, attr, .. } => {
            let elems = to_elems(rd, regs, *src, "GroupBy")?;
            let count = rd.group_count(&elems, *attr).map_err(read_err(graph, "GroupBy"))?;
            Ok(SetVal::Groups { count, elems: elems.into_owned() })
        }
    }
}

/// Map a store read failure to the executor's error, naming the operator.
fn read_err<'a>(graph: &'a ErGraph, who: &'a str) -> impl Fn(ReadError) -> QueryError + 'a {
    move |e| match e {
        ReadError::NoAttr { node, attr } => QueryError::Exec(format!(
            "{who}: attribute #{attr} out of range for `{}`",
            graph.node(node).name
        )),
        ReadError::NotIdrefEncoded(edge) => QueryError::NotIdrefEncoded {
            edge: format!(
                "{}[{}]",
                graph.node(graph.edge(edge).rel).name,
                graph.node(graph.edge(edge).participant).name
            ),
        },
        ReadError::Page(e) => e.into(),
        e => QueryError::Exec(format!("{who}: {e}")),
    }
}

/// Wrap a semi-join's element output, re-entering a colored tree when the
/// plan continues structurally.
fn reenter<'d>(
    graph: &ErGraph,
    rd: &Reader<'d>,
    enter: Option<ColorId>,
    elems: Result<Vec<ElementId>, ReadError>,
    who: &str,
) -> Result<SetVal<'d>, QueryError> {
    let elems = elems.map_err(read_err(graph, who))?;
    match enter {
        Some(c) => Ok(SetVal::Occs(rd.enter(c, &elems).map_err(read_err(graph, who))?)),
        None => Ok(SetVal::Elems(elems)),
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
fn check_edge(graph: &ErGraph, e: EdgeId, who: &str) -> Result<(), QueryError> {
    if e.idx() < graph.edge_count() {
        Ok(())
    } else {
        Err(QueryError::Exec(format!("{who}: ER edge {e:?} out of range")))
    }
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
) -> Result<&'v OccSet<'d>, QueryError> {
    match get_reg(regs, r, who)? {
        SetVal::Occs(s) if s.color() != color => Err(QueryError::Exec(format!(
            "{who}: register r{r} holds occurrences of color {}, expected {color}",
            s.color()
        ))),
        SetVal::Occs(s) => Ok(s),
        _ => Err(QueryError::Exec(format!("{who}: register r{r} does not hold an occurrence set"))),
    }
}

/// Canonical (logical) elements behind register `r`, sorted distinct.
/// Borrows the register's list when it already holds elements.
fn to_elems<'v>(
    rd: &Reader<'_>,
    regs: &'v [Option<SetVal<'_>>],
    r: Reg,
    who: &str,
) -> Result<Cow<'v, [ElementId]>, QueryError> {
    Ok(match get_reg(regs, r, who)? {
        SetVal::Occs(s) => Cow::Owned(rd.canonical(s)),
        SetVal::Elems(e) | SetVal::Groups { elems: e, .. } => Cow::Borrowed(e),
    })
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
    /// value joins across edges the schema does not idref-encode. The cost
    /// annotation, which reads the same operands, estimates every one of
    /// them without panicking.
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
        };
        let scan = Op::Scan { dst: 0, color: ColorId(0), node: country, pred: None };
        let struct_semi = |color| Op::StructSemi {
            dst: 1,
            src: 0,
            color,
            node: country,
            via: vec![],
            dir: VDir::Down,
        };
        let value_semi =
            Op::ValueSemi { dst: 1, src: 0, edge: EdgeId(0), src_is_rel: false, enter: None };
        let exec_err = |r: &Result<QueryResult, QueryError>| matches!(r, Err(QueryError::Exec(_)));
        let not_idref = |r: &Result<QueryResult, QueryError>| {
            matches!(r, Err(QueryError::NotIdrefEncoded { .. }))
        };
        type Expect = fn(&Result<QueryResult, QueryError>) -> bool;
        let cases: Vec<(&str, Plan, Expect)> = vec![
            ("unset output register", plan(vec![], 0, 1), exec_err),
            ("out-of-bounds output register", plan(vec![scan.clone()], 7, 1), exec_err),
            (
                "Intersect over a non-occurrence register",
                plan(
                    vec![
                        scan.clone(),
                        Op::Distinct { dst: 1, src: 0 },
                        Op::Intersect { dst: 2, a: 1, b: 0 },
                    ],
                    2,
                    3,
                ),
                exec_err,
            ),
            (
                "Intersect with an unset input",
                plan(vec![scan.clone(), Op::Intersect { dst: 1, a: 0, b: 2 }], 1, 3),
                exec_err,
            ),
            (
                "StructSemi in a color the register does not hold",
                plan(vec![scan.clone(), struct_semi(ColorId(9))], 1, 2),
                exec_err,
            ),
            (
                "Scan of a color the database lacks",
                plan(vec![Op::Scan { dst: 0, color: ColorId(9), node: country, pred: None }], 0, 1),
                exec_err,
            ),
            (
                "an operator writing past the registers",
                plan(vec![scan.clone(), Op::Distinct { dst: 5, src: 0 }], 0, 2),
                exec_err,
            ),
            // AF realizes every edge structurally, so no edge is
            // idref-encoded
            (
                "ValueSemi across a structurally-realized edge",
                plan(vec![scan, value_semi], 1, 2),
                not_idref,
            ),
        ];
        for (what, plan, expect) in &cases {
            let r = execute(&db, &g, plan);
            assert!(expect(&r), "{what}: {r:?}");
            let costs = crate::optimize::annotate_costs(&db, &g, plan);
            assert_eq!(costs.len(), plan.ops.len(), "{what}");
            assert!(costs.iter().all(|c| c.rows.is_finite() && c.gate_sum().is_finite()), "{what}");
        }
    }
}

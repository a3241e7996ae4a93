//! Cross-strategy answer-equivalence oracle: differential testing of the
//! whole design → materialize → compile → execute pipeline.
//!
//! The paper's central claim is that every design strategy produces an
//! *information-equivalent* schema of the same ER diagram: any query must
//! return the same logical answer on every schema, differing only in cost.
//! That claim is a free, high-yield test oracle — no hand-written expected
//! answers needed. For each seed the oracle
//!
//! 1. generates a random simplified ER diagram (bounded entity and
//!    relationship counts, random cardinalities, participation constraints
//!    and roles) on the repository's deterministic xoshiro PRNG,
//! 2. classifies it with Theorem 4.1 ([`single_color_feasibility`]) so
//!    both feasible and infeasible diagrams are exercised and reported,
//! 3. generates one shared canonical instance and materializes it under
//!    **all seven** strategies,
//! 4. compiles and executes a randomized pattern workload — point and
//!    range selections, ascent/descent chains (which become value joins on
//!    value-encoding schemas), star patterns, distinct and group-by — on
//!    every schema, and
//! 5. asserts pairwise logical-answer equivalence plus metrics sanity
//!    (runtime operation counters must equal the plan's static counts,
//!    physical counts never undercount logical ones), and
//! 6. re-executes every query with the reference kernels pinned
//!    ([`KernelDispatch::Reference`]) and asserts the
//!    index-accelerated and gallop-skipping paths return identical
//!    answers, so every CI seed differentially tests both kernel
//!    families.
//!
//! Because [`execute`] is panic-free, the oracle
//! can distinguish "engine refused" (an `Err`, reported as a divergence of
//! its own kind) from "wrong answer" — adversarial seeds never abort a
//! run. Every divergence found during development gets minimized
//! ([`minimize`]) into a fixed regression test.

use crate::suite::par_map;
use colorist_core::{design, single_color_feasibility, Strategy};
use colorist_datagen::{generate, materialize, Rng, ScaleProfile};
use colorist_er::{
    Attribute, Cardinality, EligibleAssociations, Endpoint, ErDiagram, ErGraph, NodeId, NodeKind,
    Participation,
};
use colorist_mct::{ColorId, MctSchema};
use colorist_query::{
    compile, execute, execute_snapshot, verify_plan, CmpOp, Pattern, PatternBuilder, Plan,
    QueryResult,
};
use colorist_store::{Database, KernelDispatch, Storage, UpdateBatch, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Stream-splitting constant: keeps oracle randomness decorrelated from
/// the property tests, which seed the same PRNG with small offsets.
const ORACLE_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maximum entity count of a random diagram (minimum is 2).
const MAX_ENTITIES: u64 = 5;
/// Maximum relationship count of a random diagram (minimum is 1).
const MAX_RELS: u64 = 7;
/// Maximum association length considered when picking chain queries.
const MAX_CHAIN: usize = 6;

/// Bounds and knobs of one oracle run. The defaults keep a seed cheap
/// enough for hundreds per second of CPU budget.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Base entity extent of the shared canonical instance.
    pub scale: u32,
    /// Queries generated per seed.
    pub queries: usize,
    /// Storage every strategy's database is attached to, so the sweep also
    /// exercises the paged backend's flush/reload-path accounting.
    pub storage: Storage,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { scale: 20, queries: 6, storage: Storage::Heap }
    }
}

/// One observed divergence: a strategy disagreeing with the reference
/// answer, an engine refusal, or a metrics-sanity violation.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The seed that produced the diagram, data, and queries.
    pub seed: u64,
    /// Name of the diverging query (`<design>` for design failures).
    pub query: String,
    /// Label of the strategy that diverged.
    pub strategy: String,
    /// What went wrong, with the reference strategy named when relevant.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {} / {} on {}: {}", self.seed, self.query, self.strategy, self.detail)
    }
}

/// The outcome of one oracle seed.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The seed replayed by [`run_seed`].
    pub seed: u64,
    /// Theorem 4.1 verdict for the generated diagram.
    pub feasible: bool,
    /// Queries generated and executed on every schema.
    pub queries_run: usize,
    /// All divergences observed (empty on a clean seed).
    pub divergences: Vec<Divergence>,
}

/// Aggregate over a seed range.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Per-seed outcomes, in seed order.
    pub reports: Vec<SeedReport>,
}

impl OracleReport {
    /// All divergences across the range, in seed order.
    pub fn divergences(&self) -> Vec<&Divergence> {
        self.reports.iter().flat_map(|r| r.divergences.iter()).collect()
    }

    /// Seeds whose diagram is single-color feasible (Theorem 4.1).
    pub fn feasible_seeds(&self) -> usize {
        self.reports.iter().filter(|r| r.feasible).count()
    }

    /// Total queries executed (each on all seven schemas).
    pub fn queries_run(&self) -> usize {
        self.reports.iter().map(|r| r.queries_run).sum()
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let divs = self.divergences();
        writeln!(
            f,
            "oracle: {} seeds ({} feasible per Theorem 4.1), {} queries x {} strategies, {} divergence(s)",
            self.reports.len(),
            self.feasible_seeds(),
            self.queries_run(),
            Strategy::ALL.len(),
            divs.len()
        )?;
        for d in divs {
            writeln!(f, "  DIVERGENCE {d}")?;
        }
        Ok(())
    }
}

/// A random simplified ER diagram: `2..=MAX_ENTITIES` entities (key, text
/// label, integer measure), `1..=MAX_RELS` binary relationships with
/// random cardinalities, participation, roles, and an occasional
/// relationship attribute. Recursive relationships (both endpoints the
/// same entity) arise naturally.
pub fn arb_diagram(rng: &mut Rng) -> ErDiagram {
    let n = 2 + rng.below(MAX_ENTITIES - 1) as usize;
    let n_rels = 1 + rng.below(MAX_RELS) as usize;
    let mut d = ErDiagram::new("oracle");
    for i in 0..n {
        d.add_entity(
            &format!("e{i}"),
            vec![
                Attribute::key("id"),
                Attribute::text("label"),
                Attribute::with_domain("size", colorist_er::Domain::Integer),
            ],
        )
        .expect("fresh entity name");
    }
    for k in 0..n_rels {
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        let (ca, cb) = match rng.below(4) {
            0 => (Cardinality::One, Cardinality::One),
            1 => (Cardinality::Many, Cardinality::One),
            2 => (Cardinality::One, Cardinality::Many),
            _ => (Cardinality::Many, Cardinality::Many),
        };
        let mut ea = Endpoint::new(&format!("e{a}"), ca).role("l");
        let mut eb = Endpoint::new(&format!("e{b}"), cb).role("r");
        if rng.below(2) == 1 {
            eb = eb.total();
        }
        if rng.below(4) == 0 {
            ea = ea.total();
        }
        let attrs = if rng.below(4) == 0 {
            vec![Attribute::with_domain("qty", colorist_er::Domain::Integer)]
        } else {
            vec![]
        };
        d.add_relationship(&format!("r{k}"), vec![ea, eb], attrs).expect("fresh rel name");
    }
    d
}

/// `via` names (interior path nodes) of an association, oriented
/// `from → to`.
fn via_names(g: &ErGraph, a: &colorist_er::Association, flip: bool) -> Vec<String> {
    let interior = &a.nodes[1..a.nodes.len() - 1];
    let names: Vec<String> = interior.iter().map(|&n| g.node(n).name.clone()).collect();
    if flip {
        names.into_iter().rev().collect()
    } else {
        names
    }
}

/// A randomized pattern workload over one graph: selections, chains (with
/// random direction, so both descents and ascents), star patterns,
/// distinct, and group-by. Deterministic in `rng`.
pub fn arb_queries(g: &ErGraph, rng: &mut Rng, cfg: &OracleConfig) -> Vec<Pattern> {
    let elig = EligibleAssociations::enumerate(g, MAX_CHAIN);
    let assocs: Vec<_> = elig.iter().collect();
    let entities: Vec<_> = g.entity_nodes().collect();
    let mut out = Vec::with_capacity(cfg.queries);
    let mut attempts = 0usize;
    while out.len() < cfg.queries && attempts < cfg.queries * 8 {
        attempts += 1;
        let i = out.len();
        let form = rng.below(6);
        let q = match form {
            // point selection on an entity key
            0 => {
                let e = entities[rng.below(entities.len() as u64) as usize];
                let key = rng.below(cfg.scale as u64) as i64;
                PatternBuilder::new(g, &format!("q{i}_sel"))
                    .node(&g.node(e).name)
                    .pred_eq("id", Value::Int(key))
                    .output(0)
                    .build()
                    .ok()
            }
            // range selection on the integer measure
            1 => {
                let e = entities[rng.below(entities.len() as u64) as usize];
                let op = if rng.below(2) == 0 { CmpOp::Lt } else { CmpOp::Gt };
                let threshold = rng.range_i64(100, 900);
                PatternBuilder::new(g, &format!("q{i}_range"))
                    .node(&g.node(e).name)
                    .pred("size", op, Value::Int(threshold))
                    .output(0)
                    .distinct()
                    .build()
                    .ok()
            }
            // star: two chains out of a shared source node
            2 => star_query(g, &assocs, rng, i, cfg),
            // chain + group-by on the target's label
            3 => chain_query(g, &assocs, rng, i, cfg, ChainForm::GroupBy),
            // chain without predicate
            4 => chain_query(g, &assocs, rng, i, cfg, ChainForm::Bare),
            // chain with a key predicate on the source (the workhorse)
            _ => chain_query(g, &assocs, rng, i, cfg, ChainForm::KeyPred),
        };
        if let Some(q) = q {
            out.push(q);
        }
    }
    out
}

/// Flavor of a generated chain query.
enum ChainForm {
    /// Key-equality predicate on the chain's source node.
    KeyPred,
    /// No predicate: every target instance reachable over the association.
    Bare,
    /// Group the (distinct) targets by their text label.
    GroupBy,
}

/// One chain query along a random eligible association, direction
/// randomly flipped (exercising both descents and ascents).
fn chain_query(
    g: &ErGraph,
    assocs: &[&colorist_er::Association],
    rng: &mut Rng,
    i: usize,
    cfg: &OracleConfig,
    form: ChainForm,
) -> Option<Pattern> {
    if assocs.is_empty() {
        return None;
    }
    let a = assocs[rng.below(assocs.len() as u64) as usize];
    let flip = rng.below(2) == 1;
    let (from, to) = if flip { (a.target, a.source) } else { (a.source, a.target) };
    let via = via_names(g, a, flip);
    let via_refs: Vec<&str> = via.iter().map(String::as_str).collect();
    let key = rng.below(cfg.scale as u64) as i64;
    let b = PatternBuilder::new(g, &format!("q{i}_chain")).node(&g.node(from).name);
    let b = match form {
        ChainForm::KeyPred => b.pred_eq("id", Value::Int(key)),
        ChainForm::Bare | ChainForm::GroupBy => b,
    };
    let b = b.node(&g.node(to).name).chain(0, 1, &via_refs).ok()?.output(1).distinct();
    match form {
        ChainForm::GroupBy => b.group_by("label").build().ok(),
        _ => b.build().ok(),
    }
}

/// A star pattern: two chains out of one shared source (compiled into an
/// occurrence-set intersection), with a key predicate on the source.
fn star_query(
    g: &ErGraph,
    assocs: &[&colorist_er::Association],
    rng: &mut Rng,
    i: usize,
    cfg: &OracleConfig,
) -> Option<Pattern> {
    if assocs.is_empty() {
        return None;
    }
    let first = assocs[rng.below(assocs.len() as u64) as usize];
    let siblings: Vec<_> = assocs.iter().filter(|a| a.source == first.source).collect();
    if siblings.len() < 2 {
        return None;
    }
    let second = siblings[rng.below(siblings.len() as u64) as usize];
    let via1 = via_names(g, first, false);
    let via2 = via_names(g, second, false);
    let via1_refs: Vec<&str> = via1.iter().map(String::as_str).collect();
    let via2_refs: Vec<&str> = via2.iter().map(String::as_str).collect();
    let key = rng.below(cfg.scale as u64) as i64;
    PatternBuilder::new(g, &format!("q{i}_star"))
        .node(&g.node(first.source).name)
        .pred_eq("id", Value::Int(key))
        .node(&g.node(first.target).name)
        .node(&g.node(second.target).name)
        .chain(0, 1, &via1_refs)
        .ok()?
        .chain(0, 2, &via2_refs)
        .ok()?
        .output(0)
        .distinct()
        .build()
        .ok()
}

/// Runtime/plan consistency checks on one result. Returns violations.
fn metrics_sanity(plan: &Plan, r: &QueryResult) -> Vec<String> {
    let want = plan.static_metrics();
    let got = &r.metrics;
    let mut v = Vec::new();
    let pairs = [
        ("structural_joins", want.structural_joins, got.structural_joins),
        ("value_joins", want.value_joins, got.value_joins),
        ("color_crossings", want.color_crossings, got.color_crossings),
        ("dup_eliminations", want.dup_eliminations, got.dup_eliminations),
        ("group_bys", want.group_bys, got.group_bys),
    ];
    for (name, w, g) in pairs {
        if w != g {
            v.push(format!("{name}: plan says {w}, runtime counted {g}"));
        }
    }
    if r.results < r.distinct {
        v.push(format!("physical {} undercounts logical {}", r.results, r.distinct));
    }
    if want.group_bys == 0 && r.distinct != r.elements.len() as u64 {
        v.push(format!("distinct {} != {} logical elements", r.distinct, r.elements.len()));
    }
    if got.results != r.results || got.distinct_results != r.distinct {
        v.push("metrics results/distinct disagree with the QueryResult".into());
    }
    v
}

/// Everything one seed determines: diagram, graph, queries, and the
/// shared canonical instance's seed.
struct SeedSetup {
    diagram: ErDiagram,
    graph: ErGraph,
    feasible: bool,
    queries: Vec<Pattern>,
    data_seed: u64,
}

fn setup_seed(seed: u64, cfg: &OracleConfig) -> SeedSetup {
    let mut rng = Rng::new(seed.wrapping_mul(ORACLE_STREAM) ^ 0x04AC1E);
    let diagram = arb_diagram(&mut rng);
    let graph = ErGraph::from_diagram(&diagram).expect("generated diagrams are valid");
    let feasible = single_color_feasibility(&graph).feasible();
    let queries = arb_queries(&graph, &mut rng, cfg);
    let data_seed = rng.below(1 << 20);
    SeedSetup { diagram, graph, feasible, queries, data_seed }
}

/// Design + materialize every strategy over one shared instance.
/// A design failure becomes a divergence (strategies must design any
/// simplified diagram).
fn build_databases(
    setup: &SeedSetup,
    seed: u64,
    cfg: &OracleConfig,
    divergences: &mut Vec<Divergence>,
) -> Vec<(Strategy, Database)> {
    let g = &setup.graph;
    let inst = generate(g, &ScaleProfile::uniform(g, cfg.scale), setup.data_seed);
    let mut dbs = Vec::with_capacity(Strategy::ALL.len());
    for s in Strategy::ALL {
        match design(g, s) {
            Ok(schema) => {
                for d in colorist_mct::lint_schema(g, &schema) {
                    divergences.push(Divergence {
                        seed,
                        query: "<design>".into(),
                        strategy: s.label().into(),
                        detail: format!("schema lint: {d}"),
                    });
                }
                let mut db = materialize(g, &schema, &inst);
                cfg.storage.attach(&mut db).expect("storage backend attaches");
                dbs.push((s, db));
            }
            Err(e) => divergences.push(Divergence {
                seed,
                query: "<design>".into(),
                strategy: s.label().into(),
                detail: format!("design failed: {e}"),
            }),
        }
    }
    dbs
}

/// Run one seed: generate, materialize under all strategies, execute the
/// random workload everywhere, and compare. Never panics on a seed the
/// generator can produce; engine refusals are reported as divergences.
pub fn run_seed(seed: u64, cfg: &OracleConfig) -> SeedReport {
    let setup = setup_seed(seed, cfg);
    let g = &setup.graph;
    let mut divergences = Vec::new();
    let mut dbs = build_databases(&setup, seed, cfg, &mut divergences);

    for q in &setup.queries {
        // reference answer: the first strategy that executes the query
        let mut reference: Option<(Strategy, QueryResult)> = None;
        for (s, db) in dbs.iter_mut() {
            let s: &Strategy = s;
            let plan = match compile(g, &db.schema, q) {
                Ok(plan) => plan,
                Err(e) => {
                    divergences.push(Divergence {
                        seed,
                        query: q.name.clone(),
                        strategy: s.label().into(),
                        detail: format!("engine refused: {e}"),
                    });
                    continue;
                }
            };
            // Every compiled plan must pass the static verifier before it
            // is trusted to execute — a diagnostic here is a compiler bug.
            for d in verify_plan(g, &db.schema, &plan) {
                divergences.push(Divergence {
                    seed,
                    query: q.name.clone(),
                    strategy: s.label().into(),
                    detail: format!("static verifier: {d}"),
                });
            }
            let r = match execute(db, g, &plan) {
                Ok(r) => r,
                Err(e) => {
                    divergences.push(Divergence {
                        seed,
                        query: q.name.clone(),
                        strategy: s.label().into(),
                        detail: format!("engine refused: {e}"),
                    });
                    continue;
                }
            };
            for violation in metrics_sanity(&plan, &r) {
                divergences.push(Divergence {
                    seed,
                    query: q.name.clone(),
                    strategy: s.label().into(),
                    detail: format!("metrics sanity: {violation}"),
                });
            }
            // Kernel sweep: the index-accelerated / gallop-skipping kernels
            // must be answer-identical to the linear/merge/hash reference
            // paths on every seed, query, and strategy — so each CI seed
            // exercises both code paths differentially.
            db.set_kernel_dispatch(KernelDispatch::Reference);
            let ref_run = execute(db, g, &plan);
            db.set_kernel_dispatch(KernelDispatch::CostModel);
            match ref_run {
                Ok(rr) => {
                    if rr.elements != r.elements
                        || rr.results != r.results
                        || rr.distinct != r.distinct
                    {
                        divergences.push(Divergence {
                            seed,
                            query: q.name.clone(),
                            strategy: s.label().into(),
                            detail: format!(
                                "kernel divergence: indexed kernels gave {}/{} (physical/logical), \
                                 reference kernels gave {}/{}",
                                r.results, r.distinct, rr.results, rr.distinct
                            ),
                        });
                    }
                }
                Err(e) => divergences.push(Divergence {
                    seed,
                    query: q.name.clone(),
                    strategy: s.label().into(),
                    detail: format!("kernel divergence: reference kernels refused: {e}"),
                }),
            }
            match &reference {
                None => reference = Some((*s, r)),
                Some((ref_s, ref_r)) => {
                    if r.elements != ref_r.elements {
                        divergences.push(Divergence {
                            seed,
                            query: q.name.clone(),
                            strategy: s.label().into(),
                            detail: format!(
                                "answer diverges from {}: {} vs {} elements",
                                ref_s.label(),
                                r.elements.len(),
                                ref_r.elements.len()
                            ),
                        });
                    } else if r.distinct != ref_r.distinct {
                        divergences.push(Divergence {
                            seed,
                            query: q.name.clone(),
                            strategy: s.label().into(),
                            detail: format!(
                                "distinct count diverges from {}: {} vs {}",
                                ref_s.label(),
                                r.distinct,
                                ref_r.distinct
                            ),
                        });
                    }
                }
            }
        }
    }

    SeedReport { seed, feasible: setup.feasible, queries_run: setup.queries.len(), divergences }
}

/// One oracle seed's static artifacts: the generated graph, the designed
/// schemas, and every plan the compiler produced for the seed's workload.
/// This is the corpus the static-verifier mutation harness perturbs — no
/// data is materialized and nothing executes, so a seed is cheap.
#[derive(Debug, Clone)]
pub struct SeedCorpus {
    /// The generated ER graph.
    pub graph: ErGraph,
    /// Designed schema per strategy (design failures are skipped).
    pub schemas: Vec<(Strategy, MctSchema)>,
    /// Compiled plans: (index into `schemas`, query name, plan).
    pub plans: Vec<(usize, String, Plan)>,
}

/// Generate one oracle seed and compile its whole workload against every
/// strategy, without materializing or executing anything.
pub fn compile_seed(seed: u64, cfg: &OracleConfig) -> SeedCorpus {
    let setup = setup_seed(seed, cfg);
    let mut schemas = Vec::new();
    for s in Strategy::ALL {
        if let Ok(schema) = design(&setup.graph, s) {
            schemas.push((s, schema));
        }
    }
    let mut plans = Vec::new();
    for (si, (_, schema)) in schemas.iter().enumerate() {
        for q in &setup.queries {
            if let Ok(plan) = compile(&setup.graph, schema, q) {
                plans.push((si, q.name.clone(), plan));
            }
        }
    }
    SeedCorpus { graph: setup.graph, schemas, plans }
}

/// Run `count` seeds starting at `start` on up to `threads` workers.
/// Deterministic: the report is identical for any worker count.
pub fn run_seeds(start: u64, count: u64, cfg: &OracleConfig, threads: usize) -> OracleReport {
    let cfg = cfg.clone();
    let reports = par_map(count as usize, threads, move |i| run_seed(start + i as u64, &cfg));
    OracleReport { reports }
}

/// A minimized reproduction of a divergent seed: the smallest scale on a
/// fixed ladder that still diverges, and the first divergence at it.
#[derive(Debug, Clone)]
pub struct MinimizedCase {
    /// The divergent seed.
    pub seed: u64,
    /// Smallest diverging scale found.
    pub scale: u32,
    /// First divergence at that scale.
    pub divergence: Divergence,
}

impl fmt::Display for MinimizedCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "minimized: seed {} reproduces at --scale {} ({})",
            self.seed, self.scale, self.divergence
        )
    }
}

/// Shrink a divergent seed by walking a scale ladder bottom-up and
/// keeping the smallest scale that still diverges. Returns `None` when
/// the seed is clean under `cfg`.
pub fn minimize(seed: u64, cfg: &OracleConfig) -> Option<MinimizedCase> {
    let full = run_seed(seed, cfg);
    let mut best: (u32, Divergence) = (cfg.scale, full.divergences.first()?.clone());
    for scale in [2u32, 3, 5, 8, 13] {
        if scale >= cfg.scale {
            break;
        }
        let r = run_seed(seed, &OracleConfig { scale, ..cfg.clone() });
        if let Some(d) = r.divergences.first() {
            best = (scale, d.clone());
            break;
        }
    }
    Some(MinimizedCase { seed, scale: best.0, divergence: best.1 })
}

/// Human-readable description of one seed's diagram and workload — the
/// replay view printed by `colorist oracle --replay`.
pub fn replay_text(seed: u64, cfg: &OracleConfig) -> String {
    use fmt::Write as _;
    let setup = setup_seed(seed, cfg);
    let g = &setup.graph;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "seed {seed}: diagram `{}` ({} nodes, {} edges), Theorem 4.1 feasible: {}",
        setup.diagram.name,
        g.node_count(),
        g.edge_count(),
        setup.feasible
    );
    for rel in g.relationship_nodes() {
        let ends: Vec<String> = g
            .edges()
            .iter()
            .filter(|e| e.rel == rel)
            .map(|e| {
                format!(
                    "{}({}{})",
                    g.node(e.participant).name,
                    match e.cardinality {
                        Cardinality::One => "1",
                        Cardinality::Many => "m",
                    },
                    match e.participation {
                        Participation::Total => ",total",
                        Participation::Partial => "",
                    }
                )
            })
            .collect();
        let _ = writeln!(s, "  rel {}: {}", g.node(rel).name, ends.join(" -- "));
    }
    let _ = writeln!(s, "  data seed {}, scale {}", setup.data_seed, cfg.scale);

    let mut divergences = Vec::new();
    let dbs = build_databases(&setup, seed, cfg, &mut divergences);
    for q in &setup.queries {
        let _ = writeln!(s, "query {}:", q.name);
        for (st, db) in &dbs {
            match compile(g, &db.schema, q).and_then(|plan| Ok((execute(db, g, &plan)?, plan))) {
                Ok((r, plan)) => {
                    let _ = writeln!(
                        s,
                        "  {:7} {} logical / {} physical  [sj {} vj {} cc {}]",
                        st.label(),
                        r.distinct,
                        r.results,
                        r.metrics.structural_joins,
                        r.metrics.value_joins,
                        r.metrics.color_crossings
                    );
                    let _ = write!(s, "{}", indent(&plan.to_string(), "    "));
                    let _ = write!(
                        s,
                        "{}",
                        indent(&colorist_query::explain_abstract(g, &db.schema, &plan), "    ")
                    );
                }
                Err(e) => {
                    let _ = writeln!(s, "  {:7} REFUSED: {e}", st.label());
                }
            }
        }
    }
    let report = run_seed(seed, cfg);
    if report.divergences.is_empty() {
        let _ = writeln!(s, "seed {seed}: clean");
    } else {
        for d in &report.divergences {
            let _ = writeln!(s, "DIVERGENCE {d}");
        }
    }
    s
}

fn indent(text: &str, pad: &str) -> String {
    text.lines().map(|l| format!("{pad}{l}\n")).collect()
}

/// One randomized update batch in *logical* coordinates — `(node,
/// ordinal)` pairs name the same instance in every strategy's database,
/// even though the physical `ElementId`s differ. Writes touch entity
/// attributes; deletes are **delete-closed** (see [`delete_closure`]) so
/// that applying them leaves all seven databases logically identical.
#[derive(Debug, Clone)]
struct LogicalBatch {
    /// `(node, ordinal, attr, value)` attribute writes.
    writes: Vec<(NodeId, u32, usize, Value)>,
    /// Doomed logical instances, sorted for deterministic application.
    deletes: Vec<(NodeId, u32)>,
}

impl LogicalBatch {
    /// Resolve the logical ops against one database's physical ids.
    fn resolve(&self, db: &Database) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        for (node, ordinal, attr, value) in &self.writes {
            if let Some(e) = db.canonical_by_ordinal(*node, *ordinal) {
                b.write_attr(e, *attr, value.clone());
            }
        }
        for (node, ordinal) in &self.deletes {
            if let Some(e) = db.canonical_by_ordinal(*node, *ordinal) {
                b.delete(e);
            }
        }
        b
    }
}

/// Close a set of doomed logical instances under the two rules that make
/// a batch of deletes strategy-equivalent:
///
/// 1. **link closure** — a relationship instance referencing a doomed
///    participant is doomed (its links die with the participant, and in
///    schemas nesting the relationship under that participant its subtree
///    vanishes structurally);
/// 2. **subtree closure** — if *any* schema places an instance's
///    occurrence inside a doomed instance's subtree, the instance is
///    doomed everywhere (XML deletes remove whole subtrees, and different
///    strategies nest different nodes under each other).
///
/// Iterates to fixpoint, so the returned set can be deleted under all
/// seven strategies and leave logically identical databases.
fn delete_closure(
    g: &ErGraph,
    dbs: &[(Strategy, Database)],
    seeds: &BTreeSet<(NodeId, u32)>,
) -> BTreeSet<(NodeId, u32)> {
    let mut doomed = seeds.clone();
    loop {
        let before = doomed.len();
        // 1. relationship instances linked to doomed participants (the
        //    link tables are shared canonical-instance data, identical in
        //    every database — any one serves)
        if let Some((_, db0)) = dbs.first() {
            for (node, ordinal) in doomed.clone() {
                for &(e, _) in g.incident(node) {
                    let edge = g.edge(e);
                    if edge.participant == node {
                        for ro in db0.linked_rels(e, ordinal) {
                            doomed.insert((edge.rel, ro));
                        }
                    }
                }
            }
        }
        // 2. occurrences inside a doomed subtree, in any schema
        for (_, db) in dbs {
            for ci in 0..db.color_count() {
                let tree = db.color(ColorId(ci as u16));
                let occs = tree.occs();
                // document order puts parents before children, so one
                // forward pass propagates doom down every parent chain
                let mut dead = vec![false; occs.len()];
                for i in 0..occs.len() {
                    let el = db.element(db.element(occs[i].element).canonical);
                    dead[i] = doomed.contains(&(el.node, el.ordinal))
                        || occs[i].parent.is_some_and(|p| dead[p.idx()]);
                }
                for (i, o) in occs.iter().enumerate() {
                    if dead[i] {
                        let el = db.element(db.element(o.element).canonical);
                        doomed.insert((el.node, el.ordinal));
                    }
                }
            }
        }
        if doomed.len() == before {
            return doomed;
        }
    }
}

/// Execute every query of the seed's workload on one database, returning
/// per-query outcomes comparable across strategies: canonical element
/// ids are allocated identically by every materialization, so equal
/// answers are `Vec`-equal.
fn batch_answers(
    db: &Database,
    g: &ErGraph,
    queries: &[Pattern],
) -> Vec<Result<QueryResult, String>> {
    queries
        .iter()
        .map(|q| {
            compile(g, &db.schema, q)
                .and_then(|plan| execute(db, g, &plan))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Compare two answer vectors; push a divergence per mismatch. With
/// `physical` the physical tuple counts must match too (same-strategy
/// comparisons: snapshot vs serial, indexed vs reference kernels);
/// without it only the logical answer must (cross-strategy comparisons,
/// where copy counts legitimately differ).
#[allow(clippy::too_many_arguments)]
fn compare_answers(
    seed: u64,
    phase: &str,
    strategy: &str,
    reference: &str,
    physical: bool,
    queries: &[Pattern],
    got: &[Result<QueryResult, String>],
    want: &[Result<QueryResult, String>],
    divergences: &mut Vec<Divergence>,
) {
    for (i, q) in queries.iter().enumerate() {
        let ok = match (&got[i], &want[i]) {
            (Ok(a), Ok(b)) => {
                a.elements == b.elements
                    && a.distinct == b.distinct
                    && a.results >= a.distinct
                    && (!physical || a.results == b.results)
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !ok {
            let render = |r: &Result<QueryResult, String>| match r {
                Ok(r) => format!("{} logical / {} physical", r.distinct, r.results),
                Err(e) => format!("refused: {e}"),
            };
            divergences.push(Divergence {
                seed,
                query: format!("{}@{phase}", q.name),
                strategy: strategy.into(),
                detail: format!(
                    "{phase} answer diverges from {reference}: {} vs {}",
                    render(&got[i]),
                    render(&want[i])
                ),
            });
        }
    }
}

/// One batch-oracle seed's randomized update batch (attribute writes, text
/// and integer, plus a delete-closed delete set), split into two halves
/// whose cumulative delete sets are each delete-closed — otherwise the
/// state between them would itself be strategy-dependent.
fn batch_halves(seed: u64, g: &ErGraph, dbs: &[(Strategy, Database)]) -> [LogicalBatch; 2] {
    let mut rng = Rng::new(seed.wrapping_mul(ORACLE_STREAM) ^ 0xBA7C4);
    let entities: Vec<NodeId> = g.entity_nodes().collect();
    let pick_instance = |rng: &mut Rng, db: &Database| {
        let node = entities[rng.below(entities.len() as u64) as usize];
        let count = db.ordinal_count(node);
        (node, rng.below(count.max(1) as u64) as u32)
    };
    let (mut writes, mut first_deletes, mut rest_deletes) =
        (Vec::new(), BTreeSet::new(), BTreeSet::new());
    if let Some((_, db0)) = dbs.first() {
        for _ in 0..(2 + rng.below(4)) {
            let (node, ordinal) = pick_instance(&mut rng, db0);
            // entity attrs are [id, label, size]; write the non-key ones
            let (attr, value) = if rng.below(2) == 0 {
                (1, Value::Text(format!("w{}", rng.below(1000))))
            } else {
                (2, Value::Int(rng.range_i64(-500, 1500)))
            };
            writes.push((node, ordinal, attr, value));
        }
        let n_deletes = 2 + rng.below(3);
        for i in 0..n_deletes {
            let inst = pick_instance(&mut rng, db0);
            if i < n_deletes / 2 + 1 {
                first_deletes.insert(inst);
            } else {
                rest_deletes.insert(inst);
            }
        }
    }
    let closed_first = delete_closure(g, dbs, &first_deletes);
    let all_seeds: BTreeSet<(NodeId, u32)> = first_deletes.union(&rest_deletes).copied().collect();
    let closed_all = delete_closure(g, dbs, &all_seeds);
    let live_writes: Vec<_> =
        writes.iter().filter(|(n, o, _, _)| !closed_all.contains(&(*n, *o))).cloned().collect();
    let mid = writes.len() / 2;
    [
        LogicalBatch {
            writes: live_writes.iter().take(mid).cloned().collect(),
            deletes: closed_first.iter().copied().collect(),
        },
        LogicalBatch {
            writes: live_writes.iter().skip(mid).cloned().collect(),
            deletes: closed_all.difference(&closed_first).copied().collect(),
        },
    ]
}

/// Replay one randomized update batch under all seven strategies and
/// assert equivalence at every observation point:
///
/// * the batch (attribute writes + a delete-closed delete set, derived in
///   logical coordinates and resolved per database) commits **half at a
///   time**, and after each half all strategies must agree on every
///   workload query — the mid-batch state is a real state;
/// * every commit runs through `UpdateBatch::apply_verified`, so B002 —
///   the keys the mutators touched lie inside the batch's static
///   footprint — is checked in release builds too;
/// * a [`Snapshot`](colorist_store::Snapshot) taken before the first half
///   must keep returning the pre-batch answers, byte for byte, after both
///   commits;
/// * after the full batch, the index-accelerated answers must equal the
///   reference-kernel answers on every strategy (the delete-path
///   stale-index differential), and [`Database::check_integrity`] (S008)
///   must hold on every database.
pub fn run_batch_seed(seed: u64, cfg: &OracleConfig) -> SeedReport {
    let setup = setup_seed(seed, cfg);
    let g = &setup.graph;
    let mut divergences = Vec::new();
    let mut dbs = build_databases(&setup, seed, cfg, &mut divergences);
    for (s, db) in &dbs {
        if let Err(e) = db.check_integrity() {
            divergences.push(Divergence {
                seed,
                query: "<build>".into(),
                strategy: s.label().into(),
                detail: format!("integrity: {e}"),
            });
        }
    }
    let [half1, half2] = batch_halves(seed, g, &dbs);

    // pre-batch serial answers + one snapshot per strategy
    let queries = &setup.queries;
    let pre: Vec<Vec<Result<QueryResult, String>>> =
        dbs.iter().map(|(_, db)| batch_answers(db, g, queries)).collect();
    let snapshots: Vec<_> = dbs.iter().map(|(_, db)| db.snapshot()).collect();

    for (phase, batch) in [("mid-batch", &half1), ("post-batch", &half2)] {
        let mut reference: Option<(String, Vec<Result<QueryResult, String>>)> = None;
        for (i, (s, db)) in dbs.iter_mut().enumerate() {
            let fail = |detail: String| Divergence {
                seed,
                query: format!("<batch@{phase}>"),
                strategy: s.label().into(),
                detail,
            };
            match batch.resolve(db).apply_verified(db, g) {
                Ok((_, footprint, touched)) => {
                    if let Err(msg) = footprint.covers(&touched) {
                        divergences.push(fail(msg));
                    }
                }
                Err(e) => {
                    divergences.push(fail(format!("batch rejected: {e}")));
                    continue;
                }
            }
            if let Err(e) = db.check_integrity() {
                divergences.push(fail(format!("integrity after commit: {e}")));
            }
            // the pre-batch snapshot must be immune to both commits
            let snap_answers: Vec<Result<QueryResult, String>> = queries
                .iter()
                .map(|q| {
                    compile(g, &snapshots[i].schema, q)
                        .and_then(|plan| execute_snapshot(&snapshots[i], g, &plan))
                        .map_err(|e| e.to_string())
                })
                .collect();
            compare_answers(
                seed,
                &format!("snapshot-{phase}"),
                s.label(),
                "pre-batch serial",
                true,
                queries,
                &snap_answers,
                &pre[i],
                &mut divergences,
            );
            // all strategies must agree on the committed state
            let now = batch_answers(db, g, queries);
            // the stale-index differential: reference kernels see the
            // same post-delete world as the index-backed fast paths
            db.set_kernel_dispatch(KernelDispatch::Reference);
            let ref_now = batch_answers(db, g, queries);
            db.set_kernel_dispatch(KernelDispatch::CostModel);
            compare_answers(
                seed,
                &format!("kernels-{phase}"),
                s.label(),
                "reference kernels",
                true,
                queries,
                &now,
                &ref_now,
                &mut divergences,
            );
            match &reference {
                None => reference = Some((s.label().into(), now)),
                Some((ref_label, ref_answers)) => compare_answers(
                    seed,
                    phase,
                    s.label(),
                    ref_label,
                    false,
                    queries,
                    &now,
                    ref_answers,
                    &mut divergences,
                ),
            }
        }
    }

    SeedReport { seed, feasible: setup.feasible, queries_run: setup.queries.len(), divergences }
}

/// Run `count` batch-replay seeds starting at `start` on up to `threads`
/// workers. Deterministic for any worker count, like [`run_seeds`].
pub fn run_batch_seeds(start: u64, count: u64, cfg: &OracleConfig, threads: usize) -> OracleReport {
    let cfg = cfg.clone();
    let reports = par_map(count as usize, threads, move |i| run_batch_seed(start + i as u64, &cfg));
    OracleReport { reports }
}

/// Entity / relationship node kinds exercised by the generator — used by
/// the binary's summary line.
pub fn diagram_shape(g: &ErGraph) -> (usize, usize) {
    let ents = g.nodes().iter().filter(|n| n.kind == NodeKind::Entity).count();
    (ents, g.node_count() - ents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_store::CommitScheduler;

    #[test]
    fn oracle_seed_is_deterministic() {
        let cfg = OracleConfig::default();
        let a = run_seed(7, &cfg);
        let b = run_seed(7, &cfg);
        assert_eq!(a.feasible, b.feasible);
        assert_eq!(a.queries_run, b.queries_run);
        assert_eq!(a.divergences.len(), b.divergences.len());
    }

    #[test]
    fn parallel_range_matches_serial() {
        let cfg = OracleConfig { scale: 8, queries: 3, ..OracleConfig::default() };
        let serial = run_seeds(0, 6, &cfg, 1);
        let par = run_seeds(0, 6, &cfg, 4);
        assert_eq!(serial.reports.len(), par.reports.len());
        for (a, b) in serial.reports.iter().zip(&par.reports) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.feasible, b.feasible);
            assert_eq!(a.queries_run, b.queries_run);
            assert_eq!(a.divergences.len(), b.divergences.len());
        }
    }

    #[test]
    fn generator_mixes_feasible_and_infeasible_diagrams() {
        let cfg = OracleConfig::default();
        let mut feasible = 0;
        let mut infeasible = 0;
        for seed in 0..32 {
            let setup = setup_seed(seed, &cfg);
            if setup.feasible {
                feasible += 1;
            } else {
                infeasible += 1;
            }
            assert!(!setup.queries.is_empty(), "seed {seed} generated no queries");
        }
        assert!(feasible > 0, "Theorem 4.1-feasible diagrams must occur");
        assert!(infeasible > 0, "infeasible diagrams must occur");
    }

    #[test]
    fn batch_seeds_hold_b002_and_agree_across_strategies() {
        let cfg = OracleConfig { scale: 8, queries: 3, ..OracleConfig::default() };
        let report = run_batch_seeds(0, 8, &cfg, 2);
        assert!(report.divergences().is_empty(), "{report}");
    }

    /// Random delete-closed batches written through one staging object
    /// land exactly where applying them one by one does — every structure —
    /// with the same per-batch verdicts,
    /// one epoch step, a clean S008 audit, and a snapshot pinned before the
    /// group untouched. Each group stages both halves of a batch-oracle
    /// seed, then the first half again: its deletes are already done, so
    /// the group rejects it.
    #[test]
    fn a_group_through_one_staging_object_equals_serial_application() {
        let cfg = OracleConfig { scale: 8, queries: 2, ..OracleConfig::default() };
        let (mut groups, mut rejected) = (0, 0);
        for seed in 0..16 {
            let setup = setup_seed(seed, &cfg);
            let g = &setup.graph;
            let dbs = build_databases(&setup, seed, &cfg, &mut Vec::new());
            let [half1, half2] = batch_halves(seed, g, &dbs);
            for (s, db) in &dbs {
                let batches = [&half1, &half2, &half1].map(|l| l.resolve(db));
                let mut serial = db.clone();
                let want: Vec<_> =
                    batches.iter().map(|b| b.apply(&mut serial, g).map(drop)).collect();
                let mut sched = CommitScheduler::new();
                for batch in batches {
                    sched.stage(batch);
                }
                let pinned = db.snapshot();
                let mut grouped = db.clone();
                let verdicts = sched
                    .commit(&mut grouped, g)
                    .unwrap_or_else(|e| panic!("seed {seed} [{s}]: flush failed: {e}"));
                let got: Vec<_> = verdicts.iter().map(|v| v.clone().map(drop)).collect();
                assert_eq!(got, want, "seed {seed} [{s}]: per-batch verdicts");
                grouped.same_state(&serial, false).unwrap_or_else(|m| {
                    panic!("seed {seed} [{s}]: group diverges from serial: {m}")
                });
                assert_eq!(grouped.check_integrity(), Ok(()), "seed {seed} [{s}]");
                let epoch = db.epoch() + 1;
                assert_eq!(grouped.epoch(), epoch, "seed {seed} [{s}]: one epoch step");
                assert!(verdicts.iter().flatten().all(|r| r.epoch == epoch), "seed {seed} [{s}]");
                assert_eq!(pinned.same_state(db, true), Ok(()), "seed {seed} [{s}]");
                groups += 1;
                rejected += want.iter().filter(|v| v.is_err()).count();
            }
        }
        assert!(groups > 0 && rejected > 0, "{groups} groups, {rejected} rejected batches");
    }

    #[test]
    fn replay_text_describes_a_seed() {
        let cfg = OracleConfig { scale: 6, queries: 2, ..OracleConfig::default() };
        let text = replay_text(3, &cfg);
        assert!(text.contains("seed 3"), "{text}");
        assert!(text.contains("query "), "{text}");
    }
}

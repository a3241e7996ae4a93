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
//!    ([`Database::set_reference_kernels`]) and asserts the
//!    index-accelerated and gallop-skipping paths return identical
//!    answers, so every CI seed differentially tests both kernel
//!    families, and
//! 7. re-plans every query with the cost-based optimizer
//!    ([`colorist_query::optimize()`]), statically verifies the optimized
//!    plan (including its `P010` cost annotations), executes it, and
//!    asserts answer equality with the heuristic plan — every CI seed
//!    differentially tests both planners too.
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
use colorist_query::plan_read_footprint;
use colorist_query::{
    compile, execute, execute_snapshot, optimize, verify_plan, CmpOp, Pattern, PatternBuilder,
    Plan, QueryResult,
};
use colorist_store::{
    analyze_batch, certify, Certificate, CommitScheduler, Database, UpdateBatch, Value,
};
use std::collections::BTreeSet;
use std::fmt;

/// Stream-splitting constant: keeps oracle randomness decorrelated from
/// the property tests, which seed the same PRNG with small offsets.
const ORACLE_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bounds and knobs of one oracle run. The defaults keep a seed cheap
/// enough for hundreds per second of CPU budget.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Base entity extent of the shared canonical instance.
    pub scale: u32,
    /// Queries generated per seed.
    pub queries: usize,
    /// Maximum entity count of a random diagram (minimum is 2).
    pub max_entities: usize,
    /// Maximum relationship count of a random diagram (minimum is 1).
    pub max_rels: usize,
    /// Maximum association length considered when picking chain queries.
    pub max_chain: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { scale: 20, queries: 6, max_entities: 5, max_rels: 7, max_chain: 6 }
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

/// A random simplified ER diagram: `2..=max_entities` entities (key, text
/// label, integer measure), `1..=max_rels` binary relationships with
/// random cardinalities, participation, roles, and an occasional
/// relationship attribute. Recursive relationships (both endpoints the
/// same entity) arise naturally.
pub fn arb_diagram(rng: &mut Rng, cfg: &OracleConfig) -> ErDiagram {
    let n = 2 + rng.below(cfg.max_entities.saturating_sub(1).max(1) as u64) as usize;
    let n_rels = 1 + rng.below(cfg.max_rels.max(1) as u64) as usize;
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
    let elig = EligibleAssociations::enumerate(g, cfg.max_chain);
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
    let diagram = arb_diagram(&mut rng, cfg);
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
                // `COLORIST_BACKEND` attaches the paged storage backend so
                // the equivalence sweep also exercises flush/reload-path
                // accounting under every strategy
                colorist_store::attach_from_env(&mut db).expect("storage backend attaches");
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
            db.set_reference_kernels(true);
            let ref_run = execute(db, g, &plan);
            db.set_reference_kernels(false);
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
            // Planner sweep: the cost-based optimizer must plan every query
            // the heuristic compiler can plan, pass the static verifier
            // (including the P010 cost-annotation audit), and return the
            // same logical answer — so each CI seed also differentially
            // tests both planners.
            match optimize(db, g, q) {
                Ok(opt_plan) => {
                    for d in verify_plan(g, &db.schema, &opt_plan) {
                        divergences.push(Divergence {
                            seed,
                            query: q.name.clone(),
                            strategy: s.label().into(),
                            detail: format!("optimizer static verifier: {d}"),
                        });
                    }
                    match execute(db, g, &opt_plan) {
                        Ok(or) => {
                            if or.elements != r.elements
                                || or.results != r.results
                                || or.distinct != r.distinct
                            {
                                divergences.push(Divergence {
                                    seed,
                                    query: q.name.clone(),
                                    strategy: s.label().into(),
                                    detail: format!(
                                        "planner divergence: optimized plan gave {}/{} \
                                         (physical/logical), heuristic plan gave {}/{}",
                                        or.results, or.distinct, r.results, r.distinct
                                    ),
                                });
                            }
                        }
                        Err(e) => divergences.push(Divergence {
                            seed,
                            query: q.name.clone(),
                            strategy: s.label().into(),
                            detail: format!("planner divergence: optimized plan refused: {e}"),
                        }),
                    }
                }
                Err(e) => divergences.push(Divergence {
                    seed,
                    query: q.name.clone(),
                    strategy: s.label().into(),
                    detail: format!("planner divergence: optimizer refused: {e}"),
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
/// replay view printed by `colorist-oracle --replay`.
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

/// Execute every query of the seed's workload on one database (compiling
/// fresh, so post-update statistics drive the kernel dispatch), returning
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

/// Replay one randomized update batch under all seven strategies and
/// assert equivalence at every observation point:
///
/// * the batch (attribute writes + a delete-closed delete set, derived in
///   logical coordinates and resolved per database) commits **half at a
///   time**, and after each half all strategies must agree on every
///   workload query — the mid-batch state is a real state;
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

    // derive the logical batch
    let mut rng = Rng::new(seed.wrapping_mul(ORACLE_STREAM) ^ 0xBA7C4);
    let entities: Vec<NodeId> = g.entity_nodes().collect();
    let pick_instance = |rng: &mut Rng, db: &Database| {
        let node = entities[rng.below(entities.len() as u64) as usize];
        let count = db.ordinal_count(node);
        (node, rng.below(count.max(1) as u64) as u32)
    };
    let (writes, first_deletes, rest_deletes) = match dbs.first() {
        None => (Vec::new(), BTreeSet::new(), BTreeSet::new()),
        Some((_, db0)) => {
            let mut writes = Vec::new();
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
            let mut first = BTreeSet::new();
            let mut rest = BTreeSet::new();
            let n_deletes = 2 + rng.below(3);
            for i in 0..n_deletes {
                let inst = pick_instance(&mut rng, db0);
                if i < n_deletes / 2 + 1 {
                    first.insert(inst);
                } else {
                    rest.insert(inst);
                }
            }
            (writes, first, rest)
        }
    };
    // each cumulative delete set must be delete-closed, or the mid-batch
    // state itself would be strategy-dependent
    let closed_first = delete_closure(g, &dbs, &first_deletes);
    let all_seeds: BTreeSet<(NodeId, u32)> = first_deletes.union(&rest_deletes).copied().collect();
    let closed_all = delete_closure(g, &dbs, &all_seeds);
    let doomed_rest: Vec<(NodeId, u32)> = closed_all.difference(&closed_first).copied().collect();
    let live_writes: Vec<_> =
        writes.iter().filter(|(n, o, _, _)| !closed_all.contains(&(*n, *o))).cloned().collect();
    let mid = writes.len() / 2;
    let half1 = LogicalBatch {
        writes: live_writes.iter().take(mid).cloned().collect(),
        deletes: closed_first.iter().copied().collect(),
    };
    let half2 = LogicalBatch {
        writes: live_writes.iter().skip(mid).cloned().collect(),
        deletes: doomed_rest,
    };

    // pre-batch serial answers + one snapshot per strategy
    let queries = &setup.queries;
    let pre: Vec<Vec<Result<QueryResult, String>>> =
        dbs.iter().map(|(_, db)| batch_answers(db, g, queries)).collect();
    let snapshots: Vec<_> = dbs.iter().map(|(_, db)| db.snapshot()).collect();

    for (phase, batch) in [("mid-batch", &half1), ("post-batch", &half2)] {
        let mut reference: Option<(String, Vec<Result<QueryResult, String>>)> = None;
        for (i, (s, db)) in dbs.iter_mut().enumerate() {
            let resolved = batch.resolve(db);
            if let Err(e) = resolved.apply(db, g) {
                divergences.push(Divergence {
                    seed,
                    query: format!("<batch@{phase}>"),
                    strategy: s.label().into(),
                    detail: format!("batch rejected: {e}"),
                });
                continue;
            }
            if let Err(e) = db.check_integrity() {
                divergences.push(Divergence {
                    seed,
                    query: format!("<batch@{phase}>"),
                    strategy: s.label().into(),
                    detail: format!("integrity after commit: {e}"),
                });
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
            db.set_reference_kernels(true);
            let ref_now = batch_answers(db, g, queries);
            db.set_reference_kernels(false);
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

/// The outcome of one independence seed: one random pair of logical
/// batches, certified (B003) and replayed under every strategy.
#[derive(Debug, Clone)]
pub struct IndependenceSeedReport {
    /// The seed replayed by [`run_independence_seed`].
    pub seed: u64,
    /// Strategies whose batch pair certified independent.
    pub independent: usize,
    /// Strategies whose batch pair certified conflicting.
    pub conflicting: usize,
    /// Conflicting certificates whose witness key was dynamically
    /// touched by both batches, or whose commit order observably
    /// mattered — the numerator of the precision ratio.
    pub genuine: usize,
    /// All divergences observed (empty on a clean seed).
    pub divergences: Vec<Divergence>,
}

/// Aggregate over an independence seed range.
#[derive(Debug, Clone)]
pub struct IndependenceReport {
    /// Per-seed outcomes, in seed order.
    pub reports: Vec<IndependenceSeedReport>,
}

impl IndependenceReport {
    /// All divergences across the range, in seed order.
    pub fn divergences(&self) -> Vec<&Divergence> {
        self.reports.iter().flat_map(|r| r.divergences.iter()).collect()
    }

    /// Pairs certified independent across all seeds and strategies.
    pub fn independent(&self) -> usize {
        self.reports.iter().map(|r| r.independent).sum()
    }

    /// Pairs certified conflicting across all seeds and strategies.
    pub fn conflicting(&self) -> usize {
        self.reports.iter().map(|r| r.conflicting).sum()
    }

    /// Conflicting pairs whose conflict was dynamically genuine.
    pub fn genuine(&self) -> usize {
        self.reports.iter().map(|r| r.genuine).sum()
    }
}

impl fmt::Display for IndependenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let divs = self.divergences();
        let conflicting = self.conflicting();
        writeln!(
            f,
            "independence: {} seeds x {} strategies, {} pairs independent (committed both \
             orders), {} conflicting ({}/{conflicting} genuine), {} divergence(s)",
            self.reports.len(),
            Strategy::ALL.len(),
            self.independent(),
            conflicting,
            self.genuine(),
            divs.len()
        )?;
        for d in divs {
            writeln!(f, "  DIVERGENCE {d}")?;
        }
        Ok(())
    }
}

/// Derive one independence seed's pair of logical batches: each batch
/// writes the integer measure of a few random instances and dooms at
/// most one (delete-closed) instance. Writes are integer-valued on
/// purpose — text writes would intern fresh symbols and certify nearly
/// every pair conflicting on the symbol table.
fn independence_pair(
    rng: &mut Rng,
    g: &ErGraph,
    dbs: &[(Strategy, Database)],
) -> (LogicalBatch, LogicalBatch) {
    let entities: Vec<NodeId> = g.entity_nodes().collect();
    let db0 = &dbs[0].1;
    let batch = |rng: &mut Rng| {
        let mut targets = BTreeSet::new();
        for _ in 0..(1 + rng.below(3)) {
            let node = entities[rng.below(entities.len() as u64) as usize];
            let count = db0.ordinal_count(node);
            targets.insert((node, rng.below(count.max(1) as u64) as u32));
        }
        let writes: Vec<_> = targets
            .iter()
            .map(|&(n, o)| (n, o, 2usize, Value::Int(rng.range_i64(-500, 1500))))
            .collect();
        let mut doom_seeds = BTreeSet::new();
        if rng.below(2) == 1 {
            let node = entities[rng.below(entities.len() as u64) as usize];
            let count = db0.ordinal_count(node);
            doom_seeds.insert((node, rng.below(count.max(1) as u64) as u32));
        }
        let doomed = delete_closure(g, dbs, &doom_seeds);
        LogicalBatch {
            // a batch may not write what it deletes itself (validation
            // would reject it); writing what the *other* batch deletes
            // is exactly the conflict case the certificates must catch
            writes: writes.into_iter().filter(|(n, o, _, _)| !doomed.contains(&(*n, *o))).collect(),
            deletes: doomed.into_iter().collect(),
        }
    };
    let a = batch(rng);
    let b = batch(rng);
    (a, b)
}

/// Replay one random batch pair under all seven strategies and hold the
/// B002–B004 machinery to its contract:
///
/// * both batches are statically analyzed against the pre-state and
///   certified pairwise ([`certify`], B003);
/// * a pair certified **independent** commits in both orders (every
///   apply shadow-tracked, so B002 containment is checked in release
///   builds too) and the two final databases must be byte-identical —
///   extents, trees, indexes, statistics, **and epoch**; the
///   index-accelerated and reference kernels must then agree on the
///   whole workload; every pre-state plan whose read footprint
///   ([`plan_read_footprint`]) is disjoint from both write footprints
///   must return the pre-state answers on the committed database
///   (B004); and the [`CommitScheduler`] must group the pair into two
///   singleton classes whose commit lands on the same state as the
///   serial order;
/// * a pair certified **conflicting** is applied each-alone and in both
///   orders to grade the certificate's precision: the conflict is
///   *genuine* when both executions touch the witness key, an order
///   rejects a batch, or the two orders end in different states.
pub fn run_independence_seed(seed: u64, cfg: &OracleConfig) -> IndependenceSeedReport {
    let setup = setup_seed(seed, cfg);
    let g = &setup.graph;
    let mut divergences = Vec::new();
    let dbs = build_databases(&setup, seed, cfg, &mut divergences);
    let (mut independent, mut conflicting, mut genuine) = (0usize, 0usize, 0usize);
    if dbs.is_empty() {
        return IndependenceSeedReport { seed, independent, conflicting, genuine, divergences };
    }

    let mut rng = Rng::new(seed.wrapping_mul(ORACLE_STREAM) ^ 0x1DE9E2);
    let (la, lb) = independence_pair(&mut rng, g, &dbs);
    let queries = &setup.queries;

    for (s, db) in &dbs {
        let ba = la.resolve(db);
        let bb = lb.resolve(db);
        let ea = analyze_batch(&ba, db, g);
        let eb = analyze_batch(&bb, db, g);
        let mk = |phase: &str, detail: String| Divergence {
            seed,
            query: format!("<independence@{phase}>"),
            strategy: s.label().into(),
            detail,
        };
        // apply one batch on a clone with the shadow tracker on; B002
        // containment failures become divergences even in release builds
        let apply_checked = |target: &mut Database,
                             batch: &UpdateBatch,
                             which: &str,
                             divs: &mut Vec<Divergence>|
         -> Result<colorist_store::TouchedSet, String> {
            match batch.apply_verified(target, g) {
                Ok((_, analysis, touched)) => {
                    if let Err(msg) = analysis.footprint.covers(&touched) {
                        divs.push(mk("B002", format!("batch {which}: {msg}")));
                    }
                    Ok(touched)
                }
                Err(e) => Err(e.to_string()),
            }
        };
        match certify(&ea.footprint, &eb.footprint) {
            Certificate::Independent => {
                independent += 1;
                let mut db_ab = db.clone();
                let mut db_ba = db.clone();
                let mut failed = false;
                for (target, order) in [(&mut db_ab, ["A", "B"]), (&mut db_ba, ["B", "A"])] {
                    for which in order {
                        let batch = if which == "A" { &ba } else { &bb };
                        if let Err(e) = apply_checked(target, batch, which, &mut divergences) {
                            divergences.push(mk(
                                "B003",
                                format!(
                                    "certified independent, but batch {which} was rejected: {e}"
                                ),
                            ));
                            failed = true;
                        }
                    }
                }
                if failed {
                    continue;
                }
                // commutativity: both orders must land on the same bytes
                if let Err(msg) = db_ab.same_state(&db_ba, true) {
                    divergences.push(mk("B003", format!("certified independent, but {msg}")));
                }
                // both kernel families must agree on the committed state
                let now = batch_answers(&db_ab, g, queries);
                db_ab.set_reference_kernels(true);
                let ref_now = batch_answers(&db_ab, g, queries);
                db_ab.set_reference_kernels(false);
                compare_answers(
                    seed,
                    "independence-kernels",
                    s.label(),
                    "reference kernels",
                    true,
                    queries,
                    &now,
                    &ref_now,
                    &mut divergences,
                );
                // B004: plans reading nothing either batch wrote answer
                // identically before and after the commit
                for q in queries {
                    let Ok(plan) = compile(g, &db.schema, q) else { continue };
                    let reads = plan_read_footprint(g, &db.schema, &plan);
                    if ea.footprint.invalidates(&reads).is_some()
                        || eb.footprint.invalidates(&reads).is_some()
                    {
                        continue;
                    }
                    let pre = execute(db, g, &plan).map_err(|e| e.to_string());
                    let post = execute(&db_ab, g, &plan).map_err(|e| e.to_string());
                    let ok = match (&pre, &post) {
                        (Ok(a), Ok(b)) => {
                            a.elements == b.elements
                                && a.results == b.results
                                && a.distinct == b.distinct
                        }
                        (Err(a), Err(b)) => a == b,
                        _ => false,
                    };
                    if !ok {
                        divergences.push(Divergence {
                            seed,
                            query: q.name.clone(),
                            strategy: s.label().into(),
                            detail: "B004 violated: both write footprints are disjoint from the \
                                     plan's read footprint, but the committed state changed its \
                                     answer"
                                .into(),
                        });
                    }
                }
                // the scheduler must see two singleton classes and land
                // on the serial state (epochs differ: one bump per class
                // vs per-phase bumps inside a serial apply)
                let mut sched = CommitScheduler::new();
                sched.stage(ba.clone());
                sched.stage(bb.clone());
                let mut db_sched = db.clone();
                match sched.commit(&mut db_sched, g) {
                    Ok(groups) => {
                        if groups.len() != 2 {
                            divergences.push(mk(
                                "scheduler",
                                format!(
                                    "independent pair group-committed as {} class(es), expected 2",
                                    groups.len()
                                ),
                            ));
                        }
                        if let Err(msg) = db_sched.same_state(&db_ab, false) {
                            divergences.push(mk(
                                "scheduler",
                                format!("group commit diverges from serial: {msg}"),
                            ));
                        }
                    }
                    Err((i, e)) => divergences
                        .push(mk("scheduler", format!("group commit rejected stage {i}: {e}"))),
                }
            }
            Certificate::Conflicting { witness, .. } => {
                conflicting += 1;
                // each batch alone, from the pre-state: does the dynamic
                // execution actually touch the witness key on both sides?
                let mut alone_a = db.clone();
                let mut alone_b = db.clone();
                let ta = apply_checked(&mut alone_a, &ba, "A", &mut divergences);
                let tb = apply_checked(&mut alone_b, &bb, "B", &mut divergences);
                let witness_hit = match (&ta, &tb) {
                    (Ok(ta), Ok(tb)) => ta.contains(&witness) && tb.contains(&witness),
                    _ => false,
                };
                // both orders: does the order observably matter?
                let mut db_ab = db.clone();
                let mut db_ba = db.clone();
                let ab = ba.apply(&mut db_ab, g).and_then(|_| bb.apply(&mut db_ab, g));
                let ba_order = bb.apply(&mut db_ba, g).and_then(|_| ba.apply(&mut db_ba, g));
                let order_effect = match (&ab, &ba_order) {
                    (Ok(_), Ok(_)) => db_ab.same_state(&db_ba, true).is_err(),
                    _ => true,
                };
                if witness_hit || order_effect {
                    genuine += 1;
                }
            }
        }
    }

    IndependenceSeedReport { seed, independent, conflicting, genuine, divergences }
}

/// The per-strategy effect-analysis view of one independence seed's
/// batch pair — what `colorist-lint --batch` prints. Returns the report
/// text and the number of diagnostics in it (design failures plus B001
/// conflict localizations; footprint summaries, B003 certificates, and
/// B004 invalidation verdicts are informational).
pub fn batch_effect_text(seed: u64, cfg: &OracleConfig) -> (String, usize) {
    use fmt::Write as _;
    let setup = setup_seed(seed, cfg);
    let g = &setup.graph;
    let mut divergences = Vec::new();
    let dbs = build_databases(&setup, seed, cfg, &mut divergences);
    let mut out = String::new();
    let mut diags = divergences.len();
    for d in &divergences {
        let _ = writeln!(out, "{d}");
    }
    if dbs.is_empty() {
        return (out, diags);
    }
    let mut rng = Rng::new(seed.wrapping_mul(ORACLE_STREAM) ^ 0x1DE9E2);
    let (la, lb) = independence_pair(&mut rng, g, &dbs);
    for (s, db) in &dbs {
        let ba = la.resolve(db);
        let bb = lb.resolve(db);
        let ea = analyze_batch(&ba, db, g);
        let eb = analyze_batch(&bb, db, g);
        for (which, batch, analysis) in [("A", &ba, &ea), ("B", &bb, &eb)] {
            let _ = writeln!(
                out,
                "seed {seed} [{}] batch {which}: {} op(s), footprint {}",
                s.label(),
                batch.len(),
                analysis.footprint.summary()
            );
            for d in &analysis.diags {
                let _ = writeln!(out, "seed {seed} [{}] batch {which}: {d}", s.label());
                diags += 1;
            }
        }
        let _ =
            writeln!(out, "seed {seed} [{}] {}", s.label(), certify(&ea.footprint, &eb.footprint));
        let (mut immune, mut total) = (0usize, 0usize);
        for q in &setup.queries {
            let Ok(plan) = compile(g, &db.schema, q) else { continue };
            total += 1;
            let reads = plan_read_footprint(g, &db.schema, &plan);
            match ea.footprint.invalidates(&reads).or_else(|| eb.footprint.invalidates(&reads)) {
                None => immune += 1,
                Some(k) => {
                    let _ = writeln!(
                        out,
                        "seed {seed} [{}] {}: B004: the pair invalidates the plan's reads on {k}",
                        s.label(),
                        q.name
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "seed {seed} [{}] B004: {immune}/{total} workload plans immune to the pair",
            s.label()
        );
    }
    (out, diags)
}

/// Run `count` independence seeds starting at `start` on up to
/// `threads` workers. Deterministic for any worker count.
pub fn run_independence_seeds(
    start: u64,
    count: u64,
    cfg: &OracleConfig,
    threads: usize,
) -> IndependenceReport {
    let cfg = cfg.clone();
    let reports =
        par_map(count as usize, threads, move |i| run_independence_seed(start + i as u64, &cfg));
    IndependenceReport { reports }
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
    fn independence_seeds_certify_and_commute() {
        let cfg = OracleConfig { scale: 8, queries: 3, ..OracleConfig::default() };
        let rep = run_independence_seeds(0, 8, &cfg, 2);
        assert!(rep.divergences().is_empty(), "{rep}");
        assert!(rep.independent() + rep.conflicting() > 0, "{rep}");
        let serial = run_independence_seeds(0, 8, &cfg, 1);
        assert_eq!(rep.independent(), serial.independent());
        assert_eq!(rep.conflicting(), serial.conflicting());
        assert_eq!(rep.genuine(), serial.genuine());
    }

    /// Random delete-closed batches written through one staging object
    /// land exactly where applying them one by one does — every structure,
    /// the statistics catalog included — with a clean S008 audit, and
    /// leave a snapshot pinned before the group untouched.
    #[test]
    fn a_group_through_one_staging_object_equals_serial_application() {
        let cfg = OracleConfig { scale: 8, queries: 2, ..OracleConfig::default() };
        let (mut groups, mut shared_classes) = (0, 0);
        for seed in 0..16 {
            let setup = setup_seed(seed, &cfg);
            let g = &setup.graph;
            let dbs = build_databases(&setup, seed, &cfg, &mut Vec::new());
            if dbs.is_empty() {
                continue;
            }
            let mut rng = Rng::new(seed.wrapping_mul(ORACLE_STREAM) ^ 0x6E0);
            let logical: Vec<LogicalBatch> =
                (0..3).flat_map(|_| <[_; 2]>::from(independence_pair(&mut rng, g, &dbs))).collect();
            for (s, db) in &dbs {
                // the serial reference; a batch an earlier one invalidated
                // (it writes what that one deleted) is left out of both
                let mut serial = db.clone();
                let mut sched = CommitScheduler::new();
                for batch in logical.iter().map(|l| l.resolve(db)) {
                    if batch.apply(&mut serial, g).is_ok() {
                        sched.stage(batch);
                    }
                }
                let pinned = db.snapshot();
                let mut grouped = db.clone();
                let classes = sched
                    .commit(&mut grouped, g)
                    .unwrap_or_else(|(i, e)| panic!("seed {seed} [{s}]: stage {i} rejected: {e}"));
                grouped.same_state(&serial, false).unwrap_or_else(|m| {
                    panic!("seed {seed} [{s}]: group diverges from serial: {m}")
                });
                assert_eq!(grouped.check_integrity(), Ok(()), "seed {seed} [{s}]");
                assert_eq!(grouped.epoch(), db.epoch() + classes.len() as u64);
                assert_eq!(pinned.same_state(db, true), Ok(()), "seed {seed} [{s}]");
                groups += 1;
                shared_classes += usize::from(classes.iter().any(|c| c.members.len() > 1));
            }
        }
        assert!(
            groups > 0 && shared_classes > 0,
            "{groups} groups, {shared_classes} with conflicts"
        );
    }

    #[test]
    fn replay_text_describes_a_seed() {
        let cfg = OracleConfig { scale: 6, queries: 2, ..OracleConfig::default() };
        let text = replay_text(3, &cfg);
        assert!(text.contains("seed 3"), "{text}");
        assert!(text.contains("query "), "{text}");
    }
}

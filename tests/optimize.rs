//! Property tests for the optimizer and its cost annotations: exact
//! single-predicate estimates against measured cardinalities on randomized
//! data, before and after writes; plans that depend on the pattern and the
//! schema alone, whatever the data or a commit did; counter domination
//! over the ratio-dispatch twin across the whole TPC-W workload and all
//! seven strategies, with finite, non-negative cost estimates on kernels
//! each operator can dispatch to. Randomness comes from the repository's
//! own deterministic [`Rng`](colorist::datagen::Rng).

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, Rng, ScaleProfile};
use colorist::er::{catalog, ErGraph};
use colorist::query::{
    annotate_costs, compile, execute, execute_update, optimize, CmpOp, KernelChoice, Op, Pattern,
    PatternBuilder,
};
use colorist::store::{Database, KernelDispatch, UpdateBatch, Value};
use colorist::workload::{derby, tpcw, Workload};

const CASES: u64 = 48;

/// The cost annotation's predicate contract: on any instance, for any
/// comparison constant, a single-predicate scan's row estimate equals the
/// rows the scan returns — the estimate counts the matching postings the
/// index probe takes — and it stays exact after a batch writes the probed
/// columns and deletes instances, orphaning occurrences. Verified against
/// measured answers over random scales, data seeds, constants and
/// strategies (copies included).
#[test]
fn predicate_estimates_are_exact() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let node = |name: &str| g.node_by_name(name).expect("node exists");
    for case in 0..CASES {
        let mut rng = Rng::new(0xE57_0001u64.wrapping_add(case));
        let scale = 20 + rng.below(120) as u32;
        let strategy = Strategy::ALL[case as usize % Strategy::ALL.len()];
        let schema = design(&g, strategy).expect("strategy designs");
        let inst = generate(&g, &ScaleProfile::tpcw(&g, scale), 1000 + case);
        let mut db = materialize(&g, &schema, &inst);
        let preds: Vec<(&str, &str, CmpOp, Value)> = vec![
            ("item", "cost", CmpOp::Lt, Value::Float(rng.below(10_000) as f64 / 10.0)),
            ("customer", "discount", CmpOp::Gt, Value::Float(rng.below(10_000) as f64)),
            ("customer", "id", CmpOp::Eq, Value::Int(rng.below(2 * scale as u64) as i64)),
            ("order", "id", CmpOp::Lt, Value::Int(rng.below(4 * scale as u64) as i64)),
            ("country", "name", CmpOp::Eq, Value::Text("never stored".into())),
        ];
        let probes: Vec<Pattern> = (preds.iter())
            .map(|(entity, attr, op, value)| {
                PatternBuilder::new(&g, "probe")
                    .node(entity)
                    .pred(attr, *op, value.clone())
                    .output(0)
                    .build()
                    .expect("probe pattern builds")
            })
            .collect();
        let check = |db: &Database, when: &str| {
            for (q, (entity, attr, op, value)) in probes.iter().zip(&preds) {
                let plan = optimize(db, &g, q).expect("probe plans");
                let scan = &annotate_costs(db, &g, &plan)[0];
                let measured = execute(db, &g, &plan).expect("probe executes").results;
                assert_eq!(
                    scan.rows, measured as f64,
                    "case {case} {strategy} {when}: {entity}.{attr} {op:?} {value:?}, \
                     scale {scale}"
                );
            }
        };
        check(&db, "as built");
        // a batch moving cells of every probed column, and two deletes
        let mut batch = UpdateBatch::new();
        for (entity, attr, _, value) in &preds[..4] {
            let n = node(entity);
            let a = db.attr_index(&g, n, attr).expect("attribute exists");
            for &e in db.extent(n).iter().skip(2).step_by(3).take(4) {
                batch.write_attr(e, a, value.clone());
            }
        }
        batch.delete(db.extent(node("customer"))[0]).delete(db.extent(node("item"))[1]);
        batch.apply(&mut db, &g).expect("batch commits");
        check(&db, "after a batch");
    }
}

/// Apply every update of `w` (inserts, modifies and, on Derby, deletes)
/// and then a batch that writes and deletes an instance of the first
/// read's output node.
fn mutate(g: &ErGraph, db: &mut Database, w: &Workload) {
    for u in &w.updates {
        execute_update(db, g, u).unwrap_or_else(|e| panic!("{}: {e}", u.name));
    }
    let q = &w.reads[0];
    let node = q.nodes[q.output].node;
    let (first, second) = (db.extent(node)[0], db.extent(node)[1]);
    let mut batch = UpdateBatch::new();
    batch.write_attr(first, 0, Value::Int(-1)).delete(second);
    batch.apply(db, g).expect("batch commits");
}

/// A plan is a function of `(pattern, schema)`: for every TPC-W and
/// Derby read on every strategy, `optimize` emits exactly the ops
/// `compile` does, before and after updates and a batch that write,
/// insert and delete.
#[test]
fn optimize_emits_the_compiled_plan_before_and_after_writes() {
    for (name, scale) in [("tpcw", 40), ("derby", 12)] {
        let g = ErGraph::from_diagram(&catalog::by_name(name).expect("in the catalog"))
            .expect("diagram builds");
        let (w, profile) = match name {
            "tpcw" => (tpcw::workload(&g), ScaleProfile::tpcw(&g, scale)),
            _ => (derby::workload(&g), ScaleProfile::uniform(&g, scale)),
        };
        let inst = generate(&g, &profile, 42);
        for s in Strategy::ALL {
            let schema = design(&g, s).expect("strategy designs");
            let mut db = materialize(&g, &schema, &inst);
            for when in ["as built", "after writes"] {
                for q in &w.reads {
                    let plan = optimize(&db, &g, q).expect("optimizer plans");
                    let compiled = compile(&g, &db.schema, q).expect("compiles");
                    assert_eq!(plan.ops, compiled.ops, "{name}/{s}/{} {when}", q.name);
                }
                mutate(&g, &mut db, &w);
            }
        }
    }
}

/// Whether `op` can dispatch to `kernel`: an index probe only on a
/// predicated scan, merge, gallop or parent walk only on a structural
/// semi-join, the hash join and the two probes only on a value semi-join.
fn kernel_applies(op: &Op, kernel: KernelChoice) -> bool {
    use KernelChoice::*;
    match op {
        Op::Scan { pred, .. } => {
            matches!(kernel, Default | LinearScan) || (kernel == IndexProbe && pred.is_some())
        }
        Op::StructSemi { .. } => matches!(kernel, Default | Merge | Gallop | ParentWalk),
        Op::ValueSemi { .. } => matches!(kernel, Default | HashJoin | OrdinalProbe | ReverseProbe),
        _ => kernel == Default,
    }
}

/// The domination contract on the committed workload: for every TPC-W
/// read query on every strategy, the plan under the default dispatch
/// answers identically to its ratio-dispatch twin and never increases the
/// perf-gate sum `elements_scanned + join_probes + bytes_touched`, and
/// `annotate_costs` gives one finite, non-negative estimate per op on a
/// kernel the op can dispatch to.
#[test]
fn optimized_plans_dominate_heuristic_on_tpcw() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let w = tpcw::workload(&g);
    let inst = generate(&g, &ScaleProfile::tpcw(&g, 60), 42);
    for s in Strategy::ALL {
        let schema = design(&g, s).expect("strategy designs tpcw");
        let db = materialize(&g, &schema, &inst);
        let mut heur = db.clone();
        heur.set_kernel_dispatch(KernelDispatch::Ratio);
        for q in &w.reads {
            let opt_plan = optimize(&db, &g, q).expect("optimizer plans");
            let costs = annotate_costs(&db, &g, &opt_plan);
            assert_eq!(costs.len(), opt_plan.ops.len(), "{s}/{}: one estimate per op", q.name);
            for (i, (op, c)) in opt_plan.ops.iter().zip(&costs).enumerate() {
                let ctx = format!("{s}/{} op {i}", q.name);
                for (label, v) in [
                    ("rows", c.rows),
                    ("scanned", c.scanned),
                    ("probes", c.probes),
                    ("bytes", c.bytes),
                    ("index_lookups", c.index_lookups),
                ] {
                    assert!(v.is_finite() && v >= 0.0, "{ctx}: `{label}` estimate {v}");
                }
                assert!(kernel_applies(op, c.kernel), "{ctx}: kernel {:?} on {op:?}", c.kernel);
            }
            let r = execute(&db, &g, &opt_plan).expect("optimized plan executes");
            let h_plan = compile(&g, &heur.schema, q).expect("heuristic plan compiles");
            let h = execute(&heur, &g, &h_plan).expect("heuristic plan executes");
            assert_eq!(r.elements, h.elements, "{}/{}: answers differ", s.label(), q.name);
            assert_eq!(r.distinct, h.distinct, "{}/{}: counts differ", s.label(), q.name);
            let opt_gate =
                r.metrics.elements_scanned + r.metrics.join_probes + r.metrics.bytes_touched;
            let heur_gate =
                h.metrics.elements_scanned + h.metrics.join_probes + h.metrics.bytes_touched;
            assert!(
                opt_gate <= heur_gate,
                "{}/{}: optimized gate sum {opt_gate} exceeds heuristic {heur_gate}",
                s.label(),
                q.name
            );
        }
    }
}

//! Plan-mutation harness for the static verifier.
//!
//! Soundness: every plan the compiler emits over a multi-seed oracle sweep
//! must verify clean (the verifier never rejects real compiler output).
//! Sensitivity: classic IR corruptions — dropping a via step, swapping a
//! register, re-siting a completeness charge, zeroing the recorded metrics
//! — must each be rejected with the expected stable diagnostic code.

use colorist::mct::lint_schema;
use colorist::query::{verify_plan, Metrics, Op, Plan, VDir};
use colorist::workload::{compile_seed, OracleConfig, SeedCorpus};

const SWEEP_SEEDS: u64 = 256;

fn corpus(seed: u64) -> SeedCorpus {
    compile_seed(seed, &OracleConfig::default())
}

/// Acceptance: the verifier accepts 100% of compiled plans (and the linter
/// every designed schema) across the sweep.
#[test]
fn sweep_of_compiled_plans_verifies_clean() {
    let mut plans = 0usize;
    for seed in 0..SWEEP_SEEDS {
        let c = corpus(seed);
        for (s, schema) in &c.schemas {
            let diags = lint_schema(&c.graph, schema);
            assert!(diags.is_empty(), "seed {seed} [{s}] schema lint: {diags:?}");
        }
        for (si, qname, plan) in &c.plans {
            let (s, schema) = &c.schemas[*si];
            let diags = verify_plan(&c.graph, schema, plan);
            assert!(diags.is_empty(), "seed {seed} [{s}] {qname}:\n{plan}\n{diags:?}");
            plans += 1;
        }
    }
    assert!(plans > 100, "sweep produced only {plans} plans — not a real corpus");
}

/// Run `mutate` over every plan of a few seeds; for each plan it chooses to
/// mutate, the verifier must emit `code`. Returns how many plans were
/// mutated; asserts the class was exercised at all.
fn assert_mutation_class(
    name: &str,
    code: &str,
    mutate: impl Fn(&SeedCorpus, usize, &mut Plan) -> bool,
) {
    let mut mutated = 0usize;
    for seed in 0..8 {
        let c = corpus(seed);
        for (si, qname, plan) in &c.plans {
            let mut m = plan.clone();
            if !mutate(&c, *si, &mut m) {
                continue;
            }
            mutated += 1;
            let (s, schema) = &c.schemas[*si];
            let diags = verify_plan(&c.graph, schema, &m);
            assert!(
                diags.iter().any(|d| d.code == code),
                "mutation `{name}` on seed {seed} [{s}] {qname} not rejected with {code}; \
                 got {diags:?}\n{m}"
            );
        }
    }
    assert!(mutated > 0, "mutation class `{name}` never applied — corpus too narrow");
}

/// The top- and bottom-side ER nodes of a structural run, if they differ
/// (mutations that move a charge to the bottom need them distinct to be
/// guaranteed inadmissible).
fn run_ends(c: &SeedCorpus, op: &Op) -> Option<(colorist::er::NodeId, colorist::er::NodeId)> {
    let Op::StructSemi { node, via, dir, .. } = op else { return None };
    let (top, bottom) = match dir {
        VDir::Down => {
            (c.graph.chain_end(*node, &via.iter().rev().copied().collect::<Vec<_>>())?, *node)
        }
        VDir::Up => (*node, c.graph.chain_end(*node, via)?),
    };
    (top != bottom).then_some((top, bottom))
}

/// Dropping one edge of a `via` chain breaks path-exactness → P004.
#[test]
fn dropped_via_step_is_rejected() {
    assert_mutation_class("drop-via", "P004", |_, _, plan| {
        for op in &mut plan.ops {
            if let Op::StructSemi { via, .. } = op {
                if via.len() >= 2 {
                    via.pop();
                    return true;
                }
            }
        }
        false
    });
}

/// Redirecting an operator's source to its own destination register makes
/// the value flow use-before-def → P001.
#[test]
fn swapped_register_is_rejected() {
    assert_mutation_class("swap-register", "P001", |_, _, plan| {
        for op in &mut plan.ops {
            match op {
                Op::StructSemi { dst, src, .. }
                | Op::ValueSemi { dst, src, .. }
                | Op::LinkSemi { dst, src, .. }
                | Op::Cross { dst, src, .. }
                | Op::Distinct { dst, src, .. }
                | Op::GroupBy { dst, src, .. } => {
                    *src = *dst;
                    return true;
                }
                Op::Scan { .. } | Op::Intersect { .. } => {}
            }
        }
        false
    });
}

/// Re-siting a completeness charge at the run's *bottom* placement — the
/// exact shape of the pre-fix §4.2 completeness bug — → P007.
#[test]
fn resited_completeness_charge_is_rejected() {
    assert_mutation_class("resite-charge", "P007", |c, si, plan| {
        let schema = &c.schemas[si].1;
        for i in 0..plan.charges.len() {
            let op = &plan.ops[plan.charges[i].op];
            let Some((_, bottom)) = run_ends(c, op) else { continue };
            let Op::StructSemi { color, .. } = op else { continue };
            let ps = schema.placements_of_in_color(bottom, *color);
            if let Some(&p) = ps.first() {
                plan.charges[i].at = p;
                return true;
            }
        }
        false
    });
}

/// A missing charge — the compiler forgot to record where a run's
/// completeness obligation anchors — → P007.
#[test]
fn dropped_completeness_charge_is_rejected() {
    assert_mutation_class("drop-charge", "P007", |_, _, plan| {
        if plan.charges.is_empty() {
            return false;
        }
        plan.charges.clear();
        true
    });
}

/// Zeroing the recorded static metrics makes them drift from the ones
/// re-derived from the IR → P008.
#[test]
fn zeroed_metric_is_rejected() {
    assert_mutation_class("zero-metric", "P008", |_, _, plan| {
        if plan.metrics == Metrics::default() {
            return false;
        }
        plan.metrics = Metrics::default();
        true
    });
}

/// A register written but never read (and not the output) is dead → P003.
#[test]
fn dead_register_is_rejected() {
    assert_mutation_class("dead-register", "P003", |c, si, plan| {
        let schema = &c.schemas[si].1;
        // append a scan whose result nothing consumes
        let Some(Op::Scan { color, node, .. }) = plan.ops.first().cloned() else {
            return false;
        };
        if schema.placements_of_in_color(node, color).is_empty() {
            return false;
        }
        let dst = plan.reg_count;
        plan.reg_count += 1;
        plan.ops.push(Op::Scan { dst, color, node, pred: None });
        true
    });
}

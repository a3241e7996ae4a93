//! Fixed-seed runs of the cross-strategy answer-equivalence oracle, pinned
//! as ordinary cargo tests so CI replays them forever. The sweep quantifies
//! over random diagrams, data, queries, and all seven schemas at once;
//! the named regressions below are seeds on which the oracle actually
//! caught bugs during development, kept at both the original and the
//! minimized scale. The release `colorist oracle --seeds N` runs longer
//! sweeps at the same configuration.

use colorist::datagen::{generate, Rng, ScaleProfile};
use colorist::er::{Cardinality, ErGraph, Participation};
use colorist::workload::{run_seed, run_seeds, OracleConfig};

/// Seeds of the fixed sweep; `colorist oracle --seeds 256` in CI covers
/// seeds 0–255 at the same configuration.
const SWEEP_SEEDS: u64 = 32;

/// Random diagrams the datagen coverage property checks.
const DATAGEN_CASES: u64 = 192;

/// Every fixed seed must run divergence-free: all seven strategies return
/// the same logical answers on every generated query, and every runtime
/// metrics counter matches its plan's static count.
#[test]
fn fixed_seed_sweep_is_divergence_free() {
    let report = run_seeds(0, SWEEP_SEEDS, &OracleConfig::default(), 4);
    let divs = report.divergences();
    assert!(divs.is_empty(), "oracle divergences:\n{report}");
    // the sweep must be exercising real work, not vacuously passing
    assert!(report.feasible_seeds() > 0, "no feasible diagram in the sweep");
    assert!(report.feasible_seeds() < report.reports.len(), "no infeasible diagram in the sweep");
    assert!(report.queries_run() > 0, "no query executed in the sweep");
}

/// Regression: seeds 19, 39, and 43 diverged because the canonical-instance
/// generator ignored [`Participation::Total`] on `Many`-cardinality
/// endpoints, so participants that the completeness analysis assumed were
/// covered had no relationship instance at all. DEEP's descent plans then
/// under-returned on bare chain queries relative to the value-join schemas.
/// Fixed in `datagen::canonical` (coverage overwrite) and
/// `datagen::profile` (relationship-count floor).
#[test]
fn datagen_totality_regression_seeds_agree() {
    for seed in [19, 39, 43] {
        let full = run_seed(seed, &OracleConfig::default());
        assert!(full.divergences.is_empty(), "seed {seed}:\n{:#?}", full.divergences);
        // the minimized scale at which the divergence was actually debugged
        let small = run_seed(seed, &OracleConfig { scale: 3, ..OracleConfig::default() });
        assert!(small.divergences.is_empty(), "seed {seed} @ scale 3:\n{:#?}", small.divergences);
    }
}

/// Regression: seed 231 diverged because the plan compiler charged Up-run
/// incompleteness at the run's *bottom* placement. Orphan instances are
/// promoted to tree roots without ancestors (the §4.2 top-up rule), so an
/// ascent is complete only if its *terminating* placement is full — every
/// realized pair hangs below an occurrence of the top placement. UNDR's
/// BLUE tree picked a broken ascent (0 rows) where every other strategy
/// found the match; the compiler now defers the completeness charge to the
/// transition that leaves Up mode.
#[test]
fn up_run_completeness_regression_seed_agrees() {
    let full = run_seed(231, &OracleConfig::default());
    assert!(full.divergences.is_empty(), "seed 231:\n{:#?}", full.divergences);
    let small = run_seed(231, &OracleConfig { scale: 2, ..OracleConfig::default() });
    assert!(small.divergences.is_empty(), "seed 231 @ scale 2:\n{:#?}", small.divergences);
}

/// The minimized property behind the seed-19/39/43 regressions, asserted
/// directly on the datagen layer: whenever the profile affords at least as
/// many relationship instances as participants, a total `Many` endpoint
/// covers every participant instance.
#[test]
fn many_total_endpoints_cover_every_participant() {
    for case in 0..DATAGEN_CASES {
        let mut rng = Rng::new(0xC0FE_u64.wrapping_add(case));
        let d = colorist::workload::oracle::arb_diagram(&mut rng);
        let g = ErGraph::from_diagram(&d).unwrap();
        let inst = generate(&g, &ScaleProfile::uniform(&g, 11), case);
        for e in g.edge_ids() {
            let edge = g.edge(e);
            if edge.cardinality != Cardinality::Many
                || edge.participation != Participation::Total
                || inst.count(edge.rel) < inst.count(edge.participant)
            {
                continue;
            }
            for po in 0..inst.count(edge.participant) {
                assert!(
                    !inst.linked_rels(e, po).is_empty(),
                    "case {case}: total Many edge {e} leaves participant {po} uncovered"
                );
            }
        }
    }
}

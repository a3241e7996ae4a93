//! Differential property test for the kernel families through the public
//! `execute`: the index-accelerated scan and idref paths against the
//! linear and hash reference, over every tpcw read at growing scales. The
//! gallop ≡ merge property of the structural semi-join kernel, which the
//! store keeps private, is a unit test of `colorist-store`'s join module.
//! The cross-strategy oracle additionally replays every CI seed under both
//! kernel families (`KernelDispatch::Reference`), so these
//! properties and the oracle sweep cover the same contract from two
//! directions.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, ScaleProfile};
use colorist::er::{catalog, ErGraph};
use colorist::query::{compile, execute};
use colorist::store::KernelDispatch;

/// Growing-scale rounds of the differential.
const ROUNDS: u64 = 16;

/// Whole-plan differential: every tpcw read on every strategy returns the
/// same answer with the value index live as with the reference kernels
/// pinned, and the indexed run never examines more elements.
#[test]
fn tpcw_workload_agrees_between_indexed_and_reference_kernels() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let w = colorist::workload::tpcw::workload(&g);
    let mut strictly_reduced = 0usize;
    for round in 0..ROUNDS {
        let scale = 12 + 9 * round as u32;
        let inst = generate(&g, &ScaleProfile::tpcw(&g, scale), 40 + round);
        for s in Strategy::ALL {
            let schema = design(&g, s).expect("designs");
            let mut db = materialize(&g, &schema, &inst);
            for q in &w.reads {
                let plan = compile(&g, &schema, q).expect("compiles");
                let fast = execute(&db, &g, &plan).expect("indexed run");
                db.set_kernel_dispatch(KernelDispatch::Reference);
                let slow = execute(&db, &g, &plan).expect("reference run");
                db.set_kernel_dispatch(KernelDispatch::CostModel);
                let ctx = format!("scale {scale}: {}/{s}", q.name);
                assert_eq!(fast.elements, slow.elements, "{ctx}: answers diverge");
                assert_eq!(fast.results, slow.results, "{ctx}: physical counts diverge");
                assert_eq!(fast.distinct, slow.distinct, "{ctx}: logical counts diverge");
                // the reference paths never probe the index or skip
                assert_eq!(slow.metrics.index_lookups, 0, "{ctx}");
                assert_eq!(slow.metrics.elements_skipped, 0, "{ctx}");
                // on join-free plans (predicated scans ± distinct/group-by)
                // the index must never examine more than the linear walk,
                // and must examine strictly less whenever the predicate
                // rejected anything (elements_skipped > 0 — at some scales
                // a predicate matches the whole extent and there is nothing
                // to skip); on join plans the gallop cost model may
                // re-examine nested windows, so only answer equality is
                // asserted there
                let stat = plan.static_metrics();
                let predicated = q.nodes.iter().any(|n| n.predicate.is_some());
                if stat.structural_joins == 0 && stat.value_joins == 0 && predicated {
                    assert!(
                        fast.metrics.elements_scanned <= slow.metrics.elements_scanned,
                        "{ctx}: indexed scan examined {} of reference {}",
                        fast.metrics.elements_scanned,
                        slow.metrics.elements_scanned
                    );
                    if fast.metrics.elements_skipped > 0 {
                        assert!(
                            fast.metrics.elements_scanned < slow.metrics.elements_scanned,
                            "{ctx}: skipped {} yet examined {} of reference {}",
                            fast.metrics.elements_skipped,
                            fast.metrics.elements_scanned,
                            slow.metrics.elements_scanned
                        );
                    }
                }
                if fast.metrics.elements_scanned < slow.metrics.elements_scanned {
                    strictly_reduced += 1;
                }
            }
        }
    }
    assert!(strictly_reduced > 0, "no query's scan volume actually shrank");
}

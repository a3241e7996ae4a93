//! Differential property test for the kernel families through the public
//! `execute`: the index-accelerated scan and idref paths, the gallop and
//! parent-walk structural kernels against the linear, hash and merge
//! reference, over every TPC-W, Derby and XMark read at growing scales.
//! The kernel-against-kernel properties of the structural semi-join (gallop
//! ≡ merge, parent walk ≡ merge), which the store keeps private, are unit
//! tests of `colorist-store`. The cross-strategy oracle additionally
//! replays every CI seed under both kernel families
//! (`KernelDispatch::Reference`), so these properties and the oracle sweep
//! cover the same contract from two directions.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, ScaleProfile};
use colorist::er::{catalog, ErGraph};
use colorist::query::{compile, execute};
use colorist::store::KernelDispatch;
use colorist::workload::{derby, tpcw, xmark, Workload};

/// Every read of `workload` over diagram `name`, on every strategy, returns
/// the same answer with the value index and the gallop and parent-walk
/// kernels live as with the reference kernels pinned, at `scales`; returns
/// how many runs the default dispatch examined strictly fewer elements on.
fn agree_with_reference(name: &str, workload: fn(&ErGraph) -> Workload, scales: &[u32]) -> usize {
    let g = ErGraph::from_diagram(&catalog::by_name(name).expect("in the catalog"))
        .expect("diagram builds");
    let w = workload(&g);
    let mut strictly_reduced = 0usize;
    for (round, &scale) in scales.iter().enumerate() {
        let profile = match name {
            "tpcw" => ScaleProfile::tpcw(&g, scale),
            _ => ScaleProfile::uniform(&g, scale),
        };
        let inst = generate(&g, &profile, 40 + round as u64);
        for s in Strategy::ALL {
            let schema = design(&g, s).expect("designs");
            let mut db = materialize(&g, &schema, &inst);
            for q in &w.reads {
                let plan = compile(&g, &schema, q).expect("compiles");
                let fast = execute(&db, &g, &plan).expect("indexed run");
                db.set_kernel_dispatch(KernelDispatch::Reference);
                let slow = execute(&db, &g, &plan).expect("reference run");
                db.set_kernel_dispatch(KernelDispatch::CostModel);
                let ctx = format!("{name} scale {scale}: {}/{s}", q.name);
                assert_eq!(fast.elements, slow.elements, "{ctx}: answers diverge");
                assert_eq!(fast.results, slow.results, "{ctx}: physical counts diverge");
                assert_eq!(fast.distinct, slow.distinct, "{ctx}: logical counts diverge");
                // the kernels never change the paper's counters
                let (f, r) = (&fast.metrics, &slow.metrics);
                assert_eq!(f.structural_joins, r.structural_joins, "{ctx}: structural joins");
                assert_eq!(f.value_joins, r.value_joins, "{ctx}: value joins");
                assert_eq!(f.color_crossings, r.color_crossings, "{ctx}: crossings");
                // the reference paths never probe the index or skip
                assert_eq!(r.index_lookups, 0, "{ctx}");
                assert_eq!(r.elements_skipped, 0, "{ctx}");
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
                        f.elements_scanned <= r.elements_scanned,
                        "{ctx}: indexed scan examined {} of reference {}",
                        f.elements_scanned,
                        r.elements_scanned
                    );
                    if f.elements_skipped > 0 {
                        assert!(
                            f.elements_scanned < r.elements_scanned,
                            "{ctx}: skipped {} yet examined {} of reference {}",
                            f.elements_skipped,
                            f.elements_scanned,
                            r.elements_scanned
                        );
                    }
                }
                if f.elements_scanned < r.elements_scanned {
                    strictly_reduced += 1;
                }
            }
        }
    }
    strictly_reduced
}

/// TPC-W at sixteen growing scales.
#[test]
fn tpcw_workload_agrees_between_indexed_and_reference_kernels() {
    let scales: Vec<u32> = (0..16).map(|round| 12 + 9 * round).collect();
    let reduced = agree_with_reference("tpcw", tpcw::workload, &scales);
    assert!(reduced > 0, "no query's scan volume actually shrank");
}

/// Derby's own workload, at five scales.
#[test]
fn derby_workload_agrees_between_indexed_and_reference_kernels() {
    let reduced = agree_with_reference("derby", derby::workload, &[8, 20, 45, 90, 150]);
    assert!(reduced > 0, "no query's scan volume actually shrank");
}

/// The XMark-emulated workload on every diagram of the ER collection it is
/// instantiated against (all but TPC-W and Derby, which bring their own).
#[test]
fn xmark_workload_agrees_between_indexed_and_reference_kernels() {
    let mut reduced = 0;
    for name in catalog::COLLECTION.iter().filter(|&&n| n != "tpcw" && n != "derby") {
        reduced += agree_with_reference(name, xmark::workload, &[6, 15, 40]);
    }
    assert!(reduced > 0, "no query's scan volume actually shrank");
}

//! Delete-then-query differentials and batch/snapshot integration tests
//! for the PR-7 audited delete path. Before that fix,
//! `remove_element_occurrences` removed color occurrences only: the
//! extent, the value index and the statistics catalog kept "ghost"
//! entries for deleted instances, so any scan — linear or
//! index-accelerated — kept answering with deleted elements, and on
//! DEEP/UNDR the doomed filter matched the canonical `ElementId` only, so
//! occurrences held by physical copies survived outright. Every test in
//! this file fails against that delete path and pins the repaired
//! contract: tpcw reads agree under every kernel dispatch after
//! randomized delete batches and never answer with a deleted instance;
//! copy occurrences die with their canonical; and snapshot readers on
//! other threads see byte-identical pre-batch answers while an
//! [`UpdateBatch`](colorist::store::UpdateBatch) commits.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, Rng, ScaleProfile};
use colorist::er::{catalog, ErGraph, NodeId};
use colorist::mct::ColorId;
use colorist::query::{compile, execute, execute_snapshot, PatternBuilder};
use colorist::store::{Database, ElementId, KernelDispatch, UpdateBatch};

/// Randomized delete rounds per differential.
const ROUNDS: u64 = 16;

/// Pick a randomized batch of logical delete targets as `(node, ordinal)`
/// coordinates — ordinals are strategy-independent, so the same targets
/// resolve on every materialization of the same instance set.
fn delete_targets(g: &ErGraph, db: &Database, rng: &mut Rng, count: usize) -> Vec<(NodeId, u32)> {
    let entities: Vec<NodeId> = g.entity_nodes().collect();
    let mut targets = Vec::new();
    while targets.len() < count {
        let node = entities[rng.below(entities.len() as u64) as usize];
        let n = db.ordinal_count(node);
        if n == 0 {
            continue;
        }
        let t = (node, rng.below(n as u64) as u32);
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    targets
}

/// After randomized delete batches, every tpcw read returns the same
/// answer under all three kernel dispatches (cost-model, fixed-ratio,
/// reference), and no answer contains a deleted instance. Pre-fix the
/// extents and value index kept ghost entries, so both the indexed and
/// the reference scans answered point lookups on deleted keys.
#[test]
fn tpcw_reads_agree_across_dispatches_after_delete_batches() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let w = colorist::workload::tpcw::workload(&g);
    for round in 0..ROUNDS {
        let scale = 14 + 9 * round as u32;
        let inst = generate(&g, &ScaleProfile::tpcw(&g, scale), 90 + round);
        let mut rng = Rng::new(0xDE1E7Eu64.wrapping_add(round));
        // the same logical instances die on every strategy
        let probe_db = {
            let schema = design(&g, Strategy::Shallow).expect("designs");
            materialize(&g, &schema, &inst)
        };
        let targets = delete_targets(&g, &probe_db, &mut rng, 5);
        for s in Strategy::ALL {
            let schema = design(&g, s).expect("designs");
            let mut db = materialize(&g, &schema, &inst);
            let mut batch = UpdateBatch::new();
            let mut doomed: Vec<(ElementId, String, colorist::store::Value)> = Vec::new();
            for &(node, ordinal) in &targets {
                let e = db.canonical_by_ordinal(node, ordinal).expect("target is live");
                doomed.push((e, g.node(node).name.clone(), db.element(e).attrs[0].clone()));
                batch.delete(e);
            }
            batch.apply(&mut db, &g).expect("delete batch applies");
            db.check_integrity().expect("post-delete audit");
            let ctx = format!("scale {scale}: {s}");
            // every deleted instance is unreachable through its key
            for (e, node_name, key) in &doomed {
                let probe = PatternBuilder::new(&g, "ghost_probe")
                    .node(node_name)
                    .pred_eq("id", key.clone())
                    .build()
                    .expect("probe builds");
                let plan = compile(&g, &schema, &probe).expect("probe compiles");
                for dispatch in
                    [KernelDispatch::CostModel, KernelDispatch::Ratio, KernelDispatch::Reference]
                {
                    db.set_kernel_dispatch(dispatch);
                    let got = execute(&db, &g, &plan).expect("probe runs");
                    assert!(
                        got.elements.is_empty(),
                        "{ctx}: deleted {node_name} {e:?} still answers under {dispatch:?}"
                    );
                }
            }
            // the full workload agrees under every dispatch, and never
            // resurrects a doomed element
            for q in &w.reads {
                let plan = compile(&g, &schema, q).expect("compiles");
                db.set_kernel_dispatch(KernelDispatch::CostModel);
                let cost = execute(&db, &g, &plan).expect("cost-model run");
                db.set_kernel_dispatch(KernelDispatch::Ratio);
                let ratio = execute(&db, &g, &plan).expect("ratio run");
                db.set_kernel_dispatch(KernelDispatch::Reference);
                let reference = execute(&db, &g, &plan).expect("reference run");
                let qctx = format!("{ctx}: {}", q.name);
                assert_eq!(cost.elements, reference.elements, "{qctx}: answers diverge");
                assert_eq!(cost.results, reference.results, "{qctx}: physical counts diverge");
                assert_eq!(cost.distinct, reference.distinct, "{qctx}: logical counts diverge");
                assert_eq!(ratio.elements, reference.elements, "{qctx}: ratio answers diverge");
                assert_eq!(ratio.results, reference.results, "{qctx}: ratio physical diverge");
                for (e, node_name, _) in &doomed {
                    assert!(
                        !cost.elements.contains(e),
                        "{qctx}: answer contains deleted {node_name} {e:?}"
                    );
                }
            }
            db.set_kernel_dispatch(KernelDispatch::CostModel);
        }
    }
}

/// DEEP and UNDR duplicate entities under every sharing placement, so a
/// logical instance owns occurrences through physical copies with their
/// own `ElementId`s. Deleting the instance — through the canonical *or*
/// through a copy — must remove every one of those occurrences. Pre-fix
/// the doomed filter matched `o.element == e`, so copy occurrences
/// survived the canonical's deletion.
#[test]
fn copy_occurrences_die_with_their_canonical_on_deep_and_undr() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let inst = generate(&g, &ScaleProfile::tpcw(&g, 20), 7);
    for s in [Strategy::Deep, Strategy::Undr] {
        let schema = design(&g, s).expect("designs");
        let mut db = materialize(&g, &schema, &inst);
        // find a copy: an element whose canonical is a different id
        let copy = (0..db.element_count() as u32)
            .map(ElementId)
            .find(|&e| db.element(e).canonical != e)
            .unwrap_or_else(|| panic!("{s} materializes at least one copy"));
        let canon = db.element(copy).canonical;
        let occs_of = |db: &Database| -> usize {
            (0..db.color_count())
                .map(|c| {
                    db.color(ColorId(c as u16))
                        .occs()
                        .iter()
                        .filter(|o| db.element(o.element).canonical == canon)
                        .count()
                })
                .sum()
        };
        let before = occs_of(&db);
        assert!(before >= 2, "{s}: instance should occur more than once, got {before}");
        // delete through the copy's id — the whole instance dies; the
        // removal count includes cascaded subtree occurrences of other
        // instances nested below, so it is at least the instance's own
        let mut batch = UpdateBatch::new();
        batch.delete(copy);
        let receipt = batch.apply(&mut db, &g).unwrap_or_else(|e| panic!("{s}: {e}"));
        assert!(
            receipt.occurrences_removed >= before as u64,
            "{s}: every occurrence of the instance leaves"
        );
        assert_eq!(occs_of(&db), 0, "{s}: no copy occurrence survives");
        assert!(!db.is_live(canon), "{s}: canonical no longer live");
        let node = db.element(canon).node;
        assert!(!db.extent(node).contains(&canon), "{s}: extent retracted");
        db.check_integrity().unwrap_or_else(|e| panic!("{s}: post-delete audit: {e}"));
    }
}

/// Snapshot isolation under concurrency: readers holding a pre-batch
/// [`Snapshot`](colorist::store::Snapshot) keep computing byte-identical
/// pre-batch answers on their own threads while a writer commits an
/// [`UpdateBatch`] — and after the commit the snapshot still answers from
/// the pre-batch version while the live database has moved on.
#[test]
fn snapshot_readers_are_isolated_from_a_committing_batch() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let w = colorist::workload::tpcw::workload(&g);
    let schema = design(&g, Strategy::Deep).expect("designs");
    let inst = generate(&g, &ScaleProfile::tpcw(&g, 30), 13);
    let mut db = materialize(&g, &schema, &inst);
    let plans: Vec<_> =
        w.reads.iter().map(|q| compile(&g, &schema, q).expect("compiles")).collect();
    let pre: Vec<_> = plans.iter().map(|p| execute(&db, &g, p).expect("pre run")).collect();

    let mut rng = Rng::new(0x5AFE);
    let targets = delete_targets(&g, &db, &mut rng, 4);
    let mut batch = UpdateBatch::new();
    for &(node, ordinal) in &targets {
        batch.delete(db.canonical_by_ordinal(node, ordinal).expect("live target"));
    }

    let snap = db.snapshot();
    let pre_epoch = db.epoch();
    let gref = &g;
    let db = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let receipt = batch.apply(&mut db, gref).expect("batch commits");
            assert_eq!(receipt.ops, 4);
            db
        });
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let (snap, plans, pre) = (&snap, &plans, &pre);
                scope.spawn(move || {
                    for round in 0..8 {
                        for (plan, want) in plans.iter().zip(pre) {
                            let got = execute_snapshot(snap, gref, plan).expect("snapshot run");
                            let ctx = format!("reader {r} round {round}: {}", plan.name);
                            assert_eq!(got.elements, want.elements, "{ctx}: answers moved");
                            assert_eq!(got.results, want.results, "{ctx}: physical moved");
                            assert_eq!(got.distinct, want.distinct, "{ctx}: logical moved");
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader panicked");
        }
        writer.join().expect("writer panicked")
    });

    // post-commit: the snapshot still answers from the pre-batch version
    assert_eq!(snap.epoch(), pre_epoch, "snapshot pins the pre-batch epoch");
    assert!(db.epoch() > pre_epoch, "the live database moved on");
    db.check_integrity().expect("post-commit audit");
    let mut moved = 0usize;
    for (plan, want) in plans.iter().zip(&pre) {
        let still = execute_snapshot(&snap, &g, plan).expect("snapshot run");
        assert_eq!(still.elements, want.elements, "{}: snapshot drifted", plan.name);
        assert_eq!(still.results, want.results, "{}: snapshot drifted", plan.name);
        let live = execute(&db, &g, plan).expect("live run");
        if live.elements != want.elements || live.results != want.results {
            moved += 1;
        }
    }
    assert!(moved > 0, "the delete batch changed no answer — targets too timid");
}

/// Atomicity at the integration level: a batch that fails validation —
/// here a write conflicting with a delete of the same instance — leaves
/// the database byte-identical, answers included.
#[test]
fn rejected_batches_change_no_answer() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let w = colorist::workload::tpcw::workload(&g);
    let schema = design(&g, Strategy::Mcmr).expect("designs");
    let inst = generate(&g, &ScaleProfile::tpcw(&g, 12), 3);
    let mut db = materialize(&g, &schema, &inst);
    let plans: Vec<_> =
        w.reads.iter().map(|q| compile(&g, &schema, q).expect("compiles")).collect();
    let pre: Vec<_> = plans.iter().map(|p| execute(&db, &g, p).expect("pre run")).collect();
    let epoch = db.epoch();

    let victim = db.extent(g.node_by_name("customer").expect("customer node"))[0];
    let mut batch = UpdateBatch::new();
    batch
        .write_attr(victim, 1, colorist::store::Value::Text("torn".into()))
        .delete(victim)
        .delete(db.extent(g.node_by_name("item").expect("item node"))[0]);
    batch.apply(&mut db, &g).expect_err("write+delete conflict must be rejected");

    assert_eq!(db.epoch(), epoch, "rejected batch bumped the epoch");
    db.check_integrity().expect("audit after rejection");
    for (plan, want) in plans.iter().zip(&pre) {
        let got = execute(&db, &g, plan).expect("post-rejection run");
        assert_eq!(got.elements, want.elements, "{}: answer changed", plan.name);
        assert_eq!(got.results, want.results, "{}: physical changed", plan.name);
    }
}

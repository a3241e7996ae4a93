//! Property test: random chain queries over random diagrams return the
//! same logical answers under every design strategy. This is the strongest
//! correctness statement in the repository — it quantifies over diagrams,
//! data, queries, *and* schemas at once.
//!
//! Randomness comes from the repository's own deterministic
//! [`Rng`](colorist::datagen::Rng): each case is a fixed function of its
//! index.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, Rng, ScaleProfile};
use colorist::er::{Attribute, Cardinality, EligibleAssociations, Endpoint, ErDiagram, ErGraph};
use colorist::query::{compile, execute, Pattern, PatternBuilder};
use colorist::store::Value;

const CASES: u64 = 192;

/// A random simplified ER diagram: 2–5 entities, 1–7 binary relationships.
fn arb_diagram(rng: &mut Rng) -> ErDiagram {
    let n = 2 + rng.below(4) as usize;
    let n_rels = 1 + rng.below(7) as usize;
    let mut d = ErDiagram::new("random");
    for i in 0..n {
        d.add_entity(&format!("e{i}"), vec![Attribute::key("id"), Attribute::text("label")])
            .unwrap();
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
        let ea = Endpoint::new(&format!("e{a}"), ca).role("l");
        let mut eb = Endpoint::new(&format!("e{b}"), cb).role("r");
        if rng.below(2) == 1 {
            eb = eb.total();
        }
        d.add_relationship(&format!("r{k}"), vec![ea, eb], vec![]).unwrap();
    }
    d
}

/// Build a chain query along a randomly chosen eligible association,
/// direction randomly flipped (exercising descents and ascents).
fn pick_query(g: &ErGraph, pick: usize, flip: bool, key: i64) -> Option<Pattern> {
    let elig = EligibleAssociations::enumerate(g, 6);
    if elig.is_empty() {
        return None;
    }
    let assocs: Vec<_> = elig.iter().collect();
    let a = assocs[pick % assocs.len()];
    let (from, to) = if flip { (a.target, a.source) } else { (a.source, a.target) };
    let via: Vec<String> = {
        let interior = &a.nodes[1..a.nodes.len() - 1];
        let names: Vec<String> = interior.iter().map(|&n| g.node(n).name.clone()).collect();
        if flip {
            names.into_iter().rev().collect()
        } else {
            names
        }
    };
    let via_refs: Vec<&str> = via.iter().map(String::as_str).collect();
    PatternBuilder::new(g, "rand")
        .node(&g.node(from).name)
        .pred_eq("id", Value::Int(key))
        .node(&g.node(to).name)
        .chain(0, 1, &via_refs)
        .ok()?
        .output(1)
        .distinct()
        .build()
        .ok()
}

/// Regression (found by the `fuzz`-depth run of the property below,
/// originally case 106; re-pinned to case 129 — the smallest index whose
/// DEEP plan still turns — when the datagen totality fix changed the
/// instance stream): on a schema with duplicated placements, an
/// ascent-then-descent chain plan turns at a node whose occurrences are
/// scattered over several subtrees, and no single occurrence need carry
/// the whole chain. DEEP returned an empty answer where every other
/// strategy found the match, until the executor widened struct-join
/// sources to all occurrences of the same logical instances.
#[test]
fn deep_turning_point_sees_all_duplicate_subtrees() {
    let case = 129u64;
    let mut rng = Rng::new(0xBEEF_u64.wrapping_add(case));
    let d = arb_diagram(&mut rng);
    let pick = rng.below(64) as usize;
    let flip = rng.below(2) == 1;
    let key = rng.below(10) as i64;
    let seed = rng.below(1000);

    let g = ErGraph::from_diagram(&d).unwrap();
    let q = pick_query(&g, pick, flip, key).expect("case 106 has an eligible association");
    let inst = generate(&g, &ScaleProfile::uniform(&g, 25), seed);
    let mut answers = Vec::new();
    for s in Strategy::ALL {
        let schema = design(&g, s).unwrap();
        let db = materialize(&g, &schema, &inst);
        let plan = compile(&g, &db.schema, &q).unwrap();
        answers.push((s, execute(&db, &g, &plan).unwrap().elements));
    }
    let (ref_s, reference) = &answers[1]; // AF: node-normal, single color
    assert_eq!(*ref_s, Strategy::Af);
    assert!(!reference.is_empty(), "the association instance exists");
    for (s, elems) in &answers {
        assert_eq!(
            elems, reference,
            "{s} must see the match through duplicate subtrees, like {ref_s}"
        );
    }
}

#[test]
fn random_chain_queries_agree_across_all_strategies() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xBEEF_u64.wrapping_add(case));
        let d = arb_diagram(&mut rng);
        let pick = rng.below(64) as usize;
        let flip = rng.below(2) == 1;
        let key = rng.below(10) as i64;
        let seed = rng.below(1000);

        let g = ErGraph::from_diagram(&d).unwrap();
        let Some(q) = pick_query(&g, pick, flip, key) else {
            continue; // no eligible associations in this diagram
        };
        let profile = ScaleProfile::uniform(&g, 25);
        let inst = generate(&g, &profile, seed);
        let mut reference: Option<Vec<_>> = None;
        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            let db = materialize(&g, &schema, &inst);
            let plan = compile(&g, &db.schema, &q).unwrap();
            let r = execute(&db, &g, &plan).unwrap();
            match &reference {
                None => reference = Some(r.elements),
                Some(expected) => {
                    assert_eq!(&r.elements, expected, "case {case}: {s} disagrees on {q:?}")
                }
            }
        }
    }
}

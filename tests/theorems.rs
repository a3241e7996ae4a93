//! Property tests for the paper's theorems over *random* simplified ER
//! diagrams — the mechanical counterpart of the proofs in §4 and §5.
//!
//! Randomness comes from the repository's own deterministic [`Rng`]
//! (workspace builds offline, with no external crates): every case is a
//! fixed function of its index, so failures are reproducible from the
//! printed case number alone.

use colorist::core::{self, design, single_color_feasibility, Strategy};
use colorist::datagen::Rng;
use colorist::er::{Attribute, Cardinality, EligibleAssociations, Endpoint, ErDiagram, ErGraph};

/// Cases per property.
const CASES: u64 = 512;

/// A random simplified ER diagram: 2–6 entities, 1–9 relationships with
/// random cardinalities (1:1 / 1:M / M:N), participations, and endpoints
/// (recursive relationships included, with roles).
fn arb_diagram(rng: &mut Rng) -> ErDiagram {
    let n = 2 + rng.below(5) as usize;
    let n_rels = 1 + rng.below(9) as usize;
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
        let mut ea = Endpoint::new(&format!("e{a}"), ca).role("l");
        let mut eb = Endpoint::new(&format!("e{b}"), cb).role("r");
        if rng.below(2) == 1 {
            ea = ea.total();
        }
        if rng.below(2) == 1 {
            eb = eb.total();
        }
        d.add_relationship(&format!("r{k}"), vec![ea, eb], vec![]).unwrap();
    }
    d
}

/// Run `body` over `CASES` independent diagrams, tagging failures with
/// the reproducible case index.
fn for_random_diagrams(salt: u64, body: impl Fn(&ErGraph)) {
    for case in 0..CASES {
        let mut rng = Rng::new(0xC010_u64.wrapping_add(salt << 32).wrapping_add(case));
        let d = arb_diagram(&mut rng);
        let g = ErGraph::from_diagram(&d).unwrap();
        body(&g);
    }
}

/// Theorem 5.1: Algorithm MC always yields NN + EN + AR.
#[test]
fn theorem_5_1() {
    for_random_diagrams(51, |g| {
        let schema = design(g, Strategy::En).unwrap();
        let elig = EligibleAssociations::enumerate(g, 8);
        let p = core::check(&schema, g, &elig);
        assert!(p.node_normal);
        assert!(p.edge_normal);
        assert!(p.association_recoverable);
        assert!(schema.icics().is_empty());
    });
}

/// Theorem 5.2: Algorithm DUMC always yields NN + AR + DR.
#[test]
fn theorem_5_2() {
    for_random_diagrams(52, |g| {
        let schema = design(g, Strategy::Dr).unwrap();
        let elig = EligibleAssociations::enumerate_default(g);
        let p = core::check(&schema, g, &elig);
        assert!(p.node_normal);
        assert!(p.association_recoverable);
        assert!(p.direct_recoverable);
    });
}

/// Theorem 4.1, both directions: the feasibility test agrees with what
/// the AF translation actually achieves in one color.
#[test]
fn theorem_4_1() {
    for_random_diagrams(41, |g| {
        let feasible = single_color_feasibility(g).feasible();
        let af = design(g, Strategy::Af).unwrap();
        let elig = EligibleAssociations::enumerate(g, 8);
        let p = core::check(&af, g, &elig);
        assert!(p.node_normal, "AF is always node normal");
        assert_eq!(
            p.association_recoverable, feasible,
            "AF achieves single-color AR exactly when Theorem 4.1 allows it"
        );
    });
}

/// MCMR keeps MC's color count and node normal form while only ever
/// improving direct recoverability.
#[test]
fn mcmr_dominates_mc() {
    for_random_diagrams(77, |g| {
        let en = design(g, Strategy::En).unwrap();
        let mcmr = design(g, Strategy::Mcmr).unwrap();
        assert_eq!(mcmr.color_count(), en.color_count());
        let elig = EligibleAssociations::enumerate(g, 8);
        let before = core::properties::uncovered_associations(&en, &elig).len();
        let after = core::properties::uncovered_associations(&mcmr, &elig).len();
        assert!(after <= before);
        assert!(core::check(&mcmr, g, &elig).node_normal);
    });
}

/// Every strategy covers every node and edge (schema validation), and
/// single-color strategies stay single-color.
#[test]
fn strategies_always_design() {
    for_random_diagrams(99, |g| {
        for s in Strategy::ALL {
            let schema = design(g, s).unwrap();
            match s {
                Strategy::Deep | Strategy::Af | Strategy::Shallow => {
                    assert_eq!(schema.color_count(), 1, "{}", s)
                }
                _ => {}
            }
        }
    });
}

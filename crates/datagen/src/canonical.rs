//! The canonical ER instance: one seeded, constraint-respecting population
//! of a diagram, independent of any schema.

use crate::profile::ScaleProfile;
use crate::rng::Rng;
use colorist_er::{Cardinality, Domain, EdgeId, ErGraph, NodeId, Participation};
use colorist_store::Value;

/// A canonical instance of an ER diagram.
///
/// * `attrs[node][ordinal]` — the attribute values of one logical instance
///   (aligned with the node's attribute declaration);
/// * `links[edge][rel_ordinal]` — the participant ordinal each relationship
///   instance is linked to via that edge, plus the reverse index
///   `rev[edge][participant_ordinal]` listing relationship ordinals.
#[derive(Debug, Clone)]
pub struct CanonicalInstance {
    counts: Vec<u32>,
    attrs: Vec<Vec<Vec<Value>>>,
    links: Vec<Vec<u32>>,
    rev: Vec<Vec<Vec<u32>>>,
}

impl CanonicalInstance {
    /// Number of logical instances of a node type.
    pub fn count(&self, n: NodeId) -> u32 {
        self.counts[n.idx()]
    }

    /// Attribute values of instance `(n, ordinal)`.
    pub fn attrs(&self, n: NodeId, ordinal: u32) -> &[Value] {
        &self.attrs[n.idx()][ordinal as usize]
    }

    /// The participant ordinal that relationship instance `rel_ordinal` is
    /// linked to via `edge`.
    pub fn link(&self, edge: EdgeId, rel_ordinal: u32) -> u32 {
        self.links[edge.idx()][rel_ordinal as usize]
    }

    /// Relationship ordinals linked to participant instance
    /// `participant_ordinal` via `edge`.
    pub fn linked_rels(&self, edge: EdgeId, participant_ordinal: u32) -> &[u32] {
        &self.rev[edge.idx()][participant_ordinal as usize]
    }

    /// Total logical instances.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }
}

/// Generate a canonical instance for `graph` at `profile` scale with a
/// deterministic `seed`.
pub fn generate(graph: &ErGraph, profile: &ScaleProfile, seed: u64) -> CanonicalInstance {
    let mut rng = Rng::new(seed);
    let counts: Vec<u32> = profile.counts().to_vec();

    // Attribute values.
    let attrs: Vec<Vec<Vec<Value>>> = graph
        .node_ids()
        .map(|n| {
            let node = graph.node(n);
            (0..counts[n.idx()])
                .map(|ordinal| {
                    node.attributes
                        .iter()
                        .map(|a| draw_value(&mut rng, &node.name, a, ordinal, counts[n.idx()]))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Relationship links, per edge.
    let mut links: Vec<Vec<u32>> = vec![Vec::new(); graph.edge_count()];
    for r in graph.relationship_nodes() {
        let n_rel = counts[r.idx()];
        let incident: Vec<EdgeId> = {
            let mut v: Vec<EdgeId> = graph
                .incident(r)
                .iter()
                .filter(|&&(e, _)| graph.edge(e).rel == r)
                .map(|&(e, _)| e)
                .collect();
            v.sort_by_key(|&e| graph.edge(e).endpoint);
            v
        };
        for e in incident {
            let edge = graph.edge(e);
            let n_part = counts[edge.participant.idx()];
            links[e.idx()] = match edge.cardinality {
                Cardinality::One => {
                    // injective: a random subset of participants, each once.
                    // Total participation wants full coverage; the profile
                    // arranges n_rel == n_part in that case.
                    debug_assert!(edge.participation == Participation::Partial || n_rel <= n_part);
                    let mut ordinals: Vec<u32> = (0..n_part).collect();
                    rng.shuffle(&mut ordinals);
                    ordinals.truncate(n_rel as usize);
                    assert!(
                        n_rel <= n_part,
                        "profile violates cardinality: {} rels for {} participants",
                        n_rel,
                        n_part
                    );
                    ordinals
                }
                Cardinality::Many => {
                    // skewed choice (squared uniform) so some participants
                    // are hot, like real workloads
                    let mut chosen: Vec<u32> = (0..n_rel)
                        .map(|_| {
                            let u: f64 = rng.f64();
                            ((u * u * n_part as f64) as u32).min(n_part - 1)
                        })
                        .collect();
                    if edge.participation == Participation::Total {
                        // every participant instance must appear at least
                        // once — the schemas' completeness analysis relies
                        // on it. Overwrite a prefix with a shuffled cover,
                        // then re-shuffle so coverage is not correlated
                        // with relationship ordinals (best effort when the
                        // profile could not afford n_rel >= n_part).
                        let mut cover: Vec<u32> = (0..n_part).collect();
                        rng.shuffle(&mut cover);
                        cover.truncate(n_rel as usize);
                        chosen[..cover.len()].copy_from_slice(&cover);
                        rng.shuffle(&mut chosen);
                    }
                    chosen
                }
            };
        }
    }

    // Reverse index.
    let mut rev: Vec<Vec<Vec<u32>>> = graph
        .edge_ids()
        .map(|e| vec![Vec::new(); counts[graph.edge(e).participant.idx()] as usize])
        .collect();
    for e in graph.edge_ids() {
        for (rel_ordinal, &p) in links[e.idx()].iter().enumerate() {
            rev[e.idx()][p as usize].push(rel_ordinal as u32);
        }
    }

    CanonicalInstance { counts, attrs, links, rev }
}

/// Deterministic-ish attribute values: keys are ordinals; text draws from a
/// bounded vocabulary (`attr_j`) so predicates have realistic selectivity;
/// numbers are uniform; dates span 2001–2004.
fn draw_value(
    rng: &mut Rng,
    node_name: &str,
    attr: &colorist_er::Attribute,
    ordinal: u32,
    extent: u32,
) -> Value {
    if attr.is_key {
        return Value::Int(ordinal as i64);
    }
    match attr.domain {
        Domain::Integer => Value::Int(rng.range_i64(0, 1000)),
        Domain::Float => Value::Float((rng.range_i64(0, 1_000_000) as f64) / 100.0),
        Domain::Date => {
            let y = 2001 + rng.range_i64(0, 4);
            let m = rng.range_i64(1, 13);
            let d = rng.range_i64(1, 29);
            Value::Text(format!("{y:04}-{m:02}-{d:02}"))
        }
        Domain::Text => {
            let vocab = (extent / 8).clamp(2, 64);
            let j = rng.range_u32(0, vocab);
            Value::Text(format!("{}_{}_{j}", node_name, attr.name))
        }
        _ => unreachable!("simplified diagrams have atomic attributes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_er::catalog;

    fn tpcw_instance(customers: u32, seed: u64) -> (ErGraph, CanonicalInstance) {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let p = ScaleProfile::tpcw(&g, customers);
        let i = generate(&g, &p, seed);
        (g, i)
    }

    #[test]
    fn cardinality_constraints_hold() {
        let (g, inst) = tpcw_instance(200, 42);
        for e in g.edge_ids() {
            let edge = g.edge(e);
            if edge.cardinality == Cardinality::One {
                // injective: no participant linked twice
                let mut seen = std::collections::HashSet::new();
                for ro in 0..inst.count(edge.rel) {
                    assert!(seen.insert(inst.link(e, ro)), "edge {e} not injective");
                }
            }
            // links in range
            for ro in 0..inst.count(edge.rel) {
                assert!(inst.link(e, ro) < inst.count(edge.participant));
            }
        }
    }

    #[test]
    fn total_participation_covers_every_instance() {
        let (g, inst) = tpcw_instance(150, 7);
        // every order participates in make (total)
        let make = g.node_by_name("make").unwrap();
        let order = g.node_by_name("order").unwrap();
        let e = g
            .edge_ids()
            .find(|&e| g.edge(e).rel == make && g.edge(e).participant == order)
            .unwrap();
        let mut covered = vec![false; inst.count(order) as usize];
        for ro in 0..inst.count(make) {
            covered[inst.link(e, ro) as usize] = true;
        }
        assert!(covered.iter().all(|&c| c), "total participation must cover all orders");
    }

    #[test]
    fn reverse_index_is_consistent() {
        let (g, inst) = tpcw_instance(100, 3);
        for e in g.edge_ids() {
            let edge = g.edge(e);
            for po in 0..inst.count(edge.participant) {
                for &ro in inst.linked_rels(e, po) {
                    assert_eq!(inst.link(e, ro), po);
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_seed() {
        let (_, a) = tpcw_instance(64, 5);
        let (_, b) = tpcw_instance(64, 5);
        let (g, c) = tpcw_instance(64, 6);
        let cust = g.node_by_name("customer").unwrap();
        assert_eq!(a.attrs(cust, 3), b.attrs(cust, 3));
        // different seed differs somewhere in the first few customers
        let differs = (0..10).any(|i| a.attrs(cust, i) != c.attrs(cust, i));
        assert!(differs);
    }

    #[test]
    fn keys_are_ordinals_and_text_bounded() {
        let (g, inst) = tpcw_instance(100, 1);
        let item = g.node_by_name("item").unwrap();
        for o in 0..inst.count(item) {
            assert_eq!(inst.attrs(item, o)[0], Value::Int(o as i64));
        }
        // subject is a text attr with bounded vocabulary
        let idx = g.node(item).attributes.iter().position(|a| a.name == "subject").unwrap();
        let distinct: std::collections::HashSet<String> =
            (0..inst.count(item)).map(|o| inst.attrs(item, o)[idx].to_string()).collect();
        assert!(distinct.len() <= 64);
        assert!(distinct.len() >= 2);
    }

    #[test]
    fn whole_catalog_generates() {
        for name in catalog::COLLECTION {
            let g = ErGraph::from_diagram(&catalog::by_name(name).unwrap()).unwrap();
            let p = ScaleProfile::uniform(&g, 50);
            let inst = generate(&g, &p, 11);
            assert!(inst.total() > 0, "{name}");
        }
    }
}

//! Materialize one canonical instance into a stored database under a
//! schema.
//!
//! Per color, the schema's placement forest is instantiated top-down:
//!
//! * a **root placement** materializes the full extent of its node type;
//! * a child placement via an ER edge materializes, under each parent
//!   occurrence, the instances linked to it: all relationship instances
//!   linked to a participant parent, or the single participant instance of
//!   a relationship parent;
//! * the **first** occurrence of a logical instance within a color binds
//!   its canonical element; any further occurrence (possible only in
//!   non-node-normalized schemas, or under a root that repeats an extent
//!   already placed elsewhere in the color) stores a physical *copy* —
//!   this is exactly where DEEP's and UNDR's storage blow-up comes from.
//!   One refinement: an occurrence at a *childless* placement (a cycle-cut
//!   leaf of DEEP/UNDR) never binds the canonical while the node also has
//!   child-bearing placements in the color — otherwise an instance first
//!   reached through a leaf would never expand its own subtree anywhere,
//!   and parent-child pairs would silently go unmaterialized.
//!
//! Elements of relationship types carry their idref values (the implicit
//! ids of the participants on value-encoded edges) appended after the
//! declared attributes, which is what value joins probe.

use crate::canonical::CanonicalInstance;
use colorist_er::ErGraph;
use colorist_mct::{MctSchema, PlacementId};
use colorist_store::{Database, DatabaseBuilder, ElementId, OccId, Value};

/// Materialize `instance` under `schema`.
pub fn materialize(graph: &ErGraph, schema: &MctSchema, instance: &CanonicalInstance) -> Database {
    let mut span = colorist_trace::span("materialize", "materialize");
    let mut b = DatabaseBuilder::new(schema.clone(), graph.node_count());
    b.set_links(
        graph
            .edge_ids()
            .map(|e| {
                (0..instance.count(graph.edge(e).rel)).map(|ro| instance.link(e, ro)).collect()
            })
            .collect(),
    );

    // 1. canonical elements, with idref values appended for relationship
    //    elements.
    let mut canonical: Vec<Vec<ElementId>> = vec![Vec::new(); graph.node_count()];
    let mut idrefs: Vec<Value> = Vec::new();
    for n in graph.node_ids() {
        let idref_edges: Vec<_> = schema
            .idrefs()
            .iter()
            .filter(|l| graph.edge(l.edge).rel == n)
            .map(|l| l.edge)
            .collect();
        for ordinal in 0..instance.count(n) {
            idrefs.clear();
            idrefs
                .extend(idref_edges.iter().map(|&e| Value::Int(instance.link(e, ordinal) as i64)));
            canonical[n.idx()]
                .push(b.add_canonical(n, instance.attrs(n, ordinal).iter().chain(&idrefs)));
        }
    }

    // 2. per color, instantiate the forest.
    for color in schema.colors() {
        // placements allowed to bind canonicals, by placement id:
        // child-bearing ones, or any when the node has no child-bearing
        // placement in this color
        let mut bindable = vec![false; schema.placements().len()];
        for n in graph.node_ids() {
            let of_node = schema.placements_of_in_color(n, color);
            let childful = of_node.iter().any(|&p| !schema.children(p).is_empty());
            for p in of_node {
                bindable[p.idx()] = !childful || !schema.children(p).is_empty();
            }
        }
        // per node, the ordinals whose canonical this color has bound
        let mut bound: Vec<Vec<bool>> =
            graph.node_ids().map(|n| vec![false; instance.count(n) as usize]).collect();
        for &root in schema.roots(color) {
            let node = schema.placement(root).node;
            for ordinal in 0..instance.count(node) {
                instantiate(
                    graph, schema, instance, &mut b, &canonical, &bindable, &mut bound, color,
                    root, ordinal, None,
                );
            }
        }
        // 3. heterogeneous-instance pass (§4.2): logical instances that no
        //    parent reached in this color (partial participation — e.g.
        //    items no author ever wrote) still belong to the color, as
        //    extra parentless roots at their first bindable placement.
        let placements_preorder: Vec<PlacementId> = {
            let mut v = Vec::new();
            for &root in schema.roots(color) {
                v.extend(schema.subtree(root));
            }
            v
        };
        for p in placements_preorder {
            if !bindable[p.idx()] {
                continue;
            }
            let node = schema.placement(p).node;
            for ordinal in 0..instance.count(node) {
                if !bound[node.idx()][ordinal as usize] {
                    instantiate(
                        graph, schema, instance, &mut b, &canonical, &bindable, &mut bound, color,
                        p, ordinal, None,
                    );
                }
            }
        }
    }

    let db = b.finish();
    if span.is_recording() {
        span.counter("elements", db.element_count() as u64);
        span.counter("colors", db.color_count() as u64);
    }
    db
}

#[allow(clippy::too_many_arguments)]
fn instantiate(
    graph: &ErGraph,
    schema: &MctSchema,
    instance: &CanonicalInstance,
    b: &mut DatabaseBuilder,
    canonical: &[Vec<ElementId>],
    bindable: &[bool],
    bound: &mut [Vec<bool>],
    color: colorist_mct::ColorId,
    placement: PlacementId,
    ordinal: u32,
    parent: Option<OccId>,
) {
    let node = schema.placement(placement).node;
    let canon = canonical[node.idx()][ordinal as usize];
    let slot = &mut bound[node.idx()][ordinal as usize];
    let element = if bindable[placement.idx()] && !*slot {
        *slot = true;
        canon
    } else {
        b.add_copy(canon)
    };
    let occ = b.add_occurrence(color, element, placement, parent);

    for &child in schema.children(placement) {
        let (_, edge) = schema.placement(child).parent.expect("child has a parent");
        let e = graph.edge(edge);
        if e.participant == node {
            // parent is the participant: all relationship instances linked
            // to this ordinal via the edge
            for &rel_ordinal in instance.linked_rels(edge, ordinal) {
                instantiate(
                    graph,
                    schema,
                    instance,
                    b,
                    canonical,
                    bindable,
                    bound,
                    color,
                    child,
                    rel_ordinal,
                    Some(occ),
                );
            }
        } else {
            // parent is the relationship: exactly one participant instance
            debug_assert_eq!(e.rel, node);
            let p_ordinal = instance.link(edge, ordinal);
            instantiate(
                graph,
                schema,
                instance,
                b,
                canonical,
                bindable,
                bound,
                color,
                child,
                p_ordinal,
                Some(occ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, ScaleProfile};
    use colorist_core::{design, Strategy};
    use colorist_er::catalog;
    use colorist_mct::ColorId;
    use colorist_store::stats::stats;

    fn setup(customers: u32) -> (ErGraph, CanonicalInstance) {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let p = ScaleProfile::tpcw(&g, customers);
        let i = generate(&g, &p, 42);
        (g, i)
    }

    #[test]
    fn normalized_schemas_share_element_counts() {
        // Table 1: "All node normalized MCT schemas have the same number of
        // elements, attributes and content nodes" (and equal SHALLOW/AF).
        let (g, inst) = setup(100);
        let mut counts = Vec::new();
        for s in [Strategy::Shallow, Strategy::Af, Strategy::En, Strategy::Mcmr, Strategy::Dr] {
            let schema = design(&g, s).unwrap();
            let db = materialize(&g, &schema, &inst);
            counts.push((s, db.element_count()));
        }
        let first = counts[0].1;
        assert_eq!(first as u64, inst.total());
        for (s, c) in counts {
            assert_eq!(c, first, "{s}");
        }
    }

    #[test]
    fn unnormalized_schemas_duplicate() {
        let (g, inst) = setup(100);
        let nn = materialize(&g, &design(&g, Strategy::Shallow).unwrap(), &inst);
        let deep = materialize(&g, &design(&g, Strategy::Deep).unwrap(), &inst);
        let undr = materialize(&g, &design(&g, Strategy::Undr).unwrap(), &inst);
        assert!(deep.element_count() > nn.element_count());
        assert!(undr.element_count() > nn.element_count());
        // Table 1 ordering: DEEP is the largest
        assert!(
            deep.element_count() >= undr.element_count(),
            "DEEP {} vs UNDR {}",
            deep.element_count(),
            undr.element_count()
        );
    }

    #[test]
    fn storage_ordering_matches_table_1() {
        // bytes: SHALLOW ≈ AF < EN < MCMR < DR < UNDR < DEEP
        let (g, inst) = setup(100);
        let size = |s: Strategy| {
            let schema = design(&g, s).unwrap();
            let db = materialize(&g, &schema, &inst);
            stats(&db, &g).data_bytes
        };
        let shallow = size(Strategy::Shallow);
        let af = size(Strategy::Af);
        let en = size(Strategy::En);
        let mcmr = size(Strategy::Mcmr);
        let dr = size(Strategy::Dr);
        let undr = size(Strategy::Undr);
        let deep = size(Strategy::Deep);
        assert!(en > shallow.min(af));
        assert!(mcmr >= en);
        assert!(dr > mcmr);
        assert!(undr > dr);
        assert!(deep > dr, "violating NN costs more than violating EN");
    }

    #[test]
    fn every_color_tree_is_consistent() {
        // the S009 tree audit checks that labels are the exact DFS
        // numbering of the parent pointers (so every interval is non-empty
        // and every parent contains its children), and S008 that every
        // occurrence's placement is in its own color
        let (g, inst) = setup(60);
        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            let db = materialize(&g, &schema, &inst);
            assert_eq!(db.check_integrity(), Ok(()), "{s}");
        }
    }

    #[test]
    fn canonical_bound_once_per_color() {
        let (g, inst) = setup(50);
        for s in Strategy::ALL {
            let schema = design(&g, s).unwrap();
            let db = materialize(&g, &schema, &inst);
            for ci in 0..db.color_count() {
                let t = db.color(ColorId(ci as u16));
                let mut canon_seen = std::collections::HashSet::new();
                for o in t.occs() {
                    let e = db.element(o.element);
                    if !e.is_copy(o.element) {
                        assert!(
                            canon_seen.insert(o.element),
                            "{s}: canonical element twice in color {ci}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn relationship_elements_carry_idref_values() {
        let (g, inst) = setup(40);
        let schema = design(&g, Strategy::Shallow).unwrap();
        let db = materialize(&g, &schema, &inst);
        // order_line carries an item idref as its last attribute
        let ol = g.node_by_name("order_line").unwrap();
        let declared = g.node(ol).attributes.len();
        let e = db.extent(ol)[0];
        assert_eq!(db.element(e).attrs.len(), declared + 1);
        let item = g.node_by_name("item").unwrap();
        let idref = db.element(e).attrs[declared].as_int().unwrap();
        assert!((idref as u32) < inst.count(item));
    }

    #[test]
    fn whole_catalog_materializes_under_all_strategies() {
        for name in catalog::COLLECTION {
            let g = ErGraph::from_diagram(&catalog::by_name(name).unwrap()).unwrap();
            let p = ScaleProfile::uniform(&g, 30);
            let inst = generate(&g, &p, 9);
            for s in Strategy::ALL {
                let schema = design(&g, s).unwrap();
                let db = materialize(&g, &schema, &inst);
                assert!(db.element_count() > 0, "{name}/{s}");
            }
        }
    }
}

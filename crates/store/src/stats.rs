//! Storage statistics — the top half of Table 1.
//!
//! This is paper-facing *storage accounting* (element/attribute/content-node/
//! byte counts reported per schema in Table 1), computed once for
//! reporting. The optimizer keeps no statistics of its own: its cost
//! annotations read exact counts from the extents and the value index.
//!
//! Node decomposition (documented substitution for TIMBER's internal node
//! accounting):
//!
//! * **elements** — stored elements (canonical + copies). All node
//!   normalized schemas of one diagram report the same number; DEEP/UNDR
//!   report more, as in the paper.
//! * **attributes** — XML attribute nodes: the implicit `id` on every
//!   element, every non-text declared attribute, and every idref attribute.
//! * **content nodes** — text nodes: one per text-domain attribute value
//!   (modelled as a text child, where TIMBER stores long values out of
//!   line).
//! * **data bytes** — a byte model: 24 bytes per element header, 8 per
//!   implicit id, `8 + value size` per attribute/content value, 20 per
//!   per-color occurrence (the `(start, end, level, parent, element)`
//!   label record). More colors ⇒ more occurrence records ⇒ larger
//!   database, which is why DR costs more storage than EN/MCMR and why
//!   "violating node normalization costs a great deal more in storage than
//!   violating edge normalization".

use crate::database::Database;
use crate::value::Value;
use colorist_er::{Domain, ErGraph};
use colorist_mct::ColorId;

/// The Table 1 storage row for one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Stored elements.
    pub elements: u64,
    /// XML attribute nodes.
    pub attributes: u64,
    /// Text content nodes.
    pub content_nodes: u64,
    /// Modelled size in bytes.
    pub data_bytes: u64,
    /// Number of colors.
    pub colors: usize,
}

impl Stats {
    /// Size in MBytes (as printed in Table 1).
    pub fn data_mbytes(&self) -> f64 {
        self.data_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Compute the storage statistics of a database.
pub fn stats(db: &Database, graph: &ErGraph) -> Stats {
    let mut s = Stats { colors: db.color_count(), ..Default::default() };
    // per-node declared-attribute shape: (non-text count, text count)
    let shapes: Vec<(u64, u64)> = graph
        .nodes()
        .iter()
        .map(|n| {
            let text = n
                .attributes
                .iter()
                .filter(|a| matches!(a.domain, Domain::Text | Domain::Date))
                .count() as u64;
            (n.attributes.len() as u64 - text, text)
        })
        .collect();
    // idref attributes per node
    let mut idrefs_per_node = vec![0u64; graph.node_count()];
    for l in db.schema.idrefs() {
        idrefs_per_node[graph.edge(l.edge).rel.idx()] += 1;
    }

    for e in db.elements() {
        s.elements += 1;
        let (non_text, text) = shapes[e.node.idx()];
        let idrefs = idrefs_per_node[e.node.idx()];
        s.attributes += 1 /* implicit id */ + non_text + idrefs;
        s.content_nodes += text;
        s.data_bytes += 24 + 8; // header + id
        s.data_bytes += e.attrs.iter().map(|v| 8 + v.byte_size() as u64).sum::<u64>();
    }
    for c in 0..db.color_count() {
        s.data_bytes += 20 * db.color(ColorId(c as u16)).occs().len() as u64;
    }
    // sanity: text attr values actually stored as Text
    debug_assert!(db
        .elements()
        .flat_map(|e| e.attrs.iter())
        .all(|v| matches!(v, Value::Int(_) | Value::Float(_) | Value::Text(_))));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DatabaseBuilder;
    use colorist_er::{Attribute, ErDiagram};

    #[test]
    fn counts_follow_the_model() {
        let mut d = ErDiagram::new("t");
        d.add_entity("a", vec![Attribute::key("id"), Attribute::text("name")]).unwrap();
        d.add_entity("b", vec![Attribute::key("id")]).unwrap();
        d.add_rel_1m("r", "a", "b").unwrap();
        let g = ErGraph::from_diagram(&d).unwrap();
        let schema = colorist_core::design(&g, colorist_core::Strategy::Shallow).unwrap();
        let a = g.node_by_name("a").unwrap();
        let mut bd = DatabaseBuilder::new(schema.clone(), g.node_count());
        let pa = schema.placements_of(a)[0];
        let ea = bd.add_canonical(a, &[Value::Int(0), Value::Text("xyz".into())]);
        bd.add_occurrence(ColorId(0), ea, pa, None);
        // an unreachable b element (no occurrence) still counts as storage
        let b = g.node_by_name("b").unwrap();
        bd.add_canonical(b, &[Value::Int(0)]);
        let db = bd.finish();
        let st = stats(&db, &g);
        assert_eq!(st.elements, 2);
        // a: id attr + key `id` ; b: id + key `id`; r extent empty (idrefs
        // live on r elements, none stored)
        assert_eq!(st.attributes, 4);
        assert_eq!(st.content_nodes, 1); // a.name
        assert_eq!(st.colors, 1);
        // bytes: a: 24+8 + (8+8) + (8+3); b: 24+8 + (8+8); occs: 1*20
        assert_eq!(st.data_bytes, (24 + 8 + 16 + 11) + (24 + 8 + 16) + 20);
        assert!(st.data_mbytes() < 1.0);
    }
}

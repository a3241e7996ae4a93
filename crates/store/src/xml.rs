//! XML serialization of a color tree — the document a single color *is*.
//!
//! A one-color MCT database is an XML database (§2.2); this module writes
//! any color of any database out as an XML document, with the implicit
//! `id` attribute, declared attributes, idref attributes, and text-domain
//! values as text children, matching the storage model in
//! [`crate::stats`]. Useful for eyeballing schemas, diffing instances, and
//! feeding external XML tooling.

use crate::database::{Database, OccId};
use crate::value::Value;
use colorist_er::{Domain, ErGraph};
use colorist_mct::ColorId;
use std::fmt::Write as _;

/// Serialize one color of the database as an XML document.
pub fn to_xml(db: &Database, graph: &ErGraph, color: ColorId) -> String {
    let mut s = String::with_capacity(db.color(color).occs().len() * 64);
    let _ = writeln!(s, r#"<?xml version="1.0" encoding="UTF-8"?>"#);
    let _ = writeln!(s, "<root color=\"{}\">", colorist_mct::color_name(color));
    let tree = db.color(color);
    // roots in document order
    let roots: Vec<OccId> = tree
        .occs()
        .iter()
        .enumerate()
        .filter(|(_, o)| o.parent.is_none())
        .map(|(i, _)| OccId(i as u32))
        .collect();
    for r in roots {
        emit(db, graph, color, r, 1, &mut s);
    }
    let _ = writeln!(s, "</root>");
    s
}

fn emit(db: &Database, graph: &ErGraph, color: ColorId, o: OccId, depth: usize, s: &mut String) {
    let tree = db.color(color);
    let occ = tree.occ(o);
    let el = db.element(occ.element);
    let node = graph.node(el.node);
    let indent = "  ".repeat(depth);
    let canon = db.element(el.canonical);

    let _ = write!(s, "{indent}<{} id=\"{}.{}\"", node.name, node.name, canon.ordinal);
    // declared non-text attributes inline; idref values too
    let mut text_parts: Vec<(String, String)> = Vec::new();
    for (i, a) in node.attributes.iter().enumerate() {
        match (&a.domain, &el.attrs[i]) {
            (Domain::Text | Domain::Date, v) => {
                text_parts.push((a.name.clone(), escape(&v.to_string())));
            }
            (_, v) => {
                let _ = write!(s, " {}=\"{}\"", a.name, escape(&v.to_string()));
            }
        }
    }
    for (k, l) in
        db.schema.idrefs().iter().filter(|l| graph.edge(l.edge).rel == el.node).enumerate()
    {
        let target = graph.node(graph.edge(l.edge).participant).name.clone();
        if let Some(Value::Int(v)) = el.attrs.get(node.attributes.len() + k) {
            let _ = write!(s, " {}=\"{target}.{v}\"", l.attr);
        }
    }

    // children: text nodes then sub-elements
    let children: Vec<OccId> = tree
        .occs()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.parent == Some(o))
        .map(|(i, _)| OccId(i as u32))
        .collect();
    if text_parts.is_empty() && children.is_empty() {
        let _ = writeln!(s, "/>");
        return;
    }
    let _ = writeln!(s, ">");
    for (name, text) in text_parts {
        let _ = writeln!(s, "{indent}  <{name}>{text}</{name}>");
    }
    for c in children {
        emit(db, graph, color, c, depth + 1, s);
    }
    let _ = writeln!(s, "{indent}</{}>", node.name);
}

fn escape(v: &str) -> String {
    v.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_er::{Attribute, ErDiagram};

    #[test]
    fn serializes_a_tiny_tree() {
        let mut d = ErDiagram::new("t");
        d.add_entity("a", vec![Attribute::key("id"), Attribute::text("name")]).unwrap();
        d.add_entity("b", vec![Attribute::key("id")]).unwrap();
        d.add_rel_1m("r", "a", "b").unwrap();
        let g = ErGraph::from_diagram(&d).unwrap();
        let schema = colorist_core::design(&g, colorist_core::Strategy::En).unwrap();
        let a = g.node_by_name("a").unwrap();
        let r = g.node_by_name("r").unwrap();
        let b = g.node_by_name("b").unwrap();
        let c = ColorId(0);
        let pa = schema.placements_of_in_color(a, c)[0];
        let pr = schema.placements_of_in_color(r, c)[0];
        let pb = schema.placements_of_in_color(b, c)[0];
        let mut bd = crate::database::DatabaseBuilder::new(schema, g.node_count());
        let ea = bd.add_canonical(a, &[Value::Int(0), Value::Text("x<y".into())]);
        let er = bd.add_canonical(r, &[]);
        let eb = bd.add_canonical(b, &[Value::Int(0)]);
        let oa = bd.add_occurrence(c, ea, pa, None);
        let or = bd.add_occurrence(c, er, pr, Some(oa));
        bd.add_occurrence(c, eb, pb, Some(or));
        let db = bd.finish();
        let xml = to_xml(&db, &g, c);
        assert!(xml.contains("<a id=\"a.0\""), "{xml}");
        assert!(xml.contains("<name>x&lt;y</name>"), "{xml}");
        assert!(xml.contains("<b id=\"b.0\"/>") || xml.contains("<b id=\"b.0\" "), "{xml}");
        assert!(xml.trim_end().ends_with("</root>"), "{xml}");
    }
}

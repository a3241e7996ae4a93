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

    #[test]
    fn serializes_a_tiny_tree() {
        let (g, mut db) = crate::database::tests::tiny_db();
        let b0 = db.extent(g.node_by_name("b").unwrap())[0];
        db.write_attr(b0, 1, Value::Text("x<y".into()));
        let xml = to_xml(&db, &g, ColorId(0));
        assert!(xml.contains("<a id=\"a.0\""), "{xml}");
        assert!(xml.contains("<x>x&lt;y</x>"), "{xml}");
        assert!(xml.contains("<a id=\"a.1\" id=\"1\"/>"), "childless: {xml}");
        assert!(xml.trim_end().ends_with("</root>"), "{xml}");
    }
}

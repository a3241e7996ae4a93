//! Association patterns: the schema-independent query representation.
//!
//! A pattern is a tree over ER node types: nodes may carry attribute
//! predicates, edges name the exact ER path they traverse (the paper's
//! association-graph edge labels, Figure 6). One node is the output.
//! Patterns correspond to the XPath/XQuery queries of the evaluation —
//! e.g. Q1, *"orders placed by customers having addresses in Japan"*, is
//! the chain `country[name=…] —in— address —has— customer —make— order`
//! with `order` as output.

use crate::error::QueryError;
use colorist_er::{EdgeId, ErGraph, NodeId};
use colorist_store::Value;

pub use colorist_store::{CmpOp, Predicate};

/// A pattern node: an ER node type plus optional predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternNode {
    /// The ER node type.
    pub node: NodeId,
    /// Optional predicate.
    pub predicate: Option<Predicate>,
}

/// A pattern edge: a concrete ER path between two pattern nodes. Interior
/// nodes carry no predicates and are not returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternEdge {
    /// Source pattern node index.
    pub from: usize,
    /// Target pattern node index.
    pub to: usize,
    /// ER nodes along the path (`from`'s type first, `to`'s type last).
    pub nodes: Vec<NodeId>,
    /// ER edges along the path (`nodes.len() - 1` of them).
    pub path: Vec<EdgeId>,
}

/// A complete read query.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// Label (e.g. `"Q1"`).
    pub name: String,
    /// Pattern nodes.
    pub nodes: Vec<PatternNode>,
    /// Pattern edges (must form a tree over the used nodes).
    pub edges: Vec<PatternEdge>,
    /// Index of the output node.
    pub output: usize,
    /// Whether logical duplicate elimination is requested (XQuery
    /// `distinct-values` — needed whenever un-normalized schemas would
    /// return copies).
    pub distinct: bool,
    /// Whether the query groups its output by an attribute (index), like
    /// the aggregation queries of the workload.
    pub group_by: Option<usize>,
}

/// An update statement: locate targets with a pattern, then act.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateSpec {
    /// Label (e.g. `"U2"`).
    pub name: String,
    /// Target-locating pattern (`output` designates the target node, or the
    /// anchor node for inserts).
    pub pattern: Pattern,
    /// What to do.
    pub action: UpdateAction,
}

/// Update actions.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateAction {
    /// Set `attr` (declared-attribute index) of each matched element.
    Modify {
        /// Attribute index.
        attr: usize,
        /// New value.
        value: Value,
    },
    /// Delete each matched element (its subtrees go with it, everywhere).
    Delete,
    /// Insert new instances linked to matched anchors.
    Insert(InsertSpec),
}

/// New instances to insert, in dependency order.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertSpec {
    /// The instances.
    pub instances: Vec<NewInstance>,
}

/// One new logical instance.
#[derive(Debug, Clone, PartialEq)]
pub struct NewInstance {
    /// The (entity) ER node type.
    pub node: NodeId,
    /// Declared attribute values.
    pub attrs: Vec<Value>,
    /// Relationship instances to create, linking this instance.
    pub links: Vec<InsertLink>,
}

/// One relationship instance created by an insert: links the new instance
/// to a partner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertLink {
    /// The relationship ER node.
    pub rel: NodeId,
    /// Edge from `rel` to the new instance's endpoint.
    pub self_edge: EdgeId,
    /// Edge from `rel` to the partner's endpoint.
    pub partner_edge: EdgeId,
    /// Who the partner is.
    pub partner: Partner,
}

/// A link partner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partner {
    /// The first element matched by the locating pattern at this pattern
    /// node index.
    Matched(usize),
    /// Another new instance (index into [`InsertSpec::instances`], must be
    /// earlier).
    New(usize),
    /// An existing instance by type and ordinal (for partners unrelated to
    /// the locating pattern, e.g. the items of a new order's lines).
    ByOrdinal(NodeId, u32),
}

/// Fluent pattern construction against an ER graph.
///
/// ```
/// use colorist_er::{catalog, ErGraph};
/// use colorist_query::PatternBuilder;
/// use colorist_store::Value;
///
/// let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
/// // Q1: orders placed by customers having addresses in a given country
/// let q1 = PatternBuilder::new(&g, "Q1")
///     .node("country").pred_eq("name", Value::Text("country_name_0".into()))
///     .node("order")
///     .chain(0, 1, &["in", "address", "has", "customer", "make"]).unwrap()
///     .output(1)
///     .build()
///     .unwrap();
/// assert_eq!(q1.edges[0].path.len(), 6);
/// ```
#[derive(Debug)]
pub struct PatternBuilder<'g> {
    graph: &'g ErGraph,
    name: String,
    nodes: Vec<PatternNode>,
    edges: Vec<PatternEdge>,
    output: usize,
    distinct: bool,
    group_by: Option<usize>,
    error: Option<QueryError>,
}

impl<'g> PatternBuilder<'g> {
    /// Start a pattern.
    pub fn new(graph: &'g ErGraph, name: &str) -> Self {
        PatternBuilder {
            graph,
            name: name.to_string(),
            nodes: Vec::new(),
            edges: Vec::new(),
            output: 0,
            distinct: false,
            group_by: None,
            error: None,
        }
    }

    /// Add a pattern node by ER type name; returns `self` (node index is
    /// the count so far; use in order).
    pub fn node(mut self, er_name: &str) -> Self {
        match self.graph.node_by_name(er_name) {
            Some(n) => self.nodes.push(PatternNode { node: n, predicate: None }),
            None => self.set_err(QueryError::UnknownNode(er_name.to_string())),
        }
        self
    }

    /// Attach an equality predicate to the most recent node.
    pub fn pred_eq(self, attr: &str, value: Value) -> Self {
        self.pred(attr, CmpOp::Eq, value)
    }

    /// Attach a predicate to the most recent node.
    pub fn pred(mut self, attr: &str, op: CmpOp, value: Value) -> Self {
        let Some(last) = self.nodes.last_mut() else {
            self.set_err(QueryError::Malformed("predicate before any node".into()));
            return self;
        };
        let node = last.node;
        match self.graph.node(node).attributes.iter().position(|a| a.name == attr) {
            Some(idx) => last.predicate = Some(Predicate { attr: idx, op, value }),
            None => {
                let node_name = self.graph.node(node).name.clone();
                self.set_err(QueryError::UnknownAttribute { node: node_name, attr: attr.into() });
            }
        }
        self
    }

    /// Connect two pattern nodes through the named interior ER nodes
    /// (`via` excludes the endpoints). Each consecutive name pair must be
    /// joined by exactly one ER edge; recursive relationships can be
    /// disambiguated with `rel@role` on the *relationship* name.
    pub fn chain(mut self, from: usize, to: usize, via: &[&str]) -> Result<Self, QueryError> {
        if self.error.is_some() {
            return Ok(self);
        }
        if from >= self.nodes.len() || to >= self.nodes.len() {
            return Err(QueryError::Malformed("chain endpoint out of range".into()));
        }
        let mut names: Vec<String> = Vec::with_capacity(via.len() + 2);
        names.push(self.graph.node(self.nodes[from].node).name.clone());
        names.extend(via.iter().map(|s| s.to_string()));
        names.push(self.graph.node(self.nodes[to].node).name.clone());

        let mut nodes = Vec::with_capacity(names.len());
        let mut path: Vec<EdgeId> = Vec::with_capacity(names.len() - 1);
        for pair in names.windows(2) {
            let (a_raw, b_raw) = (&pair[0], &pair[1]);
            let (a_name, a_role) = split_role(a_raw);
            let (b_name, b_role) = split_role(b_raw);
            let a = self
                .graph
                .node_by_name(a_name)
                .ok_or_else(|| QueryError::UnknownNode(a_name.to_string()))?;
            let b = self
                .graph
                .node_by_name(b_name)
                .ok_or_else(|| QueryError::UnknownNode(b_name.to_string()))?;
            // a role given on the step entering a recursive relationship
            // names the edge of that hop; the hop leaving it takes the
            // *other* edge (never re-traverse the edge just used).
            let role = a_role.or(b_role);
            let prev = path.last().copied();
            let edge = find_edge_excluding(self.graph, a, b, role, prev).ok_or(
                QueryError::NoSuchEdge { from: a_name.to_string(), to: b_name.to_string() },
            )?;
            if nodes.is_empty() {
                nodes.push(a);
            }
            nodes.push(b);
            path.push(edge);
        }
        self.edges.push(PatternEdge { from, to, nodes, path });
        Ok(self)
    }

    /// Set the output node.
    pub fn output(mut self, node: usize) -> Self {
        self.output = node;
        self
    }

    /// Request logical duplicate elimination.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Group the output by an attribute of the output node.
    pub fn group_by(mut self, attr: &str) -> Self {
        if let Some(out) = self.nodes.get(self.output) {
            match self.graph.node(out.node).attributes.iter().position(|a| a.name == attr) {
                Some(i) => self.group_by = Some(i),
                None => {
                    let node_name = self.graph.node(out.node).name.clone();
                    self.set_err(QueryError::UnknownAttribute {
                        node: node_name,
                        attr: attr.into(),
                    });
                }
            }
        }
        self
    }

    fn set_err(&mut self, e: QueryError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Finalize.
    pub fn build(self) -> Result<Pattern, QueryError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.nodes.is_empty() {
            return Err(QueryError::Malformed("pattern has no nodes".into()));
        }
        if self.output >= self.nodes.len() {
            return Err(QueryError::Malformed("output out of range".into()));
        }
        // tree check: edges must connect all nodes acyclically when there
        // is more than one node
        let n = self.nodes.len();
        if self.edges.len() + 1 != n && n > 1 {
            return Err(QueryError::Malformed(format!(
                "{} nodes need {} edges (tree), got {}",
                n,
                n - 1,
                self.edges.len()
            )));
        }
        let mut seen = vec![false; n];
        let mut stack = vec![self.output];
        seen[self.output] = true;
        while let Some(v) = stack.pop() {
            for e in &self.edges {
                for (a, b) in [(e.from, e.to), (e.to, e.from)] {
                    if a == v && !seen[b] {
                        seen[b] = true;
                        stack.push(b);
                    }
                }
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(QueryError::Malformed("pattern is not connected".into()));
        }
        Ok(Pattern {
            name: self.name,
            nodes: self.nodes,
            edges: self.edges,
            output: self.output,
            distinct: self.distinct,
            group_by: self.group_by,
        })
    }
}

fn split_role(s: &str) -> (&str, Option<&str>) {
    match s.split_once('@') {
        Some((n, r)) => (n, Some(r)),
        None => (s, None),
    }
}

/// The ER edge between adjacent nodes `a` and `b` (one of them a
/// relationship), optionally disambiguated by role.
pub fn find_edge(graph: &ErGraph, a: NodeId, b: NodeId, role: Option<&str>) -> Option<EdgeId> {
    find_edge_excluding(graph, a, b, role, None)
}

/// Like [`find_edge`], preferring any candidate different from `exclude`
/// (so recursive-relationship chains never re-traverse the entering edge).
pub fn find_edge_excluding(
    graph: &ErGraph,
    a: NodeId,
    b: NodeId,
    role: Option<&str>,
    exclude: Option<EdgeId>,
) -> Option<EdgeId> {
    let candidates: Vec<EdgeId> =
        graph.incident(a).iter().filter(|&&(_, other)| other == b).map(|&(e, _)| e).collect();
    // preference order: role-matching first, then the rest; within that,
    // anything different from `exclude` beats re-traversing it.
    let mut pool: Vec<EdgeId> = Vec::with_capacity(candidates.len());
    if let Some(r) = role {
        pool.extend(
            candidates.iter().copied().filter(|&e| graph.edge(e).role.as_deref() == Some(r)),
        );
    }
    let extra: Vec<EdgeId> = candidates.iter().copied().filter(|e| !pool.contains(e)).collect();
    pool.extend(extra);
    pool.iter().copied().find(|&e| Some(e) != exclude).or_else(|| pool.first().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_er::catalog;

    fn graph() -> ErGraph {
        ErGraph::from_diagram(&catalog::tpcw()).unwrap()
    }

    #[test]
    fn q1_shape() {
        let g = graph();
        let q = PatternBuilder::new(&g, "Q1")
            .node("country")
            .pred_eq("name", Value::Text("x".into()))
            .node("order")
            .chain(0, 1, &["in", "address", "has", "customer", "make"])
            .unwrap()
            .output(1)
            .build()
            .unwrap();
        assert_eq!(q.nodes.len(), 2);
        assert_eq!(q.edges[0].nodes.len(), 7);
        assert_eq!(q.edges[0].path.len(), 6);
        assert!(q.nodes[0].predicate.is_some());
        assert_eq!(q.output, 1);
    }

    #[test]
    fn star_pattern_builds() {
        let g = graph();
        // customers of orders billed in country X and shipped in country Y
        let q = PatternBuilder::new(&g, "star")
            .node("order")
            .node("country")
            .pred_eq("name", Value::Text("x".into()))
            .node("country")
            .pred_eq("name", Value::Text("y".into()))
            .chain(0, 1, &["billing", "address", "in"])
            .unwrap()
            .chain(0, 2, &["shipping", "address", "in"])
            .unwrap()
            .output(0)
            .build()
            .unwrap();
        assert_eq!(q.edges.len(), 2);
    }

    #[test]
    fn unknown_names_error() {
        let g = graph();
        assert!(matches!(
            PatternBuilder::new(&g, "x").node("nope").build(),
            Err(QueryError::UnknownNode(_))
        ));
        assert!(matches!(
            PatternBuilder::new(&g, "x").node("country").pred_eq("bogus", Value::Int(1)).build(),
            Err(QueryError::UnknownAttribute { .. })
        ));
        let err =
            PatternBuilder::new(&g, "x").node("country").node("item").chain(0, 1, &[]).unwrap_err();
        assert!(matches!(err, QueryError::NoSuchEdge { .. }));
    }

    #[test]
    fn disconnected_pattern_rejected() {
        let g = graph();
        let r = PatternBuilder::new(&g, "x").node("country").node("item").build();
        assert!(matches!(r, Err(QueryError::Malformed(_))));
    }

    #[test]
    fn recursive_roles_resolve_distinct_edges() {
        let g = ErGraph::from_diagram(&catalog::er6()).unwrap();
        let emp = g.node_by_name("employee").unwrap();
        let sup = g.node_by_name("supervises").unwrap();
        let boss = find_edge(&g, sup, emp, Some("boss")).unwrap();
        let subo = find_edge(&g, sup, emp, Some("sub")).unwrap();
        assert_ne!(boss, subo);
        // a boss..subordinate chain through supervises
        let q = PatternBuilder::new(&g, "rec")
            .node("employee")
            .node("employee")
            .chain(0, 1, &["supervises@boss"]) // boss side adjacent to node 0
            .unwrap()
            .output(1)
            .build();
        // the chain uses role on the first hop; second hop picks the other
        // edge by elimination? No: both hops need roles. Expect an edge
        // found for hop 1 and hop 2 falls back to the first edge.
        assert!(q.is_ok());
    }

    #[test]
    fn predicate_eval() {
        let p = Predicate { attr: 0, op: CmpOp::Lt, value: Value::Int(5) };
        assert!(p.eval(&Value::Int(3)));
        assert!(!p.eval(&Value::Int(7)));
        let p = Predicate { attr: 0, op: CmpOp::Gt, value: Value::Float(1.5) };
        assert!(p.eval(&Value::Float(2.0)));
    }
}

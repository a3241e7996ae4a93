//! Query-layer errors.

use std::fmt;

/// Errors raised while building patterns or compiling them against a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A named ER node does not exist in the graph.
    UnknownNode(String),
    /// A named attribute does not exist on the node.
    UnknownAttribute {
        /// The node the lookup ran against.
        node: String,
        /// The missing attribute name.
        attr: String,
    },
    /// No ER edge connects two adjacent nodes of a declared path.
    NoSuchEdge {
        /// Path step start node.
        from: String,
        /// Path step end node.
        to: String,
    },
    /// The compiler found no realization of a pattern edge (the schema does
    /// not cover the association structurally or by idref — impossible for
    /// schemas produced by this workspace's strategies).
    Unreachable {
        /// Pattern-edge parent node.
        from: String,
        /// Pattern-edge child node.
        to: String,
    },
    /// The pattern has no nodes / invalid indices.
    Malformed(String),
    /// The executor hit a plan invariant violation: an op addressed a
    /// register that is out of bounds, unset, in the wrong color, or of
    /// the wrong kind — a malformed plan no compiler output produces.
    Exec(String),
    /// A value semi-join was requested across an ER edge the schema does
    /// not idref-encode. Raised at compile time when a plan would need
    /// one; the executor re-checks defensively instead of panicking.
    NotIdrefEncoded {
        /// Human-readable edge label (`relationship[participant]`).
        edge: String,
    },
    /// The paged storage backend failed to commit an update's dirty
    /// segments (an I/O error from the page file). The update is rolled
    /// back: the database, in memory and on the backend, is unchanged.
    Storage(String),
    /// A page a query read could not be served: the backend read failed,
    /// or the bytes read do not match the checksum the segment directory
    /// records for them (a torn or corrupted page). The message names the
    /// segment and the page's index within it.
    PageRead(String),
    /// An internal invariant of the compiler or executor failed — a schema
    /// or plan lookup that every verified plan satisfies came up empty.
    /// Carries the static-verifier diagnostic code (`P0xx`, see
    /// [`crate::verify`]) of the invariant that would have caught the
    /// malformed artifact, so a verifier gap surfaces as a typed error
    /// rather than a panic.
    Internal {
        /// Diagnostic code plus human-readable invariant description.
        diag: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownNode(n) => write!(f, "unknown ER node `{n}`"),
            QueryError::UnknownAttribute { node, attr } => {
                write!(f, "node `{node}` has no attribute `{attr}`")
            }
            QueryError::NoSuchEdge { from, to } => {
                write!(f, "no ER edge between `{from}` and `{to}`")
            }
            QueryError::Unreachable { from, to } => {
                write!(f, "no realization of the association `{from}`..`{to}` in the schema")
            }
            QueryError::Malformed(m) => write!(f, "malformed pattern: {m}"),
            QueryError::Exec(m) => write!(f, "plan execution failed: {m}"),
            QueryError::NotIdrefEncoded { edge } => {
                write!(f, "ER edge `{edge}` is not idref-encoded in the schema")
            }
            QueryError::Storage(m) => write!(f, "storage backend commit failed: {m}"),
            QueryError::PageRead(m) => write!(f, "paged read failed: {m}"),
            QueryError::Internal { diag } => {
                write!(f, "internal invariant violated [{diag}]")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The executor's storage touches fail only on a page read, so an I/O
/// error inside execution is a [`QueryError::PageRead`].
impl From<std::io::Error> for QueryError {
    fn from(e: std::io::Error) -> Self {
        QueryError::PageRead(e.to_string())
    }
}

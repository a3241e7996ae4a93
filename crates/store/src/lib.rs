//! # colorist-store — a TIMBER-like native MCT storage engine
//!
//! The paper's experiments run on TIMBER, a native XML database with
//! interval node labels enabling structural joins. This crate is the
//! equivalent substrate for MCT databases:
//!
//! * [`value`] — attribute values;
//! * [`database`] — the stored database: **elements** (one per logical ER
//!   instance, plus physical *copies* for un-normalized schemas, each a
//!   header plus a row of per-node attribute columns) and
//!   per-color **occurrence trees** carrying `(start, end, level)` interval
//!   labels computed by DFS — a node belongs to exactly one rooted tree per
//!   color, per the MCT model;
//! * [`read`] — the read interface the query executor and the cost
//!   annotation use: a per-query [`Reader`] whose scans, path-exact
//!   descents and ascents, color crossings, intersections and value and
//!   link semi-joins return opaque, document-ordered [`OccSet`]s (or
//!   canonical element lists), charging every counter and page they read,
//!   plus estimators that price the same operations from exact stored
//!   counts. Behind it, crate-private: the stack-merge and gallop
//!   structural semi-join kernels and the parent-walk ascent (the cheap
//!   side of the paper's cost asymmetry; Al-Khalifa et al., ICDE 2002),
//!   the hash value join (the expensive side), and the persistent
//!   attribute/id value index over canonical elements that turns
//!   selective predicate scans and idref probes into index lookups
//!   (TIMBER never scans a document linearly);
//! * [`metrics`] — the operation counters the paper reports in Figures 8–10
//!   (structural joins, value joins, color crossings, duplicate
//!   eliminations, …) plus wall-clock time;
//! * [`stats`] — the storage statistics of Table 1 (elements, attributes,
//!   content nodes, data bytes, colors);
//! * [`batch`] — atomic update batches: cross-op validation up front, one
//!   copy-on-write commit point, so readers holding a
//!   [`database::Snapshot`] never observe a half-applied batch;
//! * [`effect`] — static batch effect footprints computed without
//!   executing, audited against what the mutators actually touch by a
//!   shadow tracker (diagnostic B002, the mutators' soundness oracle), and
//!   the [`effect::CommitScheduler`] that group-commits batches as one
//!   staged version under one epoch step, with a verdict per batch;
//! * [`page`], [`pool`], [`storage`] — the pluggable paged storage layer
//!   (DESIGN.md §14): the 8 KB-page [`page::StorageBackend`] trait with
//!   in-memory and on-disk implementations, the clock/second-chance
//!   policy behind both the per-query page accounting and the shared,
//!   byte-budgeted page cache every attachment reads through, and the segment
//!   serialization + image-diff + commit/write-back protocol that
//!   attaches a [`database::Database`] to a backend
//!   ([`database::Database::attach_paged`]) and accounts page traffic in
//!   the `page_reads`/`page_writes`/`pool_hits`/`pool_evictions` counters.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod chunked;
mod columns;
pub mod database;
pub mod effect;
mod index;
mod join;
pub mod metrics;
pub mod page;
pub mod pool;
pub mod read;
pub mod stats;
pub mod storage;
mod tree;
pub mod value;
pub mod xml;

pub use batch::{BatchError, BatchLink, BatchOp, BatchPosition, BatchReceipt, UpdateBatch};
pub use columns::{Attrs, ColumnSharing, ElementRef};
pub use database::{Database, DatabaseBuilder, ElementId, KernelDispatch, OccId, Snapshot};
pub use effect::{analyze_batch, CommitScheduler, Footprint};
pub use metrics::Metrics;
pub use page::{FilePages, MemPages, PageId, StorageBackend, PAGE_SIZE};
pub use pool::{PoolConfig, DEFAULT_POOL_BYTES};
pub use read::{CmpOp, OccSet, Predicate, ReadCost, ReadError, Reader, StructKernel};
pub use stats::Stats;
pub use storage::{FlushReport, Storage};
pub use value::{Interner, Value, ValueKey};
pub use xml::to_xml;

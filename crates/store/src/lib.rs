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
//! * [`join`] — the two join primitives whose cost asymmetry drives the
//!   paper's entire design space: stack-based interval **structural joins**
//!   (cheap; Al-Khalifa et al., ICDE 2002) and hash-based **value joins**
//!   over id/idref attributes (expensive), with gallop-skipping structural
//!   variants that binary-search past non-joining runs when one side is
//!   much smaller;
//! * [`index`] — the persistent attribute/id value index over canonical
//!   elements, which turns selective predicate scans and idref probes into
//!   index lookups (TIMBER never scans a document linearly); its runs and
//!   key groups are also where the query layer's cost annotations read
//!   exact predicate cardinalities, so the store keeps no separate
//!   statistics catalog to maintain on every commit;
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
//!   serialization + dirty-tracking + commit/write-back protocol that
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
pub mod index;
pub mod join;
pub mod metrics;
pub mod page;
pub mod pool;
pub mod stats;
pub mod storage;
mod tree;
pub mod value;
pub mod xml;

pub use batch::{BatchError, BatchLink, BatchOp, BatchPosition, BatchReceipt, UpdateBatch};
pub use columns::{Attrs, ColumnSharing, ElementRef};
pub use database::{
    ColorTree, Database, DatabaseBuilder, ElementId, KernelDispatch, OccId, Occurrence, Snapshot,
};
pub use effect::{analyze_batch, CommitScheduler, Footprint};
pub use index::{IndexEntry, ValueIndex};
pub use join::{
    attr_key, attr_value, gallop_cost_wins, kmerge_sorted, structural_join, structural_join_merge,
    structural_semi_join, structural_semi_join_merge, value_join, AttrRef, Axis, SemiSide,
    GALLOP_RATIO,
};
pub use metrics::Metrics;
pub use page::{FilePages, MemPages, PageId, StorageBackend, PAGE_SIZE};
pub use pool::{PoolConfig, DEFAULT_POOL_BYTES};
pub use stats::Stats;
pub use storage::{FlushReport, Storage, StorageCtx};
pub use value::{Interner, Value, ValueKey};
pub use xml::to_xml;

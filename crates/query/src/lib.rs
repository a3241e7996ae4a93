//! # colorist-query — schema-independent queries over MCT databases
//!
//! The paper evaluates each schema family on one workload: the same logical
//! query must run against SHALLOW, AF, DEEP, EN, MCMR, DR and UNDR, paying
//! whatever mix of structural joins, value joins, and color crossings each
//! schema forces. This crate makes that precise:
//!
//! * [`pattern`] — queries as **association patterns**: a small tree of ER
//!   node types connected by ER paths, with attribute predicates, one
//!   output node, and optional duplicate elimination / grouping; plus
//!   update specifications (modify / delete / insert);
//! * [`mod@compile`] — the schema-aware compiler: a layered shortest-path
//!   search over schema placements chooses, for every hop of every pattern
//!   edge, between a structural step (descending or ascending, in some
//!   color), a color crossing, and an id/idref value join — minimizing
//!   `(value joins, color crossings, structural joins)` lexicographically,
//!   the cost order the paper's measurements justify;
//! * [`plan`] — the compiled semi-join program and its static operation
//!   counts (exactly the Figures 8–10 metrics);
//! * [`exec`] — the interpreter: walks a plan's registers and runs each
//!   operator through one [`colorist_store::Reader`], whose structural
//!   steps, value joins and crossings return opaque occurrence sets and
//!   charge the measured [`Metrics`];
//! * [`mod@optimize`] — the optimizer entry point (a plan is a pure
//!   function of the pattern and the schema) plus per-operator cost
//!   estimates in counter units, priced by the store's read estimators
//!   from exact extent and value-index counts and checked against
//!   measurement by `explain_analyze` and the perfgate;
//! * [`cache`] — the sharded prepared-plan cache: compile once per
//!   `(pattern, strategy)` and serve that plan for good, since no write
//!   can change it (DESIGN.md §15.3);
//! * [`update`] — update execution: locate the targets and lower the
//!   action against the pre-update state to one
//!   [`UpdateBatch`](colorist_store::UpdateBatch) — attribute writes to
//!   every copy, closure-completed deletes, or inserts with their
//!   occurrences threaded through every color and un-normalized placement —
//!   committed atomically by `UpdateBatch::apply`;
//! * [`mod@explain`] — colored-XPath rendering of compiled plans.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod compile;
pub mod error;
pub mod exec;
pub mod explain;
pub mod optimize;
pub mod pattern;
pub mod plan;
pub mod update;
pub mod verify;

pub use cache::{optimize_cached, CacheStats, PlanCache};
pub use compile::compile;
pub use error::QueryError;
pub use exec::{execute, execute_profiled, execute_snapshot, op_kind, OpProfile, QueryResult};
pub use explain::{explain, explain_analyze, q_error};
pub use optimize::{annotate_costs, optimize};
pub use pattern::{
    CmpOp, InsertLink, InsertSpec, NewInstance, Partner, Pattern, PatternBuilder, PatternEdge,
    PatternNode, Predicate, UpdateAction, UpdateSpec,
};
pub use plan::{Charge, CostEst, KernelChoice, Op, Plan, VDir};
pub use update::{execute_update, lower_update, LoweredUpdate, UpdateOutcome};
pub use verify::{explain_abstract, verify_plan, PlanDiag};

pub use colorist_store::Metrics;

//! # colorist-workload — the paper's evaluation workloads
//!
//! §6 evaluates the schema families on three workloads:
//!
//! * [`tpcw`] — the TPC-W benchmark: 16 queries (Q1–Q13, U1–U3), of which
//!   4 are indifferent to schema choice; the remaining 12 are reported in
//!   Table 1 and Figures 8–11;
//! * [`xmark`] — an XMark-emulated workload: 28 query templates (8 of them
//!   updates) instantiated against *any* ER diagram "through identifying
//!   correspondences between schema elements", used on the ER collection
//!   (Figures 12–14);
//! * [`derby`] — the Database-Derby-style real-world diagram ships its own
//!   20-query workload (8 updates), like the contest schema the paper used.
//!
//! [`suite`] runs a workload against every schema of a diagram over one
//! shared canonical instance and collects the per-query metrics, storage
//! statistics, and geometric means that the benchmark binaries print.
//!
//! [`oracle`] turns the paper's information-equivalence guarantee into a
//! differential-testing oracle: random diagrams, shared data, random
//! queries, all seven strategies — any answer disagreement is a bug.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod derby;
pub mod oracle;
pub mod suite;
pub mod tpcw;
pub mod xmark;

pub use oracle::{
    compile_seed, run_seed, run_seeds, Divergence, MinimizedCase, OracleConfig, OracleReport,
    SeedCorpus, SeedReport,
};
pub use suite::{geo_mean, EstTotals, QueryKind, QueryRun, SuiteResult, Workload};

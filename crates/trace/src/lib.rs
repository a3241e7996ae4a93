//! # colorist-trace — the observability layer
//!
//! Zero-dependency hierarchical span tracing for the whole workspace:
//! every phase of the pipeline (design → materialize → compile → execute)
//! and every plan operator can open a [`span()`], attach operator-local
//! counters (elements scanned, join probes, crossings, …), and have the
//! result exported as [chrome-trace JSON](chrome_trace_json) for
//! `chrome://tracing` / Perfetto, or inspected programmatically as a
//! [`Trace`].
//!
//! Two invariants the rest of the workspace leans on:
//!
//! * **Off means free.** While no [`Session`] is live, [`span()`] is one
//!   relaxed atomic load — no clock read, no allocation, the name is not
//!   even formatted — so instrumented hot paths (the per-operator executor
//!   loop, the server's read path) cost nothing in ordinary benchmark
//!   runs. Collection is a value: [`Session::start`] records the calling
//!   thread plus every thread that [enters](SessionHandle::enter) the
//!   session (the suite runner's and the server's workers do), any number
//!   of sessions record concurrently without seeing each other, and
//!   [`Session::finish`] returns the [`Trace`]. The `--trace FILE` flag
//!   of the `colorist` CLI is [`traced`].
//! * **Counters are deterministic, only time is not.** Span *counters*
//!   are copied from the deterministic [`Metrics`] deltas of the executor,
//!   so they are byte-identical for any `--threads` count; the
//!   wall-clock fields (`start_ns`, `dur_ns`) are the only
//!   machine-dependent content of a trace.
//!
//! [`Metrics`]: https://docs.rs/colorist-store
//!
//! ## Example
//!
//! ```
//! use colorist_trace::{chrome_trace_json, span, Session};
//!
//! let session = Session::start();
//! {
//!     let mut q = span("query", format_args!("execute:Q{}", 1));
//!     {
//!         let mut op = span("op", "scan");
//!         op.counter("elements_scanned", 103);
//!     } // `scan` closes here, nested inside `execute:Q1`
//!     q.counter("rows_out", 15);
//! }
//! let trace = session.finish();
//!
//! assert_eq!(trace.spans.len(), 2);
//! assert_eq!(trace.spans[1].name, "execute:Q1");
//! trace.check_well_formed().expect("RAII spans nest");
//! assert_eq!(trace.total("elements_scanned"), 103);
//!
//! // export for chrome://tracing and read it back with the JSON reader
//! let json = chrome_trace_json(&trace);
//! let doc = colorist_trace::Json::parse(&json).expect("valid JSON");
//! let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("event array");
//! assert!(events.len() >= trace.spans.len());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod span;

pub use chrome::{chrome_trace_json, escape_json, traced};
pub use json::Json;
pub use span::{span, Entered, Session, SessionHandle, Span, SpanRecord, Trace};

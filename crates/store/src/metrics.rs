//! Query/update cost counters — the complexity surrogates of §6.
//!
//! The paper's analysis of the ER collection (and much of the TPC-W
//! discussion) rests on counting the expensive operations a query needs
//! under each schema: "the time taken to evaluate a query appears to be
//! almost proportional to the number of value joins or color crossings,
//! with an added amount if there is grouping or duplicate elimination
//! required. There is little correlation between the time to evaluate a
//! query and the number of structural joins."
//!
//! [`Metrics`] carries both the *plan-level* counts (filled by the
//! compiler, reported in Figures 8–10 and 12–14) and *runtime* totals
//! (filled by the executor, backing Table 1 / Figure 11).

use std::ops::AddAssign;
use std::time::Duration;

/// Declares [`Metrics`] from its one list of `u64` counters: the struct,
/// the name/value walk [`Metrics::counters`] that every consumer derives
/// its counter vocabulary from (span counters, summary records, the
/// perfgate's exact-match list), and the field-wise arithmetic.
macro_rules! metrics {
    ($($(#[$doc:meta])* $counter:ident,)*) => {
        /// Operation counts plus runtime measurements for one query (or an
        /// aggregate over a workload).
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Metrics {
            $($(#[$doc])* pub $counter: u64,)*
            /// Measured evaluation time of **this query alone** — the wall-clock
            /// span between the start and end of its `execute`/`execute_update`
            /// call. Under the parallel suite runner
            /// (`colorist_workload::suite::run_suite_on` with `threads > 1`),
            /// queries from different strategies run concurrently, so these
            /// per-query spans overlap in real time: summing them over a suite
            /// yields aggregate CPU-ish work, **not** the suite's wall time
            /// (per-query values may also be inflated by scheduling contention).
            /// The suite's end-to-end wall time is reported separately as
            /// `SuiteResult::suite_wall`.
            pub elapsed: Duration,
        }

        impl Metrics {
            /// Every counter as `(field name, value)`, in declaration order
            /// (`elapsed` is not a counter).
            ///
            /// ```
            /// let m = colorist_store::Metrics { value_joins: 2, ..Default::default() };
            /// assert_eq!(m.counters().nth(1), Some(("value_joins", 2)));
            /// ```
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($counter), self.$counter)),*].into_iter()
            }

            /// The field-wise difference `self - earlier`: what was charged between
            /// two snapshots of an accumulating counter set. Every count saturates
            /// at zero, so a stale (larger) `earlier` cannot underflow. This is how
            /// the executor attributes per-operator costs in `EXPLAIN ANALYZE`: a
            /// snapshot before and after each operator, and the deltas sum back to
            /// the query totals exactly.
            ///
            /// ```
            /// use colorist_store::Metrics;
            /// let before = Metrics { structural_joins: 1, elements_scanned: 100, ..Default::default() };
            /// let after = Metrics { structural_joins: 2, elements_scanned: 250, ..Default::default() };
            /// let delta = after.since(&before);
            /// assert_eq!(delta.structural_joins, 1);
            /// assert_eq!(delta.elements_scanned, 150);
            /// ```
            pub fn since(&self, earlier: &Metrics) -> Metrics {
                Metrics {
                    $($counter: self.$counter.saturating_sub(earlier.$counter),)*
                    elapsed: self.elapsed.saturating_sub(earlier.elapsed),
                }
            }
        }

        impl AddAssign for Metrics {
            fn add_assign(&mut self, rhs: Metrics) {
                $(self.$counter += rhs.$counter;)*
                self.elapsed += rhs.elapsed;
            }
        }
    };
}

metrics! {
    /// Structural (containment) joins — Figure 8.
    structural_joins,
    /// Value (id/idref) joins — Figure 9, first component.
    value_joins,
    /// Color crossings (same-logical-node hops between colored trees) —
    /// Figure 9, second component.
    color_crossings,
    /// Duplicate eliminations — Figure 10.
    dup_eliminations,
    /// Group-by-value operations — Figure 10.
    group_bys,
    /// Duplicate updates (extra physical writes to copies) — Figure 10.
    duplicate_updates,
    /// ICIC maintenance writes (re-applying an update in another color).
    icic_maintenance,
    /// Elements touched (scan + probe volume).
    elements_scanned,
    /// Candidate tests performed inside the join kernels: containment tests
    /// against the ancestor stack for structural (semi-)joins, hash-table
    /// probes for value joins, adjacency lookups for link joins. A finer
    /// work surrogate than `structural_joins`/`value_joins` (which count
    /// operator invocations) — deterministic for a given plan and database.
    join_probes,
    /// Bytes of stored data moved through the operators: occurrence records
    /// merged by structural joins, join keys hashed by value joins, element
    /// ids crossed/deduplicated. A proxy for memory traffic; deterministic.
    bytes_touched,
    /// Probes answered by the persistent index layer: one per key lookup in
    /// the attribute value index (`Scan` with an equality predicate), one
    /// per distinct key group examined by a range predicate, and one per
    /// source element resolved through the id→element index (`ValueSemi`).
    /// Zero on the reference (linear/merge) kernels — deterministic for a
    /// given plan and database.
    index_lookups,
    /// Elements the index layer and the gallop-skipping join kernels proved
    /// irrelevant *without touching them*: extent entries an index probe
    /// avoided walking, and occurrence-list runs a gallop join leapt over by
    /// binary search. The complement of `elements_scanned` relative to the
    /// reference kernels' full walks; deterministic.
    elements_skipped,
    /// Misses of the query's own cold accounting clock: pages the query
    /// needed that the clock did not hold, each made resident in the
    /// attachment's shared page cache (which reads from the backend only
    /// the pages it does not hold itself). Zero on the in-memory heap
    /// backend — only the paged backend (DESIGN.md §14.4) counts pages.
    /// Deterministic for a given plan, database and pool budget.
    page_reads,
    /// Pages written back to the storage backend at a commit point: dirty
    /// segment pages, the segment directory, and the meta page. Charged to
    /// the flushing update/batch, zero for pure reads and for the heap
    /// backend.
    page_writes,
    /// Page requests the query's accounting clock already held.
    /// `pool_hits / (pool_hits + page_reads)` is the hit rate
    /// EXPERIMENTS.md's pool-size narrative plots.
    pool_hits,
    /// Pages the accounting clock's sweep evicted to stay under the pool
    /// byte budget. Exact-matched by the perfgate like every other
    /// deterministic counter.
    pool_evictions,
    /// Prepared-plan cache hits: the query's plan was served from the
    /// sharded plan cache (DESIGN.md §15) without recompiling or
    /// re-optimizing. Deterministic for a given request schedule (a query
    /// either is or is not the first of its `(pattern, strategy)` key).
    plan_cache_hits,
    /// Prepared-plan cache misses: the plan was compiled + optimized and
    /// inserted. Every request charges exactly one of
    /// `plan_cache_hits`/`plan_cache_misses` when it goes through the
    /// cache, and neither when it executes a pre-built plan directly.
    plan_cache_misses,
    /// Plans evicted from the cache by the per-shard capacity sweep.
    /// Deterministic for a given request schedule and cache capacity.
    plan_cache_evictions,
    /// Nanoseconds a server request waited in the submission queue before
    /// a worker picked it up (DESIGN.md §15). Wall-clock derived, hence
    /// machine-dependent like `elapsed` — reported, never exact-gated.
    queue_wait_ns,
    /// Tuples produced by the final operator.
    results,
    /// Distinct logical results (differs from `results` when a
    /// non-node-normalized schema returns duplicates; the parenthesized
    /// numbers of Table 1).
    distinct_results,
}

impl Metrics {
    /// Figure 9's combined metric.
    ///
    /// ```
    /// let m = colorist_store::Metrics { value_joins: 2, color_crossings: 3, ..Default::default() };
    /// assert_eq!(m.value_joins_plus_crossings(), 5);
    /// ```
    pub fn value_joins_plus_crossings(&self) -> u64 {
        self.value_joins + self.color_crossings
    }

    /// Figure 10's combined metric.
    pub fn dup_group_metric(&self) -> u64 {
        self.dup_eliminations + self.group_bys + self.duplicate_updates
    }

    /// Number of duplicate results returned (0 for normalized schemas).
    pub fn duplicate_results(&self) -> u64 {
        self.results.saturating_sub(self.distinct_results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_metrics() {
        let m = Metrics {
            value_joins: 2,
            color_crossings: 3,
            dup_eliminations: 1,
            duplicate_updates: 4,
            results: 10,
            distinct_results: 7,
            ..Default::default()
        };
        assert_eq!(m.value_joins_plus_crossings(), 5);
        assert_eq!(m.dup_group_metric(), 5);
        assert_eq!(m.duplicate_results(), 3);
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = Metrics { structural_joins: 1, ..Default::default() };
        let b = Metrics { structural_joins: 2, value_joins: 1, ..Default::default() };
        a += b;
        assert_eq!(a.structural_joins, 3);
        assert_eq!(a.value_joins, 1);
    }
}

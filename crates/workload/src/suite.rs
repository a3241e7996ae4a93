//! Workload execution harness: run every query of a workload against every
//! schema of a diagram, over one shared canonical instance.

use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, CanonicalInstance, ScaleProfile};
use colorist_er::ErGraph;
use colorist_query::{
    annotate_costs, execute, execute_update, optimize, CostEst, Pattern, QueryError, UpdateSpec,
};
use colorist_store::{stats::stats, KernelDispatch, Metrics, Stats, Storage};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Read query or update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Read-only query (Q…).
    Read,
    /// Update query (U…).
    Update,
}

/// A workload: read patterns plus update specifications.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload label.
    pub name: String,
    /// Read queries, in reporting order.
    pub reads: Vec<Pattern>,
    /// Updates, in reporting order.
    pub updates: Vec<UpdateSpec>,
    /// Names of queries that are indifferent to schema choice (excluded
    /// from the reported figures, per §6.1).
    pub indifferent: Vec<String>,
}

impl Workload {
    /// Queries reported in the figures (non-indifferent), reads first.
    pub fn reported(&self) -> Vec<&str> {
        self.reads
            .iter()
            .map(|p| p.name.as_str())
            .chain(self.updates.iter().map(|u| u.name.as_str()))
            .filter(|n| !self.indifferent.iter().any(|i| i == n))
            .collect()
    }
}

/// The estimated counter totals for one query's plan, summed over the
/// per-operator [`CostEst`] annotations of
/// [`annotate_costs`]
/// and rounded — the numbers the perfgate's q-error budget compares
/// against measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstTotals {
    /// Estimated `elements_scanned`.
    pub scanned: u64,
    /// Estimated `join_probes`.
    pub probes: u64,
    /// Estimated `bytes_touched`.
    pub bytes: u64,
    /// Estimated `index_lookups`.
    pub index_lookups: u64,
}

impl EstTotals {
    /// Sum a plan's cost annotations.
    pub fn of_costs(costs: &[CostEst]) -> EstTotals {
        let mut t = EstTotals::default();
        for c in costs {
            t.scanned += c.scanned.max(0.0).round() as u64;
            t.probes += c.probes.max(0.0).round() as u64;
            t.bytes += c.bytes.max(0.0).round() as u64;
            t.index_lookups += c.index_lookups.max(0.0).round() as u64;
        }
        t
    }

    /// The perfgate domination sum (`scanned + probes + bytes`).
    pub fn gate_sum(&self) -> u64 {
        self.scanned + self.probes + self.bytes
    }
}

/// Result of one query against one schema.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Query name.
    pub name: String,
    /// Read or update.
    pub kind: QueryKind,
    /// Measured metrics (plan ops, volumes, wall time) under the default
    /// cost-model dispatch.
    pub metrics: Metrics,
    /// Logical results / elements updated.
    pub logical: u64,
    /// Physical results incl. duplicates (the parenthesized numbers).
    pub physical: u64,
    /// The estimated counter totals for this query's plan (`None` for
    /// updates).
    pub est: Option<EstTotals>,
    /// Measured metrics of the same plan under ratio dispatch — the
    /// differential partner of the perfgate's counter-domination check.
    pub heuristic: Metrics,
}

/// One schema's complete evaluation.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// The strategy evaluated.
    pub strategy: Strategy,
    /// Storage statistics (Table 1 top).
    pub stats: Stats,
    /// Schema color count.
    pub colors: usize,
    /// Per-query runs, reads then updates.
    pub runs: Vec<QueryRun>,
    /// End-to-end wall-clock time of the whole suite invocation that
    /// produced this result (design + materialize + every query on every
    /// strategy). The same value is stamped on every `SuiteResult` of one
    /// `run_suite_on` call; with `threads > 1` it is smaller than
    /// the sum of per-query `Metrics::elapsed` spans, which overlap.
    pub suite_wall: Duration,
}

impl SuiteResult {
    /// Find one run by query name.
    pub fn run(&self, name: &str) -> Option<&QueryRun> {
        self.runs.iter().find(|r| r.name == name)
    }
}

/// Run `workload` for every strategy on one diagram, on the heap and on
/// every available core. The same canonical instance (from `profile` and
/// `seed`) backs every schema, so logical results agree across strategies
/// by construction.
pub fn run_suite(
    graph: &ErGraph,
    strategies: &[Strategy],
    workload: &Workload,
    profile: &ScaleProfile,
    seed: u64,
) -> Result<Vec<SuiteResult>, QueryError> {
    let instance = generate(graph, profile, seed);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_suite_on(graph, strategies, workload, &instance, threads, Storage::Heap)
}

/// Map `f` over `0..n` on up to `threads` scoped workers, returning the
/// results in index order (a shared atomic cursor hands out indices; each
/// result lands in its own slot, so the output is identical to the serial
/// `(0..n).map(f)` regardless of scheduling). The workers join the
/// caller's trace session, if it has one.
pub(crate) fn par_map<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let session = colorist_trace::Session::current();
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| {
                let _traced = session.enter();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    *slots[i].lock().expect("slot lock") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("worker filled slot"))
        .collect()
}

/// [`run_suite`] over a pre-generated instance, on `threads` workers, with
/// every database attached to `storage`. `threads <= 1` runs fully
/// serially; any other count produces byte-identical `QueryRun`s (only
/// the measured times differ).
pub fn run_suite_on(
    graph: &ErGraph,
    strategies: &[Strategy],
    workload: &Workload,
    instance: &CanonicalInstance,
    threads: usize,
    storage: Storage,
) -> Result<Vec<SuiteResult>, QueryError> {
    let _suite_span = colorist_trace::span("suite", format_args!("suite:{}", workload.name));
    let start = Instant::now();

    // phase A: design + materialize every strategy — independent, so each
    // strategy is one task. Each task also prepares the strategy's
    // heuristic twin: the same database pinned to ratio dispatch — the
    // differential partner for the perfgate's counter-domination check.
    let dbs = par_map(strategies.len(), threads, |i| {
        let _span = colorist_trace::span("suite", format_args!("setup:{}", strategies[i]));
        let schema = design(graph, strategies[i]).expect("strategy designs the diagram");
        let mut db = materialize(graph, &schema, instance);
        // a paged `storage` attaches here, before the twin clone — both
        // plans then read through (independent, per-query) buffer pools
        // over one backend
        storage.attach(&mut db).expect("storage backend attaches");
        let mut heuristic = db.clone();
        heuristic.set_kernel_dispatch(KernelDispatch::Ratio);
        (db, heuristic)
    });

    // phase B: one task per (strategy, query) pair; reads share the
    // strategy's database immutably, updates isolate on a fresh clone so
    // every query sees the same base state on every schema (exactly as the
    // serial runner did)
    let n_reads = workload.reads.len();
    let n_q = n_reads + workload.updates.len();
    let results: Vec<Result<QueryRun, QueryError>> =
        par_map(strategies.len() * n_q, threads, |t| {
            let (si, qi) = (t / n_q, t % n_q);
            let (db, heur) = &dbs[si];
            let qname = if qi < n_reads {
                &workload.reads[qi].name
            } else {
                &workload.updates[qi - n_reads].name
            };
            let _span = colorist_trace::span("suite", format_args!("{}:{}", strategies[si], qname));
            if qi < n_reads {
                let q = &workload.reads[qi];
                let plan = optimize(db, graph, q)?;
                let r = execute(db, graph, &plan)?;
                let h = execute(heur, graph, &plan)?;
                if (h.distinct, h.results) != (r.distinct, r.results) {
                    return Err(QueryError::Internal {
                        diag: format!(
                            "dispatch differential: `{}` on {} answers {}/{} under the cost \
                             model vs {}/{} under the ratio",
                            q.name, strategies[si], r.distinct, r.results, h.distinct, h.results
                        ),
                    });
                }
                Ok(QueryRun {
                    name: q.name.clone(),
                    kind: QueryKind::Read,
                    metrics: r.metrics,
                    logical: r.distinct,
                    physical: r.results,
                    est: Some(EstTotals::of_costs(&annotate_costs(db, graph, &plan))),
                    heuristic: h.metrics,
                })
            } else {
                let u = &workload.updates[qi - n_reads];
                let mut dbu = db.clone();
                let o = execute_update(&mut dbu, graph, u)?;
                let mut dbh = heur.clone();
                let oh = execute_update(&mut dbh, graph, u)?;
                if (oh.logical, oh.physical) != (o.logical, o.physical) {
                    return Err(QueryError::Internal {
                        diag: format!(
                            "dispatch differential: `{}` on {} touches {}/{} under the cost \
                             model vs {}/{} under the ratio",
                            u.name, strategies[si], o.logical, o.physical, oh.logical, oh.physical
                        ),
                    });
                }
                Ok(QueryRun {
                    name: u.name.clone(),
                    kind: QueryKind::Update,
                    metrics: o.metrics,
                    logical: o.logical,
                    physical: o.physical,
                    est: None,
                    heuristic: oh.metrics,
                })
            }
        });

    let suite_wall = start.elapsed();
    let mut it = results.into_iter();
    let mut out = Vec::with_capacity(strategies.len());
    for (si, &s) in strategies.iter().enumerate() {
        // surface errors in task order, so failures are reported
        // identically to the serial runner
        let runs = (0..n_q)
            .map(|_| it.next().expect("one result per task"))
            .collect::<Result<Vec<_>, _>>()?;
        out.push(SuiteResult {
            strategy: s,
            stats: stats(&dbs[si].0, graph),
            colors: dbs[si].0.color_count(),
            runs,
            suite_wall,
        });
    }
    Ok(out)
}

/// Shifted geometric mean (`exp(mean(ln(1 + x))) - 1`): the aggregation
/// used for Figures 12–14, where most queries have zero value joins and a
/// plain geometric mean would collapse to 0.
pub fn geo_mean(values: impl IntoIterator<Item = u64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += (1.0 + v as f64).ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (sum / n as f64).exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_er::catalog;

    #[test]
    fn parallel_suite_matches_serial() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
        let w = crate::tpcw::workload(&g);
        let profile = ScaleProfile::tpcw(&g, 20);
        let instance = generate(&g, &profile, 7);
        let run = |threads| run_suite_on(&g, &Strategy::ALL, &w, &instance, threads, Storage::Heap);
        let serial = run(1).expect("serial suite");
        let par = run(4).expect("parallel suite");
        assert_eq!(serial.len(), par.len());
        let norm = |m: Metrics| Metrics { elapsed: Duration::default(), ..m };
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.colors, b.colors);
            assert_eq!(a.runs.len(), b.runs.len());
            for (x, y) in a.runs.iter().zip(&b.runs) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.kind, y.kind);
                assert_eq!((x.logical, x.physical), (y.logical, y.physical), "{}", x.name);
                assert_eq!(norm(x.metrics), norm(y.metrics), "{}", x.name);
                assert_eq!(x.est, y.est, "{}", x.name);
                assert_eq!(norm(x.heuristic), norm(y.heuristic), "{}", x.name);
            }
        }
    }

    #[test]
    fn geo_mean_basics() {
        assert_eq!(geo_mean([]), 0.0);
        assert_eq!(geo_mean([0, 0, 0]), 0.0);
        assert!((geo_mean([1, 1, 1]) - 1.0).abs() < 1e-12);
        // mixed zeros stay between 0 and max
        let m = geo_mean([0, 3]);
        assert!(m > 0.0 && m < 3.0);
    }
}

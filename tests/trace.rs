//! Observability-layer integration tests (DESIGN.md §9): span nesting
//! well-formedness over a traced suite run, chrome-trace round-tripping
//! through the in-tree JSON parser, counter determinism across worker
//! counts, session isolation (concurrent sessions, unbound threads, suite
//! and server workers joining their starter's session), and the
//! per-op/total reconciliation contract of `execute_profiled` +
//! `explain_analyze`. Every test runs on cargo's default parallel test
//! threads: a session sees only the threads bound to it.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, CanonicalInstance, ScaleProfile};
use colorist::er::{catalog, ErGraph};
use colorist::query::{compile, execute, execute_profiled, explain_analyze, Metrics};
use colorist::server::{Server, ServerConfig};
use colorist::store::Storage;
use colorist::trace::{self, Json, Session, Trace};
use colorist::workload::{suite::run_suite_on, tpcw, Workload};
use std::sync::Barrier;

fn fixture() -> (ErGraph, Workload, CanonicalInstance) {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let w = tpcw::workload(&g);
    let instance = generate(&g, &ScaleProfile::tpcw(&g, 20), 7);
    (g, w, instance)
}

fn traced_suite(threads: usize) -> Trace {
    let (g, w, instance) = fixture();
    let session = Session::start();
    run_suite_on(&g, &Strategy::ALL, &w, &instance, threads, Storage::Heap).expect("suite runs");
    session.finish()
}

/// Span ids are numbered per session, densely from zero, and so are thread
/// ids: the starting thread is 0 and the `joined` threads that entered
/// the session follow (one that found no work left records no span).
fn assert_dense(t: &Trace, joined: u32) {
    let mut ids: Vec<u64> = t.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    assert!(ids.iter().copied().eq(0..ids.len() as u64), "span ids are not 0..{}", ids.len());
    let top = t.spans.iter().map(|s| s.tid).max().expect("spans");
    assert!(top <= joined, "tid {top} with only {joined} joined thread(s)");
}

#[test]
fn traced_suite_is_well_formed() {
    let t = traced_suite(4);
    t.check_well_formed().expect("hierarchy holds");
    // two parallel phases (set-up, queries) of four workers each
    assert_dense(&t, 2 * 4);
    assert_eq!(t.spans.iter().find(|s| s.name == "suite:tpcw").map(|s| s.tid), Some(0));
    // every pipeline stage shows up as its own span category
    for cat in ["suite", "design", "materialize", "compile", "query", "op", "update"] {
        assert!(!t.of_cat(cat).is_empty(), "no `{cat}` spans in {} total", t.spans.len());
    }
    // one suite span per (strategy, query) task, all nested under setup or
    // the top-level suite span's thread family
    let per_query = t.of_cat("suite").iter().filter(|s| s.name.contains(':')).count();
    assert!(per_query >= 7 * 16, "{per_query} task spans");
}

#[test]
fn chrome_trace_round_trips_through_the_json_parser() {
    let t = traced_suite(2);
    let json = trace::chrome_trace_json(&t);
    let doc = Json::parse(&json).expect("chrome export parses");
    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let xs: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
    assert_eq!(xs.len(), t.spans.len(), "one X event per span");
    // spot-check: ids survive, counters are attached as args (the export
    // reorders events by thread and start time, so match spans by id)
    let by_id: std::collections::BTreeMap<u64, _> = t.spans.iter().map(|s| (s.id, s)).collect();
    for e in &xs {
        let id = e.get("args").and_then(|a| a.get("id")).and_then(Json::as_u64).expect("id");
        let s = by_id.get(&id).expect("event id maps to a span");
        assert_eq!(e.get("name").and_then(Json::as_str), Some(s.name.as_str()));
        for &(k, v) in &s.counters {
            assert_eq!(
                e.get("args").and_then(|a| a.get(k)).and_then(Json::as_u64),
                Some(v),
                "counter {k} of span {}",
                s.name
            );
        }
    }
    // metadata names every thread
    let tids: std::collections::BTreeSet<u32> = t.spans.iter().map(|s| s.tid).collect();
    let meta = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")).count();
    assert_eq!(meta, tids.len(), "one thread_name record per tid");
}

#[test]
fn span_counters_are_deterministic_across_worker_counts() {
    let serial = traced_suite(1);
    let parallel = traced_suite(4);
    // the suite's workers joined the session: nothing ran unrecorded
    assert_eq!(serial.spans.len(), parallel.spans.len());
    assert!(serial.spans.iter().all(|s| s.tid == 0), "a serial run stays on the starting thread");
    assert!(parallel.spans.iter().any(|s| s.tid > 0), "no worker thread recorded");
    // wall-clock, ids and thread assignment legitimately differ; the
    // multiset of (cat, name, counters) must not
    type SpanKey = (String, String, Vec<(&'static str, u64)>);
    let key = |t: &Trace| {
        let mut v: Vec<SpanKey> = t
            .spans
            .iter()
            .map(|s| {
                let mut c = s.counters.clone();
                c.sort_unstable();
                (s.cat.to_string(), s.name.clone(), c)
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&serial), key(&parallel));
}

/// The PR-5 index/gallop counters flow through the span layer like the
/// PR-4 volume counters: present on `query` (and `op`) spans wherever the
/// kernels engaged, and — being deterministic functions of (scale, seed) —
/// identical between a serial and a 4-worker run.
#[test]
fn index_and_skip_counters_are_present_and_deterministic() {
    let serial = traced_suite(1);
    let parallel = traced_suite(4);
    for key in ["index_lookups", "elements_skipped"] {
        let query_total =
            |t: &Trace| -> u64 { t.of_cat("query").iter().filter_map(|s| s.counter(key)).sum() };
        let op_total =
            |t: &Trace| -> u64 { t.of_cat("op").iter().filter_map(|s| s.counter(key)).sum() };
        assert!(query_total(&serial) > 0, "no query span carries `{key}`");
        assert!(op_total(&serial) > 0, "no op span carries `{key}`");
        assert_eq!(query_total(&serial), query_total(&parallel), "`{key}` differs across workers");
        assert_eq!(op_total(&serial), op_total(&parallel), "`{key}` differs across workers");
    }
    // and per-query spans (not just totals) agree counter-for-counter
    let per_query = |t: &Trace| {
        let mut v: Vec<(String, u64, u64)> = t
            .of_cat("query")
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.counter("index_lookups").unwrap_or(0),
                    s.counter("elements_skipped").unwrap_or(0),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(per_query(&serial), per_query(&parallel));
}

/// Two sessions open at once on two threads, each running its own query,
/// while a third thread bound to neither runs a third: each session
/// records exactly its own spans.
#[test]
fn concurrent_sessions_record_disjoint_span_sets() {
    const RUNS: usize = 20;
    let (g, w, instance) = fixture();
    let schema = design(&g, Strategy::Dr).expect("designs");
    let db = materialize(&g, &schema, &instance);
    let both_open = Barrier::new(3);
    let run = |qi: usize, traced: bool| {
        let plan = compile(&g, &schema, &w.reads[qi]).expect("compiles");
        let session = traced.then(Session::start);
        both_open.wait();
        for _ in 0..RUNS {
            execute(&db, &g, &plan).expect("runs");
        }
        both_open.wait(); // nobody finishes before everybody ran
        (plan, session.map(Session::finish))
    };
    let (a, b, bystander) = std::thread::scope(|s| {
        let a = s.spawn(|| run(0, true));
        let b = s.spawn(|| run(1, true));
        let bystander = s.spawn(|| run(2, false));
        (a.join().unwrap(), b.join().unwrap(), bystander.join().unwrap())
    });
    assert!(bystander.1.is_none());
    for (plan, t) in [a, b] {
        let t = t.expect("traced");
        t.check_well_formed().expect("each session is well-formed on its own");
        assert_dense(&t, 0);
        let queries = t.of_cat("query");
        assert_eq!(queries.len(), RUNS);
        let name = format!("execute:{}:{}", plan.name, plan.strategy);
        assert!(queries.iter().all(|s| s.name == name), "a foreign query leaked into {name}");
        assert_eq!(t.of_cat("op").len(), RUNS * plan.ops.len());
        assert_eq!(t.spans.len(), RUNS * (1 + plan.ops.len()));
    }
}

/// Server workers record into the session that was current at
/// `Server::start`, whatever their number; a server started on an unbound
/// thread records nowhere.
#[test]
fn server_workers_inherit_the_starting_session() {
    let (g, w, instance) = fixture();
    let schema = design(&g, Strategy::Dr).expect("designs");
    let db = materialize(&g, &schema, &instance);
    let serve = |workers: usize| {
        let server = Server::start(db.clone(), &g, &ServerConfig { workers, ..Default::default() });
        let client = server.client();
        for q in w.reads.iter().chain(&w.reads) {
            client.read(q).wait().expect("read serves");
        }
        server.shutdown();
    };
    let traced = |workers: usize| {
        let session = Session::start();
        serve(workers);
        session.finish()
    };
    let (one, four) = (traced(1), traced(4));
    serve(2); // unbound: must not show up anywhere
    for (t, workers) in [(&one, 1), (&four, 4)] {
        t.check_well_formed().expect("hierarchy holds");
        assert_dense(t, workers);
        assert_eq!(t.of_cat("server").len(), 2 * w.reads.len(), "one server span per read");
        assert!(t.spans.iter().all(|s| s.tid > 0), "the client thread itself records nothing");
    }
    assert_eq!(one.spans.len(), four.spans.len());
}

#[test]
fn per_op_deltas_sum_exactly_on_every_query_and_strategy() {
    let (g, w, instance) = fixture();
    for strategy in Strategy::ALL {
        let schema = design(&g, strategy).expect("designs");
        let db = materialize(&g, &schema, &instance);
        for q in &w.reads {
            let plan = compile(&g, &schema, q).expect("compiles");
            let (result, profile) = execute_profiled(&db, &g, &plan).expect("runs");
            assert_eq!(profile.len(), plan.ops.len(), "{}/{strategy}", q.name);

            // profiled execution returns the same answer as plain execution
            let plain = execute(&db, &g, &plan).expect("runs");
            assert_eq!((plain.results, plain.distinct), (result.results, result.distinct));

            // the per-op metric deltas partition the query totals exactly;
            // results/distinct_results and elapsed are query-level (stamped
            // once at the end, attributed to no single operator)
            let mut sum = Metrics::default();
            for p in &profile {
                sum += p.metrics;
            }
            sum.results = result.metrics.results;
            sum.distinct_results = result.metrics.distinct_results;
            let norm = |m: &Metrics| Metrics { elapsed: Default::default(), ..*m };
            assert_eq!(norm(&sum), norm(&result.metrics), "{}/{strategy}", q.name);

            let text = explain_analyze(&g, &plan, &[], &result, &profile);
            assert!(text.contains("per-op deltas sum exactly"), "{text}");
            assert!(!text.contains("DRIFT"), "{}/{strategy}:\n{text}", q.name);
        }
    }
}

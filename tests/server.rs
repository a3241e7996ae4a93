//! Cross-crate torture tests for the multi-client query service
//! (DESIGN.md §15): N-client mixed read/write schedules replayed
//! serially as the oracle reference. Per-read answers, the final
//! database state (`same_state`), and every deterministic counter must
//! be identical across 1/2/8 workers, both kernel families, and both
//! storage backends — as must the admission groups the writes committed
//! in — and the prepared-plan cache must reach steady-state hit rate
//! ≥ 0.99, miss once per `(pattern, strategy)` key and never again
//! whatever commits, and stay warm under a writer committing as fast as
//! it can, every read answering what a fresh compile + execute answers.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, ScaleProfile};
use colorist::er::{catalog, ErGraph, NodeId};
use colorist::query::{compile, execute, optimize, Pattern};
use colorist::server::{Server, ServerConfig};
use colorist::store::{
    Database, ElementId, KernelDispatch, MemPages, Metrics, PoolConfig, UpdateBatch, Value,
};
use colorist::workload::tpcw;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

fn by_name(g: &ErGraph, name: &str) -> NodeId {
    g.node_ids().find(|&n| g.node(n).name == name).expect("node exists")
}

fn instance(db: &Database, node: NodeId, ordinal: u32) -> ElementId {
    db.canonical_by_ordinal(node, ordinal).expect("instance exists")
}

/// A read's answer shape: (physical results, distinct results, elements).
type Answer = (u64, u64, Vec<ElementId>);

/// What one replay through a server produced: per-read answers, the final
/// database, the summed worker metrics, and each write's
/// `(group_epoch, group_size)` in admission order.
type Replay = (Vec<Answer>, Database, Metrics, Vec<(u64, usize)>);

/// Tiny deterministic LCG so schedules are reproducible without any
/// external randomness source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One sync round of a client schedule: the writes are admitted and
/// flushed (one commit frontier), then the reads run against the
/// published epoch. The flush barrier is what makes the schedule
/// deterministic under any worker count — between rounds there is
/// exactly one database state a read can observe.
struct Round {
    writes: Vec<UpdateBatch>,
    reads: Vec<usize>,
}

/// Build a mixed schedule against `db`: attribute writes on low-ordinal
/// customers/items, one mid-schedule instance delete on an item nobody
/// else touches, and reads cycling the TPC-W patterns.
fn schedule(g: &ErGraph, db: &Database, seed: u64) -> Vec<Round> {
    let customer = by_name(g, "customer");
    let item = by_name(g, "item");
    let mut rng = Lcg(seed);
    (0..3)
        .map(|round| {
            let mut writes = Vec::new();
            for _ in 0..3 {
                let mut b = UpdateBatch::new();
                if rng.next().is_multiple_of(2) {
                    let e = instance(db, customer, (rng.next() % 5) as u32);
                    b.write_attr(e, 1, Value::Int(rng.next() as i64 & 0xffff));
                } else {
                    let e = instance(db, item, (rng.next() % 4) as u32);
                    b.write_attr(e, 2, Value::Int(rng.next() as i64 & 0xffff));
                }
                writes.push(b);
            }
            if round == 1 {
                let mut b = UpdateBatch::new();
                b.delete(instance(db, item, 5));
                writes.push(b);
            }
            let reads = (0..6).map(|_| (rng.next() % 5) as usize).collect();
            Round { writes, reads }
        })
        .collect()
}

/// Replay the schedule serially — direct `apply` + direct `execute` on
/// the evolving database. Returns the per-read answers (in global
/// submission order) and the final database.
fn serial_replay(
    g: &ErGraph,
    mut db: Database,
    patterns: &[Pattern],
    plan: &[Round],
) -> (Vec<Answer>, Database) {
    let mut answers = Vec::new();
    for round in plan {
        for w in &round.writes {
            w.apply(&mut db, g).expect("serial write applies");
        }
        for &qi in &round.reads {
            let p = optimize(&db, g, &patterns[qi]).expect("plan");
            let r = execute(&db, g, &p).expect("serial read runs");
            answers.push((r.results, r.distinct, r.elements));
        }
    }
    (answers, db)
}

/// Run the schedule through a server: writes admitted from the main
/// thread (admission order = schedule order), a flush barrier per round,
/// then the round's reads fired from two concurrent client threads and
/// folded back in submission order. `admit_max` 2 makes every round cut
/// threshold groups as well as the flush's.
fn server_replay(
    g: &ErGraph,
    db: Database,
    patterns: &[Pattern],
    plan: &[Round],
    workers: usize,
) -> Replay {
    let config = ServerConfig { admit_max: 2, ..ServerConfig::default().with_workers(workers) };
    let server = Server::start(db, g, &config);
    let main = server.client();
    let (mut answers, mut groups) = (Vec::new(), Vec::new());
    for round in plan {
        let pending: Vec<_> = round.writes.iter().map(|w| main.write(w.clone())).collect();
        main.flush().wait().expect("flush commits");
        for p in pending {
            let w = p.wait().expect("write commits");
            groups.push((w.group_epoch, w.group_size));
        }
        let mut shards: Vec<Vec<(usize, Answer)>> = std::thread::scope(|scope| {
            (0..2)
                .map(|t| {
                    let c = server.client();
                    let reads = &round.reads;
                    scope.spawn(move || {
                        reads
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % 2 == t)
                            .map(|(i, &qi)| {
                                let r = c.read(&patterns[qi]).wait().expect("read serves");
                                (i, (r.results, r.distinct, r.elements))
                            })
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut flat: Vec<_> = shards.drain(..).flatten().collect();
        flat.sort_unstable_by_key(|&(i, _)| i);
        answers.extend(flat.into_iter().map(|(_, a)| a));
    }
    let metrics = server.metrics();
    let final_db = server.shutdown();
    (answers, final_db, metrics, groups)
}

/// Zero the wall-clock-derived fields so the rest of the counter set can
/// be compared exactly across worker counts.
fn deterministic(m: Metrics) -> Metrics {
    Metrics { elapsed: Duration::ZERO, queue_wait_ns: 0, ..m }
}

/// The tentpole invariant: for every strategy, kernel family, and
/// storage backend, the concurrent schedule lands on the serial oracle's
/// answers and final state for 1, 2, and 8 workers — and every
/// deterministic counter (plan-cache families included), every write's
/// admission group and the final epoch are identical across the worker
/// counts, and each admission group is exactly one epoch step.
#[test]
fn torture_matches_serial_oracle_for_any_worker_count() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let patterns: Vec<Pattern> = tpcw::workload(&g).reads.into_iter().take(5).collect();
    let instance_data = generate(&g, &ScaleProfile::uniform(&g, 6), 11);
    for s in Strategy::ALL {
        let schema = design(&g, s).expect("tpcw designs");
        for dispatch in [KernelDispatch::Reference, KernelDispatch::CostModel] {
            for paged in [false, true] {
                let mut base = materialize(&g, &schema, &instance_data);
                base.set_kernel_dispatch(dispatch);
                if paged {
                    base.attach_paged(Arc::new(MemPages::new()), PoolConfig::default())
                        .expect("paged backend attaches");
                }
                let plan = schedule(&g, &base, 0xC0FFEE ^ s as u64);
                let (oracle_answers, oracle_db) = serial_replay(&g, base.clone(), &patterns, &plan);
                let mut counter_sets = Vec::new();
                for workers in [1, 2, 8] {
                    let ctx = format!("{s}/{dispatch:?}/paged={paged}/workers={workers}");
                    let (answers, final_db, metrics, groups) =
                        server_replay(&g, base.clone(), &patterns, &plan, workers);
                    assert_eq!(answers, oracle_answers, "{ctx}: answers diverge from serial");
                    final_db
                        .same_state(&oracle_db, false)
                        .unwrap_or_else(|m| panic!("{ctx}: state diverges from serial: {m}"));
                    // rounds of 3, 4 and 3 writes at `admit_max` 2: cut at
                    // every even sequence number and at each round's flush
                    let sizes: Vec<usize> = groups.iter().map(|&(_, size)| size).collect();
                    assert_eq!(sizes, [2, 2, 1, 1, 2, 2, 1, 1, 2, 2], "{ctx}: group cuts");
                    // one epoch step per admission group: a group's writes
                    // share its epoch, consecutive groups' epochs differ by
                    // exactly 1, and the final epoch counts the groups
                    let mut group_epochs = Vec::new();
                    let mut rest = &groups[..];
                    while let Some(&(epoch, size)) = rest.first() {
                        assert!(rest[..size].iter().all(|&(e, _)| e == epoch), "{ctx}");
                        group_epochs.push(epoch);
                        rest = &rest[size..];
                    }
                    let start = base.epoch();
                    let steps: Vec<u64> =
                        (1..=group_epochs.len() as u64).map(|k| start + k).collect();
                    assert_eq!(group_epochs, steps, "{ctx}: one epoch per group");
                    assert_eq!(final_db.epoch(), start + group_epochs.len() as u64, "{ctx}");
                    counter_sets.push((ctx, deterministic(metrics), groups, final_db.epoch()));
                }
                let (ref_ctx, ref_counters, ref_groups, ref_epoch) = &counter_sets[0];
                for (ctx, counters, groups, epoch) in &counter_sets[1..] {
                    assert_eq!(
                        counters, ref_counters,
                        "{ctx}: deterministic counters diverge from {ref_ctx}"
                    );
                    assert_eq!(
                        groups, ref_groups,
                        "{ctx}: admission groups diverge from {ref_ctx}"
                    );
                    assert_eq!(epoch, ref_epoch, "{ctx}: final epoch diverges from {ref_ctx}");
                }
            }
        }
    }
}

/// A batch writing one cell of instance `ordinal` of `node`.
fn set(db: &Database, node: NodeId, ordinal: u32, attr: usize, value: Value) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    b.write_attr(instance(db, node, ordinal), attr, value);
    b
}

/// The value instance `ordinal` of `node` holds in `attr`.
fn cell(db: &Database, node: NodeId, ordinal: u32, attr: usize) -> Value {
    db.element(instance(db, node, ordinal)).attrs[attr].clone()
}

/// What a fresh compile + execute of `q` answers on `db`.
fn direct(g: &ErGraph, db: &Database, q: &Pattern) -> Answer {
    let plan = compile(g, &db.schema, q).expect("plan");
    let r = execute(db, g, &plan).expect("direct read runs");
    (r.results, r.distinct, r.elements)
}

/// Acceptance criterion: steady-state plan-cache hit rate ≥ 0.99 on a
/// repeated workload and one miss per distinct `(pattern, strategy)` key.
/// After committed attribute writes — to a column no plan reads and to
/// columns plans select on — and a delete, every read hits and answers
/// what a fresh compile + execute answers on the published state: a plan
/// depends on the pattern and the schema alone, so no commit makes it
/// stale.
#[test]
fn plan_cache_steady_state_hit_rate_with_zero_stale_serves() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let schema = design(&g, Strategy::Dr).expect("tpcw designs");
    let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::uniform(&g, 6), 11));
    let probe = db.clone();
    let mut reference = db.clone();
    let patterns: Vec<Pattern> = tpcw::workload(&g).reads;
    let n = patterns.len();
    let server = Server::start(db, &g, &ServerConfig::default().with_workers(4));
    let c = server.client();
    // repeated workload: one compile miss per pattern, then hits forever
    for i in 0..1500 {
        let r = c.read(&patterns[i % n]).wait().expect("read serves");
        assert_eq!(r.cache_hit, i >= n, "request {i}");
    }
    let stats = server.cache_stats();
    assert!(stats.hit_rate() >= 0.99, "steady-state hit rate {}", stats.hit_rate());
    assert_eq!((stats.hits, stats.misses), (1500 - n as u64, n as u64));

    let column = |node: &str, attr: &str| {
        let node = by_name(&g, node);
        (node, probe.attr_index(&g, node, attr).expect("attribute exists"))
    };
    let (customer, uname) = column("customer", "uname");
    let (country, name) = column("country", "name");
    let (order, status) = column("order", "status");
    let status_1 = Value::Text("order_status_1".into());
    let other =
        (0..).find(|&o| cell(&probe, order, o, status) != status_1).expect("another status");
    let mut delete = UpdateBatch::new();
    delete.delete(instance(&probe, by_name(&g, "item"), 5));
    for batch in [
        // no plan reads customer.uname
        set(&probe, customer, 0, uname, Value::Text("u".into())),
        // a second country of the same name, which six plans select on
        set(&probe, country, 0, name, cell(&probe, country, 1, name)),
        // one more order in the status two plans select on
        set(&probe, order, other, status, status_1),
        delete,
    ] {
        batch.apply(&mut reference, &g).expect("reference applies");
        c.write(batch);
        c.flush().wait().expect("flush commits");
        for q in &patterns {
            let r = c.read(q).wait().expect("read serves");
            assert!(r.cache_hit, "{}: a commit re-planned it", q.name);
            let answer = (r.results, r.distinct, r.elements);
            assert_eq!(answer, direct(&g, &reference, q), "{}: a stale answer", q.name);
        }
    }
    let m = server.metrics();
    assert_eq!(m.plan_cache_misses, n as u64, "one miss per (pattern, strategy) key");
    assert_eq!(m.plan_cache_hits, 1500 - n as u64 + 4 * n as u64);
    assert_eq!(server.cache_stats().entries, n as u64);
    let published = server.shutdown();
    published.same_state(&reference, false).expect("the reference is the published state");
}

/// A closed-loop reader must stay warm while a writer commits as fast as
/// it can, to a column no plan reads and to one that plans select on:
/// after the first touch of each pattern the reader never misses, however
/// many epochs commit, and each read answers what a fresh compile +
/// execute answers on the state of the epoch it read.
#[test]
fn reader_under_a_fast_writer_never_misses_after_first_touch() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let schema = design(&g, Strategy::Dr).expect("tpcw designs");
    let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::uniform(&g, 6), 11));
    let probe = db.clone();
    let patterns: Vec<Pattern> = tpcw::workload(&g).reads;
    let customer = by_name(&g, "customer");
    let order = by_name(&g, "order");
    let uname = probe.attr_index(&g, customer, "uname").expect("uname");
    let status = probe.attr_index(&g, order, "status").expect("status");
    // the database each published epoch holds
    let mut states = BTreeMap::from([(probe.epoch(), probe.clone())]);

    let server = Server::start(db, &g, &ServerConfig::default().with_workers(2));
    let cold = patterns.len() as u64;
    for q in &patterns {
        server.client().read(q).wait().expect("warm-up read");
    }
    assert_eq!(server.metrics().plan_cache_misses, cold);

    // `bursts` flushed bursts of 4 single-cell writes — burst `k` sets the
    // cell of instances 0..4 to `values[k % 2]` — while a reader loops;
    // returns each read as (epoch, pattern, answer)
    let mut race = |node: NodeId, attr: usize, values: [Value; 2], bursts: usize| {
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let c = server.client();
                let mut reads = Vec::new();
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let qi = reads.len() % patterns.len();
                    let r = c.read(&patterns[qi]).wait().expect("read");
                    reads.push((r.epoch, qi, (r.results, r.distinct, r.elements)));
                }
                reads
            });
            let c = server.client();
            let mut latest = states.values().last().expect("a state").clone();
            for k in 0..bursts {
                let batches: Vec<_> =
                    (0..4).map(|o| set(&probe, node, o, attr, values[k % 2].clone())).collect();
                for b in &batches {
                    b.apply(&mut latest, &g).expect("reference applies");
                }
                let tickets: Vec<_> = batches.into_iter().map(|b| c.write(b)).collect();
                let epoch = c.flush().wait().expect("flush commits").epoch;
                for t in tickets {
                    assert_eq!(t.wait().expect("write commits").group_size, 4);
                }
                states.insert(epoch, latest.clone());
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            reader.join().expect("reader thread")
        })
    };
    let unames = [Value::Text("a".into()), Value::Text("b".into())];
    let mut reads = race(customer, uname, unames, 100);
    assert_eq!(server.metrics().plan_cache_misses, cold, "400 uname writes in 100 epochs");
    // every burst moves four orders into or out of the status two plans
    // select on
    let statuses = [Value::Text("order_status_1".into()), Value::Text("order_status_2".into())];
    reads.extend(race(order, status, statuses, 50));
    let m = server.metrics();
    assert_eq!(m.plan_cache_misses, cold, "{} reads over 150 epochs", reads.len());
    let mut expected: HashMap<(u64, usize), Answer> = HashMap::new();
    for (epoch, qi, answer) in reads {
        let want = expected
            .entry((epoch, qi))
            .or_insert_with(|| direct(&g, &states[&epoch], &patterns[qi]));
        assert_eq!(&answer, want, "epoch {epoch}: {} answered stale", patterns[qi].name);
    }
    server.shutdown();
}

//! # colorist-server — the multi-client query service (DESIGN.md §15)
//!
//! The paper measures its seven schemas on a single-threaded TIMBER
//! substrate; this crate is the layer that *serves* them: a
//! thread-per-core worker pool over an in-process MPMC submission queue.
//! Clients submit prepared read queries and [`UpdateBatch`] writes and
//! get [`Pending`] tickets they can block on.
//!
//! * **Reads** execute on any worker against the *published*
//!   epoch-pinned [`Database::snapshot`] view with no coordination:
//!   taking the view is one `Arc` clone, and the copy-on-write store
//!   guarantees the answer equals what the database would have returned
//!   at snapshot time, byte for byte. Plans come from the sharded
//!   prepared-plan cache ([`PlanCache`]) keyed on
//!   `(pattern, strategy, statistics epoch)`: compile + optimize once,
//!   hit thereafter, re-optimize after any statistics-catalog
//!   maintenance (the epoch shifts the key — stale plans are never
//!   served).
//! * **Writes** flow through *admission batching* into the
//!   commutativity-certified group commit of DESIGN.md §13: each write
//!   gets a global admission sequence number when it enters the queue;
//!   a commit cycle drains the contiguous admitted prefix **in sequence
//!   order** into a [`CommitScheduler`], which partitions it into
//!   independence classes and commits each class under one epoch bump.
//!   Draining in admission order makes the final database state equal
//!   the serial application of all writes in admission order — for any
//!   worker count — because distinct classes are certified to commute
//!   and conflicting writes stay in one class in admission order. The
//!   torture tests in `tests/server.rs` pin exactly this.
//! * **Metrics** aggregate per worker and are summed on collection
//!   ([`Server::metrics`]): each request charges exactly one worker
//!   once, so every deterministic counter family stays exact under any
//!   worker count. `queue_wait_ns` (and `elapsed`) are wall-clock
//!   derived and machine-dependent.
//!
//! The optional Unix-domain-socket front end lives behind the `uds`
//! feature (the `uds` module); the in-process [`Client`] API is the
//! primary surface.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use colorist_er::ErGraph;
use colorist_query::{execute_snapshot, optimize_cached, Pattern, PlanCache, QueryError};
use colorist_store::{
    BatchError, BatchReceipt, CommitScheduler, Database, ElementId, Metrics, Snapshot, UpdateBatch,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

#[cfg(all(unix, feature = "uds"))]
pub mod uds;

/// Server construction parameters; see [`ServerConfig::default`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads. Thread-per-core is [`ServerConfig::per_core`];
    /// the default is 1 (fully deterministic scheduling).
    pub workers: usize,
    /// Admission threshold: a commit cycle starts as soon as this many
    /// writes are pending (a [`Client::flush`] commits everything
    /// regardless). Larger values give the certifier more batches to
    /// group under one epoch bump.
    pub admit_max: usize,
    /// Total prepared-plan cache capacity, in plans.
    pub plan_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            admit_max: 32,
            plan_cache_capacity: colorist_query::cache::DEFAULT_CAPACITY,
        }
    }
}

impl ServerConfig {
    /// Thread-per-core: one worker per available hardware thread.
    pub fn per_core() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServerConfig { workers, ..ServerConfig::default() }
    }

    /// Same config with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// What can go wrong serving a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// Plan compilation/optimization or execution failed.
    Query(QueryError),
    /// The write batch failed validation at commit time.
    Batch(BatchError),
    /// The server stopped before (or while) handling the request.
    Stopped,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Query(e) => write!(f, "query failed: {e}"),
            ServerError::Batch(e) => write!(f, "batch rejected: {e}"),
            ServerError::Stopped => write!(f, "server stopped"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<QueryError> for ServerError {
    fn from(e: QueryError) -> Self {
        ServerError::Query(e)
    }
}

/// Answer of one read request.
#[derive(Debug, Clone)]
pub struct ReadReply {
    /// Distinct logical answers, as sorted canonical element ids.
    pub elements: Vec<ElementId>,
    /// Physical result tuples (copies included on un-normalized schemas).
    pub results: u64,
    /// Distinct logical results.
    pub distinct: u64,
    /// Epoch of the snapshot the read executed against.
    pub epoch: u64,
    /// Whether the plan came from the prepared-plan cache.
    pub cache_hit: bool,
    /// Per-request metrics: execution counters plus `queue_wait_ns` and
    /// the `plan_cache_*` charge of this request.
    pub metrics: Metrics,
}

/// Receipt of one committed write request.
#[derive(Debug, Clone)]
pub struct WriteReply {
    /// The batch's own receipt (epoch rewritten to the group's commit
    /// epoch when it group-committed).
    pub receipt: BatchReceipt,
    /// Epoch the write's independence class committed under.
    pub group_epoch: u64,
    /// Batches in the independence class this write committed with (1 =
    /// it shared its epoch bump with nobody).
    pub group_size: usize,
    /// Per-request metrics: `queue_wait_ns` plus the receipt's
    /// `pages_written` as `page_writes`.
    pub metrics: Metrics,
}

/// Outcome of a [`Client::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReply {
    /// Writes this flush found pending and committed (writes already
    /// committed by admission-threshold cycles are not re-counted).
    pub committed: u64,
    /// Database epoch after the flush.
    pub epoch: u64,
}

type Cell<T> = Arc<(Mutex<Option<T>>, Condvar)>;

/// A ticket for an in-flight request; [`Pending::wait`] blocks until a
/// worker fulfills it.
#[derive(Debug)]
pub struct Pending<T> {
    cell: Cell<T>,
}

impl<T> Pending<T> {
    fn new() -> (Pending<T>, Ticket<T>) {
        let cell: Cell<T> = Arc::new((Mutex::new(None), Condvar::new()));
        (Pending { cell: Arc::clone(&cell) }, Ticket { cell })
    }

    fn ready(value: T) -> Pending<T> {
        Pending { cell: Arc::new((Mutex::new(Some(value)), Condvar::new())) }
    }

    /// Block until the reply arrives.
    pub fn wait(self) -> T {
        let (lock, cv) = &*self.cell;
        let mut slot = lock.lock().expect("ticket lock");
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            slot = cv.wait(slot).expect("ticket wait");
        }
    }
}

#[derive(Debug)]
struct Ticket<T> {
    cell: Cell<T>,
}

impl<T> Ticket<T> {
    fn fulfill(self, value: T) {
        let (lock, cv) = &*self.cell;
        *lock.lock().expect("ticket lock") = Some(value);
        cv.notify_all();
    }
}

enum Request {
    Read {
        pattern: Box<Pattern>,
        enqueued: Instant,
        ticket: Ticket<Result<ReadReply, ServerError>>,
    },
    Write {
        wseq: u64,
        batch: Box<UpdateBatch>,
        enqueued: Instant,
        ticket: Ticket<Result<WriteReply, ServerError>>,
    },
    Flush {
        /// Every write admitted before this flush entered the queue has
        /// `wseq < upto`; the flush waits for and commits them all.
        upto: u64,
        ticket: Ticket<Result<FlushReply, ServerError>>,
    },
}

/// The MPMC submission queue. Write sequence numbers are assigned under
/// the same lock that orders the queue, so FIFO pop order respects
/// admission order — the invariant the flush barrier relies on.
struct Queue {
    requests: VecDeque<Request>,
    next_wseq: u64,
    stopped: bool,
}

/// One admitted-but-uncommitted write.
struct PendingWrite {
    batch: Box<UpdateBatch>,
    ticket: Ticket<Result<WriteReply, ServerError>>,
    queue_wait_ns: u64,
}

/// Admission buffer: writes keyed by sequence number, plus the commit
/// frontier. `pending` may have gaps (a worker still carrying a popped
/// write); commit cycles only drain the contiguous prefix at
/// `next_commit`, so commits never reorder admissions.
struct Admission {
    pending: BTreeMap<u64, PendingWrite>,
    next_commit: u64,
}

struct Shared {
    graph: ErGraph,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    /// Authoritative database; committed to under `commit_gate`.
    db: Mutex<Database>,
    /// Published read view, republished after every commit cycle.
    snap: Mutex<Arc<Snapshot>>,
    cache: PlanCache,
    admission: Mutex<Admission>,
    /// Signaled when a write lands in the admission buffer (flush
    /// barriers wait on it).
    admission_cv: Condvar,
    /// Serializes drain+commit cycles so contiguous prefixes commit in
    /// admission order even when several workers race to commit.
    commit_gate: Mutex<()>,
    admit_max: usize,
    worker_metrics: Vec<Mutex<Metrics>>,
}

/// The running service: owns the worker pool and the authoritative
/// database. Create with [`Server::start`], submit through handles from
/// [`Server::client`], stop with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// A cheap submission handle; clone one per client thread.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Server {
    /// Take ownership of `db` and start `config.workers` workers. They
    /// record into the trace session the calling thread is bound to, if any.
    pub fn start(db: Database, graph: &ErGraph, config: &ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let snap = Arc::new(db.snapshot());
        let shared = Arc::new(Shared {
            graph: graph.clone(),
            queue: Mutex::new(Queue { requests: VecDeque::new(), next_wseq: 0, stopped: false }),
            queue_cv: Condvar::new(),
            db: Mutex::new(db),
            snap: Mutex::new(snap),
            cache: PlanCache::new(config.plan_cache_capacity),
            admission: Mutex::new(Admission { pending: BTreeMap::new(), next_commit: 0 }),
            admission_cv: Condvar::new(),
            commit_gate: Mutex::new(()),
            admit_max: config.admit_max.max(1),
            worker_metrics: (0..workers).map(|_| Mutex::new(Metrics::default())).collect(),
        });
        let session = colorist_trace::Session::current();
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let session = session.clone();
                std::thread::Builder::new()
                    .name(format!("colorist-worker-{i}"))
                    .spawn(move || {
                        let _traced = session.enter();
                        worker_loop(&shared, i)
                    })
                    .expect("spawn worker")
            })
            .collect();
        Server { shared, workers: handles }
    }

    /// A submission handle sharing this server's state.
    pub fn client(&self) -> Client {
        Client { shared: Arc::clone(&self.shared) }
    }

    /// Sum of every worker's per-request metric charges. Deterministic
    /// counter families are exact for any worker count; `queue_wait_ns`
    /// and `elapsed` are machine-dependent.
    pub fn metrics(&self) -> Metrics {
        let mut total = Metrics::default();
        for m in &self.shared.worker_metrics {
            total += *m.lock().expect("worker metrics lock");
        }
        total
    }

    /// Prepared-plan cache counters.
    pub fn cache_stats(&self) -> colorist_query::CacheStats {
        self.shared.cache.stats()
    }

    /// Epoch of the currently published read view.
    pub fn published_epoch(&self) -> u64 {
        self.shared.snap.lock().expect("snapshot lock").epoch()
    }

    /// Flush all pending writes, stop the workers, and return the final
    /// database. Requests still queued after the flush barrier are
    /// answered with [`ServerError::Stopped`]; writes a worker already
    /// admitted (racing the stop flag past the barrier) are committed by
    /// a final drain so no ticket is left unfulfilled and no admitted
    /// write is silently dropped.
    pub fn shutdown(self) -> Database {
        let _ = self.client().flush().wait();
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.stopped = true;
            self.shared.queue_cv.notify_all();
        }
        for h in self.workers {
            let _ = h.join();
        }
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            for req in q.requests.drain(..) {
                match req {
                    Request::Read { ticket, .. } => ticket.fulfill(Err(ServerError::Stopped)),
                    Request::Write { ticket, .. } => ticket.fulfill(Err(ServerError::Stopped)),
                    Request::Flush { ticket, .. } => ticket.fulfill(Err(ServerError::Stopped)),
                }
            }
        }
        // A write submitted after the internal flush barrier captured its
        // `upto` but popped and admitted by a worker before it observed
        // the stop flag sits in the admission buffer below `admit_max`
        // with nobody left to commit it. Drain and commit the stragglers
        // (BTreeMap order = admission order) so their clients unblock
        // with real receipts and the returned database contains every
        // write that was ever admitted.
        let stragglers: Vec<PendingWrite> = {
            let mut adm = self.shared.admission.lock().expect("admission lock");
            std::mem::take(&mut adm.pending).into_values().collect()
        };
        if !stragglers.is_empty() {
            commit_group(&self.shared, 0, stragglers);
        }
        // workers joined and queue drained; clients may still hold
        // handles, so clone the authoritative database out instead of
        // unwrapping the Arc
        self.shared.db.lock().expect("db lock").clone()
    }
}

impl Client {
    /// Submit a prepared read query; executes against the published
    /// snapshot on any worker.
    pub fn read(&self, pattern: &Pattern) -> Pending<Result<ReadReply, ServerError>> {
        let (pending, ticket) = Pending::new();
        let mut q = self.shared.queue.lock().expect("queue lock");
        if q.stopped {
            drop(q);
            return Pending::ready(Err(ServerError::Stopped));
        }
        q.requests.push_back(Request::Read {
            pattern: Box::new(pattern.clone()),
            enqueued: Instant::now(),
            ticket,
        });
        drop(q);
        self.shared.queue_cv.notify_all();
        pending
    }

    /// Submit a write batch; it is admitted in submission order and
    /// group-committed with whatever certified-independent writes share
    /// its commit cycle.
    pub fn write(&self, batch: UpdateBatch) -> Pending<Result<WriteReply, ServerError>> {
        let (pending, ticket) = Pending::new();
        let mut q = self.shared.queue.lock().expect("queue lock");
        if q.stopped {
            drop(q);
            return Pending::ready(Err(ServerError::Stopped));
        }
        let wseq = q.next_wseq;
        q.next_wseq += 1;
        q.requests.push_back(Request::Write {
            wseq,
            batch: Box::new(batch),
            enqueued: Instant::now(),
            ticket,
        });
        drop(q);
        self.shared.queue_cv.notify_all();
        pending
    }

    /// Commit barrier: waits for every write submitted before this call
    /// to commit, then republishes the read view. The reply reports how
    /// many writes the barrier itself had to commit.
    pub fn flush(&self) -> Pending<Result<FlushReply, ServerError>> {
        let (pending, ticket) = Pending::new();
        let mut q = self.shared.queue.lock().expect("queue lock");
        if q.stopped {
            drop(q);
            return Pending::ready(Err(ServerError::Stopped));
        }
        let upto = q.next_wseq;
        q.requests.push_back(Request::Flush { upto, ticket });
        drop(q);
        self.shared.queue_cv.notify_all();
        pending
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let req = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(r) = q.requests.pop_front() {
                    break r;
                }
                if q.stopped {
                    return;
                }
                q = shared.queue_cv.wait(q).expect("queue wait");
            }
        };
        match req {
            Request::Read { pattern, enqueued, ticket } => {
                let reply = serve_read(shared, &pattern, enqueued);
                if let Ok(r) = &reply {
                    charge(shared, worker, r.metrics);
                }
                ticket.fulfill(reply);
            }
            Request::Write { wseq, batch, enqueued, ticket } => {
                let queue_wait_ns = enqueued.elapsed().as_nanos() as u64;
                {
                    let mut span = colorist_trace::span("server", "admit");
                    span.counter("queue_wait_ns", queue_wait_ns);
                    let mut adm = shared.admission.lock().expect("admission lock");
                    adm.pending.insert(wseq, PendingWrite { batch, ticket, queue_wait_ns });
                    shared.admission_cv.notify_all();
                }
                commit_cycle(shared, worker, None);
            }
            Request::Flush { upto, ticket } => {
                let committed = commit_cycle(shared, worker, Some(upto));
                let epoch = shared.snap.lock().expect("snapshot lock").epoch();
                ticket.fulfill(Ok(FlushReply { committed, epoch }));
            }
        }
    }
}

fn serve_read(
    shared: &Shared,
    pattern: &Pattern,
    enqueued: Instant,
) -> Result<ReadReply, ServerError> {
    let queue_wait_ns = enqueued.elapsed().as_nanos() as u64;
    let snap = Arc::clone(&*shared.snap.lock().expect("snapshot lock"));
    let mut span = colorist_trace::span("server", format_args!("read:{}", pattern.name));
    span.counter("queue_wait_ns", queue_wait_ns);
    let lookup = optimize_cached(&shared.cache, snap.database(), &shared.graph, pattern)?;
    if lookup.hit {
        span.counter("plan_cache_hits", 1);
    } else {
        span.counter("plan_cache_misses", 1);
        span.counter("plan_cache_evictions", lookup.evicted);
    }
    let r = execute_snapshot(&snap, &shared.graph, &lookup.plan)?;
    let mut metrics = r.metrics;
    metrics.queue_wait_ns += queue_wait_ns;
    if lookup.hit {
        metrics.plan_cache_hits += 1;
    } else {
        metrics.plan_cache_misses += 1;
        metrics.plan_cache_evictions += lookup.evicted;
    }
    Ok(ReadReply {
        elements: r.elements,
        results: r.results,
        distinct: r.distinct,
        epoch: snap.epoch(),
        cache_hit: lookup.hit,
        metrics,
    })
}

fn charge(shared: &Shared, worker: usize, metrics: Metrics) {
    *shared.worker_metrics[worker].lock().expect("worker metrics lock") += metrics;
}

/// Run commit cycles. With `barrier: None`, commit only if the admission
/// threshold is reached; with `Some(upto)`, loop — waiting for stragglers
/// still between the queue and the admission buffer — until every write
/// with `wseq < upto` has committed. Returns how many writes this call
/// committed. Cycles are serialized by `commit_gate` and each drains the
/// contiguous admitted prefix, so commits apply in admission order.
fn commit_cycle(shared: &Shared, worker: usize, barrier: Option<u64>) -> u64 {
    let _gate = shared.commit_gate.lock().expect("commit gate");
    let mut committed = 0u64;
    loop {
        let drained: Vec<PendingWrite> = {
            let mut adm = shared.admission.lock().expect("admission lock");
            loop {
                // the commit frontier is admitted AND (a barrier is
                // active, or the admission threshold is reached): drain
                // the whole contiguous prefix
                let due = adm.pending.contains_key(&adm.next_commit)
                    && (barrier.is_some() || adm.pending.len() >= shared.admit_max);
                if due {
                    let mut v = Vec::new();
                    loop {
                        let frontier = adm.next_commit;
                        match adm.pending.remove(&frontier) {
                            Some(w) => {
                                v.push(w);
                                adm.next_commit += 1;
                            }
                            None => break,
                        }
                    }
                    break v;
                }
                match barrier {
                    Some(upto) if adm.next_commit < upto => {
                        // a write admitted before the barrier is still on
                        // its way from the queue: wait for its worker
                        adm = shared.admission_cv.wait(adm).expect("admission wait");
                    }
                    // below threshold, or a straggler owns the frontier
                    // (its own admission will trigger the cycle)
                    _ => return committed,
                }
            }
        };
        committed += drained.len() as u64;
        commit_group(shared, worker, drained);
    }
}

/// Group-commit one drained admission prefix: certify independence,
/// commit each class under one epoch bump, republish the read view, and
/// fulfill the write tickets. If certification-ordered application fails
/// validation, fall back to committing each batch serially in admission
/// order (per-batch atomicity, per-batch verdicts) — the final state is
/// the serial-order state either way.
fn commit_group(shared: &Shared, worker: usize, drained: Vec<PendingWrite>) {
    let mut span = colorist_trace::span("server", "commit");
    span.counter("admitted", drained.len() as u64);
    let mut sched = CommitScheduler::new();
    let mut tickets = Vec::with_capacity(drained.len());
    for w in drained {
        sched.stage(*w.batch);
        tickets.push(Some((w.ticket, w.queue_wait_ns)));
    }
    let mut db = shared.db.lock().expect("db lock");
    // Commit against a trial clone and install it only on full success.
    // `CommitScheduler::commit` installs independence classes one at a
    // time, so an error on a later class leaves earlier classes applied;
    // the serial fallback must start from the pre-group state or batches
    // in already-committed classes would apply twice.
    let mut trial = db.clone();
    match sched.commit(&mut trial, &shared.graph) {
        Ok(groups) => {
            *db = trial;
            publish(shared, &db);
            drop(db);
            span.counter("groups", groups.len() as u64);
            for g in &groups {
                for (&member, receipt) in g.members.iter().zip(&g.receipts) {
                    let (ticket, queue_wait_ns) =
                        tickets[member].take().expect("one receipt per stage");
                    let metrics = Metrics {
                        queue_wait_ns,
                        page_writes: receipt.pages_written,
                        ..Metrics::default()
                    };
                    charge(shared, worker, metrics);
                    ticket.fulfill(Ok(WriteReply {
                        receipt: receipt.clone(),
                        group_epoch: g.epoch,
                        group_size: g.members.len(),
                        metrics,
                    }));
                }
            }
        }
        Err(_) => {
            // some batch fails validation *somewhere* in the certified
            // order: drop the trial state and degrade to serial
            // admission-order commits against the untouched database so
            // every batch gets an individual verdict
            drop(trial);
            let mut verdicts = Vec::with_capacity(tickets.len());
            for (i, slot) in tickets.iter_mut().enumerate() {
                let (ticket, queue_wait_ns) = slot.take().expect("unfulfilled");
                verdicts.push((
                    ticket,
                    queue_wait_ns,
                    sched.batches()[i].apply(&mut db, &shared.graph),
                ));
            }
            // republish before fulfilling, mirroring the Ok arm, so a
            // client whose write succeeded can never read a snapshot
            // that predates its own commit
            publish(shared, &db);
            drop(db);
            for (ticket, queue_wait_ns, verdict) in verdicts {
                match verdict {
                    Ok(receipt) => {
                        let metrics = Metrics {
                            queue_wait_ns,
                            page_writes: receipt.pages_written,
                            ..Metrics::default()
                        };
                        charge(shared, worker, metrics);
                        let group_epoch = receipt.epoch;
                        ticket.fulfill(Ok(WriteReply {
                            receipt,
                            group_epoch,
                            group_size: 1,
                            metrics,
                        }));
                    }
                    Err(e) => {
                        charge(shared, worker, Metrics { queue_wait_ns, ..Metrics::default() });
                        ticket.fulfill(Err(ServerError::Batch(e)));
                    }
                }
            }
        }
    }
}

/// Republish the read view from the authoritative database.
fn publish(shared: &Shared, db: &Database) {
    *shared.snap.lock().expect("snapshot lock") = Arc::new(db.snapshot());
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_core::{design, Strategy};
    use colorist_datagen::{generate, materialize, ScaleProfile};
    use colorist_er::{catalog, NodeId};
    use colorist_query::{execute, optimize, PatternBuilder};
    use colorist_store::Value;

    fn build(strategy: Strategy) -> (ErGraph, Database) {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
        let schema = design(&g, strategy).expect("tpcw designs");
        let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::uniform(&g, 8), 11));
        (g, db)
    }

    fn by_name(g: &ErGraph, name: &str) -> NodeId {
        g.node_ids().find(|&n| g.node(n).name == name).expect("node exists")
    }

    fn customers_query(g: &ErGraph) -> Pattern {
        PatternBuilder::new(g, "Qc")
            .node("country")
            .node("customer")
            .chain(0, 1, &["in", "address", "has"])
            .expect("path exists")
            .output(1)
            .build()
            .expect("pattern builds")
    }

    #[test]
    fn reads_match_direct_execution_and_hit_the_plan_cache() {
        let (g, db, q) = {
            let (g, db) = build(Strategy::Dr);
            let q = customers_query(&g);
            (g, db, q)
        };
        let expect = execute(&db, &g, &optimize(&db, &g, &q).expect("plan")).expect("runs");
        let server = Server::start(db, &g, &ServerConfig::default().with_workers(2));
        let c = server.client();
        let first = c.read(&q).wait().expect("read serves");
        assert!(!first.cache_hit, "first touch compiles");
        assert_eq!(first.elements, expect.elements);
        let second = c.read(&q).wait().expect("read serves");
        assert!(second.cache_hit, "steady state hits");
        assert_eq!(second.elements, expect.elements);
        let m = server.metrics();
        assert_eq!((m.plan_cache_misses, m.plan_cache_hits), (1, 1));
        assert_eq!(server.cache_stats().entries, 1);
        server.shutdown();
    }

    #[test]
    fn writes_flush_republish_and_equal_serial_application() {
        let (g, db) = build(Strategy::Af);
        let customer = by_name(&g, "customer");
        let targets: Vec<ElementId> =
            (0..4).map(|i| db.canonical_by_ordinal(customer, i).expect("instance")).collect();
        // serial reference
        let mut serial = db.clone();
        for (i, &e) in targets.iter().enumerate() {
            let mut b = UpdateBatch::new();
            b.write_attr(e, 1, Value::Int(1000 + i as i64));
            b.apply(&mut serial, &g).expect("serial apply");
        }
        let server = Server::start(db, &g, &ServerConfig::default().with_workers(4));
        let c = server.client();
        let pendings: Vec<_> = targets
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let mut b = UpdateBatch::new();
                b.write_attr(e, 1, Value::Int(1000 + i as i64));
                c.write(b)
            })
            .collect();
        let flush = c.flush().wait().expect("flush");
        assert!(flush.epoch > 0, "commits bump the published epoch");
        for p in pendings {
            let w = p.wait().expect("write commits");
            assert!(w.group_size >= 1);
        }
        assert_eq!(server.published_epoch(), flush.epoch);
        let final_db = server.shutdown();
        assert!(
            final_db.same_state(&serial, false).is_ok(),
            "admission-ordered group commit lands on the serial state"
        );
    }

    /// Regression: when a later independence class fails validation, the
    /// scheduler has already committed earlier classes — the serial
    /// fallback must start from the pre-group state, not re-apply them.
    /// Deletes are non-idempotent, so a double-apply flips the valid
    /// batch's verdict to `Deleted` even though its delete committed.
    #[test]
    fn failed_batch_in_group_falls_back_without_double_applying() {
        let (g, mut db) = build(Strategy::Af);
        let item = by_name(&g, "item");
        let doomed = db.canonical_by_ordinal(item, 5).expect("instance");
        {
            let mut b = UpdateBatch::new();
            b.delete(doomed);
            b.apply(&mut db, &g).expect("pre-delete applies");
        }
        let victim = db.canonical_by_ordinal(item, 3).expect("instance");
        // serial reference: only the valid delete lands
        let mut serial = db.clone();
        {
            let mut b = UpdateBatch::new();
            b.delete(victim);
            b.apply(&mut serial, &g).expect("serial apply");
        }
        let server = Server::start(db, &g, &ServerConfig::default());
        let c = server.client();
        // both drain in one commit cycle: the valid delete's class
        // commits first, then the already-deleted delete (empty
        // footprint -> its own later class) fails validation
        let mut ok_batch = UpdateBatch::new();
        ok_batch.delete(victim);
        let mut bad_batch = UpdateBatch::new();
        bad_batch.delete(doomed);
        let p_ok = c.write(ok_batch);
        let p_bad = c.write(bad_batch);
        c.flush().wait().expect("flush runs");
        assert!(p_ok.wait().is_ok(), "valid batch must commit exactly once");
        match p_bad.wait() {
            Err(ServerError::Batch(BatchError::Deleted(e))) => assert_eq!(e, doomed),
            other => panic!("expected Deleted verdict, got {other:?}"),
        }
        let final_db = server.shutdown();
        assert!(
            final_db.same_state(&serial, false).is_ok(),
            "fallback state must equal serial application of the valid batch"
        );
    }

    /// Regression: a write racing `shutdown` past the internal flush
    /// barrier used to be admitted and then stranded — its ticket never
    /// fulfilled, its data silently absent. Every ticket must now
    /// resolve, and the returned database must equal the serial
    /// application of exactly the writes that reported success.
    #[test]
    fn shutdown_never_strands_admitted_writes() {
        let (g, db) = build(Strategy::Dr);
        let customer = by_name(&g, "customer");
        for round in 0..8i64 {
            let targets: Vec<ElementId> =
                (0..6).map(|i| db.canonical_by_ordinal(customer, i).expect("instance")).collect();
            let server = Server::start(db.clone(), &g, &ServerConfig::default().with_workers(2));
            let c = server.client();
            let writer = {
                let targets = targets.clone();
                std::thread::spawn(move || {
                    targets
                        .into_iter()
                        .enumerate()
                        .map(|(i, e)| {
                            let mut b = UpdateBatch::new();
                            b.write_attr(e, 1, Value::Int(7_000 + round * 100 + i as i64));
                            (i, e, c.write(b))
                        })
                        .collect::<Vec<_>>()
                })
            };
            let final_db = server.shutdown();
            let mut reference = db.clone();
            for (i, e, p) in writer.join().expect("writer thread") {
                match p.wait() {
                    Ok(_) => {
                        let mut b = UpdateBatch::new();
                        b.write_attr(e, 1, Value::Int(7_000 + round * 100 + i as i64));
                        b.apply(&mut reference, &g).expect("reference apply");
                    }
                    Err(err) => assert_eq!(err, ServerError::Stopped),
                }
            }
            final_db.same_state(&reference, false).unwrap_or_else(|m| {
                panic!("round {round}: state diverges from acknowledged writes: {m}")
            });
        }
    }

    #[test]
    fn epoch_bump_invalidates_cached_plans_with_zero_stale_serves() {
        let (g, db) = build(Strategy::Dr);
        let customer = by_name(&g, "customer");
        let target = db.canonical_by_ordinal(customer, 0).expect("instance");
        let q = customers_query(&g);
        let server = Server::start(db, &g, &ServerConfig::default());
        let c = server.client();
        assert!(!c.read(&q).wait().expect("read").cache_hit);
        assert!(c.read(&q).wait().expect("read").cache_hit);
        // a committed write refreshes the statistics catalog -> epoch bump
        let mut b = UpdateBatch::new();
        b.write_attr(target, 1, Value::Int(77));
        c.write(b);
        c.flush().wait().expect("flush");
        let post = c.read(&q).wait().expect("read");
        assert!(!post.cache_hit, "stale plan must be re-optimized, not served");
        assert!(c.read(&q).wait().expect("read").cache_hit);
        server.shutdown();
    }

    #[test]
    fn stopped_server_rejects_new_requests() {
        let (g, db) = build(Strategy::En);
        let q = customers_query(&g);
        let server = Server::start(db, &g, &ServerConfig::default());
        let c = server.client();
        server.shutdown();
        assert_eq!(c.read(&q).wait().unwrap_err(), ServerError::Stopped);
        assert_eq!(c.flush().wait().unwrap_err(), ServerError::Stopped);
    }

    #[cfg(all(unix, feature = "uds"))]
    #[test]
    fn uds_front_end_serves_registered_queries() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let (g, db) = build(Strategy::Mcmr);
        let q = customers_query(&g);
        let expect = execute(&db, &g, &optimize(&db, &g, &q).expect("plan")).expect("runs");
        let server = Server::start(db, &g, &ServerConfig::default().with_workers(2));
        let dir = std::env::temp_dir().join(format!("colorist-uds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("svc.sock");
        let front = crate::uds::serve(&server, &path, std::slice::from_ref(&q)).expect("binds");
        let mut conn = UnixStream::connect(&path).expect("connects");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut ask = |line: &str| {
            conn.write_all(line.as_bytes()).expect("write");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            reply
        };
        assert_eq!(ask("PING\n"), "OK pong\n");
        let reply = ask("READ qc\n");
        assert!(reply.starts_with(&format!("OK {} ", expect.distinct)), "reply was {reply:?}");
        assert!(ask("READ nosuch\n").starts_with("ERR unknown query"));
        assert!(ask("FLUSH\n").starts_with("OK 0 "));
        front.stop();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

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
//!   prepared-plan cache ([`PlanCache`]) keyed on `(pattern, strategy)`:
//!   compile once and hit from then on. A plan depends on the pattern and
//!   the schema alone, so no commit can make it stale and a write costs
//!   the cache nothing.
//! * **Writes** flow through *admission batching* into the group commit
//!   of DESIGN.md §13: [`Client::write`] appends the batch to the
//!   admission buffer itself, in submission order; the sequence is cut
//!   into **admission groups** at every `admit_max`-th write and at every
//!   flush barrier — a pure function of the submission order, so groups
//!   are the same for any worker count — and each group goes **in
//!   sequence order** into a [`CommitScheduler`], which writes it through
//!   the authoritative database as one staged version: one flush, one
//!   publish, one epoch step, and a verdict per
//!   write — a rejected batch writes nothing, and the rest of its group
//!   commits without it. Writing through in admission order *is* serial
//!   application, so the final state equals the serial oracle's by
//!   construction. The torture tests in `tests/server.rs` pin exactly
//!   this. A write needs a worker only once its group is
//!   complete, one worker commits at a time, and no worker ever waits for
//!   another's commit — a flush that arrives meanwhile is left for the
//!   committing worker to answer — so commits never take the pool away
//!   from readers.
//! * **Metrics** aggregate per worker and are summed on collection
//!   ([`Server::metrics`]): each request charges exactly one worker
//!   once, so every deterministic counter family stays exact under any
//!   worker count. `queue_wait_ns` (and `elapsed`) are wall-clock
//!   derived and machine-dependent.
//!
//! On Unix, the `uds` module adds a Unix-domain-socket front end; the
//! in-process [`Client`] API is the primary surface.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use colorist_er::ErGraph;
use colorist_query::{execute_snapshot, optimize_cached, Pattern, PlanCache, QueryError};
use colorist_store::{
    BatchError, BatchReceipt, CommitScheduler, Database, ElementId, Metrics, Snapshot, UpdateBatch,
};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

#[cfg(unix)]
pub mod uds;

/// Server construction parameters; see [`ServerConfig::default`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads. Thread-per-core is [`ServerConfig::per_core`];
    /// the default is 1 (fully deterministic scheduling).
    pub workers: usize,
    /// Admission threshold: the write sequence is cut into a commit
    /// group at every multiple of this (a [`Client::flush`] cuts one at
    /// its barrier regardless). Larger values put more batches under one
    /// staged version.
    pub admit_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 1, admit_max: 32 }
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
    /// The batch's own receipt; its epoch is the group's commit epoch.
    pub receipt: BatchReceipt,
    /// Epoch the database reached when the write's admission group
    /// committed — one step past the previous group's — and the epoch of
    /// the view published for it.
    pub group_epoch: u64,
    /// Writes in the admission group this write committed with, rejected
    /// ones included (1 = it shared its staged version, flush and publish
    /// with nobody).
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
    /// A commit barrier: every write admitted before it has `wseq < upto`.
    Flush { upto: u64, ticket: Ticket<Result<FlushReply, ServerError>> },
    /// A write just completed an `admit_max` group: somebody commit it.
    Commit,
}

/// One admitted-but-uncommitted write.
struct PendingWrite {
    batch: UpdateBatch,
    ticket: Ticket<Result<WriteReply, ServerError>>,
    admitted: Instant,
    /// A flush barrier was submitted since the previous write: this write
    /// opens a new admission group.
    starts_group: bool,
}

/// A flush a worker has taken off the queue and nobody has answered yet.
struct Barrier {
    upto: u64,
    /// Writes below `upto` still uncommitted when the worker took it.
    found: u64,
    ticket: Ticket<Result<FlushReply, ServerError>>,
}

/// Everything clients and workers hand each other, under one mutex: the
/// MPMC request queue, and the admission buffer with its commit frontier.
/// A write never enters `requests`: [`Client::write`] appends it to
/// `writes` directly — under this lock, so admission order *is*
/// submission order and the buffer has no gaps — and a worker is only
/// needed once a group is complete.
struct Queue {
    requests: VecDeque<Request>,
    stopped: bool,
    /// Admitted, uncommitted writes in admission order; the front one has
    /// sequence number `next_commit`.
    writes: VecDeque<PendingWrite>,
    next_commit: u64,
    /// Set by a flush, taken by the next write (its `starts_group`).
    flushed_since_write: bool,
    /// Some worker is committing a group. Groups never overlap; whoever
    /// holds the flag keeps cutting until no group is due and every
    /// barrier below the frontier is answered, so nobody ever waits for it.
    committing: bool,
    barriers: Vec<Barrier>,
}

impl Queue {
    /// The sequence number the next admitted write receives.
    fn next_wseq(&self) -> u64 {
        self.next_commit + self.writes.len() as u64
    }

    /// Cut the next admission group off the front of `writes`, if a
    /// complete one is there. Group boundaries are a pure function of the
    /// submission sequence: every multiple of `admit_max`, and every flush
    /// barrier — the write submitted after a flush carries `starts_group`,
    /// and a barrier that nothing has followed yet is in `barriers`.
    fn next_group(&mut self, admit_max: u64) -> Option<Vec<PendingWrite>> {
        let (start, end) = (self.next_commit, self.next_wseq());
        let boundary = |wseq: u64| wseq.is_multiple_of(admit_max);
        let cut = (start + 1..end)
            .find(|&wseq| boundary(wseq) || self.writes[(wseq - start) as usize].starts_group)
            .or_else(|| {
                let closed = boundary(end) || self.barriers.iter().any(|b| b.upto == end);
                (end > start && closed).then_some(end)
            })?;
        self.next_commit = cut;
        Some(self.writes.drain(..(cut - start) as usize).collect())
    }
}

struct Shared {
    graph: ErGraph,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    /// Authoritative database; written only by the worker holding
    /// `Queue::committing`.
    db: Mutex<Database>,
    /// Published read view, republished after every commit group.
    snap: Mutex<Arc<Snapshot>>,
    /// Views `publish` has replaced that a read may still hold. The
    /// committing worker drops them once no read does, so reclaiming the
    /// version a commit replaced is never a reader's work.
    retired: Mutex<Vec<Arc<Snapshot>>>,
    cache: PlanCache,
    admit_max: u64,
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
            queue: Mutex::new(Queue {
                requests: VecDeque::new(),
                stopped: false,
                writes: VecDeque::new(),
                next_commit: 0,
                flushed_since_write: false,
                committing: false,
                barriers: Vec::new(),
            }),
            queue_cv: Condvar::new(),
            db: Mutex::new(db),
            snap: Mutex::new(snap),
            retired: Mutex::new(Vec::new()),
            cache: PlanCache::default(),
            admit_max: config.admit_max.max(1) as u64,
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
    /// answered with [`ServerError::Stopped`]; writes admitted after the
    /// barrier but before the stop flag went up are committed by a final
    /// drain, so no ticket is left unfulfilled and no admitted write is
    /// silently dropped.
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
        let stragglers: Vec<PendingWrite> = {
            let mut q = self.shared.queue.lock().expect("queue lock");
            for req in q.requests.drain(..) {
                match req {
                    Request::Read { ticket, .. } => ticket.fulfill(Err(ServerError::Stopped)),
                    Request::Flush { ticket, .. } => ticket.fulfill(Err(ServerError::Stopped)),
                    Request::Commit => {}
                }
            }
            // workers joined: nobody is committing and no barrier is open
            q.next_commit = q.next_wseq();
            q.writes.drain(..).collect()
        };
        if !stragglers.is_empty() {
            commit_group(&self.shared, 0, stragglers);
        }
        // clients may still hold handles, so clone the authoritative
        // database out instead of unwrapping the Arc
        self.shared.db.lock().expect("db lock").clone()
    }
}

impl Client {
    /// Put `request` on the queue and wake one worker for it, unless the
    /// server has stopped.
    fn submit<T>(
        &self,
        request: impl FnOnce(&mut Queue, Ticket<Result<T, ServerError>>) -> Option<Request>,
    ) -> Pending<Result<T, ServerError>> {
        let (pending, ticket) = Pending::new();
        let mut q = self.shared.queue.lock().expect("queue lock");
        if q.stopped {
            drop(q);
            return Pending::ready(Err(ServerError::Stopped));
        }
        let Some(request) = request(&mut q, ticket) else { return pending };
        q.requests.push_back(request);
        drop(q);
        self.shared.queue_cv.notify_one();
        pending
    }

    /// Submit a prepared read query; executes against the published
    /// snapshot on any worker.
    pub fn read(&self, pattern: &Pattern) -> Pending<Result<ReadReply, ServerError>> {
        let pattern = Box::new(pattern.clone());
        self.submit(|_, ticket| Some(Request::Read { pattern, enqueued: Instant::now(), ticket }))
    }

    /// Submit a write batch; it is admitted in submission order and
    /// group-committed with the writes that share its admission group. A
    /// write occupies no worker until its group is complete — at every
    /// `admit_max`-th write, or at the next [`Client::flush`].
    pub fn write(&self, batch: UpdateBatch) -> Pending<Result<WriteReply, ServerError>> {
        let admit_max = self.shared.admit_max;
        self.submit(|q, ticket| {
            let starts_group = std::mem::take(&mut q.flushed_since_write);
            q.writes.push_back(PendingWrite {
                batch,
                ticket,
                admitted: Instant::now(),
                starts_group,
            });
            q.next_wseq().is_multiple_of(admit_max).then_some(Request::Commit)
        })
    }

    /// Commit barrier: waits for every write submitted before this call
    /// to commit, then republishes the read view. The reply reports how
    /// many of them were still uncommitted when a worker took the barrier.
    pub fn flush(&self) -> Pending<Result<FlushReply, ServerError>> {
        self.submit(|q, ticket| {
            q.flushed_since_write = true;
            Some(Request::Flush { upto: q.next_wseq(), ticket })
        })
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
            Request::Flush { upto, ticket } => {
                let mut q = shared.queue.lock().expect("queue lock");
                let found = upto.saturating_sub(q.next_commit);
                q.barriers.push(Barrier { upto, found, ticket });
                commit_cycle(shared, worker, q);
            }
            Request::Commit => {
                commit_cycle(shared, worker, shared.queue.lock().expect("queue lock"));
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

/// Commit every admission group that is complete, one at a time, and
/// answer every barrier the commit frontier has passed — unless another
/// worker is already doing so: it looks again, under this same lock,
/// before it gives the flag up, so whatever the caller just put into the
/// queue state is its to handle and the caller goes straight back to
/// serving requests. No worker ever waits for a commit.
fn commit_cycle<'a>(shared: &'a Shared, worker: usize, mut q: MutexGuard<'a, Queue>) {
    if q.committing {
        return;
    }
    loop {
        let frontier = q.next_commit;
        let (met, open) =
            std::mem::take(&mut q.barriers).into_iter().partition(|b| b.upto <= frontier);
        q.barriers = open;
        let group = q.next_group(shared.admit_max);
        q.committing = group.is_some();
        drop(q);
        if !Vec::is_empty(&met) {
            let epoch = shared.snap.lock().expect("snapshot lock").epoch();
            for Barrier { found, ticket, .. } in met {
                ticket.fulfill(Ok(FlushReply { committed: found, epoch }));
            }
        }
        let Some(group) = group else { return };
        commit_group(shared, worker, group);
        q = shared.queue.lock().expect("queue lock");
        q.committing = false;
    }
}

/// Commit one admission group through the authoritative database as one
/// staged version (DESIGN.md §13), republish the read view, and fulfill
/// each write ticket with its batch's own verdict. A batch that fails
/// validation wrote nothing and the rest of the group commits without it;
/// a failed flush leaves the database untouched and answers every ticket
/// with the storage error.
fn commit_group(shared: &Shared, worker: usize, group: Vec<PendingWrite>) {
    let mut span = colorist_trace::span("server", "commit");
    span.counter("admitted", group.len() as u64);
    let group_size = group.len();
    let mut sched = CommitScheduler::new();
    let mut tickets = Vec::with_capacity(group_size);
    for w in group {
        sched.stage(w.batch);
        tickets.push((w.ticket, w.admitted.elapsed().as_nanos() as u64));
    }
    let mut db = shared.db.lock().expect("db lock");
    let verdicts =
        sched.commit(&mut db, &shared.graph).unwrap_or_else(|e| vec![Err(e); group_size]);
    let group_epoch = db.epoch();
    // republish before fulfilling, so a client whose write succeeded can
    // never read a snapshot that predates its own commit
    publish(shared, &db);
    drop(db);
    for ((ticket, queue_wait_ns), verdict) in tickets.into_iter().zip(verdicts) {
        let page_writes = verdict.as_ref().map_or(0, |receipt| receipt.pages_written);
        let metrics = Metrics { queue_wait_ns, page_writes, ..Metrics::default() };
        charge(shared, worker, metrics);
        ticket.fulfill(
            verdict
                .map(|receipt| WriteReply { receipt, group_epoch, group_size, metrics })
                .map_err(ServerError::Batch),
        );
    }
}

/// Republish the read view from the authoritative database. Whoever drops
/// the last handle on the replaced view frees every chunk and column the
/// commit replaced, so the view is parked until no read holds it and is
/// dropped here, by a committing worker.
fn publish(shared: &Shared, db: &Database) {
    let fresh = Arc::new(db.snapshot());
    let stale = std::mem::replace(&mut *shared.snap.lock().expect("snapshot lock"), fresh);
    let mut retired = shared.retired.lock().expect("retired views lock");
    retired.push(stale);
    retired.retain(|view| Arc::strong_count(view) > 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_core::{design, Strategy};
    use colorist_datagen::{generate, materialize, ScaleProfile};
    use colorist_er::{catalog, NodeId};
    use colorist_query::{compile, execute, optimize, CmpOp, PatternBuilder};
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

    /// A batch its group rejects gets its own verdict and leaves no trace:
    /// the valid batches around it commit under one group epoch, and the
    /// final state equals serial application. Deletes are non-idempotent,
    /// so a batch applied twice would show as a `Deleted` verdict.
    #[test]
    fn a_rejected_batch_gets_its_own_verdict_inside_one_group_epoch() {
        let (g, mut db) = build(Strategy::Af);
        let item = by_name(&g, "item");
        let delete = |ordinal: u32, db: &Database| {
            let mut b = UpdateBatch::new();
            b.delete(db.canonical_by_ordinal(item, ordinal).expect("instance"));
            b
        };
        let doomed = db.canonical_by_ordinal(item, 5).expect("instance");
        let stale = delete(5, &db);
        stale.apply(&mut db, &g).expect("pre-delete applies");
        let batches = [delete(3, &db), stale, delete(4, &db)];
        let mut serial = db.clone();
        for b in &batches {
            let _ = b.apply(&mut serial, &g);
        }
        let epoch = db.epoch();
        let server = Server::start(db, &g, &ServerConfig::default());
        let c = server.client();
        let pending: Vec<_> = batches.iter().map(|b| c.write(b.clone())).collect();
        assert_eq!(c.flush().wait().expect("flush runs").epoch, epoch + 1, "one epoch step");
        let verdicts: Vec<_> = pending.into_iter().map(Pending::wait).collect();
        for i in [0, 2] {
            let w = verdicts[i].as_ref().expect("valid batch commits");
            assert_eq!((w.group_epoch, w.group_size, w.receipt.epoch), (epoch + 1, 3, epoch + 1));
        }
        assert_eq!(
            verdicts[1].as_ref().unwrap_err(),
            &ServerError::Batch(BatchError::Deleted(doomed))
        );
        let final_db = server.shutdown();
        assert_eq!(final_db.same_state(&serial, false), Ok(()));
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
    fn every_read_after_writes_and_a_delete_hits_with_zero_stale_serves() {
        let (g, db) = build(Strategy::Dr);
        let customer = by_name(&g, "customer");
        let target = db.canonical_by_ordinal(customer, 0).expect("instance");
        let doomed = db.canonical_by_ordinal(customer, 1).expect("instance");
        // one plan navigates to customers, the other reads the written column
        let reads = [
            customers_query(&g),
            PatternBuilder::new(&g, "Qu")
                .node("customer")
                .pred("uname", CmpOp::Eq, Value::Int(77))
                .output(0)
                .build()
                .expect("pattern builds"),
        ];
        let mut reference = db.clone();
        let server = Server::start(db, &g, &ServerConfig::default());
        let c = server.client();
        let check = |reference: &Database, expect_hit: bool| {
            for q in &reads {
                let reply = c.read(q).wait().expect("read");
                assert_eq!(reply.cache_hit, expect_hit, "{}", q.name);
                let plan = compile(&g, &reference.schema, q).expect("plan");
                let direct = execute(reference, &g, &plan).expect("runs");
                assert_eq!(reply.elements, direct.elements, "{}: a stale answer", q.name);
            }
        };
        check(&reference, false);
        let mut write = UpdateBatch::new();
        write.write_attr(target, 1, Value::Int(77));
        let mut delete = UpdateBatch::new();
        delete.delete(doomed);
        for batch in [write, delete] {
            batch.apply(&mut reference, &g).expect("reference apply");
            c.write(batch);
            c.flush().wait().expect("flush");
            check(&reference, true);
        }
        let m = server.metrics();
        assert_eq!(m.plan_cache_misses, reads.len() as u64, "one miss per (pattern, strategy)");
        assert_eq!(m.plan_cache_hits, 2 * reads.len() as u64);
        assert_eq!(server.cache_stats().entries, reads.len() as u64);
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

    #[cfg(unix)]
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

//! Storage-backend differential tests (DESIGN.md §14): the paged backend
//! is a durability + page-accounting layer under the same in-memory
//! working representation, so attaching it must change **nothing** about
//! query answers or the pre-existing deterministic counters — it may only
//! *add* page traffic in the four storage counters
//! (`page_reads`/`page_writes`/`pool_hits`/`pool_evictions`).
//!
//! The second half holds the page-granular flush to its contract: an I/O
//! error at any call of a group commit leaves the previous epoch in memory
//! and on disk and loses no free page; torn pages are typed errors; the
//! file stays bounded under a long run of commits; and forked clones
//! flushing to one backend never overwrite each other's pages.
//!
//! The last part holds the shared page cache to its contract: concurrent
//! queries fault through it and still count like a serial run, a page a
//! commit rewrites is never served stale, and a page that fails its
//! checksum fails the query that reads it — not the process, and not the
//! server worker serving it.

use std::collections::BTreeSet;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, ScaleProfile};
use colorist::er::{catalog, ErGraph};
use colorist::query::{execute, optimize, QueryError};
use colorist::server::{Server, ServerConfig, ServerError};
use colorist::store::page::PageTable;
use colorist::store::storage::PageFileError;
use colorist::store::{
    BatchError, CommitScheduler, Database, ElementId, FilePages, MemPages, Metrics, PageId,
    PoolConfig, Snapshot, StorageBackend, UpdateBatch, Value, DEFAULT_POOL_BYTES, PAGE_SIZE,
};
use colorist::workload::tpcw;

fn tpcw_db(strategy: Strategy, scale: u32) -> (ErGraph, Database) {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let profile = ScaleProfile::tpcw(&g, scale);
    let inst = generate(&g, &profile, 42);
    let schema = design(&g, strategy).expect("strategy designs tpcw");
    let db = materialize(&g, &schema, &inst);
    (g, db)
}

/// Everything in a [`Metrics`] except the four storage counters and the
/// wall clock — the slice of the counter vocabulary that existed before
/// the paged backend and must stay byte-identical under it.
fn non_storage(m: &Metrics) -> Metrics {
    Metrics {
        page_reads: 0,
        page_writes: 0,
        pool_hits: 0,
        pool_evictions: 0,
        elapsed: Default::default(),
        ..*m
    }
}

/// Attach an in-memory paged backend with the given pool budget.
fn attach(db: &mut Database, pool_bytes: u64) {
    db.attach_paged(Arc::new(MemPages::new()), PoolConfig { pool_bytes })
        .expect("attach flushes to MemPages");
}

/// The heart of the acceptance criteria: on every TPC-W strategy, every
/// workload read query returns byte-identical answers on the heap and the
/// paged backend, and every pre-existing deterministic counter matches
/// exactly. The paged run is additionally required to actually read pages
/// somewhere in the workload (the accounting isn't vacuous).
#[test]
fn mem_vs_paged_differential_across_all_seven_strategies() {
    for s in Strategy::ALL {
        let (g, mem_db) = tpcw_db(s, 40);
        let mut paged_db = mem_db.clone();
        attach(&mut paged_db, DEFAULT_POOL_BYTES);
        assert!(paged_db.is_paged() && !mem_db.is_paged());

        let w = tpcw::workload(&g);
        let mut paged_page_traffic = 0u64;
        for q in &w.reads {
            let plan_m = optimize(&mem_db, &g, q).expect("plans on mem");
            let plan_p = optimize(&paged_db, &g, q).expect("plans on paged");
            assert_eq!(format!("{plan_m}"), format!("{plan_p}"), "{s}/{}: plan drift", q.name);

            let rm = execute(&mem_db, &g, &plan_m).expect("runs on mem");
            let rp = execute(&paged_db, &g, &plan_p).expect("runs on paged");
            assert_eq!(rm.elements, rp.elements, "{s}/{}: answers differ", q.name);
            assert_eq!(
                (rm.results, rm.distinct),
                (rp.results, rp.distinct),
                "{s}/{}: cardinalities differ",
                q.name
            );
            assert_eq!(
                non_storage(&rm.metrics),
                non_storage(&rp.metrics),
                "{s}/{}: non-storage counters differ",
                q.name
            );
            assert_eq!(
                (rm.metrics.page_reads, rm.metrics.pool_hits, rm.metrics.pool_evictions),
                (0, 0, 0),
                "{s}/{}: heap run charged page counters",
                q.name
            );
            paged_page_traffic += rp.metrics.page_reads + rp.metrics.pool_hits;
        }
        assert!(paged_page_traffic > 0, "{s}: paged workload never touched a page");
    }
}

/// Pool-pressure torture: a one-frame pool (8 KiB budget) forces an
/// eviction on nearly every page transition. Answers must not change, and
/// the clock policy must actually evict.
#[test]
fn tiny_pool_torture_preserves_answers_and_evicts() {
    let (g, mem_db) = tpcw_db(Strategy::Dr, 40);
    let mut paged_db = mem_db.clone();
    attach(&mut paged_db, 8192);

    let w = tpcw::workload(&g);
    let mut evictions = 0u64;
    for q in &w.reads {
        let plan = optimize(&mem_db, &g, q).expect("plans");
        let rm = execute(&mem_db, &g, &plan).expect("mem");
        let rp = execute(&paged_db, &g, &plan).expect("paged under pressure");
        assert_eq!(rm.elements, rp.elements, "{}: answers differ under pool pressure", q.name);
        assert_eq!(
            non_storage(&rm.metrics),
            non_storage(&rp.metrics),
            "{}: counters differ under pool pressure",
            q.name
        );
        evictions += rp.metrics.pool_evictions;
    }
    assert!(evictions > 0, "a one-frame pool must evict somewhere in the workload");
}

/// Eviction-then-reread correctness probe: running the same query twice on
/// a starved pool (each run gets a cold per-query pool, so the second run
/// rereads every evicted page) must be deterministic — identical answers
/// *and* identical page counters.
#[test]
fn eviction_then_reread_is_deterministic() {
    let (g, db0) = tpcw_db(Strategy::Deep, 40);
    let mut db = db0;
    attach(&mut db, 8192);

    let w = tpcw::workload(&g);
    let q = &w.reads[0];
    let plan = optimize(&db, &g, q).expect("plans");
    let first = execute(&db, &g, &plan).expect("first run");
    let second = execute(&db, &g, &plan).expect("second run");
    assert_eq!(first.elements, second.elements);
    assert_eq!(
        Metrics { elapsed: Default::default(), ..first.metrics },
        Metrics { elapsed: Default::default(), ..second.metrics },
        "page accounting must be deterministic across reruns"
    );
    assert!(first.metrics.pool_evictions > 0, "the probe needs a starved pool to mean anything");
}

/// Snapshot isolation survives the backend: clones taken before more
/// writes keep answering from their own directory.
#[test]
fn clone_of_paged_database_stays_queryable() {
    let (g, db0) = tpcw_db(Strategy::En, 30);
    let mut db = db0;
    attach(&mut db, DEFAULT_POOL_BYTES);
    let frozen = db.clone();

    let w = tpcw::workload(&g);
    let q = &w.reads[0];
    let plan = optimize(&frozen, &g, q).expect("plans");
    let before = execute(&frozen, &g, &plan).expect("clone runs");
    // delete + reflush the original through the shared backend
    let item = g.node_by_name("item").expect("tpcw has items");
    let mut delete = UpdateBatch::new();
    delete.delete(db.extent(item)[0]);
    let receipt = delete.apply(&mut db, &g).expect("the delete commits");
    assert!(receipt.pages_written > 0, "the delete reflushes");
    // the pre-write clone still answers identically
    let after = execute(&frozen, &g, &plan).expect("clone still runs");
    assert_eq!(before.elements, after.elements);
    assert_eq!(
        Metrics { elapsed: Default::default(), ..before.metrics },
        Metrics { elapsed: Default::default(), ..after.metrics },
    );
}

/// Durability: save to a page file, load it back, and the loaded database
/// is state-identical and answers the whole read workload identically.
#[test]
fn save_then_load_answers_identically() {
    let (g, db0) = tpcw_db(Strategy::Mcmr, 30);
    let mut db = db0;
    let path = std::env::temp_dir().join(format!("colorist-it-{}.pages", std::process::id()));
    db.save_paged(&path, PoolConfig::default()).expect("saves");
    let loaded =
        Database::load_paged(&path, db.schema.clone(), PoolConfig::default()).expect("loads");
    loaded.same_state(&db, true).expect("loaded state matches");

    let w = tpcw::workload(&g);
    for q in &w.reads {
        let plan = optimize(&db, &g, q).expect("plans");
        let a = execute(&db, &g, &plan).expect("original");
        let b = execute(&loaded, &g, &plan).expect("loaded");
        assert_eq!(a.elements, b.elements, "{}", q.name);
    }
    drop(loaded);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// the page-granular flush: crash points, torn pages, file bound, forks

/// A shared page backend.
type Backend = Arc<dyn StorageBackend>;

/// The mutating calls of [`StorageBackend`], as [`FaultyBackend`] logs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Call {
    Reserve,
    WritePages,
    WriteMeta,
    Sync,
}

/// A backend wrapper that fails its `fail_at`-th mutating call since the
/// last [`FaultyBackend::arm`] (0 never fails) and logs every mutating
/// call and every page id written. A failed `write_pages` or `write_meta`
/// is a short write: the first half of the bytes reaches the wrapped
/// backend before the error, as a torn write would leave it; a failed
/// `reserve` or `sync` does nothing.
#[derive(Debug)]
struct FaultyBackend {
    inner: Backend,
    fail_at: AtomicU64,
    calls: Mutex<Vec<Call>>,
    written: Mutex<Vec<PageId>>,
}

impl FaultyBackend {
    fn new(inner: Backend) -> Arc<FaultyBackend> {
        Arc::new(FaultyBackend {
            inner,
            fail_at: AtomicU64::new(0),
            calls: Mutex::new(Vec::new()),
            written: Mutex::new(Vec::new()),
        })
    }

    /// Fail the `k`-th mutating call from now on (0: none), and clear the
    /// logs.
    fn arm(&self, k: u64) {
        self.calls.lock().unwrap().clear();
        self.written.lock().unwrap().clear();
        self.fail_at.store(k, Ordering::SeqCst);
    }

    fn calls(&self) -> Vec<Call> {
        self.calls.lock().unwrap().clone()
    }

    fn written(&self) -> Vec<PageId> {
        self.written.lock().unwrap().clone()
    }

    /// Log `call`; the error it must fail with, if it is the armed one.
    fn fault(&self, call: Call) -> Option<io::Error> {
        let mut calls = self.calls.lock().unwrap();
        calls.push(call);
        let k = calls.len() as u64;
        (k == self.fail_at.load(Ordering::SeqCst))
            .then(|| io::Error::other(format!("injected fault at mutating call {k} ({call:?})")))
    }
}

impl StorageBackend for FaultyBackend {
    fn reserve(&self, pages: u64) -> io::Result<PageId> {
        match self.fault(Call::Reserve) {
            Some(e) => Err(e),
            None => self.inner.reserve(pages),
        }
    }

    fn write_pages(&self, first: PageId, data: &[u8]) -> io::Result<()> {
        let pages = data.len().div_ceil(PAGE_SIZE) as u64;
        self.written.lock().unwrap().extend(first..first + pages);
        match self.fault(Call::WritePages) {
            Some(e) => {
                self.inner.write_pages(first, &data[..data.len() / 2])?;
                Err(e)
            }
            None => self.inner.write_pages(first, data),
        }
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_page(page, buf)
    }

    fn write_meta(&self, data: &[u8]) -> io::Result<()> {
        match self.fault(Call::WriteMeta) {
            Some(e) => {
                self.inner.write_meta(&data[..data.len() / 2])?;
                Err(e)
            }
            None => self.inner.write_meta(data),
        }
    }

    fn read_meta(&self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_meta(buf)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn sync(&self) -> io::Result<()> {
        match self.fault(Call::Sync) {
            Some(e) => Err(e),
            None => self.inner.sync(),
        }
    }

    fn pages(&self) -> &PageTable {
        self.inner.pages()
    }
}

/// A page file path unique to this process and `tag`.
fn page_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("colorist-it-{tag}-{}.pages", std::process::id()))
}

/// One commit group of `writes` one-cell writes to customers spread evenly
/// over the extent from customer `k`, each given a discount that depends
/// on `k`.
fn group(g: &ErGraph, db: &Database, k: usize, writes: usize) -> CommitScheduler {
    let customer = g.node_by_name("customer").expect("tpcw has customers");
    let discount = db.attr_index(g, customer, "discount").expect("customers have discounts");
    let customers = db.extent(customer);
    let mut sched = CommitScheduler::new();
    for i in 0..writes {
        let target: ElementId = customers[(k + i * customers.len() / writes) % customers.len()];
        let mut batch = UpdateBatch::new();
        batch.write_attr(target, discount, Value::Float(k as f64 + i as f64 / 10.0));
        sched.stage(batch);
    }
    sched
}

/// Commit group `k` of four writes.
fn commit(g: &ErGraph, db: &mut Database, k: usize) -> Result<(), BatchError> {
    let verdicts = group(g, db, k, 4).commit(db, g)?;
    assert!(verdicts.iter().all(Result::is_ok), "group {k}: every write is valid");
    Ok(())
}

/// Every page id the database's directory version names.
fn named_pages(db: &Database) -> BTreeSet<PageId> {
    db.page_map().into_iter().flat_map(|(_, pages)| pages).collect()
}

/// Sweep an injected I/O error over every mutating call of one four-write
/// group commit. Each `k` starts from the same state — attached to a
/// fresh backend from `fresh`, then a one-write group committed, which
/// frees fewer pages than the swept group writes, so the sweep both takes
/// free pages and reserves fresh ones — and after the failure the commit must have
/// returned `BatchError::Storage`, the database must be unchanged (state,
/// epoch and directory), every free page must still be free and every
/// page of the file free or named, and `reopen` must load exactly the
/// previous epoch. Then the same group, retried without a fault, commits
/// and reloads.
fn sweep_crash_points(
    fresh: &dyn Fn() -> Backend,
    reopen: &dyn Fn(&Backend, &Database) -> io::Result<Database>,
) {
    let (g, heap) = tpcw_db(Strategy::Dr, 200);
    let setup = || {
        let faulty = FaultyBackend::new(fresh());
        let mut db = heap.clone();
        db.attach_paged(faulty.clone(), PoolConfig::default()).expect("attach");
        group(&g, &db, 0, 1).commit(&mut db, &g).expect("the first group commits");
        (faulty, db)
    };
    let (faulty, mut db) = setup();
    assert!(!faulty.pages().free_pages().is_empty(), "the first group freed the pages it replaced");
    faulty.arm(0);
    commit(&g, &mut db, 1).expect("a fault-free run commits");
    let calls = faulty.calls();
    let kinds: BTreeSet<Call> = calls.iter().copied().collect();
    assert_eq!(kinds.len(), 4, "the swept group makes every kind of call: {calls:?}");
    drop(db);

    for k in 1..=calls.len() as u64 {
        let (faulty, mut db) = setup();
        let before = db.clone();
        let free_before = faulty.pages().free_pages();
        faulty.arm(k);
        let ctx = format!("fault at call {k} ({:?})", calls[k as usize - 1]);
        match commit(&g, &mut db, 1) {
            Err(BatchError::Storage(_)) => {}
            other => panic!("{ctx}: the commit must fail with a storage error, got {other:?}"),
        }
        assert_eq!(db.same_state(&before, true), Ok(()), "{ctx}: database changed");
        assert_eq!(db.page_map(), before.page_map(), "{ctx}: directory changed");
        drop(before);
        let free: BTreeSet<PageId> = faulty.pages().free_pages().into_iter().collect();
        assert!(free_before.iter().all(|p| free.contains(p)), "{ctx}: a free page was lost");
        let named = named_pages(&db);
        let all: BTreeSet<PageId> = (1..faulty.page_count()).collect();
        assert_eq!(&free | &named, all, "{ctx}: every page is free or named");
        assert!(free.is_disjoint(&named), "{ctx}: a named page is free");
        let loaded =
            reopen(&faulty.inner, &db).unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
        assert_eq!(loaded.epoch(), db.epoch(), "{ctx}: the file holds another epoch");
        assert_eq!(loaded.same_state(&db, true), Ok(()), "{ctx}: the file holds another state");
        drop(loaded);

        faulty.arm(0);
        commit(&g, &mut db, 1).unwrap_or_else(|e| panic!("{ctx}: the retry failed: {e}"));
        let loaded =
            reopen(&faulty.inner, &db).unwrap_or_else(|e| panic!("{ctx}: reopen after retry: {e}"));
        assert_eq!(loaded.same_state(&db, true), Ok(()), "{ctx}: retried state");
    }
}

#[test]
fn a_fault_at_any_call_of_a_group_commit_leaves_the_previous_epoch() {
    // in memory: the reload goes through the same backend
    sweep_crash_points(&|| Arc::new(MemPages::new()), &|backend, db| {
        Database::load_from_backend(backend.clone(), db.schema.clone(), PoolConfig::default())
    });
    // on a file: the reload opens the file afresh and rebuilds the free
    // list by reachability
    let path = page_file("crash");
    sweep_crash_points(
        &|| Arc::new(FilePages::create_at(&path).expect("create the page file")),
        &|_, db| Database::load_paged(&path, db.schema.clone(), PoolConfig::default()),
    );
    let _ = std::fs::remove_file(&path);
}

/// XOR one byte of page `page` of the file at `path` (a second call
/// undoes the first).
fn flip(path: &Path, page: PageId) {
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path).expect("open");
    let at = page * PAGE_SIZE as u64 + 100;
    let mut byte = [0u8];
    f.seek(SeekFrom::Start(at)).expect("seek");
    io::Read::read_exact(&mut f, &mut byte).expect("read");
    f.seek(SeekFrom::Start(at)).expect("seek");
    f.write_all(&[byte[0] ^ 0x5a]).expect("write");
}

fn load_error(path: &Path, db: &Database) -> Option<PageFileError> {
    let err = Database::load_paged(path, db.schema.clone(), PoolConfig::default()).err()?;
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    Some(err.get_ref()?.downcast_ref::<PageFileError>().expect("a typed error").clone())
}

#[test]
fn torn_pages_are_typed_errors_naming_the_page_and_free_pages_do_not_matter() {
    let (g, mut db) = tpcw_db(Strategy::Dr, 30);
    let path = page_file("torn");
    let backend = Arc::new(FilePages::create_at(&path).expect("create the page file"));
    db.attach_paged(backend.clone(), PoolConfig::default()).expect("attach");
    commit(&g, &mut db, 0).expect("a group commits");
    let map = db.page_map();
    let pages_of = |name: &str| &map.iter().find(|(seg, _)| seg == name).expect("a segment").1;
    let elements = pages_of("Elements");
    let last = elements.len() as u64 - 1;
    let free = *backend.pages().free_pages().first().expect("the group freed pages");

    let checksum = |segment: &str, page| PageFileError::Checksum { segment: segment.into(), page };
    for (page, want) in [
        (elements[last as usize], Some(checksum("Elements", last))),
        (pages_of("directory")[0], Some(checksum("directory", 0))),
        (0, Some(checksum("meta", 0))),
        (free, None),
    ] {
        flip(&path, page);
        assert_eq!(load_error(&path, &db), want, "page {page}");
        flip(&path, page);
    }
    let loaded = Database::load_paged(&path, db.schema.clone(), PoolConfig::default());
    assert_eq!(loaded.expect("restored file loads").same_state(&db, true), Ok(()));
    drop((db, backend));

    // a version-1 file is refused by version, before anything else
    let v1 = FilePages::create_at(&path).expect("create");
    let mut meta = b"CLRPAGE1".to_vec();
    meta.extend_from_slice(&1u32.to_le_bytes());
    v1.write_meta(&meta).expect("write the meta page");
    drop(v1);
    let (_, db) = tpcw_db(Strategy::Dr, 1);
    assert_eq!(load_error(&path, &db), Some(PageFileError::UnsupportedVersion(1)));
    let _ = std::fs::remove_file(&path);
}

/// A long run of one-cell groups: with a snapshot pinned for 50 groups at
/// a time, no commit writes a page the database or the snapshot names,
/// the page file stays within 4× a fresh save of the same database, and
/// every 100 groups the file reopens to the same state.
#[test]
fn a_thousand_group_commits_keep_the_page_file_bounded() {
    let (g, mut db) = tpcw_db(Strategy::Dr, 30);
    let path = page_file("bound");
    let backend =
        FaultyBackend::new(Arc::new(FilePages::create_at(&path).expect("create the page file")));
    db.attach_paged(backend.clone(), PoolConfig::default()).expect("attach");
    let fresh = |db: &Database| {
        let mut copy = db.clone();
        let pages = Arc::new(MemPages::new());
        copy.attach_paged(pages.clone(), PoolConfig::default()).expect("fresh save");
        pages.page_count()
    };
    let mut pinned = None;
    let mut peak = 0;
    for k in 0..1000 {
        if k % 50 == 0 {
            pinned = Some(db.snapshot());
        }
        let mut live = named_pages(&db);
        live.extend(pinned.iter().flat_map(|snap: &Snapshot| named_pages(snap)));
        backend.arm(0);
        commit(&g, &mut db, k).expect("the group commits");
        let written = backend.written();
        assert!(written.iter().all(|p| !live.contains(p)), "group {k} overwrote a live page");
        peak = peak.max(backend.page_count());
        if k % 100 == 99 {
            let loaded = Database::load_paged(&path, db.schema.clone(), PoolConfig::default())
                .expect("reopen");
            assert_eq!(loaded.same_state(&db, true), Ok(()), "reopen after group {k}");
        }
    }
    drop(pinned);
    let bound = 4 * fresh(&db);
    assert!(peak <= bound, "the page file peaked at {peak} pages; 4x a fresh save is {bound}");

    // reopened, the file's unnamed pages are free again: commits on the
    // loaded database reuse them instead of growing the file
    let schema = db.schema.clone();
    drop((db, backend));
    let mut db = Database::load_paged(&path, schema, PoolConfig::default()).expect("reopen");
    let len = std::fs::metadata(&path).expect("the page file").len();
    for k in 1000..1010 {
        commit(&g, &mut db, k).expect("the group commits on the reopened file");
    }
    assert_eq!(std::fs::metadata(&path).expect("the page file").len(), len, "the file grew");
    let loaded = Database::load_paged(&path, db.schema.clone(), PoolConfig::default());
    assert_eq!(loaded.expect("reopen").same_state(&db, true), Ok(()));
    drop(db);
    let _ = std::fs::remove_file(&path);
}

/// Two clones of one paged database commit alternately to the shared
/// backend: no flush writes a page the other clone's live directory
/// names (nor one its own replaced version names), and after each flush
/// the backend reloads to the clone that flushed.
#[test]
fn forked_clones_never_overwrite_each_others_pages() {
    let (g, mut a) = tpcw_db(Strategy::Dr, 30);
    let backend = FaultyBackend::new(Arc::new(MemPages::new()));
    a.attach_paged(backend.clone(), PoolConfig::default()).expect("attach");
    let mut b = a.clone();
    for k in 0..12 {
        let (me, other) = if k % 2 == 0 { (&mut a, &b) } else { (&mut b, &a) };
        let (theirs, mine) = (named_pages(other), named_pages(me));
        backend.arm(0);
        commit(&g, me, k).expect("the group commits");
        let written = backend.written();
        assert!(!written.is_empty());
        assert!(
            written.iter().all(|p| !theirs.contains(p)),
            "round {k}: a flush overwrote a page the other clone names"
        );
        assert!(written.iter().all(|p| !mine.contains(p)), "round {k}: not copy-on-write");
        let loaded =
            Database::load_from_backend(backend.clone(), me.schema.clone(), PoolConfig::default())
                .expect("reload");
        assert_eq!(loaded.same_state(me, true), Ok(()), "round {k}: reload");
    }
    assert!(a.same_state(&b, false).is_err(), "the clones diverged");
}

// ---------------------------------------------------------------------------
// the shared page cache: concurrency, stale pages, corrupt pages

/// A query's answer and every counter but the wall clock.
fn outcome(db: &Database, g: &ErGraph, q: &colorist::query::Pattern) -> (Vec<ElementId>, Metrics) {
    let plan = optimize(db, g, q).expect("plans");
    let r = execute(db, g, &plan).unwrap_or_else(|e| panic!("{}: {e}", q.name));
    (r.elements, Metrics { elapsed: Default::default(), ..r.metrics })
}

/// Four threads run the thirteen reads, each from its own starting query,
/// against one file-backed database whose 8-frame page cache they share:
/// every answer and every counter — page counters included — equals the
/// serial run's, and the cache reads fewer pages than the queries miss.
#[test]
fn four_threads_share_one_page_cache_and_count_like_a_serial_run() {
    let (g, mut db) = tpcw_db(Strategy::Dr, 200);
    let backend = Arc::new(FilePages::create_temp().expect("create the page file"));
    db.attach_paged(backend, PoolConfig { pool_bytes: 64 * 1024 }).expect("attach");
    let reads = tpcw::workload(&g).reads;
    let serial: Vec<_> = reads.iter().map(|q| outcome(&db, &g, q)).collect();
    let misses: u64 = serial.iter().map(|(_, m)| m.page_reads).sum();
    let pages = named_pages(&db).len();
    assert!(pages > 4 * 8, "{pages} pages must outgrow the 8-frame cache");

    std::thread::scope(|scope| {
        for t in 0..4 {
            let (db, g, reads, serial) = (&db, &g, &reads, &serial);
            scope.spawn(move || {
                for round in 0..3 {
                    for i in (0..reads.len()).map(|i| (i + 3 * t + round) % reads.len()) {
                        let got = outcome(db, g, &reads[i]);
                        assert_eq!(got, serial[i], "thread {t}: {} differs", reads[i].name);
                    }
                }
            });
        }
    });
    let physical = db.physical_page_reads();
    assert!(physical > 0, "the queries must reach the file");
    assert!(physical < 13 * misses, "13 passes missed {misses} pages each; {physical} were read");
}

/// Two hundred rounds of two four-write group commits, then the thirteen
/// reads from a rotating first query, at an 8-frame budget. The second
/// commit of a round takes the pages the first one freed, which the
/// previous round's last reads may have left in the cache holding the
/// bytes of the version that freed them. Every read must still be served,
/// with the answer and counters of the same reads on a heap database given
/// the same writes — a cached page that no longer matches its directory
/// checksum fails the read.
#[test]
fn two_hundred_rounds_of_commits_reusing_pages_never_serve_a_stale_page() {
    let (g, mut heap) = tpcw_db(Strategy::Dr, 30);
    let mut db = heap.clone();
    let backend = FaultyBackend::new(Arc::new(FilePages::create_temp().expect("page file")));
    db.attach_paged(backend.clone(), PoolConfig { pool_bytes: 8 * PAGE_SIZE as u64 })
        .expect("attach");
    let reads = tpcw::workload(&g).reads;
    let mut ever_named = named_pages(&db);
    let mut reused = 0;
    for round in 0..200 {
        for k in [2 * round, 2 * round + 1] {
            backend.arm(0);
            commit(&g, &mut db, k).expect("the group commits");
            let verdicts = group(&g, &heap, k, 4).commit(&mut heap, &g).expect("heap commits");
            assert!(verdicts.iter().all(Result::is_ok));
            reused += backend.written().iter().any(|p| ever_named.contains(p)) as u32;
            ever_named.extend(named_pages(&db));
        }
        for q in (0..reads.len()).map(|i| &reads[(round + i) % reads.len()]) {
            let (want, want_m) = outcome(&heap, &g, q);
            let (got, got_m) = outcome(&db, &g, q);
            assert_eq!(got, want, "round {round}: {} answers differ", q.name);
            assert_eq!(non_storage(&got_m), non_storage(&want_m), "round {round}: {}", q.name);
        }
    }
    assert!(reused >= 390, "only {reused} of 400 commits reused a freed page");
}

/// One flipped byte in a page no query has read yet: every query that
/// reads the page fails with an error naming its segment and page index,
/// and so does a served read — whose worker then goes on serving. Once
/// the byte is restored, the same reads succeed with the heap's answers.
#[test]
fn a_corrupt_page_fails_the_reads_of_it_and_the_server_keeps_serving() {
    let (g, heap) = tpcw_db(Strategy::Dr, 30);
    let mut db = heap.clone();
    let path = page_file("corrupt-read");
    let backend = Arc::new(FilePages::create_at(&path).expect("create the page file"));
    db.attach_paged(backend, PoolConfig { pool_bytes: 64 * 1024 }).expect("attach");
    let server = Server::start(db.clone(), &g, &ServerConfig::default().with_workers(1));
    let client = server.client();
    let map = db.page_map();
    let tree = &map.iter().find(|(seg, _)| seg == "Tree(0)").expect("colour 0's tree").1;
    flip(&path, tree[0]);

    let reads = tpcw::workload(&g).reads;
    let want = "paged read failed: checksum mismatch in segment Tree(0), page 0";
    let mut failing = Vec::new();
    for q in &reads {
        let plan = optimize(&db, &g, q).expect("plans");
        match execute(&db, &g, &plan) {
            Ok(r) => assert_eq!(r.elements, outcome(&heap, &g, q).0, "{}", q.name),
            Err(e) => {
                assert_eq!(e.to_string(), want, "{}", q.name);
                failing.push(q);
            }
        }
    }
    assert!(!failing.is_empty(), "some read must touch the first page of colour 0's tree");
    for q in &failing {
        match client.read(q).wait() {
            Err(ServerError::Query(e @ QueryError::PageRead(_))) => {
                assert_eq!(e.to_string(), want, "served {}", q.name)
            }
            other => panic!("served {}: expected a page-read error, got {other:?}", q.name),
        }
    }

    flip(&path, tree[0]);
    for q in &failing {
        let want = outcome(&heap, &g, q).0;
        assert_eq!(outcome(&db, &g, q).0, want, "{} after the repair", q.name);
        let served = client.read(q).wait().expect("the worker still serves");
        assert_eq!(served.elements, want, "served {} after the repair", q.name);
    }
    drop(server.shutdown());
    drop(db);
    let _ = std::fs::remove_file(&path);
}

//! The incremental flush against the full encode it stands in for
//! (DESIGN.md §14.3). A paged commit encodes, hashes and compares only the
//! pages whose rows changed since the directory's image; everything here
//! checks that the pages it leaves are the pages a full encode of the same
//! state would write:
//!
//! * a property test applies random commits on DR, DEEP and UNDR TPC-W —
//!   attribute writes that move a cell between `Int`, `Float` (signed
//!   zeros included) and `Text`, a new symbol, a number into a text column,
//!   inserts that store copies and push links, deletes that kill links, and
//!   in every color an occurrence removal that changes that tree alone —
//!   and after each one compares every segment page by page with a clone
//!   attached to a fresh `MemPages`, then reloads the backend. Every
//!   segment is rewritten at least once in each run, and a rejected batch
//!   leaves nothing to flush;
//! * two forked clones flush in turn against one backend, each against
//!   the image of the version it holds;
//! * a flush that fails at each backend call leaves the image where it
//!   was, so the retry lays down the right pages.

use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, Rng, ScaleProfile};
use colorist::er::{catalog, ErGraph, NodeId};
use colorist::mct::ColorId;
use colorist::query::execute_update;
use colorist::store::page::PageTable;
use colorist::store::{
    BatchError, BatchOp, Database, ElementId, MemPages, OccId, PageId, PoolConfig, StorageBackend,
    UpdateBatch, Value, PAGE_SIZE,
};
use colorist::workload::tpcw;

/// Large enough that the element and posting segments span several pages.
const CUSTOMERS: u32 = 60;

fn tpcw_db(strategy: Strategy) -> (ErGraph, Database) {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let inst = generate(&g, &ScaleProfile::tpcw(&g, CUSTOMERS), 42);
    let schema = design(&g, strategy).expect("strategy designs tpcw");
    let db = materialize(&g, &schema, &inst);
    (g, db)
}

/// Per segment of `db`'s directory, the bytes of each of its pages, read
/// back from `backend`.
fn segment_pages(db: &Database, backend: &dyn StorageBackend) -> Vec<(String, Vec<Vec<u8>>)> {
    let read = |id: PageId| {
        let mut page = vec![0; PAGE_SIZE];
        backend.read_page(id, &mut page).expect("a named page reads");
        page
    };
    (db.page_map().into_iter())
        .filter(|(segment, _)| segment != "directory")
        .map(|(segment, ids)| (segment, ids.into_iter().map(read).collect()))
        .collect()
}

/// `db`'s pages on `backend` are the pages a full encode of its state
/// writes, and the backend loads back as `db`.
fn assert_full_encode(db: &Database, backend: &Arc<dyn StorageBackend>, ctx: &str) {
    let mut full = db.clone();
    full.detach_storage();
    let fresh: Arc<dyn StorageBackend> = Arc::new(MemPages::new());
    full.attach_paged(fresh.clone(), PoolConfig::default()).expect("a full encode flushes");
    let (laid, want) = (segment_pages(db, &**backend), segment_pages(&full, &*fresh));
    let names = |s: &[(String, Vec<Vec<u8>>)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&laid), names(&want), "{ctx}: segments");
    for ((segment, laid), (_, want)) in laid.iter().zip(&want) {
        assert_eq!(laid.len(), want.len(), "{ctx}: {segment} page count");
        if let Some(i) = (0..laid.len()).find(|&i| laid[i] != want[i]) {
            panic!("{ctx}: {segment} page {i} differs from a full encode");
        }
    }
    let loaded =
        Database::load_from_backend(backend.clone(), db.schema.clone(), PoolConfig::default())
            .expect("the backend loads");
    loaded.same_state(db, true).unwrap_or_else(|e| panic!("{ctx}: reload: {e}"));
}

/// A live canonical element of a node that stores attributes, and one of
/// its attribute positions.
fn pick_cell(g: &ErGraph, db: &Database, rng: &mut Rng) -> (ElementId, usize) {
    let nodes: Vec<NodeId> = (g.node_ids())
        .filter(|&n| db.extent(n).first().is_some_and(|&e| !db.element(e).attrs.is_empty()))
        .collect();
    let extent = db.extent(nodes[rng.below(nodes.len() as u64) as usize]);
    let e = extent[rng.below(extent.len() as u64) as usize];
    (e, rng.below(db.element(e).attrs.len() as u64) as usize)
}

/// A value whose cell may be wider or narrower than the one it replaces: a
/// number is a tag and 8 bytes, text a tag and a symbol.
fn value(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Int(rng.below(1000) as i64),
        1 => Value::Float(rng.below(1000) as f64 + 0.5),
        2 => Value::Float(-0.0),
        3 => Value::Float(0.0),
        4 => Value::Text("order_status_1".into()),
        _ => Value::Text(format!("fresh {}", rng.below(1000))),
    }
}

/// One to four writes to distinct cells.
fn write_batch(g: &ErGraph, db: &Database, rng: &mut Rng) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    let mut cells = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let cell = pick_cell(g, db, rng);
        if !cells.contains(&cell) {
            cells.push(cell);
            batch.write_attr(cell.0, cell.1, value(rng));
        }
    }
    batch
}

/// Apply `batch` and flush; a batch the store refuses before writing
/// anything is skipped.
fn commit(db: &mut Database, g: &ErGraph, batch: &UpdateBatch) -> bool {
    match batch.apply(db, g) {
        Ok(_) => true,
        Err(BatchError::Storage(e)) => panic!("the flush failed: {e}"),
        Err(_) => false,
    }
}

/// The segments whose pages differ between two page maps of one database.
fn moved(before: &[(String, Vec<PageId>)], after: &[(String, Vec<PageId>)]) -> Vec<String> {
    (after.iter()).filter(|seg| !before.contains(seg)).map(|(name, _)| name.clone()).collect()
}

#[test]
fn random_commits_lay_down_the_pages_of_a_full_encode() {
    let w = tpcw::workload(&ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds"));
    let update = |name: &str| w.updates.iter().find(|u| u.name == name).expect("tpcw update");
    for (seed, strategy) in [Strategy::Dr, Strategy::Deep, Strategy::Undr].into_iter().enumerate() {
        let (g, mut db) = tpcw_db(strategy);
        let backend: Arc<dyn StorageBackend> = Arc::new(MemPages::new());
        db.attach_paged(backend.clone(), PoolConfig::default()).expect("attach");
        let mut rewritten = BTreeSet::new();
        // a zero that flips its sign moves no posting, and its cell equals
        // the old one under `==`, but not bit for bit
        let customer = g.node_by_name("customer").expect("customer");
        let discount = db.attr_index(&g, customer, "discount").expect("discount");
        let uname = db.attr_index(&g, customer, "uname").expect("uname");
        let mut batches = Vec::new();
        for zero in [0.0, -0.0] {
            let mut batch = UpdateBatch::new();
            batch.write_attr(db.extent(customer)[3], discount, Value::Float(zero));
            batches.push((format!("discount {zero:?}"), batch));
        }
        let mut batch = UpdateBatch::new();
        batch.write_attr(
            db.extent(customer)[4],
            uname,
            Value::Text("a symbol never stored".into()),
        );
        batches.push(("a new symbol".into(), batch));
        for (what, batch) in batches {
            let before = db.page_map();
            assert!(commit(&mut db, &g, &batch), "{what} commits");
            rewritten.extend(moved(&before, &db.page_map()));
            assert_full_encode(&db, &backend, &format!("{strategy}, {what}"));
        }
        // the last occurrence in document order is a leaf: removing it
        // changes its tree and nothing else
        for c in 0..db.color_count() as u16 {
            let color = ColorId(c);
            let last = OccId(db.color(color).occs().len() as u32 - 1);
            let mut batch = UpdateBatch::new();
            batch.push(BatchOp::RemoveOccurrences { color, occs: vec![last] });
            let before = db.page_map();
            assert!(commit(&mut db, &g, &batch), "removing a leaf occurrence commits");
            let tree_only = moved(&before, &db.page_map());
            assert_eq!(tree_only, [format!("Tree({c})"), "directory".into()], "{strategy}");
            rewritten.extend(tree_only);
            assert_full_encode(&db, &backend, &format!("{strategy}, a leaf of color {c} removed"));
        }
        let mut rng = Rng::new(seed as u64 + 1);
        for round in 0..24 {
            let ctx = format!("{strategy}, commit {round}");
            let before = db.page_map();
            let committed = match rng.below(8) {
                0 => {
                    execute_update(&mut db, &g, update("U1")).expect("U1 inserts");
                    true
                }
                1 => {
                    execute_update(&mut db, &g, update("U3")).expect("U3 writes");
                    true
                }
                2 => {
                    let mut batch = UpdateBatch::new();
                    batch.delete(pick_cell(&g, &db, &mut rng).0);
                    commit(&mut db, &g, &batch)
                }
                _ => {
                    let batch = write_batch(&g, &db, &mut rng);
                    commit(&mut db, &g, &batch)
                }
            };
            rewritten.extend(moved(&before, &db.page_map()));
            if committed {
                assert_full_encode(&db, &backend, &ctx);
            }
        }
        // a rejected batch was refused before it wrote anything
        let mut batch = UpdateBatch::new();
        batch.write_attr(db.extent(customer)[3], discount, Value::Float(1.5));
        batch.write_attr(db.extent(customer)[3], discount, Value::Float(2.5));
        assert!(!commit(&mut db, &g, &batch), "a cell written twice is a conflict");
        let flush = db.flush_storage().expect("a flush with nothing to write");
        assert_eq!(flush.pages_written, 0, "{strategy}: a rejected batch leaves nothing to flush");
        let stored: BTreeSet<String> = db.page_map().into_iter().map(|(name, _)| name).collect();
        assert_eq!(rewritten, stored, "{strategy}: every segment is rewritten in the run");
    }
}

#[test]
fn forked_clones_flush_in_turn_against_their_own_images() {
    let (g, mut db) = tpcw_db(Strategy::Dr);
    let backend: Arc<dyn StorageBackend> = Arc::new(MemPages::new());
    db.attach_paged(backend.clone(), PoolConfig::default()).expect("attach");
    let mut forks = [db.clone(), db];
    let mut rng = Rng::new(7);
    for round in 0..12 {
        let fork = &mut forks[round % 2];
        let batch = write_batch(&g, fork, &mut rng);
        assert!(commit(fork, &g, &batch), "writes to live cells commit");
        assert_full_encode(fork, &backend, &format!("fork {}, commit {round}", round % 2));
    }
}

/// A [`MemPages`] that fails its `fail_at`-th mutating call since the last
/// [`Faulty::arm`] (0 never fails).
#[derive(Debug)]
struct Faulty {
    inner: MemPages,
    fail_at: AtomicU64,
    calls: AtomicU64,
}

impl Faulty {
    fn arm(&self, k: u64) {
        self.calls.store(0, Ordering::SeqCst);
        self.fail_at.store(k, Ordering::SeqCst);
    }

    fn fault(&self) -> io::Result<()> {
        let k = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        match k == self.fail_at.load(Ordering::SeqCst) {
            true => Err(io::Error::other(format!("injected fault at mutating call {k}"))),
            false => Ok(()),
        }
    }
}

impl StorageBackend for Faulty {
    fn reserve(&self, pages: u64) -> io::Result<PageId> {
        self.fault()?;
        self.inner.reserve(pages)
    }

    fn write_pages(&self, first: PageId, data: &[u8]) -> io::Result<()> {
        self.fault()?;
        self.inner.write_pages(first, data)
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_page(page, buf)
    }

    fn write_meta(&self, data: &[u8]) -> io::Result<()> {
        self.fault()?;
        self.inner.write_meta(data)
    }

    fn read_meta(&self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_meta(buf)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn sync(&self) -> io::Result<()> {
        self.fault()?;
        self.inner.sync()
    }

    fn pages(&self) -> &PageTable {
        self.inner.pages()
    }
}

#[test]
fn a_failed_flush_keeps_its_image_and_the_retry_lays_down_the_right_pages() {
    let (g, mut db) = tpcw_db(Strategy::Deep);
    let faulty = Arc::new(Faulty {
        inner: MemPages::new(),
        fail_at: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    });
    let backend: Arc<dyn StorageBackend> = faulty.clone();
    db.attach_paged(backend.clone(), PoolConfig::default()).expect("attach");
    // a text cell becomes a number: its record narrows, so the element
    // segment is laid again from that record on
    let customer = g.node_by_name("customer").expect("customer");
    let uname = db.attr_index(&g, customer, "uname").expect("uname");
    let mut batch = UpdateBatch::new();
    batch.write_attr(db.extent(customer)[5], uname, Value::Int(5));
    batch.write_attr(db.extent(customer)[40], uname, Value::Text("order_status_1".into()));
    let mut failures = 0;
    for k in 1.. {
        let mut fork = db.clone();
        faulty.arm(k);
        match batch.apply(&mut fork, &g) {
            Err(BatchError::Storage(_)) => {
                failures += 1;
                fork.same_state(&db, true).expect("a failed flush leaves the database as it was");
                faulty.arm(0);
                assert!(commit(&mut fork, &g, &batch), "the retry commits");
                assert_full_encode(&fork, &backend, &format!("retry after a fault at call {k}"));
            }
            Ok(_) => break,
            Err(e) => panic!("the batch is valid: {e}"),
        }
    }
    assert!(failures >= 4, "reserve, data writes, meta and sync each failed once");
}

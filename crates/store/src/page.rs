//! Fixed-size page I/O: the [`StorageBackend`] trait, its two
//! implementations, the per-backend [`PageTable`] of pinned and free
//! pages, and the page checksum.
//!
//! The paper's experiments ran on TIMBER over a disk-resident Shore
//! substrate with 8 KB pages and a fixed buffer pool; DESIGN.md §14 maps
//! that layer onto this reproduction. A backend is a flat array of
//! [`PAGE_SIZE`]-byte pages plus one rewritable **meta page** (page 0,
//! LMDB-style). A commit writes each page whose bytes changed to a page no
//! live directory version names — taken from the backend's free list, or
//! reserved past the end — then repoints the meta page at the new
//! directory. A page some live version names (a snapshot's, a clone's, or
//! the version the meta page points to) is never overwritten, which is
//! what makes [`crate::database::Snapshot`]s safe under concurrent flushes:
//! an old directory keeps reading the exact pages it was flushed to.
//!
//! Two implementations:
//!
//! * [`MemPages`] — pages in a `Vec<u8>` behind a mutex. The default for
//!   tests and differentials: identical accounting to the file backend,
//!   no filesystem dependency.
//! * [`FilePages`] — pages in a real file (`COLORIST_PAGE_DIR` or the
//!   system temp dir), deleted when the last handle drops. What the
//!   `--backend paged` benchmark knob uses.

use std::collections::BTreeSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Page size in bytes — 8 KB, matching the TIMBER configuration the paper
/// reports (§7: "a 256 KB \[sic\] buffer pool with 8 KB pages").
pub const PAGE_SIZE: usize = 8192;

/// Identifier of one page: its index in the backend's page array. Page 0
/// is the meta page; data pages start at 1.
pub type PageId = u64;

/// Number of pages needed to hold `bytes` bytes.
pub fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

/// The 64-bit checksum every page of the format carries. Four
/// independent lanes each fold in one little-endian 8-byte word per step
/// (32 bytes a round, no chain between lanes), so a page hashes at memory
/// speed rather than a multiply per byte. Each step is a bijection of its
/// lane for a fixed word and of the word for a fixed lane, and the final
/// fold is a bijection of each lane for the others fixed, so any change
/// confined to one 8-byte word — a flipped byte included — always changes
/// the checksum.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    const K: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0x85EB_CA77_C2B2_AE63,
    ];
    fn step(lane: u64, word: u64, k: u64) -> u64 {
        (lane ^ word).wrapping_mul(k).rotate_left(31)
    }
    let mut lanes = K;
    let mut rounds = bytes.chunks_exact(32);
    for round in &mut rounds {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(round[8 * l..8 * l + 8].try_into().expect("8 bytes"));
            *lane = step(*lane, word, K[l]);
        }
    }
    for (l, tail) in rounds.remainder().chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        lanes[l] = step(lanes[l], u64::from_le_bytes(word), K[l]);
    }
    let mut h = bytes.len() as u64;
    for (l, lane) in lanes.into_iter().enumerate() {
        h = step(h, lane, K[l]);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(K[0]);
    h ^ (h >> 29)
}

/// Page-granular storage: get/put over fixed 8 KB pages plus the
/// rewritable meta page, and the [`PageTable`] that says which pages a
/// commit may overwrite.
///
/// The write protocol: a commit takes the pages it will write from the
/// backend's [`PageTable`] (free pages first, then fresh ones from
/// [`reserve`](StorageBackend::reserve)), lays them down with
/// [`write_pages`](StorageBackend::write_pages), and publishes them by
/// rewriting the meta page and calling [`sync`](StorageBackend::sync).
/// Taking pages is atomic under the table's lock, so concurrent
/// committers (parallel update tasks on database clones) never write each
/// other's pages.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Atomically grow the page array by `pages` fresh pages, returning
    /// the id of the first.
    fn reserve(&self, pages: u64) -> io::Result<PageId>;

    /// Write `data` over consecutive pages starting at `first` (pages
    /// already reserved); the final page is zero-padded to [`PAGE_SIZE`].
    fn write_pages(&self, first: PageId, data: &[u8]) -> io::Result<()>;

    /// Read one page into `buf` (must be [`PAGE_SIZE`] bytes).
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()>;

    /// Rewrite the meta page (page 0) in place.
    fn write_meta(&self, data: &[u8]) -> io::Result<()>;

    /// Read the meta page into `buf` (must be [`PAGE_SIZE`] bytes).
    fn read_meta(&self, buf: &mut [u8]) -> io::Result<()>;

    /// Total pages allocated so far (meta page included).
    fn page_count(&self) -> u64;

    /// Flush buffered writes to durable storage (no-op for [`MemPages`]).
    fn sync(&self) -> io::Result<()>;

    /// The backend's page table: which pages live directory versions
    /// name, and which are free to overwrite. A wrapper backend returns
    /// the table of the backend it wraps.
    fn pages(&self) -> &PageTable;
}

/// The pages of one backend in use, and the ones free to overwrite.
///
/// A page is *pinned* once per live directory version that names it, and
/// once more while the version the meta page points to names it. A page
/// whose last pin goes joins the free list; a commit takes the pages it
/// writes from there before the file grows. Pages a commit has taken are
/// neither pinned nor free until the commit pins them into its version or
/// gives them back, so no two commits ever hold the same page.
#[derive(Debug, Default)]
pub struct PageTable {
    state: Mutex<TableState>,
}

#[derive(Debug, Default)]
struct TableState {
    /// Pins per page id.
    pins: Vec<u32>,
    /// Pages with no pin that no commit holds, taken lowest first.
    free: BTreeSet<PageId>,
    /// The meta page as last published, and the pages its version names
    /// (each pinned once on its behalf). Empty until the first publish or
    /// adoption.
    meta: Vec<u8>,
    durable: Vec<PageId>,
}

impl TableState {
    fn pin(&mut self, pages: impl IntoIterator<Item = PageId>) {
        for p in pages {
            let p = p as usize;
            if p >= self.pins.len() {
                self.pins.resize(p + 1, 0);
            }
            self.pins[p] += 1;
        }
    }

    /// Runs inside `Drop`, so a page that was never pinned is skipped
    /// rather than panicked on.
    fn unpin(&mut self, pages: impl IntoIterator<Item = PageId>) {
        for p in pages {
            let Some(pins @ 1..) = self.pins.get_mut(p as usize) else { continue };
            *pins -= 1;
            if *pins == 0 {
                self.free.insert(p);
            }
        }
    }
}

impl PageTable {
    fn lock(&self) -> MutexGuard<'_, TableState> {
        self.state.lock().expect("page table lock poisoned by a panicking committer")
    }

    /// The pages free to overwrite, ascending.
    pub fn free_pages(&self) -> Vec<PageId> {
        self.lock().free.iter().copied().collect()
    }

    /// Take `n` pages for a commit to write, ascending: free pages first
    /// (lowest id first), then fresh ones reserved past the end. They
    /// belong to the caller until it pins them ([`PageTable::pin`]) or
    /// gives them back ([`PageTable::give_back`]).
    pub(crate) fn take(&self, backend: &dyn StorageBackend, n: usize) -> io::Result<Vec<PageId>> {
        let mut st = self.lock();
        let fresh = n.saturating_sub(st.free.len()) as u64;
        // reserve first: if it fails, nothing has left the free list
        let first = if fresh > 0 { backend.reserve(fresh)? } else { 0 };
        let mut out: Vec<PageId> =
            (0..n - fresh as usize).map(|_| st.free.pop_first().expect("counted above")).collect();
        out.extend(first..first + fresh);
        Ok(out)
    }

    /// Return pages a failed commit took and never pinned.
    pub(crate) fn give_back(&self, pages: &[PageId]) {
        self.lock().free.extend(pages);
    }

    /// Pin each of `pages` once more, on behalf of one live version.
    pub(crate) fn pin(&self, pages: impl IntoIterator<Item = PageId>) {
        self.lock().pin(pages);
    }

    /// Drop one pin from each of `pages`; a page left without a pin joins
    /// the free list. Called from `Drop`, so a poisoned lock is skipped
    /// rather than turned into a second panic.
    pub(crate) fn unpin(&self, pages: impl IntoIterator<Item = PageId>) {
        if let Ok(mut st) = self.state.lock() {
            st.unpin(pages);
        }
    }

    /// Publish a commit: write `meta` as the meta page and sync, then make
    /// `pages` — every page the new version names, already pinned by it —
    /// the durable version in place of the previous one. If the write or
    /// the sync fails, the previous meta page is written back and synced
    /// (best effort) and the error returned, so a failed commit leaves the
    /// previous version as the one on disk. Holding the lock throughout
    /// keeps the durable version equal to the last meta page written when
    /// forked clones publish concurrently.
    pub(crate) fn publish(
        &self,
        backend: &dyn StorageBackend,
        meta: Vec<u8>,
        pages: Vec<PageId>,
    ) -> io::Result<()> {
        let mut st = self.lock();
        if let Err(e) = backend.write_meta(&meta).and_then(|()| backend.sync()) {
            let _ = backend.write_meta(&st.meta).and_then(|()| backend.sync());
            return Err(e);
        }
        st.pin(pages.iter().copied());
        let previous = std::mem::replace(&mut st.durable, pages);
        st.unpin(previous);
        st.meta = meta;
        Ok(())
    }

    /// Adopt the version `meta` names on a backend opened from a file:
    /// pin `pages` on its behalf and free every other page below
    /// `page_count` — the free list rebuilt by reachability, so pages a
    /// crashed commit wrote but never published are reused, not leaked. A
    /// table that has already published or adopted keeps what it knows:
    /// its free list also accounts for the versions still live in this
    /// process.
    pub(crate) fn adopt(&self, page_count: u64, meta: &[u8], pages: Vec<PageId>) {
        let mut st = self.lock();
        if !st.meta.is_empty() {
            return;
        }
        st.pins = vec![0; page_count as usize];
        st.pin(pages.iter().copied());
        st.free = (1..page_count).filter(|&p| st.pins[p as usize] == 0).collect();
        st.durable = pages;
        st.meta = meta.to_vec();
    }
}

/// In-memory page array: the paged backend's accounting and layout with no
/// filesystem underneath. Used by the differential tests, and available
/// as `--backend paged-mem`.
#[derive(Debug, Default)]
pub struct MemPages {
    inner: Mutex<MemInner>,
    table: PageTable,
}

#[derive(Debug, Default)]
struct MemInner {
    meta: Vec<u8>,
    /// Data pages, contiguous; index 0 here is page id 1.
    data: Vec<u8>,
}

impl MemPages {
    /// A fresh, empty page array.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemPages {
    fn reserve(&self, pages: u64) -> io::Result<PageId> {
        let mut inner = self.inner.lock().unwrap();
        let first = 1 + (inner.data.len() / PAGE_SIZE) as u64;
        let new_len = inner.data.len() + pages as usize * PAGE_SIZE;
        inner.data.resize(new_len, 0);
        Ok(first)
    }

    fn write_pages(&self, first: PageId, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let lo = (first - 1) as usize * PAGE_SIZE;
        let hi = lo + pages_for(data.len() as u64) as usize * PAGE_SIZE;
        if first == 0 || hi > inner.data.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "write past reservation"));
        }
        inner.data[lo..lo + data.len()].copy_from_slice(data);
        inner.data[lo + data.len()..hi].fill(0);
        Ok(())
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        let inner = self.inner.lock().unwrap();
        if page == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "page 0 is the meta page"));
        }
        let lo = (page - 1) as usize * PAGE_SIZE;
        let slab = inner
            .data
            .get(lo..lo + PAGE_SIZE)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "page out of range"))?;
        buf.copy_from_slice(slab);
        Ok(())
    }

    fn write_meta(&self, data: &[u8]) -> io::Result<()> {
        if data.len() > PAGE_SIZE {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "meta page overflow"));
        }
        let mut inner = self.inner.lock().unwrap();
        inner.meta.clear();
        inner.meta.extend_from_slice(data);
        inner.meta.resize(PAGE_SIZE, 0);
        Ok(())
    }

    fn read_meta(&self, buf: &mut [u8]) -> io::Result<()> {
        let inner = self.inner.lock().unwrap();
        if inner.meta.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no meta page written"));
        }
        buf.copy_from_slice(&inner.meta);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        1 + (self.inner.lock().unwrap().data.len() / PAGE_SIZE) as u64
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }

    fn pages(&self) -> &PageTable {
        &self.table
    }
}

/// File-backed page array. The file is created in
/// [`page_dir`] (`COLORIST_PAGE_DIR` or the system temp dir) and removed
/// when the backend is dropped — the page file is a cache/commit target,
/// not a user artifact, unless created at an explicit path via
/// [`FilePages::create_at`] (the durability save/load path).
///
/// Pages move with positioned I/O (`pread`/`pwrite`), so reads and writes
/// share no file cursor and take no lock: a page read never queues behind
/// a flush. Only [`reserve`](StorageBackend::reserve) serializes, on the
/// page count.
pub struct FilePages {
    file: File,
    /// Next unreserved page id (page 0 = meta always exists).
    next_page: Mutex<u64>,
    table: PageTable,
    path: PathBuf,
    delete_on_drop: bool,
}

impl fmt::Debug for FilePages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilePages").field("path", &self.path).finish_non_exhaustive()
    }
}

/// Directory page files live in: `COLORIST_PAGE_DIR` if set, else the
/// system temp dir.
pub fn page_dir() -> PathBuf {
    std::env::var_os("COLORIST_PAGE_DIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir)
}

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

impl FilePages {
    /// Create a fresh page file with a unique name under [`page_dir`];
    /// deleted on drop.
    pub fn create_temp() -> io::Result<Self> {
        let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("colorist-pages-{}-{}.bin", std::process::id(), seq);
        let mut f = Self::create_at(page_dir().join(name))?;
        f.delete_on_drop = true;
        Ok(f)
    }

    /// Create (truncating) a page file at `path`. Kept on drop — this is
    /// the explicit save path.
    pub fn create_at(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        file.set_len(PAGE_SIZE as u64)?; // meta page
        Ok(FilePages {
            file,
            next_page: Mutex::new(1),
            table: PageTable::default(),
            path,
            delete_on_drop: false,
        })
    }

    /// Open an existing page file (as written by a prior flush) read-write.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        if len < PAGE_SIZE as u64 || len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a whole number of {PAGE_SIZE}-byte pages", path.display()),
            ));
        }
        Ok(FilePages {
            file,
            next_page: Mutex::new(len / PAGE_SIZE as u64),
            table: PageTable::default(),
            path,
            delete_on_drop: false,
        })
    }

    /// Where the pages live on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for FilePages {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl FilePages {
    fn write_at(&self, page: PageId, data: &[u8]) -> io::Result<()> {
        self.file.write_all_at(data, page * PAGE_SIZE as u64)
    }
}

impl StorageBackend for FilePages {
    fn reserve(&self, pages: u64) -> io::Result<PageId> {
        let mut next = self.next_page.lock().unwrap();
        let first = *next;
        self.file.set_len((first + pages) * PAGE_SIZE as u64)?;
        *next += pages;
        Ok(first)
    }

    fn write_pages(&self, first: PageId, data: &[u8]) -> io::Result<()> {
        if first == 0 || first + pages_for(data.len() as u64) > self.page_count() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "write past reservation"));
        }
        if data.len().is_multiple_of(PAGE_SIZE) {
            self.write_at(first, data)
        } else {
            let mut padded = data.to_vec();
            padded.resize(pages_for(data.len() as u64) as usize * PAGE_SIZE, 0);
            self.write_at(first, &padded)
        }
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        if page == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "page 0 is the meta page"));
        }
        self.file.read_exact_at(buf, page * PAGE_SIZE as u64)
    }

    fn write_meta(&self, data: &[u8]) -> io::Result<()> {
        if data.len() > PAGE_SIZE {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "meta page overflow"));
        }
        let mut padded = data.to_vec();
        padded.resize(PAGE_SIZE, 0);
        self.write_at(0, &padded)
    }

    fn read_meta(&self, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact_at(buf, 0)
    }

    fn page_count(&self) -> u64 {
        *self.next_page.lock().unwrap()
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn pages(&self) -> &PageTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: &dyn StorageBackend) {
        let first = backend.reserve(3).unwrap();
        let mut data = vec![0u8; 2 * PAGE_SIZE + 100];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        backend.write_pages(first, &data).unwrap();
        backend.write_meta(b"meta!").unwrap();

        let mut buf = vec![0u8; PAGE_SIZE];
        backend.read_page(first + 1, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[PAGE_SIZE..2 * PAGE_SIZE]);
        // the final page is zero-padded
        backend.read_page(first + 2, &mut buf).unwrap();
        assert_eq!(&buf[..100], &data[2 * PAGE_SIZE..]);
        assert!(buf[100..].iter().all(|&b| b == 0));
        // an overwrite in place pads over the page's old bytes too
        backend.write_pages(first, b"again").unwrap();
        backend.read_page(first, &mut buf).unwrap();
        assert_eq!(&buf[..5], b"again");
        assert!(buf[5..].iter().all(|&b| b == 0));

        backend.read_meta(&mut buf).unwrap();
        assert_eq!(&buf[..5], b"meta!");
        assert!(backend.read_page(0, &mut buf).is_err(), "page 0 is reserved");
        assert_eq!(backend.page_count(), first + 3);
        backend.sync().unwrap();
    }

    #[test]
    fn mem_pages_roundtrip() {
        roundtrip(&MemPages::new());
    }

    #[test]
    fn file_pages_roundtrip_and_cleanup() {
        let backend = FilePages::create_temp().unwrap();
        let path = backend.path().to_path_buf();
        roundtrip(&backend);
        assert!(path.exists());
        drop(backend);
        assert!(!path.exists(), "temp page file must be deleted on drop");
    }

    #[test]
    fn file_pages_reopen_preserves_pages() {
        let dir = page_dir();
        let path = dir.join(format!("colorist-pages-test-{}.bin", std::process::id()));
        {
            let backend = FilePages::create_at(&path).unwrap();
            let first = backend.reserve(1).unwrap();
            backend.write_pages(first, b"hello").unwrap();
            backend.write_meta(b"m").unwrap();
            backend.sync().unwrap();
        }
        {
            let backend = FilePages::open(&path).unwrap();
            assert_eq!(backend.page_count(), 2);
            let mut buf = vec![0u8; PAGE_SIZE];
            backend.read_page(1, &mut buf).unwrap();
            assert_eq!(&buf[..5], b"hello");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE as u64), 1);
        assert_eq!(pages_for(PAGE_SIZE as u64 + 1), 2);
    }

    #[test]
    fn checksum_catches_every_single_byte_flip() {
        let page: Vec<u8> = (0..PAGE_SIZE + 13).map(|i| (i * 7 % 256) as u8).collect();
        let h = checksum(&page);
        for i in (0..page.len()).step_by(97).chain([page.len() - 1]) {
            let mut torn = page.clone();
            torn[i] ^= 0x20;
            assert_ne!(checksum(&torn), h, "flip at byte {i}");
        }
        assert_ne!(checksum(&page[..page.len() - 1]), h, "length is part of the checksum");
        assert_ne!(checksum(&[0u8; 8]), checksum(&[0u8; 16]), "zero words still count");
    }

    #[test]
    fn the_table_frees_a_page_with_its_last_pin_and_takes_free_pages_first() {
        let backend = MemPages::new();
        let table = backend.pages();
        let taken = table.take(&backend, 3).unwrap();
        assert_eq!(taken, vec![1, 2, 3], "fresh pages past the end");
        table.pin([1, 2, 3]);
        table.pin([2]);
        table.unpin([1, 2, 3]);
        assert_eq!(table.free_pages(), vec![1, 3], "page 2 keeps one pin");
        assert_eq!(table.take(&backend, 3).unwrap(), vec![1, 3, 4], "free first, then fresh");
        assert_eq!(backend.page_count(), 5);
        table.give_back(&[4]);
        assert_eq!(table.free_pages(), vec![4]);
    }
}

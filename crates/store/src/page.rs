//! Fixed-size page I/O: the [`StorageBackend`] trait and its two
//! implementations.
//!
//! The paper's experiments ran on TIMBER over a disk-resident Shore
//! substrate with 8 KB pages and a fixed buffer pool; DESIGN.md §14 maps
//! that layer onto this reproduction. A backend is a flat, append-only
//! array of [`PAGE_SIZE`]-byte pages plus one rewritable **meta page**
//! (page 0, LMDB-style): commits append fresh pages for every dirty
//! segment and the new segment directory, then atomically repoint the meta
//! page at the new directory. Pages past the meta page are immutable once
//! written, which is what makes [`crate::database::Snapshot`]s safe under
//! concurrent flushes — an old directory keeps reading the exact pages it
//! was flushed to.
//!
//! Two implementations:
//!
//! * [`MemPages`] — pages in a `Vec<u8>` behind a mutex. The default for
//!   tests and differentials: identical accounting to the file backend,
//!   no filesystem dependency.
//! * [`FilePages`] — pages in a real file (`COLORIST_PAGE_DIR` or the
//!   system temp dir), deleted when the last handle drops. What the
//!   `--backend paged` benchmark knob uses.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Page-granular storage: get/put/scan over fixed 8 KB pages plus the
/// rewritable meta page.
///
/// The write protocol is append-only and transactional: a commit calls
/// [`reserve`](StorageBackend::reserve) once for everything it will write
/// (all dirty segments **and** the new directory — this is the "one
/// backend transaction" `UpdateBatch::apply` commits through), lays the
/// buffer down with [`write_pages`](StorageBackend::write_pages), and
/// publishes it by rewriting the meta page. Reservations are atomic, so
/// concurrent committers (parallel update tasks on database clones) never
/// interleave within each other's page ranges.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Atomically reserve `pages` fresh pages, returning the id of the
    /// first. The reserved range is owned by the caller until written.
    fn reserve(&self, pages: u64) -> io::Result<PageId>;

    /// Write `data` starting at page `first` (a range previously handed
    /// out by [`reserve`](StorageBackend::reserve)); the final page is
    /// zero-padded to [`PAGE_SIZE`].
    fn write_pages(&self, first: PageId, data: &[u8]) -> io::Result<()>;

    /// Read one page into `buf` (must be [`PAGE_SIZE`] bytes).
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()>;

    /// Read `count` consecutive pages starting at `first` — the scan
    /// primitive segment decoding uses.
    fn scan_pages(&self, first: PageId, count: u64, out: &mut Vec<u8>) -> io::Result<()> {
        out.clear();
        out.resize(count as usize * PAGE_SIZE, 0);
        for i in 0..count {
            let lo = i as usize * PAGE_SIZE;
            self.read_page(first + i, &mut out[lo..lo + PAGE_SIZE])?;
        }
        Ok(())
    }

    /// Rewrite the meta page (page 0) in place.
    fn write_meta(&self, data: &[u8]) -> io::Result<()>;

    /// Read the meta page into `buf` (must be [`PAGE_SIZE`] bytes).
    fn read_meta(&self, buf: &mut [u8]) -> io::Result<()>;

    /// Total pages allocated so far (meta page included).
    fn page_count(&self) -> u64;

    /// Flush buffered writes to durable storage (no-op for [`MemPages`]).
    fn sync(&self) -> io::Result<()>;
}

/// In-memory page array: the paged backend's accounting and layout with no
/// filesystem underneath. Used by the differential tests, and available
/// as `--backend paged-mem`.
#[derive(Debug, Default)]
pub struct MemPages {
    inner: Mutex<MemInner>,
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
        if lo + data.len() > inner.data.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "write past reservation"));
        }
        inner.data[lo..lo + data.len()].copy_from_slice(data);
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
}

/// File-backed page array. The file is created in
/// [`page_dir`] (`COLORIST_PAGE_DIR` or the system temp dir) and removed
/// when the backend is dropped — the page file is a cache/commit target,
/// not a user artifact, unless created at an explicit path via
/// [`FilePages::create_at`] (the durability save/load path).
pub struct FilePages {
    inner: Mutex<FileInner>,
    path: PathBuf,
    delete_on_drop: bool,
}

struct FileInner {
    file: File,
    /// Next unreserved page id (page 0 = meta always exists).
    next_page: u64,
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
            inner: Mutex::new(FileInner { file, next_page: 1 }),
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
        let next_page = len / PAGE_SIZE as u64;
        Ok(FilePages {
            inner: Mutex::new(FileInner { file, next_page }),
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

impl FileInner {
    fn read_at(&mut self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(page * PAGE_SIZE as u64))?;
        self.file.read_exact(buf)
    }

    fn write_at(&mut self, page: PageId, data: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(page * PAGE_SIZE as u64))?;
        self.file.write_all(data)
    }
}

impl StorageBackend for FilePages {
    fn reserve(&self, pages: u64) -> io::Result<PageId> {
        let mut inner = self.inner.lock().unwrap();
        let first = inner.next_page;
        inner.next_page += pages;
        let len = inner.next_page * PAGE_SIZE as u64;
        inner.file.set_len(len)?;
        Ok(first)
    }

    fn write_pages(&self, first: PageId, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if first == 0 || first + pages_for(data.len() as u64) > inner.next_page {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "write past reservation"));
        }
        inner.write_at(first, data)
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        if page == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "page 0 is the meta page"));
        }
        self.inner.lock().unwrap().read_at(page, buf)
    }

    fn write_meta(&self, data: &[u8]) -> io::Result<()> {
        if data.len() > PAGE_SIZE {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "meta page overflow"));
        }
        let mut padded = data.to_vec();
        padded.resize(PAGE_SIZE, 0);
        self.inner.lock().unwrap().write_at(0, &padded)
    }

    fn read_meta(&self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.lock().unwrap().read_at(0, buf)
    }

    fn page_count(&self) -> u64 {
        self.inner.lock().unwrap().next_page
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.lock().unwrap().file.sync_data()
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

        let mut scanned = Vec::new();
        backend.scan_pages(first, 3, &mut scanned).unwrap();
        assert_eq!(&scanned[..data.len()], &data[..]);

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
}

//! The paged storage layer behind [`Database`]: serialized segments, the
//! segment directory, commit/write-back, and per-query storage contexts.
//!
//! DESIGN.md §14 describes the model in full. In short: a database may be
//! *attached* to a [`StorageBackend`] ([`Database::attach_paged`]), at
//! which point every stored structure is serialized into a **segment** —
//! a byte run cut into 8 KB pages — and a **segment directory** lists, per
//! segment, one `(page id, checksum)` per page. The in-memory structures
//! remain the working representation (a deserialization cache over the
//! pages, the way an in-memory TIMBER buffer pool would hold every hot
//! page); the paged layer adds
//!
//! * a **commit protocol**: mutators mark the segments they touch dirty,
//!   and every commit point (`UpdateBatch::apply` — which
//!   `query::execute_update` commits through — a `CommitScheduler` group,
//!   attach) lays the dirty segments down again, the element and posting
//!   segments only on the pages of rows that changed since the version's
//!   *image* (found by `Arc` pointer), and writes the pages whose checksum
//!   changed (and the directory pages with them) to free pages, then
//!   repoints the meta page at the new directory; `page_writes` counts them;
//! * **paged reads**: each query's [`Reader`](crate::read::Reader) holds
//!   a `StorageCtx` with its own cold accounting clock, and reports every
//!   record it reads to the context, which resolves the record's row to a page and
//!   charges `page_reads`/`pool_hits`/`pool_evictions` through the clock —
//!   deterministically, because the directory is immutable for the
//!   duration of a query. Each accounting miss makes the page resident in
//!   the attachment's shared page cache, which reads a page it does not
//!   hold from the backend and checks it against the directory's checksum;
//! * **durability**: [`Database::save_paged`] flushes everything to a
//!   named page file and [`Database::load_paged`] reconstructs a database
//!   from one, rebuilding the derived structures (per-tree indexes and
//!   extents are rebuilt; reverse links are stored).
//!
//! Copy-on-write paging is what keeps cloning sound: a flush never
//! overwrites a page a live directory version names, and swaps only the
//! flushing database's directory `Arc`, so clones and
//! [`crate::database::Snapshot`]s keep reading the exact pages their
//! directory named when they were taken. A page no live version names any
//! more goes back to the backend's [`crate::page::PageTable`] free list.

use crate::columns::{Cell, Elements, Staged};
use crate::database::{ColorTree, Database, ElementId, OccId, Occurrence, TOMBSTONE};
use crate::index::{IndexEntry, ValueIndex};
use crate::metrics::Metrics;
use crate::page::{checksum, pages_for, FilePages, MemPages, PageId, StorageBackend, PAGE_SIZE};
use crate::pool::{Clock, Fault, PageCache, PoolConfig};
use crate::value::{Interner, Value, ValueKey};
use colorist_er::NodeId;
use colorist_mct::{ColorId, MctSchema, PlacementId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening the meta page.
const MAGIC: &[u8; 8] = b"CLRPAGE1";
/// On-page format version. A file of another version (1 stored each
/// segment as one contiguous run) is refused with
/// [`PageFileError::UnsupportedVersion`].
const FORMAT_VERSION: u32 = 2;
/// Bytes of the meta page ahead of its directory page list: magic,
/// version, epoch, directory length and page count.
const META_HEAD: usize = 8 + 4 + 8 + 8 + 4;
/// The most directory pages the meta page can list (16 bytes each, after
/// the head and before the trailing checksum).
const MAX_DIR_PAGES: usize = (PAGE_SIZE - META_HEAD - 8) / 16;

/// Serialized record size of one [`Occurrence`] (element, placement,
/// parent, start, end as `u32`; level as `u16`).
const REC_OCC: u64 = 22;
/// Serialized record size of one [`IndexEntry`] (node, attr as `u32`; key
/// as tag + 8 bytes; element as `u32`).
const REC_POSTING: u64 = 21;
/// Serialized record size of one ordinal or link slot (`u32`).
const REC_SLOT: u64 = 4;
/// Element records between two offsets an image keeps.
const SAMPLE_ROWS: usize = 64;

/// One serialized stored structure, keyed for dirty tracking and the
/// directory. Trees are per color; everything else is global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SegId {
    /// All stored elements (canonicals and copies), row = `ElementId`.
    Elements,
    /// The append-only ordinal index, rows grouped per node
    /// (`SegmentDirectory::ordinal_bases`).
    Ordinals,
    /// The sorted value index, row = posting position.
    Postings,
    /// The link table, rows grouped per edge
    /// (`SegmentDirectory::link_bases`).
    Links,
    /// The reverse link lists (not derivable from [`SegId::Links`] once
    /// links have been killed: a kill blanks the participant but the
    /// reverse list keeps the dead relationship ordinal).
    RevLinks,
    /// The text symbol table, in symbol order.
    Symbols,
    /// One color's occurrence tree, row = `OccId`.
    Tree(u16),
}

/// One 8 KB page of a segment or of the directory: where it lives, and
/// the [`checksum`] of its bytes (zero padding included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageRef {
    id: PageId,
    checksum: u64,
}

/// Where one segment lives: its exact byte length, its row count, and
/// one [`PageRef`] per page, in page-index order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegEntry {
    bytes: u64,
    rows: u64,
    pages: Vec<PageRef>,
}

/// The segment directory one flush publishes: segment locations plus the
/// per-node/per-edge row bases that map `(node, ordinal)` and
/// `(edge, rel_ordinal)` to rows of the flat slot segments.
#[derive(Debug, Clone, Default, PartialEq)]
struct SegmentDirectory {
    segs: BTreeMap<SegId, SegEntry>,
    /// Row of node `n`'s first slot in [`SegId::Ordinals`].
    ordinal_bases: Vec<u64>,
    /// Row of edge `e`'s first slot in [`SegId::Links`].
    link_bases: Vec<u64>,
}

/// One published directory version: the directory, the pages its own
/// encoding occupies, the backend both live on, and the image its pages
/// encode. While any handle on it is alive — a database, a clone, a
/// savepoint, a snapshot, a running query's `StorageCtx` — every page it
/// names stays pinned in the backend's [`crate::page::PageTable`];
/// dropping the last handle unpins them.
#[derive(Debug)]
pub(crate) struct DirVersion {
    backend: Arc<dyn StorageBackend>,
    dir: SegmentDirectory,
    dir_pages: Vec<PageRef>,
    /// `None` before an attach's first flush.
    image: Option<Image>,
}

/// The state a version's pages encode, as handles on the database's own
/// copy-on-write structures: the next flush finds what changed by pointer.
/// Clones, snapshots and a failed flush each diff against their own.
#[derive(Debug)]
struct Image {
    elements: Elements,
    index: Arc<ValueIndex>,
    interner: Arc<Interner>,
    /// Offset of every `SAMPLE_ROWS`-th element record, where an encode
    /// may start.
    samples: Vec<u64>,
}

impl DirVersion {
    /// Wrap a version whose pages are all written, pinning them.
    fn pinned(
        backend: Arc<dyn StorageBackend>,
        dir: SegmentDirectory,
        dir_pages: Vec<PageRef>,
        image: Image,
    ) -> Arc<DirVersion> {
        let version = DirVersion { backend, dir, dir_pages, image: Some(image) };
        version.backend.pages().pin(version.page_ids());
        Arc::new(version)
    }

    /// Every page this version names: each segment's, then the
    /// directory's.
    fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.dir.segs.values().flat_map(|e| &e.pages).chain(&self.dir_pages).map(|p| p.id)
    }
}

impl Drop for DirVersion {
    fn drop(&mut self) {
        self.backend.pages().unpin(self.page_ids());
    }
}

/// How a [`Database`] is backed: the default pure heap, or attached to a
/// paged backend.
#[derive(Debug, Clone, Default)]
pub(crate) enum Backing {
    /// Purely in-memory — no pages, page counters stay zero.
    #[default]
    Heap,
    /// Attached to a paged backend.
    Paged(PagedState),
}

/// The paged attachment one database (or clone) carries.
#[derive(Debug, Clone)]
pub(crate) struct PagedState {
    dir: Arc<DirVersion>,
    dirty: BTreeSet<SegId>,
    pool: PoolConfig,
    /// The attachment's page cache, shared with every clone, snapshot and
    /// query of it.
    cache: Arc<PageCache>,
}

impl Backing {
    /// Record that a stored structure changed since the last flush.
    /// A no-op on the heap backend.
    pub(crate) fn mark(&mut self, seg: SegId) {
        if let Backing::Paged(s) = self {
            s.dirty.insert(seg);
        }
    }
}

/// What a flush laid down, for `page_writes` accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Pages written: the dirty segments' pages whose bytes changed, the
    /// directory pages that changed with them, and the meta page. Zero
    /// when nothing was dirty (or the database is heap-backed).
    pub pages_written: u64,
}

/// Why a page file cannot be trusted: the payload of the
/// [`io::ErrorKind::InvalidData`] errors [`Database::load_paged`] returns
/// for it (`err.get_ref()` downcasts to this type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageFileError {
    /// Page 0 does not open with the page-file magic bytes.
    BadMagic,
    /// The meta page names a format version this build does not read.
    UnsupportedVersion(u32),
    /// A page's bytes do not hash to the checksum recorded for it: a torn
    /// or stale page.
    Checksum {
        /// The segment the page belongs to, as [`Database::page_map`]
        /// names it; `"meta"` and `"directory"` for those pages.
        segment: String,
        /// The page's index within the segment.
        page: u64,
    },
}

impl fmt::Display for PageFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageFileError::BadMagic => write!(f, "not a colorist page file (bad magic)"),
            PageFileError::UnsupportedVersion(v) => write!(
                f,
                "unsupported page format version {v} (this build reads version {FORMAT_VERSION})"
            ),
            PageFileError::Checksum { segment, page } => {
                write!(f, "checksum mismatch in segment {segment}, page {page}")
            }
        }
    }
}

impl std::error::Error for PageFileError {}

impl From<PageFileError> for io::Error {
    fn from(e: PageFileError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------------
// byte-level helpers

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `rows` records of at least `min` bytes each, checked to fit in `bytes`
/// before anything is sized by a count a valid checksum may still carry.
fn fits(rows: u64, min: u64, bytes: &[u8]) -> io::Result<usize> {
    match rows.checked_mul(min) {
        Some(need) if need <= bytes.len() as u64 => Ok(rows as usize),
        _ => Err(corrupt(format!("{rows} records overrun a segment of {} bytes", bytes.len()))),
    }
}

struct Cur<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, p: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let s = self.b.get(self.p..self.p + n).ok_or_else(|| corrupt("truncated segment"))?;
        self.p += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` count of items of 4 bytes or more, checked against the rest.
    fn count(&mut self) -> io::Result<usize> {
        let n = self.u32()?;
        fits(n as u64, 4, &self.b[self.p..])
    }
}

// ---------------------------------------------------------------------------
// segment encode/decode

fn encode_cell(out: &mut Vec<u8>, cell: Cell) {
    match cell {
        Cell::Num(Value::Int(i)) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Cell::Num(Value::Float(f)) => {
            out.push(1);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Cell::Sym(sym) => {
            out.push(2);
            put_u32(out, sym);
        }
        Cell::Num(Value::Text(_)) => unreachable!("text cells travel as symbols"),
    }
}

fn decode_cell(cur: &mut Cur, interner: &Interner) -> io::Result<Cell> {
    match cur.u8()? {
        0 => Ok(Cell::Num(Value::Int(i64::from_le_bytes(cur.take(8)?.try_into().unwrap())))),
        1 => Ok(Cell::Num(Value::Float(f64::from_bits(cur.u64()?)))),
        2 => {
            let sym = cur.u32()?;
            if sym as usize >= interner.len() {
                return Err(corrupt("symbol out of range"));
            }
            Ok(Cell::Sym(sym))
        }
        t => Err(corrupt(format!("unknown value tag {t}"))),
    }
}

/// The element segment: per element in id order, node, ordinal, canonical,
/// arity, then its row's cells. Appends the records from row `from` on to
/// `out`, until `stop`, shown each row and `out`'s length, returns `true`.
fn encode_elements(
    elements: &Elements,
    interner: &Interner,
    from: usize,
    out: &mut Vec<u8>,
    mut stop: impl FnMut(usize, usize) -> bool,
) {
    for e in from..elements.len() {
        if stop(e, out.len()) {
            return;
        }
        let h = elements.header(ElementId(e as u32));
        put_u32(out, h.node.0);
        put_u32(out, h.ordinal);
        put_u32(out, h.canonical.0);
        let arity = elements.arity(h.node);
        put_u16(out, arity as u16);
        for a in 0..arity {
            encode_cell(out, elements.cell(h, a, interner));
        }
    }
}

/// The element store, and the offset of every `SAMPLE_ROWS`-th record.
fn decode_elements(
    bytes: &[u8],
    rows: u64,
    node_count: usize,
    interner: &Interner,
) -> io::Result<(Elements, Vec<u64>)> {
    let rows = fits(rows, 14, bytes)?; // node, ordinal, canonical, arity
    let mut cur = Cur::new(bytes);
    let mut out = Staged::new(node_count);
    let mut cells = Vec::new();
    let mut samples = Vec::new();
    for row in 0..rows {
        if row % SAMPLE_ROWS == 0 {
            samples.push(cur.p as u64);
        }
        let node = NodeId(cur.u32()?);
        let ordinal = cur.u32()?;
        let canonical = ElementId(cur.u32()?);
        let arity = cur.u16()? as usize;
        if node.idx() >= node_count
            || out.arity(node).is_some_and(|a| a != arity)
            || canonical.idx() > out.len()
        {
            return Err(corrupt(format!("malformed element record {}", out.len())));
        }
        for _ in 0..arity {
            cells.push(decode_cell(&mut cur, interner)?);
        }
        out.push(node, ordinal, canonical, cells.drain(..), interner);
    }
    Ok((out.freeze(), samples))
}

fn encode_tree(occs: &[Occurrence]) -> (Vec<u8>, u64) {
    let mut out = Vec::with_capacity(occs.len() * REC_OCC as usize);
    for o in occs {
        put_u32(&mut out, o.element.0);
        put_u32(&mut out, o.placement.0);
        put_u32(&mut out, o.parent.map_or(u32::MAX, |p| p.0));
        put_u32(&mut out, o.start);
        put_u32(&mut out, o.end);
        put_u16(&mut out, o.level);
    }
    (out, occs.len() as u64)
}

fn decode_tree(bytes: &[u8], rows: u64) -> io::Result<Vec<Occurrence>> {
    let rows = fits(rows, REC_OCC, bytes)?;
    let mut cur = Cur::new(bytes);
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let element = ElementId(cur.u32()?);
        let placement = PlacementId(cur.u32()?);
        let parent = match cur.u32()? {
            u32::MAX => None,
            p => Some(OccId(p)),
        };
        let (start, end, level) = (cur.u32()?, cur.u32()?, cur.u16()?);
        out.push(Occurrence { element, placement, parent, start, end, level });
    }
    Ok(out)
}

/// Flat per-node (or per-edge) `u32` slot runs, plus the row base of each
/// run.
fn encode_slots(groups: &[Vec<impl SlotWord>]) -> (Vec<u8>, Vec<u64>, u64) {
    let mut out = Vec::new();
    let mut bases = Vec::with_capacity(groups.len());
    let mut row = 0u64;
    for g in groups {
        bases.push(row);
        row += g.len() as u64;
        for s in g {
            put_u32(&mut out, s.word());
        }
    }
    (out, bases, row)
}

fn decode_slots<T: SlotWord>(bytes: &[u8], bases: &[u64], rows: u64) -> io::Result<Vec<Vec<T>>> {
    fits(rows, REC_SLOT, bytes)?;
    if bases.windows(2).any(|w| w[0] > w[1]) || bases.last().is_some_and(|&b| b > rows) {
        return Err(corrupt("slot bases out of order"));
    }
    let mut cur = Cur::new(bytes);
    let mut out = Vec::with_capacity(bases.len());
    for (i, &base) in bases.iter().enumerate() {
        let end = bases.get(i + 1).copied().unwrap_or(rows);
        let mut g = Vec::with_capacity((end - base) as usize);
        for _ in base..end {
            g.push(T::from_word(cur.u32()?));
        }
        out.push(g);
    }
    Ok(out)
}

/// The two flat slot segments store `u32` words: ordinal slots hold
/// `ElementId`s (with [`TOMBSTONE`] for deleted), link slots hold
/// participant ordinals (with `u32::MAX` for killed).
trait SlotWord: Sized {
    fn word(&self) -> u32;
    fn from_word(w: u32) -> Self;
}

impl SlotWord for ElementId {
    fn word(&self) -> u32 {
        self.0
    }
    fn from_word(w: u32) -> Self {
        ElementId(w)
    }
}

impl SlotWord for u32 {
    fn word(&self) -> u32 {
        *self
    }
    fn from_word(w: u32) -> Self {
        w
    }
}

fn encode_rev_links(rev: &[Vec<Vec<u32>>]) -> (Vec<u8>, u64) {
    let mut out = Vec::new();
    let mut rows = 0u64;
    put_u32(&mut out, rev.len() as u32);
    for per_edge in rev {
        put_u32(&mut out, per_edge.len() as u32);
        for per_participant in per_edge {
            put_u32(&mut out, per_participant.len() as u32);
            for &ro in per_participant {
                put_u32(&mut out, ro);
                rows += 1;
            }
        }
    }
    (out, rows)
}

fn decode_rev_links(bytes: &[u8]) -> io::Result<Vec<Vec<Vec<u32>>>> {
    let mut cur = Cur::new(bytes);
    let edges = cur.count()?;
    let mut out = Vec::with_capacity(edges);
    for _ in 0..edges {
        let participants = cur.count()?;
        let mut per_edge = Vec::with_capacity(participants);
        for _ in 0..participants {
            let n = cur.count()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(cur.u32()?);
            }
            per_edge.push(v);
        }
        out.push(per_edge);
    }
    Ok(out)
}

fn encode_key(out: &mut Vec<u8>, k: ValueKey) {
    match k {
        ValueKey::Num(i) => {
            out.push(0);
            out.extend_from_slice(&(i as u64).to_le_bytes());
        }
        ValueKey::Bits(b) => {
            out.push(1);
            out.extend_from_slice(&b.to_le_bytes());
        }
        ValueKey::Sym(s) => {
            out.push(2);
            out.extend_from_slice(&(s as u64).to_le_bytes());
        }
    }
}

fn decode_key(cur: &mut Cur) -> io::Result<ValueKey> {
    let tag = cur.u8()?;
    let payload = cur.u64()?;
    match tag {
        0 => Ok(ValueKey::Num(payload as i64)),
        1 => Ok(ValueKey::Bits(payload)),
        2 => Ok(ValueKey::Sym(payload as u32)),
        t => Err(corrupt(format!("unknown key tag {t}"))),
    }
}

/// The postings segment: every posting in the index's global order.
/// Appends rows `rows` of it to `out` (skipping whole runs to the first).
fn encode_postings(index: &ValueIndex, rows: Range<u64>, out: &mut Vec<u8>) {
    let postings = index.runs().flat_map(|r| r.iter()).skip(rows.start as usize);
    for e in postings.take((rows.end - rows.start) as usize) {
        put_u32(out, e.node.0);
        put_u32(out, e.attr);
        encode_key(out, e.key);
        put_u32(out, e.element.0);
    }
}

fn decode_postings(bytes: &[u8], rows: u64) -> io::Result<Vec<IndexEntry>> {
    let rows = fits(rows, REC_POSTING, bytes)?;
    let mut cur = Cur::new(bytes);
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let node = NodeId(cur.u32()?);
        let attr = cur.u32()?;
        let key = decode_key(&mut cur)?;
        let element = ElementId(cur.u32()?);
        out.push(IndexEntry { node, attr, key, element });
    }
    Ok(out)
}

fn encode_symbols(interner: &Interner) -> (Vec<u8>, u64) {
    let mut out = Vec::new();
    for sym in 0..interner.len() as u32 {
        let s = interner.resolve(sym);
        put_u32(&mut out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }
    (out, interner.len() as u64)
}

fn decode_symbols(bytes: &[u8], rows: u64) -> io::Result<Interner> {
    let rows = fits(rows, 4, bytes)?;
    let mut cur = Cur::new(bytes);
    let mut strings = Vec::with_capacity(rows);
    for _ in 0..rows {
        let n = cur.u32()? as usize;
        let s = std::str::from_utf8(cur.take(n)?).map_err(|_| corrupt("non-UTF-8 symbol"))?;
        strings.push(s.to_owned());
    }
    Ok(Interner::from_strings(strings))
}

// ---------------------------------------------------------------------------
// directory + meta encode/decode

fn seg_tag(seg: SegId) -> (u8, u16) {
    match seg {
        SegId::Elements => (0, 0),
        SegId::Ordinals => (1, 0),
        SegId::Postings => (2, 0),
        SegId::Links => (3, 0),
        SegId::RevLinks => (4, 0),
        SegId::Symbols => (5, 0),
        SegId::Tree(c) => (6, c),
    }
}

fn seg_from_tag(tag: u8, color: u16) -> io::Result<SegId> {
    Ok(match tag {
        0 => SegId::Elements,
        1 => SegId::Ordinals,
        2 => SegId::Postings,
        3 => SegId::Links,
        4 => SegId::RevLinks,
        5 => SegId::Symbols,
        6 => SegId::Tree(color),
        t => return Err(corrupt(format!("unknown segment tag {t}"))),
    })
}

fn put_page_refs(out: &mut Vec<u8>, pages: &[PageRef]) {
    for p in pages {
        put_u64(out, p.id);
        put_u64(out, p.checksum);
    }
}

fn page_refs(cur: &mut Cur, n: u64) -> io::Result<Vec<PageRef>> {
    (0..n).map(|_| Ok(PageRef { id: cur.u64()?, checksum: cur.u64()? })).collect()
}

/// Per segment: tag, colour, byte length, rows, then one `(page id,
/// checksum)` per page (the count follows from the length); then the
/// ordinal and link bases.
fn encode_dir(dir: &SegmentDirectory) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, dir.segs.len() as u32);
    for (&seg, e) in &dir.segs {
        let (tag, color) = seg_tag(seg);
        out.push(tag);
        put_u16(&mut out, color);
        put_u64(&mut out, e.bytes);
        put_u64(&mut out, e.rows);
        put_page_refs(&mut out, &e.pages);
    }
    for bases in [&dir.ordinal_bases, &dir.link_bases] {
        put_u32(&mut out, bases.len() as u32);
        for &b in bases {
            put_u64(&mut out, b);
        }
    }
    out
}

fn decode_dir(bytes: &[u8]) -> io::Result<SegmentDirectory> {
    let mut cur = Cur::new(bytes);
    let n = cur.u32()? as usize;
    let mut segs = BTreeMap::new();
    for _ in 0..n {
        let tag = cur.u8()?;
        let color = cur.u16()?;
        let seg = seg_from_tag(tag, color)?;
        let (bytes, rows) = (cur.u64()?, cur.u64()?);
        let pages = page_refs(&mut cur, pages_for(bytes))?;
        segs.insert(seg, SegEntry { bytes, rows, pages });
    }
    let mut bases = [Vec::new(), Vec::new()];
    for b in &mut bases {
        let n = cur.u32()? as usize;
        for _ in 0..n {
            b.push(cur.u64()?);
        }
    }
    let [ordinal_bases, link_bases] = bases;
    Ok(SegmentDirectory { segs, ordinal_bases, link_bases })
}

/// What the meta page records: the epoch and where the directory lives.
struct Meta {
    epoch: u64,
    dir_bytes: u64,
    dir_pages: Vec<PageRef>,
}

/// Magic, version, epoch, directory length and its page list, zero
/// padding, and in the page's last 8 bytes a checksum over the rest of it,
/// so a torn meta page is detected wherever it tore.
fn encode_meta(epoch: u64, dir_bytes: u64, dir_pages: &[PageRef]) -> io::Result<Vec<u8>> {
    if dir_pages.len() > MAX_DIR_PAGES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "the segment directory needs {} pages; the meta page lists at most {MAX_DIR_PAGES}",
                dir_pages.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(PAGE_SIZE);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, epoch);
    put_u64(&mut out, dir_bytes);
    put_u32(&mut out, dir_pages.len() as u32);
    put_page_refs(&mut out, dir_pages);
    out.resize(PAGE_SIZE - 8, 0);
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    Ok(out)
}

fn decode_meta(page: &[u8]) -> io::Result<Meta> {
    let mut cur = Cur::new(page);
    if cur.take(8)? != MAGIC {
        return Err(PageFileError::BadMagic.into());
    }
    let version = cur.u32()?;
    if version != FORMAT_VERSION {
        return Err(PageFileError::UnsupportedVersion(version).into());
    }
    let (body, sum) = page.split_at(PAGE_SIZE - 8);
    if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
        return Err(PageFileError::Checksum { segment: "meta".into(), page: 0 }.into());
    }
    let (epoch, dir_bytes) = (cur.u64()?, cur.u64()?);
    let n = cur.u32()? as usize;
    if n > MAX_DIR_PAGES {
        return Err(corrupt(format!("the meta page lists {n} directory pages")));
    }
    let dir_pages = page_refs(&mut cur, n as u64)?;
    Ok(Meta { epoch, dir_bytes, dir_pages })
}

/// Lay a segment of `total` bytes over its `old` pages: `buf` holds its
/// bytes from page `first` on, and `span` appends those of an earlier page
/// overlapping the ascending `ranges`; other pages carry over. Each laid
/// page is hashed and compared with the old one at its index. Returns the
/// page list (id 0 where changed) and each changed page's offset in `buf`.
fn lay_pages(
    old: &[PageRef],
    total: u64,
    first: usize,
    ranges: &[Range<u64>],
    buf: &mut Vec<u8>,
    mut span: impl FnMut(Range<u64>, &mut Vec<u8>),
) -> (Vec<PageRef>, Vec<(usize, usize)>) {
    let page = PAGE_SIZE as u64;
    let count = pages_for(total) as usize;
    buf.resize((count - first) * PAGE_SIZE, 0);
    let mut pages = old[..old.len().min(count)].to_vec();
    pages.resize(count, PageRef { id: 0, checksum: 0 });
    let mut changed = Vec::new();
    let mut lay = |i: usize, at: usize, buf: &[u8]| {
        let checksum = checksum(&buf[at..at + PAGE_SIZE]);
        let kept = old.get(i).is_some_and(|p| p.checksum == checksum);
        if !kept {
            pages[i] = PageRef { id: 0, checksum };
            changed.push((i, at));
        }
        kept
    };
    let mut before: Vec<usize> = (ranges.iter())
        .flat_map(|r| (r.start / page) as usize..=((r.end - 1) / page) as usize)
        .filter(|&i| i < first)
        .collect();
    before.dedup();
    for i in before {
        let at = buf.len();
        span(i as u64 * page..((i as u64 + 1) * page).min(total), buf);
        buf.resize(at + PAGE_SIZE, 0);
        if lay(i, at, buf) {
            buf.truncate(at);
        }
    }
    for i in first..count {
        lay(i, (i - first) * PAGE_SIZE, buf);
    }
    (pages, changed)
}

/// Write each `(page id, page bytes)`, one backend call per run of
/// consecutive ids, dropping every id from `cache` first: a page is only
/// written once no live version names it, so the cache may still hold its
/// bytes from an older version.
fn write_runs(
    backend: &dyn StorageBackend,
    cache: &PageCache,
    mut pages: Vec<(PageId, &[u8])>,
) -> io::Result<()> {
    pages.sort_unstable_by_key(|&(id, _)| id);
    cache.forget(pages.iter().map(|&(id, _)| id));
    let mut run_bytes = Vec::new();
    for run in pages.chunk_by(|a, b| b.0 == a.0 + 1) {
        let data = match run {
            [(_, page)] => page,
            _ => {
                run_bytes.clear();
                run.iter().for_each(|(_, page)| run_bytes.extend_from_slice(page));
                &run_bytes[..]
            }
        };
        backend.write_pages(run[0].0, data)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// attach / flush / save / load

impl Database {
    /// Whether this database is attached to a paged backend.
    pub fn is_paged(&self) -> bool {
        matches!(self.storage, Backing::Paged(_))
    }

    /// Attach this database to a paged backend: every stored structure is
    /// serialized into segments and flushed (so the returned report counts
    /// the full database), and from here on every commit point writes
    /// dirty segments back through the backend. Queries executed against
    /// an attached database charge the `page_reads`/`pool_hits`/
    /// `pool_evictions` counters through a per-query accounting clock of
    /// `pool.pool_bytes` bytes, and read pages through one page cache of
    /// the same budget, shared by this database's clones and snapshots.
    pub fn attach_paged(
        &mut self,
        backend: Arc<dyn StorageBackend>,
        pool: PoolConfig,
    ) -> io::Result<FlushReport> {
        let mut dirty: BTreeSet<SegId> = [
            SegId::Elements,
            SegId::Ordinals,
            SegId::Postings,
            SegId::Links,
            SegId::RevLinks,
            SegId::Symbols,
        ]
        .into_iter()
        .collect();
        for c in 0..self.colors.len() {
            dirty.insert(SegId::Tree(c as u16));
        }
        let empty = DirVersion { backend, dir: Default::default(), dir_pages: vec![], image: None };
        let cache = Arc::new(PageCache::new(pool));
        self.storage = Backing::Paged(PagedState { dir: Arc::new(empty), dirty, pool, cache });
        self.flush_storage()
    }

    /// Detach from the paged backend, reverting to the pure heap.
    pub fn detach_storage(&mut self) {
        self.storage = Backing::Heap;
    }

    /// Write every dirty segment back to the backend — the commit/
    /// write-back protocol of DESIGN.md §14. The element and posting
    /// segments encode and hash only the pages of the rows that changed
    /// since the directory's image, found by pointer; the others are
    /// re-encoded whole and hashed page by page. Only the pages whose
    /// checksum changed are written, each to a page no live version names,
    /// and the directory is diffed and written the same way. Then the meta
    /// page is repointed and the backend synced once. Returns the pages
    /// written for `page_writes` accounting; zero (and no I/O) when nothing
    /// is dirty or the database is heap-backed. On `Err` the database, its
    /// directory and image, and the backend's free list are as before.
    pub fn flush_storage(&mut self) -> io::Result<FlushReport> {
        let (old, dirty, cache) = match &self.storage {
            Backing::Paged(s) if !s.dirty.is_empty() => {
                (s.dir.clone(), s.dirty.clone(), s.cache.clone())
            }
            _ => return Ok(FlushReport::default()),
        };
        let table = old.backend.pages();
        let mut taken = Vec::new();
        let written = self.write_version(&old, &dirty, &cache, &mut taken);
        let (version, meta, pages_written) = match written {
            Ok(written) => written,
            Err(e) => {
                table.give_back(&taken);
                return Err(e);
            }
        };
        // from here the version's pins own the taken pages: if the publish
        // fails, dropping the version frees them
        table.publish(&*old.backend, meta, version.page_ids().collect())?;
        if let Backing::Paged(s) = &mut self.storage {
            s.dir = version;
            s.dirty.clear();
        }
        Ok(FlushReport { pages_written })
    }

    /// The write half of [`Database::flush_storage`]: lay the dirty
    /// segments' pages, write the changed ones and the directory's, taking
    /// pages into `taken` and dropping them from `cache`. Returns the
    /// pinned new version, its meta page and the pages written (the meta
    /// page included).
    fn write_version(
        &self,
        old: &DirVersion,
        dirty: &BTreeSet<SegId>,
        cache: &PageCache,
        taken: &mut Vec<PageId>,
    ) -> io::Result<(Arc<DirVersion>, Vec<u8>, u64)> {
        let backend = &*old.backend;
        let mut take = |n: usize| -> io::Result<Vec<PageId>> {
            let ids = backend.pages().take(backend, n)?;
            taken.extend(&ids);
            Ok(ids)
        };
        let mut dir = old.dir.clone();
        let mut samples = old.image.as_ref().map_or_else(Vec::new, |i| i.samples.clone());
        // per changed page: (segment, its buffer in `laid`, index, offset)
        let (mut laid, mut changed) = (Vec::new(), Vec::new());
        for &seg in dirty {
            let (entry, buf, seg_changed) = self.lay_segment(old, seg, &mut dir, &mut samples);
            changed.extend(seg_changed.into_iter().map(|(i, at)| (seg, laid.len(), i, at)));
            dir.segs.insert(seg, entry);
            laid.push(buf);
        }
        let mut writes = Vec::with_capacity(changed.len());
        for (&(seg, buf, i, at), id) in changed.iter().zip(take(changed.len())?) {
            dir.segs.get_mut(&seg).expect("inserted above").pages[i].id = id;
            writes.push((id, &laid[buf][at..at + PAGE_SIZE]));
        }
        let data_pages = writes.len() as u64;
        write_runs(backend, cache, writes)?;

        let mut dir_buf = encode_dir(&dir);
        let dir_bytes = dir_buf.len() as u64;
        let (mut dir_pages, dir_changed) =
            lay_pages(&old.dir_pages, dir_bytes, 0, &[], &mut dir_buf, |_, _| {});
        let mut writes = Vec::with_capacity(dir_changed.len());
        for (&(i, at), id) in dir_changed.iter().zip(take(dir_changed.len())?) {
            dir_pages[i].id = id;
            writes.push((id, &dir_buf[at..at + PAGE_SIZE]));
        }
        write_runs(backend, cache, writes)?;
        let meta = encode_meta(self.epoch(), dir_bytes, &dir_pages)?;
        let image = Image {
            elements: self.elements.clone(),
            index: self.value_index.clone(),
            interner: self.interner.clone(),
            samples,
        };
        let version = DirVersion::pinned(old.backend.clone(), dir, dir_pages, image);
        taken.clear();
        Ok((version, meta, data_pages + dir_changed.len() as u64 + 1))
    }

    /// What changed in the element segment since `img` laid its
    /// `old_bytes`: the byte range of each sample group holding a record
    /// rewritten at its old length, and the offset from which every byte
    /// may have changed (the sample ahead of the first record whose length
    /// changed, or the end).
    fn element_changes(&self, img: &Image, old_bytes: u64) -> (Vec<Range<u64>>, u64) {
        // a text cell is a tag and a symbol, a number a tag and 8 bytes
        let len = |els: &Elements, interner, e| {
            let cells = els.attrs(els.header(ElementId(e)), interner);
            cells.iter().map(|v| if matches!(v, Value::Text(_)) { 5 } else { 9 }).sum::<u64>()
        };
        let mut ranges: Vec<Range<u64>> = Vec::new();
        for e in self.elements.changed_since(&img.elements, &self.interner, &img.interner) {
            let k = e as usize / SAMPLE_ROWS;
            if len(&self.elements, &self.interner, e) != len(&img.elements, &img.interner, e) {
                return (ranges, img.samples[k]);
            }
            let group = img.samples[k]..img.samples.get(k + 1).copied().unwrap_or(old_bytes);
            if ranges.last() != Some(&group) {
                ranges.push(group);
            }
        }
        (ranges, old_bytes)
    }

    /// Lay dirty segment `seg` over `old`'s pages ([`lay_pages`]). The
    /// element and posting segments encode from the page where every byte
    /// may have changed on, and before it the pages of the changed rows
    /// only; the element segment keeps `samples` current.
    #[allow(clippy::type_complexity)]
    fn lay_segment(
        &self,
        old: &DirVersion,
        seg: SegId,
        dir: &mut SegmentDirectory,
        samples: &mut Vec<u64>,
    ) -> (SegEntry, Vec<u8>, Vec<(usize, usize)>) {
        let page = PAGE_SIZE as u64;
        let old_entry = old.dir.segs.get(&seg);
        let old_pages = old_entry.map_or(&[][..], |e| &e.pages);
        // what the old pages encode, when there are old pages
        let image = old.image.as_ref().zip(old_entry);
        let whole = |(buf, rows): (Vec<u8>, u64)| (buf, rows, 0, vec![]);
        let (mut buf, rows, first, ranges) = match seg {
            SegId::Elements => {
                let (els, interner) = (&self.elements, &*self.interner);
                let (ranges, moved) =
                    image.map_or((vec![], 0), |(img, e)| self.element_changes(img, e.bytes));
                let first = moved / page;
                // encode from the sample at or before that page on
                let k = samples.partition_point(|&o| o <= first * page).saturating_sub(1);
                let from = samples.get(k).copied().unwrap_or(0);
                samples.truncate(k);
                let mut buf = Vec::new();
                encode_elements(els, interner, k * SAMPLE_ROWS, &mut buf, |row, n| {
                    if row % SAMPLE_ROWS == 0 {
                        samples.push(from + n as u64);
                    }
                    false
                });
                buf.drain(..(first * page - from) as usize);
                (buf, els.len() as u64, first, ranges)
            }
            SegId::Postings => {
                let index = &*self.value_index;
                let rows = index.len() as u64;
                let (ranges, moved) =
                    image.map_or((vec![], Some(0)), |(img, _)| index.changed_since(&img.index));
                let first = moved.unwrap_or(rows) * REC_POSTING / page;
                let from = first * page / REC_POSTING;
                let mut buf = Vec::new();
                encode_postings(index, from..rows, &mut buf);
                buf.drain(..(first * page - from * REC_POSTING) as usize);
                let bytes = |r: &Range<u64>| r.start * REC_POSTING..r.end * REC_POSTING;
                (buf, rows, first, ranges.iter().map(bytes).collect())
            }
            SegId::Ordinals => {
                let (b, bases, rows) = encode_slots(&self.by_ordinal);
                dir.ordinal_bases = bases;
                whole((b, rows))
            }
            SegId::Links => {
                let (b, bases, rows) = encode_slots(&self.links);
                dir.link_bases = bases;
                whole((b, rows))
            }
            SegId::RevLinks => whole(encode_rev_links(&self.rev_links)),
            SegId::Symbols => whole(encode_symbols(&self.interner)),
            SegId::Tree(c) => whole(encode_tree(self.colors[c as usize].occs())),
        };
        let total = first * page + buf.len() as u64;
        // bytes `r`, encoded from the nearest record start at or before it
        let span = |r: Range<u64>, out: &mut Vec<u8>| {
            let at = out.len();
            let from = match seg {
                SegId::Elements => {
                    let k = samples.partition_point(|&o| o <= r.start) - 1;
                    let (els, interner) = (&self.elements, &*self.interner);
                    let end = |_, n| samples[k] + (n - at) as u64 >= r.end;
                    encode_elements(els, interner, k * SAMPLE_ROWS, out, end);
                    samples[k]
                }
                _ => {
                    let first = r.start / REC_POSTING;
                    encode_postings(&self.value_index, first..r.end.div_ceil(REC_POSTING), out);
                    first * REC_POSTING
                }
            };
            out.drain(at..at + (r.start - from) as usize);
            out.truncate(at + (r.end - r.start) as usize);
        };
        let (pages, changed) = lay_pages(old_pages, total, first as usize, &ranges, &mut buf, span);
        (SegEntry { bytes: total, rows, pages }, buf, changed)
    }

    /// Save this database durably to a page file at `path` (kept on
    /// drop, unlike the benchmark knob's temp files), leaving the
    /// database attached to it. [`Database::load_paged`] reconstructs an
    /// equal database from the file.
    pub fn save_paged(
        &mut self,
        path: impl AsRef<Path>,
        pool: PoolConfig,
    ) -> io::Result<FlushReport> {
        let backend = Arc::new(FilePages::create_at(path.as_ref())?);
        self.attach_paged(backend, pool)
    }

    /// Load a database from a page file written by
    /// [`Database::save_paged`]. The page file stores the data, not the
    /// schema — callers supply the schema the file was saved under (the
    /// way TIMBER kept the DTD out of band). Verifies the meta page and
    /// every page's checksum — a torn or stale page is a typed
    /// [`PageFileError`] naming its segment and page index — decodes the
    /// stored segments, and rebuilds the derived structures; the result
    /// satisfies `same_state(original, true)` for a database whose
    /// dispatch mode is the default. Every page of the file the meta
    /// page's version does not name is free for the next commit to reuse.
    pub fn load_paged(
        path: impl AsRef<Path>,
        schema: MctSchema,
        pool: PoolConfig,
    ) -> io::Result<Database> {
        Database::load_from_backend(Arc::new(FilePages::open(path.as_ref())?), schema, pool)
    }

    /// [`Database::load_paged`] over an already-open backend (any
    /// [`StorageBackend`], e.g. a [`MemPages`] another database flushed
    /// to).
    pub fn load_from_backend(
        backend: Arc<dyn StorageBackend>,
        schema: MctSchema,
        pool: PoolConfig,
    ) -> io::Result<Database> {
        let mut meta_page = vec![0u8; PAGE_SIZE];
        backend.read_meta(&mut meta_page)?;
        let meta = decode_meta(&meta_page)?;
        let page_count = backend.page_count();
        // the `bytes` of a segment, read from its pages under checksum
        let read = |segment: &str, bytes: u64, pages: &[PageRef]| -> io::Result<Vec<u8>> {
            if pages.len() as u64 != pages_for(bytes) {
                return Err(corrupt(format!("segment {segment} lists the wrong page count")));
            }
            // grown page by page: the page count comes from the file
            let mut raw = Vec::new();
            for (i, p) in pages.iter().enumerate() {
                if p.id == 0 || p.id >= page_count {
                    return Err(corrupt(format!(
                        "segment {segment} names page {} past the end",
                        p.id
                    )));
                }
                raw.resize(raw.len() + PAGE_SIZE, 0);
                let buf = &mut raw[i * PAGE_SIZE..];
                backend.read_page(p.id, buf)?;
                if checksum(buf) != p.checksum {
                    let segment = segment.to_string();
                    return Err(PageFileError::Checksum { segment, page: i as u64 }.into());
                }
            }
            raw.truncate(bytes as usize);
            Ok(raw)
        };
        let dir = decode_dir(&read("directory", meta.dir_bytes, &meta.dir_pages)?)?;
        let read_seg = |seg: SegId| -> io::Result<(Vec<u8>, u64)> {
            let Some(e) = dir.segs.get(&seg) else { return Ok((Vec::new(), 0)) };
            Ok((read(&format!("{seg:?}"), e.bytes, &e.pages)?, e.rows))
        };
        let (b, rows) = read_seg(SegId::Symbols)?;
        let interner = decode_symbols(&b, rows)?;
        let (b, rows) = read_seg(SegId::Ordinals)?;
        let by_ordinal: Vec<Vec<ElementId>> = decode_slots(&b, &dir.ordinal_bases, rows)?;
        let (b, rows) = read_seg(SegId::Elements)?;
        let (elements, samples) = decode_elements(&b, rows, by_ordinal.len(), &interner)?;
        let (b, rows) = read_seg(SegId::Links)?;
        let links: Vec<Vec<u32>> = decode_slots(&b, &dir.link_bases, rows)?;
        let (b, _) = read_seg(SegId::RevLinks)?;
        let rev_links = decode_rev_links(&b)?;
        let (b, rows) = read_seg(SegId::Postings)?;
        let value_index = Arc::new(ValueIndex::from_entries(decode_postings(&b, rows)?));
        // a stored tree is in document order, so integrating it as one
        // pending tail reproduces it and builds its indexes
        let mut colors = Vec::with_capacity(schema.color_count());
        for c in 0..schema.color_count() {
            let (b, rows) = read_seg(SegId::Tree(c as u16))?;
            let mut tree = ColorTree::new(schema.placements().len(), by_ordinal.len());
            for o in decode_tree(&b, rows)? {
                tree.push(o.element, o.placement, o.parent);
            }
            tree.integrate(&elements);
            colors.push(tree);
        }
        // extents are the live ordinal slots; per node they are already in
        // ascending id order (ordinals and ids both grow with insertion)
        let extents: Vec<Vec<ElementId>> = by_ordinal
            .iter()
            .map(|slots| {
                let mut live: Vec<ElementId> =
                    slots.iter().copied().filter(|&e| e != TOMBSTONE).collect();
                live.sort_unstable();
                live
            })
            .collect();
        let named = dir.segs.values().flat_map(|e| &e.pages).chain(&meta.dir_pages);
        backend.pages().adopt(page_count, &meta_page, named.map(|p| p.id).collect());
        let interner = Arc::new(interner);
        let image = Image {
            elements: elements.clone(),
            index: value_index.clone(),
            interner: interner.clone(),
            samples,
        };
        let version = DirVersion::pinned(backend, dir, meta.dir_pages, image);
        Ok(Database {
            schema,
            elements,
            colors,
            extents: Arc::new(extents),
            by_ordinal: Arc::new(by_ordinal),
            links: Arc::new(links),
            rev_links: Arc::new(rev_links),
            interner,
            value_index,
            dispatch: Default::default(),
            epoch: meta.epoch,
            storage: Backing::Paged(PagedState {
                dir: version,
                dirty: BTreeSet::new(),
                pool,
                cache: Arc::new(PageCache::new(pool)),
            }),
        })
    }

    /// The pages this database's directory version names: per segment,
    /// under the name [`PageFileError::Checksum`] uses, its page ids in
    /// page-index order, then the directory's own under `"directory"`.
    /// Empty on the heap.
    pub fn page_map(&self) -> Vec<(String, Vec<PageId>)> {
        let Backing::Paged(s) = &self.storage else { return Vec::new() };
        let ids = |pages: &[PageRef]| pages.iter().map(|p| p.id).collect();
        let segs = s.dir.dir.segs.iter().map(|(seg, e)| (format!("{seg:?}"), ids(&e.pages)));
        segs.chain([("directory".to_string(), ids(&s.dir.dir_pages))]).collect()
    }

    /// Pages the attachment's shared page cache has read from the backend
    /// since the attach or load — the physical reads behind every query's
    /// `page_reads`, which count misses of a cold per-query clock. Zero on
    /// the heap.
    pub fn physical_page_reads(&self) -> u64 {
        match &self.storage {
            Backing::Heap => 0,
            Backing::Paged(s) => s.cache.reads(),
        }
    }

    /// The storage context queries against this database run with: a
    /// heap-backed database gets the free no-op context; a paged database
    /// gets the directory, a fresh, cold accounting clock at the attached
    /// byte budget, and the attachment's shared page cache. Per-query
    /// clocks keep the page counters deterministic under any worker count.
    pub(crate) fn storage_ctx(&self) -> StorageCtx {
        match &self.storage {
            Backing::Heap => StorageCtx { inner: None },
            Backing::Paged(s) => StorageCtx {
                inner: Some(PagedCtx {
                    version: s.dir.clone(),
                    clock: Clock::new(s.pool),
                    cache: s.cache.clone(),
                }),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// per-query storage context

/// Per-query paged reads: resolves the records the executor reads to
/// pages of the attached backend, charges them through a private
/// accounting clock, and makes each page the clock misses resident in the
/// attachment's shared page cache. For a heap-backed database every method
/// is a no-op, so the executor calls them unconditionally.
///
/// A touch fails only when a page the cache must read cannot be read, or
/// its bytes do not hash to the checksum the directory records for it:
/// the error names the segment and the page's index within it (a
/// checksum mismatch is a [`PageFileError::Checksum`]).
///
/// Records mutated (or created) since the last flush live past the end of
/// their flushed segment; touches beyond a segment's flushed length are
/// silently skipped — those records exist only in the working
/// representation until the next commit writes them back.
#[derive(Debug)]
pub(crate) struct StorageCtx {
    inner: Option<PagedCtx>,
}

#[derive(Debug)]
struct PagedCtx {
    /// Held for the whole query, so no page it reads is reused under it.
    version: Arc<DirVersion>,
    clock: Clock,
    cache: Arc<PageCache>,
}

/// Count one access to page `index` of `seg` on the query's clock and, on
/// a miss, make it resident in the shared cache.
fn access(
    clock: &mut Clock,
    cache: &PageCache,
    backend: &dyn StorageBackend,
    seg: SegId,
    index: usize,
    page: PageRef,
    m: &mut Metrics,
) -> io::Result<()> {
    if clock.access(page.id, m) {
        return Ok(());
    }
    let at = |what: String| format!("segment {seg:?}, page {index}: {what}");
    cache.fault(page.id, page.checksum, |buf| backend.read_page(page.id, buf)).map_err(
        |f| match f {
            Fault::Read(e) => io::Error::new(e.kind(), at(e.to_string())),
            Fault::Checksum => {
                PageFileError::Checksum { segment: format!("{seg:?}"), page: index as u64 }.into()
            }
            Fault::Stale => io::Error::other(at("the cached page is stale".into())),
        },
    )
}

impl StorageCtx {
    /// Touch a run of fixed-size rows of `seg`. Consecutive rows landing
    /// on the page just accessed are absorbed (a scan reads each page
    /// once); every page transition is one clock access.
    fn touch_rows(
        &mut self,
        seg: SegId,
        rec: u64,
        rows: impl IntoIterator<Item = u64>,
        m: &mut Metrics,
    ) -> io::Result<()> {
        let Some(PagedCtx { version, clock, cache }) = &mut self.inner else { return Ok(()) };
        let Some(e) = version.dir.segs.get(&seg) else { return Ok(()) };
        let mut last = usize::MAX;
        for row in rows {
            let off = row * rec;
            if off >= e.bytes {
                continue; // newer than the flushed segment: heap-only
            }
            let index = (off / PAGE_SIZE as u64) as usize;
            if index != last {
                last = index;
                access(clock, cache, &*version.backend, seg, index, e.pages[index], m)?;
            }
        }
        Ok(())
    }

    /// Touch the occurrence records behind `occs` in color `c`.
    pub fn touch_occs(&mut self, c: ColorId, occs: &[OccId], m: &mut Metrics) -> io::Result<()> {
        if self.inner.is_none() {
            return Ok(());
        }
        self.touch_rows(SegId::Tree(c.0), REC_OCC, occs.iter().map(|o| o.idx() as u64), m)
    }

    /// Touch the element records behind `elems` (attribute reads).
    /// Element records are variable-size; rows map to byte offsets at the
    /// segment's mean record size, which keeps the mapping deterministic
    /// without a per-row offset table.
    pub fn touch_elements(&mut self, elems: &[ElementId], m: &mut Metrics) -> io::Result<()> {
        if self.inner.is_some() {
            for &e in elems {
                self.touch_element(e, m)?;
            }
        }
        Ok(())
    }

    /// Touch one element record.
    pub fn touch_element(&mut self, e: ElementId, m: &mut Metrics) -> io::Result<()> {
        let Some(PagedCtx { version, clock, cache }) = &mut self.inner else { return Ok(()) };
        let Some(entry) = version.dir.segs.get(&SegId::Elements) else { return Ok(()) };
        if entry.rows == 0 || e.idx() as u64 >= entry.rows {
            return Ok(());
        }
        let off = (e.idx() as u128 * entry.bytes as u128 / entry.rows as u128) as u64;
        let index = (off / PAGE_SIZE as u64) as usize;
        let page = entry.pages[index];
        access(clock, cache, &*version.backend, SegId::Elements, index, page, m)
    }

    /// Touch a probed or scanned range of value-index postings. `slice`
    /// must be a sub-slice of one column's run (as returned by
    /// `matching`/`of_attr`); its position in the index's global posting
    /// order is its row range in the postings segment.
    pub fn touch_postings(
        &mut self,
        index: &ValueIndex,
        slice: &[IndexEntry],
        m: &mut Metrics,
    ) -> io::Result<()> {
        if self.inner.is_none() {
            return Ok(());
        }
        let Some(row0) = index.row_of(slice) else { return Ok(()) };
        self.touch_rows(SegId::Postings, REC_POSTING, row0..row0 + slice.len() as u64, m)
    }

    /// Touch one ordinal-index slot (an id→element probe).
    pub fn touch_ordinal(&mut self, node: NodeId, ordinal: u32, m: &mut Metrics) -> io::Result<()> {
        let Some(ctx) = &self.inner else { return Ok(()) };
        let Some(&base) = ctx.version.dir.ordinal_bases.get(node.idx()) else { return Ok(()) };
        self.touch_rows(SegId::Ordinals, REC_SLOT, std::iter::once(base + ordinal as u64), m)
    }

    /// Touch one link-table slot (a parent-child adjacency probe).
    pub fn touch_link(
        &mut self,
        edge: colorist_er::EdgeId,
        rel_ordinal: u32,
        m: &mut Metrics,
    ) -> io::Result<()> {
        let Some(ctx) = &self.inner else { return Ok(()) };
        let Some(&base) = ctx.version.dir.link_bases.get(edge.idx()) else { return Ok(()) };
        self.touch_rows(SegId::Links, REC_SLOT, std::iter::once(base + rel_ordinal as u64), m)
    }
}

// ---------------------------------------------------------------------------
// backend selection

/// Which storage a freshly materialized database is attached to — the
/// run configuration's `--backend`/`--pool-bytes` pair as a value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Storage {
    /// Stay on the heap: no pages, page counters stay zero.
    #[default]
    Heap,
    /// In-memory pages ([`MemPages`]) read through pools of this budget.
    PagedMem(PoolConfig),
    /// A temp page file ([`FilePages`], under `COLORIST_PAGE_DIR` or the
    /// system temp dir) read through pools of this budget.
    PagedFile(PoolConfig),
}

impl Storage {
    /// Select by backend label: `"mem"`, `"paged-mem"` or `"paged"`.
    pub fn parse(label: &str, pool: PoolConfig) -> Result<Storage, String> {
        match label {
            "mem" => Ok(Storage::Heap),
            "paged-mem" => Ok(Storage::PagedMem(pool)),
            "paged" => Ok(Storage::PagedFile(pool)),
            other => Err(format!("unknown backend {other:?} (expected mem, paged or paged-mem)")),
        }
    }

    /// The backend label summaries print; [`Storage::parse`] inverts it.
    pub fn label(&self) -> &'static str {
        match self {
            Storage::Heap => "mem",
            Storage::PagedMem(_) => "paged-mem",
            Storage::PagedFile(_) => "paged",
        }
    }

    /// The buffer-pool byte budget (0 on the heap — there is no pool).
    pub fn pool_bytes(&self) -> u64 {
        match self {
            Storage::Heap => 0,
            Storage::PagedMem(pool) | Storage::PagedFile(pool) => pool.pool_bytes,
        }
    }

    /// Attach `db` to this storage; a no-op on the heap.
    pub fn attach(&self, db: &mut Database) -> io::Result<()> {
        let (backend, pool): (Arc<dyn StorageBackend>, _) = match *self {
            Storage::Heap => return Ok(()),
            Storage::PagedMem(pool) => (Arc::new(MemPages::new()), pool),
            Storage::PagedFile(pool) => (Arc::new(FilePages::create_temp()?), pool),
        };
        db.attach_paged(backend, pool).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::{build, tiny};

    #[test]
    fn attach_flush_load_roundtrip() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let backend = Arc::new(MemPages::new());
        let report = db.attach_paged(backend.clone(), PoolConfig::default()).unwrap();
        assert!(report.pages_written >= 2, "segments + directory + meta");
        let loaded =
            Database::load_from_backend(backend, s.clone(), PoolConfig::default()).unwrap();
        assert_eq!(loaded.same_state(&db, true), Ok(()));
        assert_eq!(loaded.check_integrity(), Ok(()));
    }

    #[test]
    fn mutations_flush_incrementally_and_reload() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let backend = Arc::new(MemPages::new());
        db.attach_paged(backend.clone(), PoolConfig::default()).unwrap();
        let full = backend.page_count();

        let b = g.node_by_name("b").unwrap();
        let eb0 = db.extent(b)[0];
        let before = db.page_map();
        db.write_attr(eb0, 1, Value::Text("rewritten".into()));
        let report = db.flush_storage().unwrap();
        // a new symbol: the one page each of Elements, Postings and
        // Symbols changed, and the directory's one page; plus the meta page
        assert_eq!(report.pages_written, 5);
        let after = db.page_map();
        for ((seg, old), (_, new)) in before.iter().zip(&after) {
            let moved = ["Elements", "Postings", "Symbols", "directory"].contains(&seg.as_str());
            assert_eq!(old != new, moved, "{seg}: only changed pages move");
        }
        assert_eq!(backend.page_count(), full + 4, "nothing free yet: the file grows once");
        assert_eq!(backend.pages().free_pages().len(), 4, "the replaced pages are free");
        db.write_attr(eb0, 1, Value::Text("again".into()));
        db.flush_storage().unwrap();
        assert_eq!(backend.page_count(), full + 4, "the next commit reuses them");
        // an immediate second flush has nothing dirty
        assert_eq!(db.flush_storage().unwrap(), FlushReport::default());

        // deletes exercise tombstones, extent retraction, and relabels
        db.remove_element_occurrences(db.extent(b)[1]);
        // links and kills exercise the link/rev-link segments
        let e_ra = g.edge_ids().find(|&e| g.edge(e).rel == g.node_by_name("r").unwrap()).unwrap();
        db.push_link(e_ra, 0, 0);
        db.push_link(e_ra, 1, 0);
        db.kill_link(e_ra, 0);
        db.flush_storage().unwrap();

        let loaded = Database::load_from_backend(backend, s, PoolConfig::default()).unwrap();
        assert_eq!(loaded.same_state(&db, true), Ok(()));
        assert_eq!(loaded.check_integrity(), Ok(()));
    }

    #[test]
    fn save_and_load_via_page_file() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        let path =
            crate::page::page_dir().join(format!("colorist-save-test-{}.bin", std::process::id()));
        db.save_paged(&path, PoolConfig::default()).unwrap();
        let loaded = Database::load_paged(&path, s, PoolConfig::default()).unwrap();
        assert_eq!(loaded.same_state(&db, true), Ok(()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn storage_ctx_charges_only_page_counters() {
        let (g, s) = tiny();
        let mut db = build(&g, &s);
        // heap context: all no-ops
        let mut ctx = db.storage_ctx();
        let mut m = Metrics::default();
        ctx.touch_element(ElementId(0), &mut m).unwrap();
        assert_eq!(m, Metrics::default());

        db.attach_paged(Arc::new(MemPages::new()), PoolConfig::default()).unwrap();
        let mut ctx = db.storage_ctx();
        assert!(ctx.inner.is_some(), "a paged database gets a paged context");
        let c = ColorId(0);
        let occs: Vec<OccId> = (0..db.color(c).occs().len() as u32).map(OccId).collect();
        ctx.touch_occs(c, &occs, &mut m).unwrap();
        ctx.touch_elements(&[ElementId(0), ElementId(1)], &mut m).unwrap();
        let b = g.node_by_name("b").unwrap();
        let key = db.join_key(&Value::Int(0));
        ctx.touch_postings(db.value_index(), db.value_index().matching(b, 0, key), &mut m).unwrap();
        ctx.touch_ordinal(b, 0, &mut m).unwrap();
        assert!(m.page_reads > 0, "cold pool faults pages in");
        assert!(m.pool_hits > 0, "tiny database: later touches hit");
        let pristine =
            Metrics { page_reads: m.page_reads, pool_hits: m.pool_hits, ..Default::default() };
        assert_eq!(m, pristine, "touches must charge page counters only");

        // rows newer than the flushed segment are skipped, not faulted
        let fresh = db.insert_element(b, vec![Value::Int(9), Value::Text("w".into())]);
        let mut ctx = db.storage_ctx();
        let before = m;
        ctx.touch_element(fresh, &mut m).unwrap();
        assert_eq!(m, before, "unflushed rows live only in the heap");
    }

    /// A count a directory or a segment names is checked against the bytes
    /// before anything is sized by it: a huge count and decreasing slot
    /// bases are typed `InvalidData` errors, not an abort in the allocator
    /// or a wrapped subtraction.
    #[test]
    fn decoders_bound_every_count_by_the_bytes() {
        let invalid = |r: io::Result<()>| {
            assert_eq!(r.expect_err("must be refused").kind(), io::ErrorKind::InvalidData)
        };
        let bytes = [0u8; 64];
        let huge = u64::MAX / 2;
        invalid(decode_tree(&bytes, huge).map(drop));
        invalid(decode_postings(&bytes, huge).map(drop));
        invalid(decode_symbols(&bytes, huge).map(drop));
        invalid(decode_elements(&bytes, huge, 1, &Interner::default()).map(drop));
        invalid(decode_slots::<u32>(&bytes, &[0, 4], huge).map(drop));
        invalid(decode_slots::<u32>(&bytes, &[0, 8, 4], 12).map(drop));
        invalid(decode_slots::<u32>(&bytes, &[0, 13], 12).map(drop));
        // rev links: edge, participant and entry counts past the bytes
        for prefix in [&[u32::MAX][..], &[1, u32::MAX], &[1, 1, u32::MAX]] {
            let mut b = Vec::new();
            prefix.iter().for_each(|&w| put_u32(&mut b, w));
            b.resize(64, 0);
            invalid(decode_rev_links(&b).map(drop));
        }
        // counts the bytes do hold still decode
        assert_eq!(decode_slots::<u32>(&bytes, &[0, 8, 8], 12).unwrap().len(), 3);
        assert_eq!(decode_tree(&bytes, 2).unwrap().len(), 2);
    }

    #[test]
    fn storage_selection_parses_and_attaches() {
        let (g, s) = tiny();
        let pool = PoolConfig::default();
        assert!(Storage::parse("bogus", pool).is_err());
        let paged = Storage::parse("paged-mem", pool).unwrap();
        let mut db = build(&g, &s);
        paged.attach(&mut db).unwrap();
        assert!(db.is_paged());
        assert_eq!((paged.label(), paged.pool_bytes()), ("paged-mem", pool.pool_bytes));
        let heap = Storage::parse("mem", pool).unwrap();
        let mut db = build(&g, &s);
        heap.attach(&mut db).unwrap();
        assert!(!db.is_paged());
        assert_eq!((heap.label(), heap.pool_bytes()), ("mem", 0));
    }
}

//! Paged reads in two layers, one clock policy.
//!
//! * **Accounting, per query.** Every query executed against a paged
//!   database gets its own cold `Clock` at the attached byte budget
//!   ([`PoolConfig`]). It holds page ids and reference bits only — no
//!   bytes — and charges each access as a `pool_hit` or a `page_read`, and
//!   each clock victim as a `pool_eviction`. Per-query clocks keep those
//!   counters deterministic and independent of how many worker threads
//!   the suite runs queries on (a shared clock would make one query's hits
//!   depend on which queries ran before it on that worker; see the
//!   serial-vs-parallel determinism tests in `tests/trace.rs`).
//! * **Bytes, per attachment.** Each accounting miss goes through the
//!   attachment's one `PageCache`: the same clock policy over 8 KB
//!   frames behind one mutex, at the same byte budget, shared by the
//!   database's clones, snapshots and queries. Only a page the cache does
//!   not hold is read from the backend, straight into its frame, and
//!   checked against the checksum the directory records for it.

use crate::metrics::Metrics;
use crate::page::{checksum, PageId, PAGE_SIZE};
use std::io;
use std::sync::{Mutex, MutexGuard};

/// Buffer-pool sizing: the byte budget the `--pool-bytes` knob sets. It
/// bounds both the per-query accounting clock and the attachment's page
/// cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Pool budget in bytes; a pool holds at most
    /// `max(1, pool_bytes / PAGE_SIZE)` frames.
    pub pool_bytes: u64,
}

/// Default pool budget: 16 MiB (2048 frames), a deliberately small echo of
/// TIMBER's 256 MB pool scaled to this reproduction's data sizes.
pub const DEFAULT_POOL_BYTES: u64 = 16 * 1024 * 1024;

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { pool_bytes: DEFAULT_POOL_BYTES }
    }
}

impl PoolConfig {
    /// Frame capacity under the byte budget (at least one frame).
    pub fn frames(&self) -> usize {
        ((self.pool_bytes / PAGE_SIZE as u64) as usize).max(1)
    }
}

/// `Clock::frame_of` entry of a page no frame holds.
const ABSENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    page: PageId,
    /// Second-chance bit: set on every access, cleared as the clock hand
    /// passes; a frame is only evicted with the bit clear.
    referenced: bool,
}

/// Where [`Clock::touch`] put a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Touch {
    /// The page was resident in this frame.
    Hit(usize),
    /// The page now owns this frame, which held `evicted` (a clock victim)
    /// or nothing.
    Miss { frame: usize, evicted: Option<PageId> },
}

/// The clock (second-chance) replacement policy over page ids: which page
/// each of at most `capacity` frames holds. Frames are added on demand, so
/// an untouched clock costs nothing; page → frame is a dense vector
/// indexed by page id.
#[derive(Debug, Default)]
pub(crate) struct Clock {
    slots: Vec<Slot>,
    frame_of: Vec<u32>,
    /// Frames emptied by [`Clock::forget`], reused before any eviction.
    vacant: Vec<usize>,
    hand: usize,
    capacity: usize,
}

impl Clock {
    /// An empty clock with the given budget.
    pub(crate) fn new(cfg: PoolConfig) -> Self {
        Clock { capacity: cfg.frames(), ..Clock::default() }
    }

    /// The per-query accounting access: charges exactly one of
    /// `pool_hits`/`page_reads`, plus one `pool_evictions` when the clock
    /// had to victimize a frame. Returns whether `page` was resident.
    pub(crate) fn access(&mut self, page: PageId, m: &mut Metrics) -> bool {
        match self.touch(page) {
            Touch::Hit(_) => {
                m.pool_hits += 1;
                true
            }
            Touch::Miss { evicted, .. } => {
                m.page_reads += 1;
                m.pool_evictions += evicted.is_some() as u64;
                false
            }
        }
    }

    /// Reference `page`, making it resident: a hit sets its frame's bit; a
    /// miss takes a vacant frame, grows while under budget, or else runs
    /// the clock sweep — referenced frames lose their bit, and the first
    /// frame found with it clear is the victim.
    pub(crate) fn touch(&mut self, page: PageId) -> Touch {
        let p = page as usize;
        if let Some(&f) = self.frame_of.get(p).filter(|&&f| f != ABSENT) {
            self.slots[f as usize].referenced = true;
            return Touch::Hit(f as usize);
        }
        if p >= self.frame_of.len() {
            self.frame_of.resize(p + 1, ABSENT);
        }
        let (frame, evicted) = if let Some(f) = self.vacant.pop() {
            (f, None)
        } else if self.slots.len() < self.capacity {
            self.slots.push(Slot { page, referenced: false });
            (self.slots.len() - 1, None)
        } else {
            loop {
                let f = self.hand;
                self.hand = (self.hand + 1) % self.slots.len();
                let s = &mut self.slots[f];
                if !std::mem::take(&mut s.referenced) {
                    self.frame_of[s.page as usize] = ABSENT;
                    break (f, Some(s.page));
                }
            }
        };
        self.slots[frame] = Slot { page, referenced: true };
        self.frame_of[p] = frame as u32;
        Touch::Miss { frame, evicted }
    }

    /// Drop `page` if resident, vacating its frame.
    pub(crate) fn forget(&mut self, page: PageId) {
        if let Some(f) = self.frame_of.get_mut(page as usize).filter(|f| **f != ABSENT) {
            let frame = std::mem::replace(f, ABSENT) as usize;
            self.slots[frame].referenced = false;
            self.vacant.push(frame);
        }
    }

    /// Number of frames in use.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len() - self.vacant.len()
    }

    /// Whether `page` is resident.
    #[cfg(test)]
    fn contains(&self, page: PageId) -> bool {
        self.frame_of.get(page as usize).is_some_and(|&f| f != ABSENT)
    }
}

/// Why [`PageCache::fault`] could not make a page resident.
#[derive(Debug)]
pub(crate) enum Fault {
    /// The backend read failed.
    Read(io::Error),
    /// The bytes read do not hash to the checksum the directory records.
    Checksum,
    /// A resident frame was verified against another checksum than the
    /// one now asked for: the page was rewritten without being dropped
    /// from the cache. Never happens while every write of a page goes
    /// through [`PageCache::forget`] first.
    Stale,
}

/// The attachment's shared page cache: 8 KB frames under the clock
/// policy, behind one mutex. A frame remembers the checksum its bytes were
/// verified against.
#[derive(Debug)]
pub(crate) struct PageCache {
    state: Mutex<CacheState>,
}

#[derive(Debug)]
struct CacheState {
    clock: Clock,
    frames: Vec<CachedPage>,
    /// Pages read from the backend since the cache was made.
    reads: u64,
}

#[derive(Debug)]
struct CachedPage {
    data: Box<[u8]>,
    checksum: u64,
}

impl PageCache {
    /// An empty cache at the given budget; frames are allocated as pages
    /// first fill them.
    pub(crate) fn new(cfg: PoolConfig) -> Self {
        let clock = Clock::new(cfg);
        PageCache { state: Mutex::new(CacheState { clock, frames: Vec::new(), reads: 0 }) }
    }

    /// A poisoned lock means a panic mid-read, which may have left a frame
    /// half-filled: the cache starts over empty rather than fail every
    /// later query.
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            let mut st = poisoned.into_inner();
            st.clock = Clock { capacity: st.clock.capacity, ..Clock::default() };
            st.frames.clear();
            self.state.clear_poison();
            st
        })
    }

    /// Make `page` resident. A resident page must have been verified
    /// against `sum`; a page that is not is read with `read` straight into
    /// the frame it takes, once, and its [`checksum`] compared with `sum`.
    /// On any error the page is left out of the cache.
    pub(crate) fn fault(
        &self,
        page: PageId,
        sum: u64,
        read: impl FnOnce(&mut [u8]) -> io::Result<()>,
    ) -> Result<(), Fault> {
        let mut st = self.lock();
        let st = &mut *st;
        let frame = match st.clock.touch(page) {
            Touch::Hit(f) if st.frames[f].checksum == sum => return Ok(()),
            Touch::Hit(_) => {
                st.clock.forget(page);
                return Err(Fault::Stale);
            }
            Touch::Miss { frame, .. } => frame,
        };
        if frame == st.frames.len() {
            st.frames.push(CachedPage { data: vec![0; PAGE_SIZE].into_boxed_slice(), checksum: 0 });
        }
        st.reads += 1;
        let cached = &mut st.frames[frame];
        let verified = match read(&mut cached.data) {
            Err(e) => Err(Fault::Read(e)),
            Ok(()) if checksum(&cached.data) != sum => Err(Fault::Checksum),
            Ok(()) => Ok(()),
        };
        match verified {
            Ok(()) => cached.checksum = sum,
            Err(_) => st.clock.forget(page),
        }
        verified
    }

    /// Drop each of `pages` from the cache: they are about to be
    /// overwritten.
    pub(crate) fn forget(&self, pages: impl IntoIterator<Item = PageId>) {
        let mut st = self.lock();
        for p in pages {
            st.clock.forget(p);
        }
    }

    /// Pages read from the backend since the cache was made.
    pub(crate) fn reads(&self) -> u64 {
        self.lock().reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(frames: u64) -> Clock {
        Clock::new(PoolConfig { pool_bytes: frames * PAGE_SIZE as u64 })
    }

    /// `(page_reads, pool_hits, pool_evictions)` after accessing `pages`.
    fn run(c: &mut Clock, pages: &[PageId], m: &mut Metrics) -> (u64, u64, u64) {
        for &p in pages {
            c.access(p, m);
        }
        (m.page_reads, m.pool_hits, m.pool_evictions)
    }

    #[test]
    fn hits_misses_and_evictions_are_counted() {
        let mut c = clock(2);
        assert_eq!(c.capacity, 2);
        let mut m = Metrics::default();
        assert_eq!(run(&mut c, &[1, 2, 1], &mut m), (2, 1, 0));
        // a third page under a two-frame budget evicts
        assert_eq!(run(&mut c, &[3], &mut m), (3, 1, 1));
        assert_eq!(c.len(), 2, "the clock never exceeds its budget");
    }

    #[test]
    fn a_streamed_working_set_bigger_than_the_clock_evicts_on_every_miss() {
        // the sequence that once streamed past a pinned page: with nothing
        // pinned, three pages cycling through two frames never hit
        let mut c = clock(2);
        let mut m = Metrics::default();
        assert_eq!(run(&mut c, &[1, 2, 3, 4, 2, 3, 4], &mut m), (7, 0, 5));
        assert!(!c.contains(1), "the oldest page went first");
        assert!(c.contains(4) && c.len() == 2);
    }

    #[test]
    fn eviction_then_reaccess_is_a_miss() {
        let mut c = clock(1);
        let mut m = Metrics::default();
        // evict page 1 by touching 2 and 3 through the single frame, then
        // fault it back in
        assert_eq!(run(&mut c, &[1, 2, 3], &mut m), (3, 0, 2));
        assert!(!c.contains(1));
        assert_eq!(run(&mut c, &[1], &mut m), (4, 0, 3));
        assert!(c.contains(1));
    }

    #[test]
    fn a_referenced_frame_gets_its_second_chance() {
        let mut c = clock(2);
        let mut m = Metrics::default();
        // page 1 is re-referenced after 2 arrives; the sweep clears both
        // bits, wraps, and takes page 1's frame (the hand's first). Then
        // page 3, referenced again, survives the next miss and cold page 2
        // goes
        assert_eq!(run(&mut c, &[1, 2, 1, 3], &mut m), (3, 1, 1));
        assert!(!c.contains(1) && c.contains(2) && c.contains(3));
        assert_eq!(run(&mut c, &[3, 4], &mut m), (4, 2, 2));
        assert!(!c.contains(2) && c.contains(3) && c.contains(4));
    }

    #[test]
    fn forgotten_frames_are_reused_before_any_eviction() {
        let mut c = clock(2);
        assert!(matches!(c.touch(1), Touch::Miss { frame: 0, evicted: None }));
        assert!(matches!(c.touch(2), Touch::Miss { frame: 1, evicted: None }));
        c.forget(1);
        c.forget(1); // already gone: a no-op
        assert_eq!(c.len(), 1);
        assert_eq!(c.touch(3), Touch::Miss { frame: 0, evicted: None });
        assert_eq!(c.touch(2), Touch::Hit(1));
    }

    #[test]
    fn tiny_budget_still_has_one_frame() {
        assert_eq!(PoolConfig { pool_bytes: 0 }.frames(), 1);
        assert_eq!(PoolConfig::default().frames(), 2048);
        // with nothing pinned, a second page in one frame is an eviction,
        // never growth past the budget
        let mut c = Clock::new(PoolConfig { pool_bytes: 0 });
        let mut m = Metrics::default();
        assert_eq!(run(&mut c, &[1, 2], &mut m), (2, 0, 1));
        assert_eq!(c.len(), 1);
    }

    /// A backend read filling the page with `byte`.
    fn page_of(byte: u8) -> impl FnOnce(&mut [u8]) -> io::Result<()> {
        move |buf: &mut [u8]| {
            buf.fill(byte);
            Ok(())
        }
    }

    /// The checksum of a page filled with `byte`.
    fn sum(byte: u8) -> u64 {
        checksum(&[byte; PAGE_SIZE])
    }

    #[test]
    fn the_cache_reads_a_page_once_and_verifies_it() {
        let cache = PageCache::new(PoolConfig { pool_bytes: 2 * PAGE_SIZE as u64 });
        cache.fault(1, sum(7), page_of(7)).unwrap();
        cache.fault(1, sum(7), |_| panic!("a resident page is not read again")).unwrap();
        assert_eq!(cache.reads(), 1);
        assert!(matches!(cache.fault(2, sum(9), page_of(8)), Err(Fault::Checksum)));
        let failed = |_: &mut [u8]| Err(io::Error::other("device gone"));
        assert!(matches!(cache.fault(3, sum(9), failed), Err(Fault::Read(_))));
        // neither failure left its page behind: both are read again
        cache.fault(2, sum(8), page_of(8)).unwrap();
        cache.fault(3, sum(3), page_of(3)).unwrap();
        assert_eq!(cache.reads(), 5);
    }

    #[test]
    fn a_panic_mid_read_empties_the_cache_instead_of_poisoning_it() {
        let cache = PageCache::new(PoolConfig { pool_bytes: 2 * PAGE_SIZE as u64 });
        cache.fault(1, sum(1), page_of(1)).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.fault(2, sum(2), |buf| {
                buf[0] = 0xff;
                panic!("the backend panicked mid-read")
            })
        }));
        assert!(panicked.is_err());
        // page 2's half-read frame is gone, and so is page 1
        cache.fault(2, sum(2), page_of(2)).unwrap();
        cache.fault(1, sum(1), page_of(1)).unwrap();
        assert_eq!(cache.reads(), 4);
    }

    #[test]
    fn a_rewritten_page_is_served_only_after_it_was_forgotten() {
        let cache = PageCache::new(PoolConfig { pool_bytes: 2 * PAGE_SIZE as u64 });
        cache.fault(1, sum(1), page_of(1)).unwrap();
        // page 1 rewritten with other bytes and not forgotten: refused
        // once, and dropped
        assert!(matches!(cache.fault(1, sum(2), page_of(2)), Err(Fault::Stale)));
        cache.fault(1, sum(2), page_of(2)).unwrap();
        cache.forget([1]);
        cache.fault(1, sum(5), page_of(5)).unwrap();
        assert_eq!(cache.reads(), 3);
    }
}

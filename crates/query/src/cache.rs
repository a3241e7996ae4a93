//! Sharded prepared-plan cache (DESIGN.md §15.3).
//!
//! The query service compiles each distinct read pattern **once** per
//! `(pattern, strategy)` and serves the cached [`Plan`] from then on. A
//! plan is a pure function of that key — [`optimize`](crate::optimize())
//! reads the schema and the pattern, never the data — so no write can make
//! an entry stale and there is nothing to validate on a lookup: *zero
//! stale serves* holds by construction, and after a key's first touch
//! every lookup hits, however many epochs have committed since.
//!
//! Concurrency: the map is split into [`SHARDS`] independently locked
//! shards selected by key hash. A miss **builds the plan while holding
//! its shard lock**, so concurrent first requests for one key serialize:
//! exactly one charges a miss, every other requester charges a hit. That
//! makes the `plan_cache_hits`/`plan_cache_misses` counter family a pure
//! function of the request multiset (first touch per key misses, the rest
//! hit) for any worker count, as long as capacity is not exceeded — the
//! determinism the perfgate exact-matches. Distinct keys hashing to
//! different shards never contend. A `build` that panics poisons its
//! shard's lock; since every entry is a pure function of its key and an
//! insert is the last step of a miss, the shard is still consistent, so
//! later lookups recover it and carry on.
//!
//! Eviction: per-shard FIFO over first-insertion order, triggered when a
//! shard exceeds its slice of the configured capacity. FIFO (not LRU)
//! keeps eviction order independent of read timing, preserving counter
//! determinism even when the sweep runs.

use crate::pattern::Pattern;
use crate::plan::Plan;
use crate::QueryError;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of independently locked shards. A power of two so the shard
/// index is a cheap mask of the key hash.
pub const SHARDS: usize = 16;

/// Default total entry capacity (across all shards) of
/// [`PlanCache::new`]. Workloads have tens of distinct patterns × seven
/// strategies; 1024 holds them all with room to spare.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Cache key: the pattern's structural fingerprint and the
/// schema/strategy label.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    fingerprint: String,
    strategy: String,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Arc<Plan>>,
    fifo: VecDeque<Key>,
}

/// Counter snapshot of a [`PlanCache`]; see [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled and inserted.
    pub misses: u64,
    /// Entries removed by the capacity sweep.
    pub evictions: u64,
    /// Entries currently resident (across all shards).
    pub entries: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The outcome of one [`PlanCache::get_or_build`] lookup.
#[derive(Debug, Clone)]
pub struct Lookup {
    /// The cached or freshly built plan.
    pub plan: Arc<Plan>,
    /// Whether the lookup was served from the cache.
    pub hit: bool,
    /// Entries the capacity sweep evicted *because of this insert* (0 on
    /// hits) — the per-request share of `plan_cache_evictions`.
    pub evicted: u64,
}

/// The sharded prepared-plan cache. Cheap to share: wrap it in an
/// [`Arc`] and hand clones to every worker.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (split evenly across
    /// [`SHARDS`]; each shard holds at least one).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cap_per_shard: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// One shard, locked. A panic in some earlier `build` poisons the
    /// lock, but a shard only changes after `build` returned, so it is
    /// consistent and safe to keep using.
    fn shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up the plan for `(pattern, strategy)`: a hit iff an entry
    /// exists. Otherwise run `build` (under the shard lock — see the
    /// module docs for why) and insert its plan. A failing `build` changes
    /// nothing and charges a miss.
    pub fn get_or_build(
        &self,
        pattern: &Pattern,
        strategy: &str,
        build: impl FnOnce() -> Result<Plan, QueryError>,
    ) -> Result<Lookup, QueryError> {
        let key = Key { fingerprint: format!("{pattern:?}"), strategy: strategy.to_string() };
        let mut s = self.shard(fnv1a(&key) as usize % SHARDS);
        if let Some(plan) = s.map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Lookup { plan: Arc::clone(plan), hit: true, evicted: 0 });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build()?);
        s.map.insert(key.clone(), Arc::clone(&plan));
        s.fifo.push_back(key);
        let mut evicted = 0;
        while s.map.len() > self.cap_per_shard {
            let victim = s.fifo.pop_front().expect("fifo tracks map");
            s.map.remove(&victim);
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(Lookup { plan, hit: false, evicted })
    }

    /// Current counter totals and resident-entry count.
    pub fn stats(&self) -> CacheStats {
        let entries = (0..SHARDS).map(|i| self.shard(i).map.len() as u64).sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Drop every entry (counters keep accumulating).
    pub fn clear(&self) {
        for i in 0..SHARDS {
            let mut s = self.shard(i);
            s.map.clear();
            s.fifo.clear();
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity_per_shard", &self.cap_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Optimize-through-cache: the query service's prepare step. Serves the
/// cached plan of `(pattern, db.schema.strategy)`, optimizing it on the
/// key's first touch.
pub fn optimize_cached(
    cache: &PlanCache,
    db: &colorist_store::Database,
    graph: &colorist_er::ErGraph,
    pattern: &Pattern,
) -> Result<Lookup, QueryError> {
    cache.get_or_build(pattern, &db.schema.strategy, || crate::optimize(db, graph, pattern))
}

/// FNV-1a over the key's two components — stable, allocation-free, and
/// independent of the std `HashMap` hasher, so the shard layout is
/// reproducible for debugging.
fn fnv1a(key: &Key) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(key.fingerprint.as_bytes());
    eat(&[0xff]);
    eat(key.strategy.as_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(name: &str) -> Pattern {
        Pattern {
            name: name.to_string(),
            nodes: Vec::new(),
            edges: Vec::new(),
            output: 0,
            distinct: false,
            group_by: None,
        }
    }

    fn plan() -> Result<Plan, QueryError> {
        Ok(Plan::new("q".into(), "DR".into(), Vec::new(), 0, 1, Vec::new()))
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let cache = PlanCache::new(64);
        let p = pattern("q1");
        let lk = cache.get_or_build(&p, "DR", plan).unwrap();
        assert!(!lk.hit);
        let lk = cache.get_or_build(&p, "DR", || panic!("cached")).unwrap();
        assert!(lk.hit && lk.evicted == 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strategies_partition_the_keyspace() {
        let cache = PlanCache::new(64);
        let p = pattern("q1");
        for strategy in ["DR", "DEEP"] {
            let lk = cache.get_or_build(&p, strategy, plan).unwrap();
            assert!(!lk.hit, "{strategy} must be a distinct key");
        }
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn capacity_sweep_evicts_fifo() {
        // capacity 16 → one entry per shard; same-shard collisions evict
        let cache = PlanCache::new(16);
        for i in 0..64 {
            cache.get_or_build(&pattern(&format!("q{i}")), "EN", plan).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.misses, 64);
        assert_eq!(s.evictions, 64 - s.entries);
        assert!(s.entries <= 16);
    }

    #[test]
    fn build_errors_cache_nothing() {
        let cache = PlanCache::new(64);
        let p = pattern("q1");
        let err = cache.get_or_build(&p, "EN", || Err(QueryError::UnknownNode("q1".into())));
        assert!(err.is_err());
        let lk = cache.get_or_build(&p, "EN", plan).unwrap();
        assert!(!lk.hit, "failed build must not poison the key");
        assert_eq!(cache.stats().entries, 1);
    }

    /// A `build` that panics poisons its shard's lock; the shard stays
    /// usable: the same key then misses and builds, and then hits, and
    /// the counters and `clear` still work.
    #[test]
    fn a_panicking_build_leaves_its_shard_usable() {
        let cache = PlanCache::new(64);
        let p = pattern("q1");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&p, "DR", || panic!("build panics"))
        }));
        assert!(panicked.is_err());
        let lk = cache.get_or_build(&p, "DR", plan).unwrap();
        assert!(!lk.hit, "nothing was cached by the panicking build");
        assert!(cache.get_or_build(&p, "DR", || panic!("cached")).unwrap().hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }
}

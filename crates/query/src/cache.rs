//! Sharded prepared-plan cache (DESIGN.md §15.4).
//!
//! The query service compiles and cost-optimizes each distinct read
//! pattern **once** per `(pattern, strategy)` and serves the cached
//! [`Plan`] for as long as the statistics it was costed from stand still.
//! An entry stores, next to the plan, the [`StatKey`] of every summary the
//! optimizer read for it — taken from the plan's read footprint
//! ([`plan_read_footprint`]): the columns its predicates and idref probes
//! name, the extents of the nodes it visits, the colors it navigates —
//! with the version each had at build time and what the optimizer *read*
//! from it (an extent's cardinality; a column's counts and the histogram
//! estimate of each predicate the pattern puts on it). A lookup **hits
//! iff those versions are current** in the database it is made against
//! or, for the ones that moved, what the optimizer would read is what it
//! read then — the plan is a function of those inputs, so it is the plan
//! a fresh `optimize` would return. Otherwise the entry is re-optimized
//! in place and the lookup charges a miss. So a write to a column no plan
//! reads invalidates nothing, a write to one column can only invalidate
//! the plans costed from it — and does so exactly when it moves one of
//! their estimates — and *zero stale serves* holds by construction (the
//! tests in `tests/server.rs` pin it). Nothing is ever orphaned: a key
//! has one entry, whatever the epoch.
//!
//! Concurrency: the map is split into [`SHARDS`] independently locked
//! shards selected by key hash. A miss **builds the plan while holding
//! its shard lock**, so concurrent first requests for one key serialize:
//! exactly one charges a miss, every other requester charges a hit. That
//! makes the `plan_cache_hits`/`plan_cache_misses` counter family a pure
//! function of the request multiset and the commit schedule (first touch
//! per key misses, as does the first touch after a dependency moved; the
//! rest hit) for any worker count, as long as capacity is not exceeded —
//! the determinism the perfgate exact-matches. Distinct keys hashing to
//! different shards never contend.
//!
//! Eviction: per-shard FIFO over first-insertion order, triggered when a
//! shard exceeds its slice of the configured capacity. FIFO (not LRU)
//! keeps eviction order independent of read timing, preserving counter
//! determinism even when the sweep runs.

use crate::pattern::Pattern;
use crate::plan::Plan;
use crate::verify::plan_read_footprint;
use crate::QueryError;
use colorist_store::{StatKey, Statistics};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// One summary a cached plan was costed from: its version at build time
/// (or at the last lookup that found its inputs unchanged) and a digest of
/// what the optimizer read from it.
struct Dep {
    key: StatKey,
    version: u64,
    inputs: u64,
}

/// A cached plan and the statistics it was costed from.
struct Entry {
    plan: Arc<Plan>,
    costed_from: Vec<Dep>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    fifo: VecDeque<Key>,
}

/// Counter snapshot of a [`PlanCache`]; see [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled + optimized and inserted or replaced.
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

    /// Look up the plan for `(pattern, strategy)`. It is a hit iff an
    /// entry exists and every summary it was costed from either still has,
    /// in `stats`, the version recorded with it, or still yields the
    /// optimizer `inputs` (a digest of what `optimize` reads from that
    /// summary for this pattern) recorded with it. Otherwise run `build`
    /// (under the shard lock — see the module docs for why), which returns
    /// the plan and the summaries it was costed from, and insert it over
    /// whatever the key held. A failing `build` changes nothing and
    /// charges a miss.
    pub fn get_or_build(
        &self,
        pattern: &Pattern,
        strategy: &str,
        stats: &Statistics,
        inputs: impl Fn(StatKey) -> u64,
        build: impl FnOnce() -> Result<(Plan, Vec<StatKey>), QueryError>,
    ) -> Result<Lookup, QueryError> {
        let key = Key { fingerprint: format!("{pattern:?}"), strategy: strategy.to_string() };
        let shard = &self.shards[fnv1a(&key) as usize % SHARDS];
        let mut s = shard.lock().expect("plan-cache shard lock");
        if let Some(entry) = s.map.get_mut(&key) {
            let current = entry.costed_from.iter_mut().all(|dep| {
                let version = stats.version(dep.key);
                let stands = dep.version == version || dep.inputs == inputs(dep.key);
                dep.version = version;
                stands
            });
            if current {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Lookup { plan: Arc::clone(&entry.plan), hit: true, evicted: 0 });
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (plan, deps) = build()?;
        let plan = Arc::new(plan);
        let costed_from = deps
            .into_iter()
            .map(|key| Dep { key, version: stats.version(key), inputs: inputs(key) })
            .collect();
        let entry = Entry { plan: Arc::clone(&plan), costed_from };
        let mut evicted = 0;
        if s.map.insert(key.clone(), entry).is_none() {
            s.fifo.push_back(key);
            while s.map.len() > self.cap_per_shard {
                let victim = s.fifo.pop_front().expect("fifo tracks map");
                s.map.remove(&victim);
                evicted += 1;
            }
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(Lookup { plan, hit: false, evicted })
    }

    /// Current counter totals and resident-entry count.
    pub fn stats(&self) -> CacheStats {
        let entries =
            self.shards.iter().map(|s| s.lock().expect("shard lock").map.len() as u64).sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Drop every entry (counters keep accumulating).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock().expect("shard lock");
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
/// cached plan while what it was costed from is current in `db`;
/// re-optimizes in place once the optimizer would read something else.
pub fn optimize_cached(
    cache: &PlanCache,
    db: &colorist_store::Database,
    graph: &colorist_er::ErGraph,
    pattern: &Pattern,
) -> Result<Lookup, QueryError> {
    let inputs = |key| crate::optimize::statistics_inputs(db, pattern, key);
    cache.get_or_build(pattern, &db.schema.strategy, db.statistics(), inputs, || {
        let plan = crate::optimize(db, graph, pattern)?;
        let reads = plan_read_footprint(graph, &db.schema, &plan);
        let deps = (reads.attrs.iter().map(|&(n, a)| StatKey::Column(n, a)))
            .chain(reads.nodes.iter().map(|&n| StatKey::Extent(n)))
            .chain(reads.colors.iter().map(|&c| StatKey::Color(c)))
            .collect();
        Ok((plan, deps))
    })
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
    use colorist_er::NodeId;
    use colorist_store::{Interner, ValueIndex};

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

    fn plan() -> Plan {
        Plan::new("q".into(), "DR".into(), Vec::new(), 0, 1, Vec::new())
    }

    /// A plan costed from column (0, 0) and the extent of node 0.
    fn costed() -> Result<(Plan, Vec<StatKey>), QueryError> {
        Ok((plan(), vec![StatKey::Column(NodeId(0), 0), StatKey::Extent(NodeId(0))]))
    }

    /// Optimizer inputs that move whenever the summary's version does.
    fn versions(stats: &Statistics) -> impl Fn(StatKey) -> u64 + '_ {
        |key| stats.version(key)
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let cache = PlanCache::new(64);
        let (p, stats) = (pattern("q1"), Statistics::default());
        let lk = cache.get_or_build(&p, "DR", &stats, versions(&stats), costed).unwrap();
        assert!(!lk.hit);
        let lk =
            cache.get_or_build(&p, "DR", &stats, versions(&stats), || panic!("cached")).unwrap();
        assert!(lk.hit && lk.evicted == 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strategies_partition_the_keyspace() {
        let cache = PlanCache::new(64);
        let (p, stats) = (pattern("q1"), Statistics::default());
        for strategy in ["DR", "DEEP"] {
            let lk = cache.get_or_build(&p, strategy, &stats, versions(&stats), costed).unwrap();
            assert!(!lk.hit, "{strategy} must be a distinct key");
        }
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn only_a_moved_dependency_invalidates_and_the_entry_is_replaced_in_place() {
        let cache = PlanCache::new(64);
        let p = pattern("q1");
        let mut stats = Statistics::default();
        cache.get_or_build(&p, "AF", &stats, versions(&stats), costed).unwrap();
        let cached = || panic!("still valid");
        // summaries the plan was not costed from may move freely
        stats.note_insert(NodeId(1));
        stats.refresh_column(NodeId(0), 1, &ValueIndex::default(), &Interner::default());
        assert!(cache.get_or_build(&p, "AF", &stats, versions(&stats), cached).unwrap().hit);
        // one it was costed from is rebuilt, but to the same optimizer
        // inputs: the plan stands, and the new version is remembered
        stats.refresh_column(NodeId(0), 0, &ValueIndex::default(), &Interner::default());
        assert!(cache.get_or_build(&p, "AF", &stats, |_| 0, cached).unwrap().hit);
        assert!(
            cache.get_or_build(&p, "AF", &stats, |_| 1, cached).unwrap().hit,
            "version current"
        );
        // its inputs move with it: exactly one rebuild, then hits again
        stats.refresh_column(NodeId(0), 0, &ValueIndex::default(), &Interner::default());
        let lk = cache.get_or_build(&p, "AF", &stats, versions(&stats), costed).unwrap();
        assert!(!lk.hit, "a moved dependency must re-optimize, not serve the stale plan");
        assert!(cache.get_or_build(&p, "AF", &stats, versions(&stats), cached).unwrap().hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (4, 2, 1, 0), "nothing orphaned");
    }

    #[test]
    fn capacity_sweep_evicts_fifo() {
        // capacity 16 → one entry per shard; same-shard collisions evict
        let cache = PlanCache::new(16);
        let stats = Statistics::default();
        for i in 0..64 {
            cache
                .get_or_build(&pattern(&format!("q{i}")), "EN", &stats, versions(&stats), costed)
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.misses, 64);
        assert_eq!(s.evictions, 64 - s.entries);
        assert!(s.entries <= 16);
    }

    #[test]
    fn build_errors_cache_nothing() {
        let cache = PlanCache::new(64);
        let (p, stats) = (pattern("q1"), Statistics::default());
        let err = cache.get_or_build(
            &p,
            "EN",
            &stats,
            |_| 0,
            || Err(QueryError::UnknownNode("q1".into())),
        );
        assert!(err.is_err());
        let lk = cache.get_or_build(&p, "EN", &stats, |_| 0, costed).unwrap();
        assert!(!lk.hit, "failed build must not poison the key");
        assert_eq!(cache.stats().entries, 1);
    }
}

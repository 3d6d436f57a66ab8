//! The cross-request eval memo-cache.
//!
//! One unlearn-eval — delete the subset, measure the counterfactual
//! bias, roll back — dominates a request's cost, and overlapping
//! requests against the same engine re-derive the same `ρ` values: a
//! repeated request re-derives *all* of them. [`EvalCache`] memoises
//! `ρ` across requests, keyed by everything it depends on:
//!
//! * the **scope** — a hash of the dataset fingerprint
//!   ([`fume_core::checkpoint::fingerprint`]), the fairness metric, and
//!   the forest hyperparameters (the model's identity), computed by
//!   [`rho_scope`]. Search bounds (support range, `η`, `top_k`) are
//!   deliberately *not* in the scope: `ρ` of a given row selection does
//!   not depend on them, which is what lets overlapping requests with
//!   different bounds share work;
//! * the **canonical row selection** — the exact sorted row ids, stored
//!   in full and compared exactly (their hash only picks a bucket, so a
//!   collision can never alias two subsets).
//!
//! Eviction is exact LRU, bounded by entry count. Counters:
//! `fume.serve.cache.hits` / `.misses` / `.evictions`.
//!
//! A lookup allocates nothing: each scope's map is keyed by the stored
//! `Arc<[u32]>` row list and looked up by the borrowed `&[u32]`, hashed
//! with [`WordHasher`](fume_obs::hash::WordHasher). Entries live in a
//! slab, threaded oldest to newest by slab index, so a hit moves its
//! entry to the newest end in O(1) and the store that finds the cache
//! full reuses the oldest entry's slot.

use std::collections::HashMap;
use std::sync::Arc;

use fume_obs::hash::WordHashBuilder;
use fume_obs::sync::{Counter, TrackedGuard, TrackedMutex};

use fume_core::report_json::metric_tag;
use fume_core::EvalMemo;
use fume_fairness::FairnessMetric;
use fume_forest::DareConfig;

/// Everything `ρ` depends on besides the row selection, folded into one
/// scope hash (FNV-1a). Requests whose scope hashes agree may share
/// cached `ρ` values.
pub fn rho_scope(dataset_fingerprint: u64, metric: FairnessMetric, forest: &DareConfig) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&dataset_fingerprint.to_le_bytes());
    bytes.extend_from_slice(metric_tag(metric).as_bytes());
    fume_forest::persist::encode_config_into(&mut bytes, forest);
    fume_obs::hash::fnv1a(&bytes)
}

/// The end of the recency list (no neighbour).
const NIL: usize = usize::MAX;

/// One cached `ρ`, linked into the recency list.
#[derive(Debug)]
struct Slot {
    scope: u64,
    /// The row list, shared with its scope's map key.
    rows: Arc<[u32]>,
    rho: f64,
    /// The next older entry, or [`NIL`].
    older: usize,
    /// The next newer entry, or [`NIL`].
    newer: usize,
}

#[derive(Debug)]
struct Inner {
    /// Per scope: row list → slab index.
    scopes: HashMap<u64, HashMap<Arc<[u32]>, usize, WordHashBuilder>, WordHashBuilder>,
    /// Every resident entry; never longer than the capacity.
    slab: Vec<Slot>,
    /// The least recently used entry, or [`NIL`] when empty.
    oldest: usize,
    /// The most recently used entry, or [`NIL`] when empty.
    newest: usize,
}

impl Default for Inner {
    fn default() -> Self {
        Self { scopes: HashMap::default(), slab: Vec::new(), oldest: NIL, newest: NIL }
    }
}

impl Inner {
    fn find(&self, scope: u64, rows: &[u32]) -> Option<usize> {
        self.scopes.get(&scope)?.get(rows).copied()
    }

    /// Takes entry `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.slab[i].older, self.slab[i].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slab[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slab[n].older = older,
        }
    }

    /// Links entry `i` in as the most recently used.
    fn push_newest(&mut self, i: usize) {
        self.slab[i].older = self.newest;
        self.slab[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slab[n].newer = i,
        }
        self.newest = i;
    }

    /// Marks entry `i` as the most recently used.
    fn touch(&mut self, i: usize) {
        if i != self.newest {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// Drops the least recently used entry from its scope's map and
    /// unlinks it, returning its slot for reuse.
    fn evict_oldest(&mut self) -> Option<usize> {
        let i = self.oldest;
        let victim = self.slab.get(i)?;
        let scope = victim.scope;
        if let Some(map) = self.scopes.get_mut(&scope) {
            map.remove(&victim.rows[..]);
            if map.is_empty() {
                self.scopes.remove(&scope);
            }
        }
        self.unlink(i);
        Some(i)
    }

    /// The entries from least to most recently used.
    #[cfg(test)]
    fn recency(&self) -> Vec<(u64, Vec<u32>, f64)> {
        let mut out = Vec::with_capacity(self.slab.len());
        let mut i = self.oldest;
        while i != NIL {
            let slot = &self.slab[i];
            out.push((slot.scope, slot.rows.to_vec(), slot.rho));
            i = slot.newer;
        }
        out
    }
}

/// Point-in-time cache statistics (monotonic counters + current size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the caller then paid an unlearn-eval).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// A bounded, exact-LRU, thread-safe `ρ` cache shared by every job of an
/// engine. Capacity 0 disables caching entirely (every lookup misses,
/// nothing is stored).
#[derive(Debug)]
pub struct EvalCache {
    inner: TrackedMutex<Inner>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

/// Poison recovery for the cache interior: a worker that died
/// mid-operation cannot have left a torn entry behind the lock, but
/// re-deriving a few `ρ` values is cheaper than reasoning about it.
fn reset_cache(inner: &mut Inner) {
    fume_obs::counter!("fume.serve.cache.poison_recoveries", 1);
    *inner = Inner::default();
}

impl EvalCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: TrackedMutex::with_recovery("serve.cache", Inner::default(), reset_cache),
            capacity,
            hits: Counter::new(0),
            misses: Counter::new(0),
            evictions: Counter::new(0),
        }
    }

    /// Locks the interior (poisoning recovered by [`reset_cache`]).
    fn guard(&self) -> TrackedGuard<'_, Inner> {
        self.inner.lock()
    }

    /// The cached `ρ` for `(scope, rows)`, refreshing its recency.
    pub fn lookup(&self, scope: u64, rows: &[u32]) -> Option<f64> {
        let rho = if self.capacity == 0 {
            None
        } else {
            let mut inner = self.guard();
            inner.find(scope, rows).map(|i| {
                inner.touch(i);
                inner.slab[i].rho
            })
        };
        if rho.is_some() {
            self.hits.add(1);
            fume_obs::counter!("fume.serve.cache.hits", 1);
        } else {
            self.misses.add(1);
            fume_obs::counter!("fume.serve.cache.misses", 1);
        }
        rho
    }

    /// Inserts (or refreshes) `ρ` for `(scope, rows)`, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn store(&self, scope: u64, rows: &[u32], rho: f64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.guard();
        // Crash site *while the cache lock is held*: lets the resumability
        // suite prove the poison-recovery policy (reset_cache) works.
        fume_obs::fault::fault_point("serve-cache-store");
        if let Some(i) = inner.find(scope, rows) {
            inner.slab[i].rho = rho;
            inner.touch(i);
            return;
        }
        let rows: Arc<[u32]> = rows.into();
        let slot = Slot { scope, rows: Arc::clone(&rows), rho, older: NIL, newer: NIL };
        let full = inner.slab.len() >= self.capacity;
        let i = if full {
            // Full at capacity ≥ 1, so there is an oldest entry.
            let Some(i) = inner.evict_oldest() else { return };
            inner.slab[i] = slot;
            i
        } else {
            inner.slab.push(slot);
            inner.slab.len() - 1
        };
        inner.push_newest(i);
        inner.scopes.entry(scope).or_default().insert(rows, i);
        drop(inner);
        if full {
            self.evictions.add(1);
            fume_obs::counter!("fume.serve.cache.evictions", 1);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let entries = self.guard().slab.len() as u64;
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries,
        }
    }
}

/// An [`EvalMemo`] view of an [`EvalCache`] pinned to one scope —
/// what a job attaches to its
/// [`ExplainRequest`](fume_core::ExplainRequest).
#[derive(Debug, Clone, Copy)]
pub struct ScopedMemo<'a> {
    cache: &'a EvalCache,
    scope: u64,
}

impl<'a> ScopedMemo<'a> {
    /// A memo view of `cache` under the given [`rho_scope`] hash.
    pub fn new(cache: &'a EvalCache, scope: u64) -> Self {
        Self { cache, scope }
    }
}

impl EvalMemo for ScopedMemo<'_> {
    fn lookup(&self, rows: &[u32]) -> Option<f64> {
        self.cache.lookup(self.scope, rows)
    }

    fn store(&self, rows: &[u32], rho: f64) {
        self.cache.store(self.scope, rows, rho);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use fume_tabular::rng::{Rng, SeedableRng, StdRng};

    #[derive(Debug, Hash, PartialEq, Eq)]
    struct Key {
        scope: u64,
        rows: Box<[u32]>,
    }

    /// The exact LRU the slab list replaced, kept as its model: boxed
    /// keys in a `HashMap` beside their `ρ` and logical timestamp,
    /// recency as a `BTreeMap` from timestamp to key, one remove plus
    /// insert per touch.
    #[derive(Debug, Default)]
    struct ReferenceLru {
        capacity: usize,
        map: HashMap<Arc<Key>, (f64, u64)>,
        order: BTreeMap<u64, Arc<Key>>,
        tick: u64,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(capacity: usize) -> Self {
            Self { capacity, ..Self::default() }
        }

        fn lookup(&mut self, scope: u64, rows: &[u32]) -> Option<f64> {
            if self.capacity == 0 {
                self.stats.misses += 1;
                return None;
            }
            self.tick += 1;
            let now = self.tick;
            let found = self
                .map
                .get_key_value(&Key { scope, rows: rows.into() })
                .map(|(key, &(rho, tick))| (Arc::clone(key), rho, tick));
            let Some((key, rho, old_tick)) = found else {
                self.stats.misses += 1;
                return None;
            };
            self.order.remove(&old_tick);
            self.order.insert(now, Arc::clone(&key));
            self.map.insert(key, (rho, now));
            self.stats.hits += 1;
            Some(rho)
        }

        fn store(&mut self, scope: u64, rows: &[u32], rho: f64) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            let now = self.tick;
            let key = Arc::new(Key { scope, rows: rows.into() });
            if let Some(&(_, old_tick)) = self.map.get(&key) {
                self.order.remove(&old_tick);
                self.order.insert(now, Arc::clone(&key));
                self.map.insert(key, (rho, now));
                return;
            }
            while self.map.len() >= self.capacity {
                let Some((&oldest, _)) = self.order.iter().next() else { break };
                if let Some(victim) = self.order.remove(&oldest) {
                    self.map.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.order.insert(now, Arc::clone(&key));
            self.map.insert(key, (rho, now));
        }

        fn stats(&self) -> CacheStats {
            CacheStats { entries: self.map.len() as u64, ..self.stats }
        }

        fn recency(&self) -> Vec<(u64, Vec<u32>, f64)> {
            self.order
                .values()
                .map(|key| (key.scope, key.rows.to_vec(), self.map[key].0))
                .collect()
        }
    }

    /// Seeded interleavings of lookups and stores over 1–3 scopes,
    /// capacities 0–8 and row lists of 0–70 ids that are prefixes of two
    /// base lists: every answer, the statistics and the whole recency
    /// order (so every eviction) must match the reference after every
    /// operation.
    #[test]
    fn matches_a_reference_lru_on_seeded_interleavings() {
        let mut seen = CacheStats::default();
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let capacity = rng.gen_range(0..=8usize);
            let scopes = rng.gen_range(1..=3u64);
            let bases: Vec<Vec<u32>> = (0..2)
                .map(|_| {
                    let mut id = 0u32;
                    (0..70)
                        .map(|_| {
                            id += rng.gen_range(1..4u32);
                            id
                        })
                        .collect()
                })
                .collect();
            let lengths: Vec<usize> = (0..6).map(|_| rng.gen_range(0..=70usize)).collect();
            let cache = EvalCache::new(capacity);
            let mut reference = ReferenceLru::new(capacity);
            for op in 0..200 {
                let scope = 100 + rng.gen_range(0..scopes);
                let base = &bases[rng.gen_range(0..2usize)];
                let rows = &base[..lengths[rng.gen_range(0..6usize)]];
                if rng.gen_bool(0.5) {
                    let (got, want) = (cache.lookup(scope, rows), reference.lookup(scope, rows));
                    assert_eq!(got, want, "case {case} op {op}: lookup of {} rows", rows.len());
                } else {
                    let rho = rng.gen::<f64>();
                    cache.store(scope, rows, rho);
                    reference.store(scope, rows, rho);
                }
                assert_eq!(cache.stats(), reference.stats(), "case {case} op {op}: stats");
                assert_eq!(
                    cache.guard().recency(),
                    reference.recency(),
                    "case {case} op {op}: recency order"
                );
            }
            let stats = cache.stats();
            seen.hits += stats.hits;
            seen.evictions += stats.evictions;
        }
        assert!(seen.hits > 1000 && seen.evictions > 1000, "the cases hit and evict: {seen:?}");
    }

    #[test]
    fn poison_recovery_empties_the_cache_and_it_fills_again() {
        let cache = EvalCache::new(2);
        cache.store(1, &[1], 0.1);
        cache.store(1, &[2], 0.2);
        reset_cache(&mut cache.guard());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.lookup(1, &[1]), None);
        cache.store(1, &[3], 0.3);
        cache.store(2, &[3], 0.4);
        cache.store(1, &[4], 0.5);
        assert_eq!(cache.lookup(1, &[3]), None, "oldest entry evicted");
        assert_eq!(cache.lookup(2, &[3]), Some(0.4));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = EvalCache::new(2);
        cache.store(1, &[1], 0.1);
        cache.store(1, &[2], 0.2);
        // Touch [1] so [2] becomes the LRU victim.
        assert_eq!(cache.lookup(1, &[1]), Some(0.1));
        cache.store(1, &[3], 0.3);
        assert_eq!(cache.lookup(1, &[2]), None, "LRU entry evicted");
        assert_eq!(cache.lookup(1, &[1]), Some(0.1));
        assert_eq!(cache.lookup(1, &[3]), Some(0.3));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn scopes_do_not_alias() {
        let cache = EvalCache::new(8);
        cache.store(10, &[1, 2, 3], 0.5);
        assert_eq!(cache.lookup(10, &[1, 2, 3]), Some(0.5));
        assert_eq!(cache.lookup(11, &[1, 2, 3]), None, "different scope");
        assert_eq!(cache.lookup(10, &[1, 2]), None, "different rows");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = EvalCache::new(0);
        cache.store(1, &[1], 0.5);
        assert_eq!(cache.lookup(1, &[1]), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn store_refreshes_existing_entries() {
        let cache = EvalCache::new(2);
        cache.store(1, &[1], 0.1);
        cache.store(1, &[2], 0.2);
        // Re-store [1]: refresh, not duplicate — so [2] is now LRU.
        cache.store(1, &[1], 0.1);
        cache.store(1, &[3], 0.3);
        assert_eq!(cache.lookup(1, &[2]), None);
        assert_eq!(cache.lookup(1, &[1]), Some(0.1));
    }

    #[test]
    fn rho_scope_separates_metric_and_config() {
        let cfg = DareConfig::small(1);
        let a = rho_scope(7, FairnessMetric::StatisticalParity, &cfg);
        let b = rho_scope(7, FairnessMetric::EqualOpportunity, &cfg);
        let c = rho_scope(8, FairnessMetric::StatisticalParity, &cfg);
        let d = rho_scope(7, FairnessMetric::StatisticalParity, &cfg.clone().with_trees(3));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, rho_scope(7, FairnessMetric::StatisticalParity, &cfg));
    }
}

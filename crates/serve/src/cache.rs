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
//!   in full (no hashing of the selection itself, so a collision can
//!   never alias two subsets).
//!
//! Eviction is exact LRU, bounded by entry count. Counters:
//! `fume.serve.cache.hits` / `.misses` / `.evictions`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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

#[derive(Debug, Hash, PartialEq, Eq)]
struct Key {
    scope: u64,
    rows: Box<[u32]>,
}

#[derive(Debug)]
struct Entry {
    rho: f64,
    /// The logical timestamp of the last touch; also this entry's key in
    /// `Inner::order`.
    tick: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Arc<Key>, Entry>,
    /// Least-recently-used first: logical timestamp → key. Every map
    /// entry has exactly one order entry (`Entry::tick`).
    order: BTreeMap<u64, Arc<Key>>,
    tick: u64,
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
    inner.map.clear();
    inner.order.clear();
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
        if self.capacity == 0 {
            self.misses.add(1);
            fume_obs::counter!("fume.serve.cache.misses", 1);
            return None;
        }
        let mut inner = self.guard();
        inner.tick += 1;
        let now = inner.tick;
        // Borrow dance: find the key handle first, then touch both maps.
        let found = inner.map.get_key_value(&Key { scope, rows: rows.into() }).map(
            |(key, entry)| (Arc::clone(key), entry.tick, entry.rho),
        );
        match found {
            Some((key, old_tick, rho)) => {
                inner.order.remove(&old_tick);
                inner.order.insert(now, Arc::clone(&key));
                if let Some(entry) = inner.map.get_mut(&key) {
                    entry.tick = now;
                }
                drop(inner);
                self.hits.add(1);
                fume_obs::counter!("fume.serve.cache.hits", 1);
                Some(rho)
            }
            None => {
                drop(inner);
                self.misses.add(1);
                fume_obs::counter!("fume.serve.cache.misses", 1);
                None
            }
        }
    }

    /// Inserts (or refreshes) `ρ` for `(scope, rows)`, evicting the
    /// least-recently-used entries if the cache is full.
    pub fn store(&self, scope: u64, rows: &[u32], rho: f64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.guard();
        // Crash site *while the cache lock is held*: lets the resumability
        // suite prove the poison-recovery policy (reset_cache) works.
        fume_obs::fault::fault_point("serve-cache-store");
        inner.tick += 1;
        let now = inner.tick;
        let key = Arc::new(Key { scope, rows: rows.into() });
        if let Some(entry) = inner.map.get(&key) {
            let old_tick = entry.tick;
            inner.order.remove(&old_tick);
            inner.order.insert(now, Arc::clone(&key));
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.tick = now;
                entry.rho = rho;
            }
            return;
        }
        let mut evicted = 0u64;
        while inner.map.len() >= self.capacity {
            let Some((&oldest, _)) = inner.order.iter().next() else { break };
            if let Some(victim) = inner.order.remove(&oldest) {
                inner.map.remove(&victim);
                evicted += 1;
            }
        }
        inner.order.insert(now, Arc::clone(&key));
        inner.map.insert(key, Entry { rho, tick: now });
        drop(inner);
        if evicted > 0 {
            self.evictions.add(evicted);
            fume_obs::counter!("fume.serve.cache.evictions", evicted);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let entries = self.guard().map.len() as u64;
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

//! [`CachedDict`]: a [`Dict`] front-end that layers a [`HotCache`] over
//! any other front-end, preserving the trait's semantics exactly.
//!
//! The wrapper is the single-owner form of the cache tier (the serving
//! engine wires the same [`HotCache`] per shard instead, so submit-time
//! probes skip the queue). It is also where the crash-safety contract
//! lives: [`Dict::recover`] delegates to the inner front-end and, if the
//! replay did *anything* (replayed, discarded, or stalled intents), the
//! entire cache is dropped. The journal's intent metadata names blocks,
//! not keys, so per-key invalidation from a replay is impossible —
//! conservative full invalidation is the only sound reading of
//! "invalidate the covering entries", and it costs nothing the moment
//! after a crash (the cache was in the RAM that just went away; a warm
//! wrapper only reaches this path when it shares a disk image that some
//! other path recovered).

use crate::hot::{CacheAnswer, CacheConfig, CacheCounters, HotCache};
use pdm::metrics::{Counter, Gauge, MetricsRegistry};
use pdm::{DiskArray, OpCost, RecoveryReport, ScrubReport, Word};
use pdm_dict::{Dict, DictError, LookupOutcome};
use std::sync::Arc;

/// Counter of cache events, labels `dict` (inner front-end) and `event`
/// (`hit` / `negative_hit` / `miss` / `admit` / `reject` / `evict` /
/// `invalidate`).
pub const CACHE_EVENTS_TOTAL: &str = "cache_events_total";
/// Gauge of bytes resident in the cache, label `dict`.
pub const CACHE_USED_BYTES: &str = "cache_used_bytes";
/// Gauge of entries resident in the cache, label `dict`.
pub const CACHE_ENTRIES: &str = "cache_entries";

struct CacheMetrics {
    events: [Arc<Counter>; 7],
    used: Arc<Gauge>,
    entries: Arc<Gauge>,
    /// Counter values already pushed to the registry (the registry
    /// counters are monotone; we add deltas).
    synced: CacheCounters,
}

impl CacheMetrics {
    fn new(registry: &MetricsRegistry, dict: &'static str) -> Self {
        let event =
            |e: &str| registry.counter(CACHE_EVENTS_TOTAL, &[("dict", dict), ("event", e)]);
        CacheMetrics {
            events: [
                event("hit"),
                event("negative_hit"),
                event("miss"),
                event("admit"),
                event("reject"),
                event("evict"),
                event("invalidate"),
            ],
            used: registry.gauge(CACHE_USED_BYTES, &[("dict", dict)]),
            entries: registry.gauge(CACHE_ENTRIES, &[("dict", dict)]),
            synced: CacheCounters::default(),
        }
    }

    fn sync(&mut self, cache: &HotCache) {
        let now = cache.counters();
        let s = &self.synced;
        for (handle, delta) in self.events.iter().zip([
            now.hits - s.hits,
            now.negative_hits - s.negative_hits,
            now.misses - s.misses,
            now.admitted - s.admitted,
            now.rejected - s.rejected,
            now.evicted - s.evicted,
            now.invalidated - s.invalidated,
        ]) {
            if delta > 0 {
                handle.add(delta);
            }
        }
        self.synced = now;
        self.used.set(cache.used_bytes() as i64);
        self.entries.set(cache.len() as i64);
    }
}

/// The cache-above-a-dictionary front-end. See the module docs.
pub struct CachedDict {
    inner: Box<dyn Dict + Send>,
    cache: HotCache,
    metrics: Option<CacheMetrics>,
}

impl std::fmt::Debug for CachedDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedDict")
            .field("inner", &self.inner.kind())
            .field("entries", &self.cache.len())
            .field("used_bytes", &self.cache.used_bytes())
            .finish_non_exhaustive()
    }
}

impl CachedDict {
    /// Wrap `inner` under a fresh cache configured by `cfg`.
    #[must_use]
    pub fn new(inner: Box<dyn Dict + Send>, cfg: CacheConfig) -> Self {
        CachedDict {
            inner,
            cache: HotCache::new(cfg),
            metrics: None,
        }
    }

    /// The wrapped front-end.
    #[must_use]
    pub fn inner(&self) -> &(dyn Dict + Send) {
        self.inner.as_ref()
    }

    /// Unwrap, discarding the cache.
    #[must_use]
    pub fn into_inner(self) -> Box<dyn Dict + Send> {
        self.inner
    }

    /// The cache's event counters.
    #[must_use]
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Read access to the cache (tests and benches).
    #[must_use]
    pub fn cache(&self) -> &HotCache {
        &self.cache
    }

    fn sync_metrics(&mut self) {
        if let Some(m) = &mut self.metrics {
            m.sync(&self.cache);
        }
    }

    /// A mutation of `key` was attempted: drop any covering entry. Runs
    /// unconditionally — even a failed mutation with `Io` provenance may
    /// have had a partial physical effect, and invalidating is always
    /// sound.
    fn invalidate_key(&mut self, key: u64) {
        self.cache.invalidate(key);
    }
}

impl Dict for CachedDict {
    fn kind(&self) -> &'static str {
        "cached"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn lookup(&mut self, key: u64) -> LookupOutcome {
        match self.cache.probe(key) {
            CacheAnswer::Hit(v) => {
                self.sync_metrics();
                return LookupOutcome::new(Some(v), OpCost::default());
            }
            CacheAnswer::NegativeHit => {
                self.sync_metrics();
                return LookupOutcome::new(None, OpCost::default());
            }
            CacheAnswer::Miss => {}
        }
        let out = self.inner.lookup(key);
        // A found value is correct even when degraded (the redundancy
        // covered the damage); only the *absence* claim needs the
        // certificate.
        self.cache
            .fill(key, out.satellite.as_deref(), out.certifies_absence());
        self.sync_metrics();
        out
    }

    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
        let result = self.inner.insert(key, satellite);
        self.invalidate_key(key);
        self.sync_metrics();
        result
    }

    fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
        let result = self.inner.delete(key);
        self.invalidate_key(key);
        self.sync_metrics();
        result
    }

    fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let mut results: Vec<Option<Vec<Word>>> = vec![None; keys.len()];
        let mut miss_at: Vec<usize> = Vec::new();
        let mut miss_keys: Vec<u64> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            match self.cache.probe(key) {
                CacheAnswer::Hit(v) => results[i] = Some(v),
                CacheAnswer::NegativeHit => {}
                CacheAnswer::Miss => {
                    miss_at.push(i);
                    miss_keys.push(key);
                }
            }
        }
        if miss_keys.is_empty() {
            self.sync_metrics();
            return (results, OpCost::default());
        }
        // Batch paths lose per-key provenance, so certify at the disk
        // layer: if the degraded-read counter did not move across the
        // batch, every block read cleanly and each miss is a certified
        // absence. Front-ends without an accessible array (sharded) get
        // no certificate — their misses are simply not cached.
        let before = self.inner.disks().map(DiskArray::degraded_reads);
        let (found, cost) = self.inner.lookup_batch(&miss_keys);
        let clean = match (before, self.inner.disks().map(DiskArray::degraded_reads)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        for (&i, satellite) in miss_at.iter().zip(found) {
            self.cache.fill(keys[i], satellite.as_deref(), clean);
            results[i] = satellite;
        }
        self.sync_metrics();
        (results, cost)
    }

    fn insert_batch(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        let out = self.inner.insert_batch(entries);
        for (key, _) in entries {
            self.cache.invalidate(*key);
        }
        self.sync_metrics();
        out
    }

    fn delete_batch(&mut self, keys: &[u64]) -> (Vec<Result<bool, DictError>>, OpCost) {
        let out = self.inner.delete_batch(keys);
        // Attempted keys too, as after any mutation.
        for &key in keys {
            self.cache.invalidate(key);
        }
        self.sync_metrics();
        out
    }

    fn set_metrics(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.metrics = registry
            .as_ref()
            .map(|r| CacheMetrics::new(r, self.inner.kind()));
        self.inner.set_metrics(registry);
        self.sync_metrics();
    }

    fn refresh_gauges(&mut self) {
        self.inner.refresh_gauges();
        self.sync_metrics();
    }

    fn disks(&self) -> Option<&DiskArray> {
        self.inner.disks()
    }

    fn disks_mut(&mut self) -> Option<&mut DiskArray> {
        self.inner.disks_mut()
    }

    fn recover(&mut self) -> RecoveryReport {
        let report = self.inner.recover();
        // Any replay activity means the disk image moved underneath the
        // cache: drop everything. (The intent metadata names blocks, not
        // keys — see the module docs for why full invalidation is the
        // sound reading of "invalidate the covering entries".)
        if !report.is_clean() {
            self.cache.clear();
        }
        self.sync_metrics();
        report
    }

    fn checkpoint(&mut self) -> bool {
        self.inner.checkpoint()
    }

    fn scrub(&mut self) -> ScrubReport {
        // Scrub repairs blocks from redundancy; it never changes the
        // logical key → value mapping, so residency survives.
        self.inner.scrub()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// In-memory reference dictionary charging one parallel I/O per op.
    struct MapDict {
        map: HashMap<u64, Vec<Word>>,
        ios: u64,
    }

    impl MapDict {
        fn boxed() -> Box<dyn Dict + Send> {
            Box::new(MapDict {
                map: HashMap::new(),
                ios: 0,
            })
        }
    }

    fn one_io() -> OpCost {
        OpCost {
            parallel_ios: 1,
            block_reads: 1,
            block_writes: 0,
            sequential_ios: 1,
        }
    }

    impl Dict for MapDict {
        fn kind(&self) -> &'static str {
            "map"
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn capacity(&self) -> usize {
            usize::MAX
        }
        fn lookup(&mut self, key: u64) -> LookupOutcome {
            self.ios += 1;
            LookupOutcome::new(self.map.get(&key).cloned(), one_io())
        }
        fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
            if self.map.contains_key(&key) {
                return Err(DictError::DuplicateKey(key));
            }
            self.ios += 1;
            self.map.insert(key, satellite.to_vec());
            Ok(one_io())
        }
        fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
            self.ios += 1;
            Ok((self.map.remove(&key).is_some(), one_io()))
        }
        fn set_metrics(&mut self, _registry: Option<Arc<MetricsRegistry>>) {}
    }

    fn cached() -> CachedDict {
        CachedDict::new(
            MapDict::boxed(),
            CacheConfig::default()
                .with_admit_threshold(2)
                .with_sketch_keys(64),
        )
    }

    #[test]
    fn repeated_lookup_costs_zero_ios_once_admitted() {
        let mut d = cached();
        d.insert(5, &[50]).unwrap();
        assert_eq!(d.lookup(5).cost.parallel_ios, 1, "first lookup pays, and fills: there is room");
        let out = d.lookup(5);
        assert_eq!(out.satellite, Some(vec![50]));
        assert_eq!(out.cost.parallel_ios, 0, "hot lookup is free");
        assert!(d.cache_counters().hits >= 1);
    }

    #[test]
    fn certified_miss_is_negatively_cached() {
        let mut d = cached();
        assert_eq!(d.lookup(9).satellite, None);
        assert_eq!(d.lookup(9).satellite, None);
        let out = d.lookup(9);
        assert_eq!(out.satellite, None);
        assert_eq!(out.cost.parallel_ios, 0, "negative hit is free");
        assert!(d.cache_counters().negative_hits >= 1);
    }

    #[test]
    fn mutations_invalidate_before_answering() {
        let mut d = cached();
        d.insert(5, &[50]).unwrap();
        for _ in 0..3 {
            let _ = d.lookup(5);
        }
        assert_eq!(d.lookup(5).cost.parallel_ios, 0, "resident");
        d.delete(5).unwrap();
        let out = d.lookup(5);
        assert_eq!(out.satellite, None, "delete visible immediately");
        // Negative path too: a cached absence dies on insert.
        let _ = d.lookup(77);
        let _ = d.lookup(77);
        assert_eq!(d.lookup(77).cost.parallel_ios, 0, "negative resident");
        d.insert(77, &[7]).unwrap();
        assert_eq!(d.lookup(77).satellite, Some(vec![7]));
    }

    #[test]
    fn a_delete_batch_invalidates_every_key_it_names() {
        let mut d = cached();
        for key in 0..8u64 {
            d.insert(key, &[key]).unwrap();
            for _ in 0..3 {
                let _ = d.lookup(key);
            }
            assert_eq!(d.lookup(key).cost.parallel_ios, 0, "resident");
        }
        // A cached absence among them: it was attempted, so it goes too.
        for _ in 0..3 {
            let _ = d.lookup(99);
        }
        let (res, cost) = d.delete_batch(&[1, 3, 5, 99]);
        assert_eq!(res, vec![Ok(true), Ok(true), Ok(true), Ok(false)]);
        assert_eq!(cost.parallel_ios, 4, "the inner dictionary's loop, summed");
        for key in [1u64, 3, 5, 99] {
            let out = d.lookup(key);
            assert_eq!((out.satellite, out.cost.parallel_ios), (None, 1), "key {key} after its delete");
        }
        assert_eq!(d.lookup(2).cost.parallel_ios, 0, "an unnamed key stays resident");
    }

    #[test]
    fn batch_results_match_uncached_inner() {
        let mut plain = MapDict::boxed();
        let mut d = cached();
        for key in 0..50u64 {
            plain.insert(key, &[key]).unwrap();
            d.insert(key, &[key]).unwrap();
        }
        let keys: Vec<u64> = (0..100).map(|i| i % 60).collect();
        for _ in 0..3 {
            let (a, _) = plain.lookup_batch(&keys);
            let (b, _) = d.lookup_batch(&keys);
            assert_eq!(a, b);
        }
        // Third pass is mostly resident.
        let before = d.cache_counters().hits;
        let (_, cost) = d.lookup_batch(&keys);
        assert!(d.cache_counters().hits > before);
        assert!(cost.parallel_ios < keys.len() as u64);
    }

    #[test]
    fn metrics_export_cache_families() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut d = cached();
        d.set_metrics(Some(Arc::clone(&registry)));
        d.insert(1, &[1]).unwrap();
        for _ in 0..3 {
            let _ = d.lookup(1);
        }
        let text = registry.snapshot().to_prometheus();
        for family in [CACHE_EVENTS_TOTAL, CACHE_USED_BYTES, CACHE_ENTRIES] {
            assert!(text.contains(family), "{family} missing from export");
        }
        let snap = registry.snapshot();
        assert!(snap.counter_sum(CACHE_EVENTS_TOTAL, &[]).unwrap_or(0) > 0);
    }
}

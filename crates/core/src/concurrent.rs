//! A concurrent front for the fully dynamic dictionary.
//!
//! The paper motivates its structures with "an environment with many
//! concurrent lookups and updates" (webmail/http servers) and argues that
//! the absence of a central directory and the never-move-data discipline
//! "simplifies concurrency control mechanisms such as locking".
//!
//! [`ShardedDictionary`] is the standard server-side realization of that
//! argument: the key space is split over `S` independent [`Dictionary`]
//! shards (each with its own simulated disk array — in a deployment, its
//! own disk group), so concurrent operations on different shards never
//! contend, and per-shard locking is trivially correct because the shard
//! structure itself needs no reader-writer coordination beyond the lock.
//! Static structures need no locks at all — see
//! [`OneProbeStatic::lookup_shared`](crate::one_probe::OneProbeStatic::lookup_shared)
//! and the `concurrent_reads` example.

use crate::config::DictParams;
use crate::rebuild::Dictionary;
use crate::traits::{Dict, DictError, LookupOutcome, OpRecorder};
use expander::mix::mix64;
use pdm::metrics::{IoMetricsSink, MetricsRegistry};
use pdm::{OpCost, ScrubReport, Word};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a shard, recovering from poisoning.
///
/// A panicking thread only ever leaves a shard in a state that is valid
/// for subsequent operations (all multi-block mutations go through a
/// single `write_batch`), so poisoned locks are safe to adopt.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `S` dictionary shards behind per-shard locks.
///
/// ```
/// use pdm_dict::concurrent::ShardedDictionary;
/// use pdm_dict::DictParams;
///
/// let params = DictParams::new(128, 1 << 40, 1)
///     .with_degree(16)
///     .with_epsilon(1.0)
///     .with_seed(3);
/// let dict = ShardedDictionary::new(4, params, 128)?;
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let dict = &dict;
///         s.spawn(move || {
///             for i in 0..100u64 {
///                 dict.insert(t * 1000 + i, &[i]).unwrap();
///             }
///         });
///     }
/// });
/// assert_eq!(dict.len(), 400);
/// assert_eq!(dict.lookup(2050).satellite, Some(vec![50]));
/// # Ok::<(), pdm_dict::DictError>(())
/// ```
#[derive(Debug)]
pub struct ShardedDictionary {
    shards: Vec<Mutex<Dictionary>>,
    route_seed: u64,
    metrics: Option<OpRecorder>,
}

impl ShardedDictionary {
    /// Create `shards` shards, each an independent [`Dictionary`] with
    /// `params` (capacities are per shard).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize, params: DictParams, block_words: usize) -> Result<Self, DictError> {
        assert!(shards > 0, "need at least one shard");
        let mut v = Vec::with_capacity(shards);
        for i in 0..shards {
            let shard_params = params.with_seed(params.seed.wrapping_add(i as u64));
            v.push(Mutex::new(Dictionary::new(shard_params, block_words)?));
        }
        Ok(ShardedDictionary {
            shards: v,
            route_seed: params.seed ^ 0x5AAD_ED00,
            metrics: None,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: u64) -> &Mutex<Dictionary> {
        &self.shards[self.shard_index(key)]
    }

    fn shard_index(&self, key: u64) -> usize {
        (mix64(self.route_seed ^ key) % self.shards.len() as u64) as usize
    }

    /// Total live keys across shards (takes each lock briefly).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether all shards are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup (locks one shard).
    pub fn lookup(&self, key: u64) -> LookupOutcome {
        lock(self.shard_of(key)).lookup(key)
    }

    /// Insert (locks one shard).
    pub fn insert(&self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
        lock(self.shard_of(key)).insert(key, satellite)
    }

    /// Delete (locks one shard). Returns whether the key was present.
    pub fn delete(&self, key: u64) -> Result<(bool, OpCost), DictError> {
        lock(self.shard_of(key)).delete(key)
    }

    /// Serve `items` shard by shard: they are grouped by the shard of their
    /// key, each group handed to `call` under a single lock acquisition,
    /// and the answers put back in input order. Shard arrays are
    /// **independent disk groups**, so the per-shard batches overlap in
    /// time and the charged parallel cost is the per-shard **max**
    /// ([`OpCost::alongside`]); the per-shard sum — what serving the groups
    /// one after another would cost — is retained in
    /// [`OpCost::sequential_ios`].
    fn by_shard<T: Clone, R>(
        &self,
        items: &[T],
        key: impl Fn(&T) -> u64,
        mut call: impl FnMut(&mut Dictionary, &[T]) -> (Vec<R>, OpCost),
    ) -> (Vec<R>, OpCost) {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, item) in items.iter().enumerate() {
            groups[self.shard_index(key(item))].push(i);
        }
        let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let mut cost = OpCost::default();
        for (shard, group) in self.shards.iter().zip(&groups).filter(|(_, g)| !g.is_empty()) {
            let sub: Vec<T> = group.iter().map(|&i| items[i].clone()).collect();
            let (res, c) = call(&mut lock(shard), &sub);
            cost = cost.alongside(c);
            for (&i, r) in group.iter().zip(res) {
                results[i] = Some(r);
            }
        }
        let results = results.into_iter().map(|r| r.expect("every key routed to exactly one shard"));
        (results.collect(), cost)
    }

    /// Batched lookup: one [`Dictionary::lookup_batch`] per shard, the
    /// shards' disk groups working alongside. Results are byte-identical
    /// to calling [`Self::lookup`] per key, in order.
    pub fn lookup_batch(&self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        self.by_shard(keys, |&k| k, |shard, keys| shard.lookup_batch(keys))
    }

    /// Batched insert: one [`Dictionary::insert_batch`] per shard. Per-key
    /// errors (duplicates, width mismatches) are reported in input order;
    /// other keys are unaffected.
    pub fn insert_batch(&self, entries: &[(u64, Vec<Word>)]) -> (Vec<Result<(), DictError>>, OpCost) {
        self.by_shard(entries, |e| e.0, |shard, entries| shard.insert_batch(entries))
    }

    /// Batched delete: one [`Dictionary::delete_batch`] per shard, per-key
    /// answers in input order.
    pub fn delete_batch(&self, keys: &[u64]) -> (Vec<Result<bool, DictError>>, OpCost) {
        self.by_shard(keys, |&k| k, |shard, keys| shard.delete_batch(keys))
    }

    /// Scrub every shard in turn (each under its own lock) and merge the
    /// per-shard reports. Other shards stay available while one scrubs.
    pub fn scrub_all(&self) -> ScrubReport {
        let mut total = ScrubReport::default();
        for shard in &self.shards {
            total.merge(&lock(shard).scrub());
        }
        total
    }

    /// Sum of parallel I/Os across all shard arrays.
    #[must_use]
    pub fn total_parallel_ios(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock(s).io_stats().parallel_ios)
            .sum()
    }

    /// Sum of shard capacities.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| lock(s).capacity()).sum()
    }
}

impl Dict for ShardedDictionary {
    fn kind(&self) -> &'static str {
        "sharded"
    }

    fn len(&self) -> usize {
        ShardedDictionary::len(self)
    }

    fn capacity(&self) -> usize {
        ShardedDictionary::capacity(self)
    }

    fn lookup(&mut self, key: u64) -> LookupOutcome {
        let out = ShardedDictionary::lookup(self, key);
        if let Some(m) = &self.metrics {
            m.record_lookup(&out);
        }
        out
    }

    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
        let result = ShardedDictionary::insert(self, key, satellite);
        if let Some(m) = &self.metrics {
            m.record_insert(&result);
        }
        result
    }

    fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
        let result = ShardedDictionary::delete(self, key);
        if let Some(m) = &self.metrics {
            m.record_delete(&result);
        }
        result
    }

    fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let out = ShardedDictionary::lookup_batch(self, keys);
        OpRecorder::record_lookup_batch(self.metrics.as_ref(), keys.len(), out)
    }

    fn insert_batch(&mut self, entries: &[(u64, Vec<Word>)]) -> (Vec<Result<(), DictError>>, OpCost) {
        let out = ShardedDictionary::insert_batch(self, entries);
        OpRecorder::record_insert_batch(self.metrics.as_ref(), entries.len(), out)
    }

    fn delete_batch(&mut self, keys: &[u64]) -> (Vec<Result<bool, DictError>>, OpCost) {
        let out = ShardedDictionary::delete_batch(self, keys);
        OpRecorder::record_delete_batch(self.metrics.as_ref(), keys.len(), out)
    }

    fn scrub(&mut self) -> ScrubReport {
        let report = ShardedDictionary::scrub_all(self);
        if let Some(m) = &self.metrics {
            m.record_scrub(&report);
        }
        report
    }

    /// Checkpoint every shard's journal in turn; `true` if any shard
    /// actually had one.
    fn checkpoint(&mut self) -> bool {
        let mut any = false;
        for shard in &self.shards {
            any |= lock(shard).checkpoint();
        }
        any
    }

    /// Recover every shard and merge the reports (costs and counts sum;
    /// replayed intents concatenate in shard order).
    fn recover(&mut self) -> pdm::RecoveryReport {
        let mut merged = pdm::RecoveryReport::default();
        for shard in &self.shards {
            let r = lock(shard).recover();
            merged.scanned_slots += r.scanned_slots;
            merged.discarded += r.discarded;
            merged.stalled += r.stalled;
            merged.blocks_rewritten += r.blocks_rewritten;
            merged.cost = merged.cost.plus(r.cost);
            merged.replayed.extend(r.replayed);
        }
        merged
    }

    /// Installs one [`IoMetricsSink`] per shard on the shard's disk array
    /// (all shards share the registry, so per-disk counters aggregate
    /// across shards by disk index) and records per-op costs under
    /// `dict = "sharded"`. The shard `Dictionary`s' own recorders stay
    /// uninstalled — ops are counted once, at the front the caller used.
    fn set_metrics(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        match registry {
            Some(registry) => {
                for shard in &self.shards {
                    let mut d = lock(shard);
                    let disks = d.disks().disks();
                    d.set_io_sink(Some(Arc::new(IoMetricsSink::new(&registry, disks))));
                }
                self.metrics = Some(OpRecorder::new(registry, "sharded"));
            }
            None => {
                for shard in &self.shards {
                    lock(shard).set_io_sink(None);
                }
                self.metrics = None;
            }
        }
    }

    fn refresh_gauges(&mut self) {
        let Some(m) = &self.metrics else { return };
        m.set_shape(
            "sharded",
            ShardedDictionary::len(self),
            ShardedDictionary::capacity(self),
        );
        m.registry
            .gauge("dict_shards", &[("dict", "sharded")])
            .set(self.shards.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(shards: usize) -> ShardedDictionary {
        let params = DictParams::new(64, 1 << 40, 1)
            .with_degree(16)
            .with_epsilon(1.0)
            .with_seed(0x5A);
        ShardedDictionary::new(shards, params, 128).unwrap()
    }

    #[test]
    fn single_threaded_semantics() {
        let dict = sharded(4);
        for k in 0..500u64 {
            dict.insert(k, &[k * 2]).unwrap();
        }
        assert_eq!(dict.len(), 500);
        for k in 0..500u64 {
            assert_eq!(dict.lookup(k).satellite, Some(vec![k * 2]));
        }
        let (was, _) = dict.delete(9).unwrap();
        assert!(was);
        assert!(!dict.lookup(9).found());
        assert_eq!(dict.len(), 499);
    }

    #[test]
    fn concurrent_mixed_operations_are_linearizable_per_key() {
        let dict = sharded(8);
        let threads = 8u64;
        let per = 200u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let dict = &dict;
                s.spawn(move || {
                    // Each thread owns a disjoint key range: per-key
                    // linearizability is then directly checkable.
                    let base = t << 32;
                    for i in 0..per {
                        dict.insert(base + i, &[t]).unwrap();
                    }
                    for i in (0..per).step_by(2) {
                        let (was, _) = dict.delete(base + i).unwrap();
                        assert!(was);
                    }
                    for i in 0..per {
                        let found = dict.lookup(base + i).found();
                        assert_eq!(found, i % 2 == 1, "thread {t}, key {i}");
                    }
                });
            }
        });
        assert_eq!(dict.len(), (threads * per / 2) as usize);
        assert!(dict.total_parallel_ios() > 0);
    }

    #[test]
    fn duplicate_rejected_across_threads() {
        let dict = sharded(4);
        dict.insert(7, &[1]).unwrap();
        let failures: usize = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let dict = &dict;
                    s.spawn(move || usize::from(dict.insert(7, &[2]).is_err()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(failures, 4, "every racing duplicate must be rejected");
        assert_eq!(dict.lookup(7).satellite, Some(vec![1]));
    }

    /// Two-shard batch cost, checked by hand: shards own independent
    /// disk groups, so a cross-shard batch overlaps the per-shard
    /// batches in time. The parallel cost must be the **max** of the two
    /// per-shard batch costs, while the sum — what a one-group-at-a-time
    /// schedule would pay — is retained as `sequential_ios`.
    #[test]
    fn cross_shard_batch_cost_is_per_shard_max_with_sum_retained() {
        // Twin dictionaries: `probe` measures the per-shard batch costs
        // in isolation, `dict` serves the combined batch.
        let dict = sharded(2);
        let probe = sharded(2);
        // Skewed split: shard 0 gets enough keys that its batch strictly
        // dominates shard 1's, making max < sum observable.
        let mut shard0 = Vec::new();
        let mut shard1 = Vec::new();
        for k in 0..400u64 {
            if dict.shard_index(k) == 0 && shard0.len() < 24 {
                shard0.push(k);
            } else if dict.shard_index(k) == 1 && shard1.len() < 2 {
                shard1.push(k);
            }
        }
        assert_eq!((shard0.len(), shard1.len()), (24, 2));
        for &k in shard0.iter().chain(&shard1) {
            dict.insert(k, &[k]).unwrap();
            probe.insert(k, &[k]).unwrap();
        }

        // Per-shard batch costs in isolation (single-shard batches:
        // max == sum, so parallel_ios is the plain batch cost).
        let (_, c0) = probe.lookup_batch(&shard0);
        let (_, c1) = probe.lookup_batch(&shard1);
        assert_eq!(c0.parallel_ios, c0.sequential_ios);
        assert_eq!(c1.parallel_ios, c1.sequential_ios);
        assert!(c0.parallel_ios >= 1 && c1.parallel_ios >= 1);

        // The combined batch: routed identically (same seed), so the
        // groups are exactly shard0 + shard1.
        let all: Vec<u64> = shard0.iter().chain(&shard1).copied().collect();
        let (found, cost) = dict.lookup_batch(&all);
        assert!(found.iter().all(Option::is_some));
        assert_eq!(
            cost.parallel_ios,
            c0.parallel_ios.max(c1.parallel_ios),
            "parallel cost is the per-shard max"
        );
        assert_eq!(
            cost.sequential_ios,
            c0.parallel_ios + c1.parallel_ios,
            "the one-shard-at-a-time sum is retained"
        );
        assert!(
            cost.sequential_ios > cost.parallel_ios,
            "with two busy shards the sum must exceed the max: {} vs {}",
            cost.sequential_ios,
            cost.parallel_ios
        );
        assert_eq!(cost.block_reads, c0.block_reads + c1.block_reads);
    }

    #[test]
    fn shard_routing_is_stable() {
        let dict = sharded(8);
        dict.insert(123, &[9]).unwrap();
        for _ in 0..10 {
            assert_eq!(dict.lookup(123).satellite, Some(vec![9]));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let params = DictParams::new(16, 1 << 20, 0)
            .with_degree(16)
            .with_epsilon(1.0);
        let _ = ShardedDictionary::new(0, params, 64);
    }
}

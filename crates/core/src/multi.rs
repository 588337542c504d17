//! Parallel instances: batch operations at single-operation I/O cost.
//!
//! The Section 4 preamble: "We can make any constant number of parallel
//! instances of our dictionaries. This allows insertions of a constant
//! number of elements in the same number of parallel I/Os as one
//! insertion, and does not influence lookup time. The amount of space
//! used and the number of disks increase by a constant factor."
//!
//! [`ParallelInstances`] realizes the claim for the Section 4.1
//! dictionary: `C` independent instances live on **disjoint** disk
//! ranges, so their probe batches touch different disks and can be issued
//! as *one* parallel I/O. A batch of `C` insertions (one per instance,
//! round-robin) therefore costs 2 parallel I/Os total — the same as a
//! single insertion — and a batch of `C` lookups costs 1.

use crate::basic::{BasicDict, BasicDictConfig};
use crate::layout::DiskAllocator;
use crate::traits::{DictError, LookupOutcome};
use expander::mix::mix64;
use pdm::{BlockAddr, BlockView, DiskArray, OpCost, ReadOptions, Word, WriteOptions};

/// `C` Section 4.1 dictionaries on disjoint disk ranges with batched,
/// cost-merged operations.
#[derive(Debug)]
pub struct ParallelInstances {
    instances: Vec<BasicDict>,
    degree: usize,
    route_seed: u64,
}

impl ParallelInstances {
    /// Create `count` instances, each on its own `degree`-disk range
    /// starting at `first_disk` (so `count · degree` disks total).
    pub fn create(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        count: usize,
        cfg: BasicDictConfig,
    ) -> Result<Self, DictError> {
        if count == 0 {
            return Err(DictError::UnsupportedParams(
                "need at least one instance".into(),
            ));
        }
        let mut instances = Vec::with_capacity(count);
        for i in 0..count {
            let mut icfg = cfg;
            icfg.seed = cfg.seed.wrapping_add(i as u64);
            instances.push(BasicDict::create(
                disks,
                alloc,
                first_disk + i * cfg.degree,
                icfg,
            )?);
        }
        Ok(ParallelInstances {
            instances,
            degree: cfg.degree,
            route_seed: cfg.seed ^ 0x9A7A_11E1,
        })
    }

    /// Number of instances `C`.
    #[must_use]
    pub fn count(&self) -> usize {
        self.instances.len()
    }

    /// Disks occupied (`C · d`).
    #[must_use]
    pub fn disks_used(&self) -> usize {
        self.count() * self.degree
    }

    /// Total live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.iter().map(BasicDict::len).sum()
    }

    /// Whether all instances are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn instance_of(&self, key: u64) -> usize {
        (mix64(self.route_seed ^ key) % self.instances.len() as u64) as usize
    }

    /// Look up `keys` in **one merged probe**: instances' candidate
    /// blocks sit on disjoint disks, so a batch touching each instance at
    /// most once is one parallel I/O — "does not influence lookup time".
    /// (Keys colliding on an instance stack its disks: the batch then
    /// costs the per-instance maximum.)
    pub fn lookup_batch(
        &self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let scope = disks.begin_op();
        let mut addrs: Vec<BlockAddr> = Vec::new();
        let mut spans = Vec::with_capacity(keys.len());
        for &key in keys {
            let start = addrs.len();
            self.instances[self.instance_of(key)].extend_probe_addrs(key, &mut addrs);
            spans.push(start..addrs.len());
        }
        let blocks = disks.read(&addrs, ReadOptions::default()).blocks;
        let results = keys
            .iter()
            .zip(spans)
            .map(|(&key, span)| {
                self.instances[self.instance_of(key)].decode_find(key, &blocks.sub(span))
            })
            .collect();
        (results, disks.end_op(scope))
    }

    /// Single-key lookup (1 parallel I/O).
    pub fn lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        let (mut r, cost) = self.lookup_batch(disks, &[key]);
        LookupOutcome::new(r.pop().expect("one result"), cost)
    }

    /// Insert up to one key **per instance** in one merged
    /// read-batch/write-batch pair: `keys.len() ≤ C` distinct-instance
    /// insertions cost **2 parallel I/Os total** — "insertions of a
    /// constant number of elements in the same number of parallel I/Os as
    /// one insertion".
    ///
    /// Keys are routed by hash; if two keys of the batch route to the
    /// same instance the second is deferred internally (costing one more
    /// round), so supply keys in batch sizes ≈ `C` for full effect.
    pub fn insert_batch(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<OpCost, DictError> {
        let scope = disks.begin_op();
        let mut pending: Vec<&(u64, Vec<Word>)> = entries.iter().collect();
        while !pending.is_empty() {
            // One round: at most one key per instance.
            let mut this_round: Vec<&(u64, Vec<Word>)> = Vec::new();
            let mut used = vec![false; self.instances.len()];
            let mut deferred = Vec::new();
            for e in pending {
                let i = self.instance_of(e.0);
                if used[i] {
                    deferred.push(e);
                } else {
                    used[i] = true;
                    this_round.push(e);
                }
            }
            // Merged probe for the whole round (1 parallel I/O).
            let mut addrs: Vec<BlockAddr> = Vec::new();
            let mut spans = Vec::with_capacity(this_round.len());
            for (key, _) in this_round.iter().copied() {
                let start = addrs.len();
                self.instances[self.instance_of(*key)].extend_probe_addrs(*key, &mut addrs);
                spans.push(start..addrs.len());
            }
            let blocks = disks.read(&addrs, ReadOptions::default()).blocks;
            // Merged writes (1 parallel I/O: distinct instances, distinct
            // disks; within an instance the chosen bucket is one disk).
            let mut patches = Vec::with_capacity(this_round.len());
            for ((key, sat), span) in this_round.iter().copied().zip(spans) {
                let i = self.instance_of(*key);
                patches.push((i, self.instances[i].plan_insert(*key, sat, &blocks.sub(span))?));
            }
            let refs: Vec<(BlockAddr, &[Word])> =
                patches.iter().flat_map(|(_, patch)| patch.writes()).collect();
            disks.write(&refs, WriteOptions::default());
            for (i, _) in patches {
                self.instances[i].note_inserted();
            }
            pending = deferred;
        }
        Ok(disks.end_op(scope))
    }

    /// Delete a key (2 parallel I/Os when present).
    pub fn delete(&mut self, disks: &mut DiskArray, key: u64) -> (bool, OpCost) {
        let i = self.instance_of(key);
        self.instances[i].delete(disks, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::PdmConfig;

    fn setup(count: usize, n: usize) -> (DiskArray, ParallelInstances) {
        let d = 13;
        let mut disks = DiskArray::new(PdmConfig::new(count * d, 64), 0);
        let mut alloc = DiskAllocator::new(count * d);
        let cfg = BasicDictConfig::log_load(n, 1 << 40, d, 1, 0x9A);
        let multi = ParallelInstances::create(&mut disks, &mut alloc, 0, count, cfg).unwrap();
        (disks, multi)
    }

    #[test]
    fn batch_of_c_insertions_costs_two_ios() {
        let c = 4;
        let (mut disks, mut multi) = setup(c, 500);
        // Find c keys that route to c distinct instances.
        let mut batch: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut used = std::collections::HashSet::new();
        let mut k = 0u64;
        while batch.len() < c {
            let i = multi.instance_of(k);
            if used.insert(i) {
                batch.push((k, vec![k]));
            }
            k += 1;
        }
        let cost = multi.insert_batch(&mut disks, &batch).unwrap();
        assert_eq!(
            cost.parallel_ios, 2,
            "{c} insertions must cost the same 2 I/Os as one"
        );
        for (key, sat) in &batch {
            assert_eq!(multi.lookup(&mut disks, *key).satellite.as_ref(), Some(sat));
        }
    }

    #[test]
    fn batch_lookups_cost_one_io() {
        let (mut disks, mut multi) = setup(4, 500);
        let entries: Vec<(u64, Vec<u64>)> = (0..100u64).map(|k| (k, vec![k])).collect();
        for chunk in entries.chunks(4) {
            multi.insert_batch(&mut disks, chunk).unwrap();
        }
        // Pick one key per instance: the merged probe is then one I/O.
        let mut keys = Vec::new();
        let mut used = std::collections::HashSet::new();
        for k in 0..100u64 {
            if used.insert(multi.instance_of(k)) {
                keys.push(k);
            }
        }
        assert_eq!(keys.len(), 4);
        let (found, cost) = multi.lookup_batch(&mut disks, &keys);
        assert_eq!(cost.parallel_ios, 1, "batched lookups are one probe");
        for (k, f) in keys.iter().zip(found) {
            assert_eq!(f, Some(vec![*k]));
        }
    }

    #[test]
    fn colliding_routes_defer_but_commit() {
        let (mut disks, mut multi) = setup(2, 200);
        // Force a batch larger than C: rounds happen, everything lands.
        let entries: Vec<(u64, Vec<u64>)> = (0..20u64).map(|k| (k, vec![k + 1])).collect();
        let cost = multi.insert_batch(&mut disks, &entries).unwrap();
        assert!(cost.parallel_ios >= 2);
        assert_eq!(multi.len(), 20);
        for (k, s) in &entries {
            assert_eq!(multi.lookup(&mut disks, *k).satellite.as_ref(), Some(s));
        }
    }

    #[test]
    fn misses_and_deletes() {
        let (mut disks, mut multi) = setup(3, 100);
        multi.insert_batch(&mut disks, &[(5, vec![50])]).unwrap();
        assert!(!multi.lookup(&mut disks, 6).found());
        let (was, _) = multi.delete(&mut disks, 5);
        assert!(was);
        assert!(!multi.lookup(&mut disks, 5).found());
        let (absent, _) = multi.delete(&mut disks, 5);
        assert!(!absent);
    }

    #[test]
    fn duplicate_in_batch_rejected() {
        let (mut disks, mut multi) = setup(2, 100);
        multi.insert_batch(&mut disks, &[(7, vec![1])]).unwrap();
        assert!(matches!(
            multi.insert_batch(&mut disks, &[(7, vec![2])]),
            Err(DictError::DuplicateKey(7))
        ));
    }

    #[test]
    fn zero_instances_rejected() {
        let mut disks = DiskArray::new(PdmConfig::new(13, 64), 0);
        let mut alloc = DiskAllocator::new(13);
        let cfg = BasicDictConfig::log_load(10, 1 << 20, 13, 0, 0);
        assert!(ParallelInstances::create(&mut disks, &mut alloc, 0, 0, cfg).is_err());
    }
}

//! Constant-I/O bucket dictionaries for the small-`B` regime.
//!
//! Section 4.1: "even without making any constraints on B, we can achieve
//! a constant lookup and insertion time by using an atomic heap \[8, 9\] in
//! each bucket. This makes the implementation more complicated; also,
//! one-probe lookups are not possible in this case."
//!
//! Atomic heaps (Fredman–Willard) are *internal-memory* structures whose
//! constant-time claim is about RAM operations; what the PDM charges is
//! I/Os. [`MicroDict`] reproduces the I/O behaviour the paper needs: a
//! bucket's records are spread over several leaf blocks by a seeded
//! sub-hash, so a lookup or insertion touches **one** leaf block no matter
//! how large the bucket is (`O(1)` I/Os with no constraint on `B`), while
//! one-probe semantics are indeed lost — the caller must first know which
//! bucket to ask, and the probe is per-bucket. The CPU-side constant time
//! of the atomic heap is simulated, not reproduced; see DESIGN.md's
//! substitution table.

use crate::bucket::BucketCodec;
use crate::layout::{DiskAllocator, Region};
use crate::traits::{DictError, LookupOutcome};
use expander::mix::mix64;
use pdm::{BlockAddr, DiskArray, OpCost, Word};

/// A multi-block bucket dictionary with `O(1)`-I/O operations.
#[derive(Debug, Clone)]
pub struct MicroDict {
    region: Region,
    codec: BucketCodec,
    leaves: usize,
    seed: u64,
    len: usize,
    capacity: usize,
}

impl MicroDict {
    /// Create on one disk with `leaves` leaf blocks. Total capacity is
    /// sized at a quarter of the raw slot count to keep leaf overflow
    /// negligible (the sub-hash is balls-into-bins, so leaves need slack).
    pub fn create(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        disk: usize,
        leaves: usize,
        payload_words: usize,
        seed: u64,
    ) -> Result<Self, DictError> {
        if leaves == 0 {
            return Err(DictError::UnsupportedParams(
                "need at least one leaf block".into(),
            ));
        }
        let codec = BucketCodec::new(payload_words);
        let slots_per_leaf = codec.capacity(disks.block_words());
        if slots_per_leaf == 0 {
            return Err(DictError::UnsupportedParams(format!(
                "block of {} words cannot hold a slot of {} words",
                disks.block_words(),
                codec.slot_words()
            )));
        }
        let region = alloc.alloc(disks, disk, 1, leaves);
        Ok(MicroDict {
            region,
            codec,
            leaves,
            seed,
            len: 0,
            capacity: leaves * slots_per_leaf / 4,
        })
    }

    /// Live records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity (a quarter of the raw slot count).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn leaf_of(&self, key: u64) -> BlockAddr {
        let leaf = (mix64(self.seed ^ key) % self.leaves as u64) as usize;
        self.region.addr(0, leaf)
    }

    /// Lookup: exactly one block read, independent of bucket size.
    pub fn lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        let scope = disks.begin_op();
        let block = disks.read_block(self.leaf_of(key));
        LookupOutcome::new(self.codec.find(&block, key).map(<[Word]>::to_vec), disks.end_op(scope))
    }

    /// Insert: one read + one write, independent of bucket size.
    pub fn insert(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
        payload: &[Word],
    ) -> Result<OpCost, DictError> {
        if payload.len() != self.codec.payload_words {
            return Err(DictError::SatelliteWidth {
                expected: self.codec.payload_words,
                got: payload.len(),
            });
        }
        if self.len >= self.capacity {
            return Err(DictError::CapacityExhausted {
                capacity: self.capacity,
            });
        }
        let scope = disks.begin_op();
        let addr = self.leaf_of(key);
        let mut block = disks.read_block(addr);
        if self.codec.find(&block, key).is_some() {
            return Err(DictError::DuplicateKey(key));
        }
        if !self.codec.insert(&mut block, key, payload) {
            // The sub-hash missed its balance (possible, rare): surface it.
            return Err(DictError::BucketOverflow { key });
        }
        disks.write_block(addr, &block);
        self.len += 1;
        Ok(disks.end_op(scope))
    }

    /// Delete (tombstone): one read + one write when present.
    pub fn delete(&mut self, disks: &mut DiskArray, key: u64) -> (bool, OpCost) {
        let scope = disks.begin_op();
        let addr = self.leaf_of(key);
        let mut block = disks.read_block(addr);
        if self.codec.delete(&mut block, key) {
            disks.write_block(addr, &block);
            self.len -= 1;
            (true, disks.end_op(scope))
        } else {
            (false, disks.end_op(scope))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::PdmConfig;

    fn setup(block_words: usize, leaves: usize) -> (DiskArray, MicroDict) {
        let mut disks = DiskArray::new(PdmConfig::new(2, block_words), 0);
        let mut alloc = DiskAllocator::new(2);
        let dict = MicroDict::create(&mut disks, &mut alloc, 0, leaves, 1, 9).unwrap();
        (disks, dict)
    }

    #[test]
    fn constant_io_even_with_tiny_blocks() {
        // B = 32 words: below log2(n)·slot_words; ops must be O(1) I/Os.
        let (mut disks, mut dict) = setup(32, 64);
        for k in 0..dict.capacity() as u64 {
            let cost = dict.insert(&mut disks, k, &[k]).unwrap();
            assert_eq!(cost.parallel_ios, 2);
        }
        for k in 0..dict.capacity() as u64 {
            let out = dict.lookup(&mut disks, k);
            assert_eq!(out.satellite, Some(vec![k]));
            assert_eq!(out.cost.parallel_ios, 1);
        }
    }

    #[test]
    fn delete_and_miss() {
        let (mut disks, mut dict) = setup(8, 16);
        dict.insert(&mut disks, 4, &[1]).unwrap();
        assert!(dict.lookup(&mut disks, 4).found());
        let (was, cost) = dict.delete(&mut disks, 4);
        assert!(was);
        assert_eq!(cost.parallel_ios, 2);
        assert!(!dict.lookup(&mut disks, 4).found());
        let (absent, cost2) = dict.delete(&mut disks, 4);
        assert!(!absent);
        assert_eq!(cost2.parallel_ios, 1);
    }

    #[test]
    fn capacity_enforced() {
        let (mut disks, mut dict) = setup(8, 4);
        for k in 0..dict.capacity() as u64 {
            dict.insert(&mut disks, k, &[0]).unwrap();
        }
        assert!(dict.insert(&mut disks, 999, &[0]).is_err());
    }

    #[test]
    fn rejects_block_too_small_for_slot() {
        let mut disks = DiskArray::new(PdmConfig::new(1, 2), 0);
        let mut alloc = DiskAllocator::new(1);
        // slot = 2 + 4 payload words = 6 > B = 2.
        assert!(MicroDict::create(&mut disks, &mut alloc, 0, 4, 4, 0).is_err());
    }

    #[test]
    fn duplicate_rejected() {
        let (mut disks, mut dict) = setup(8, 16);
        dict.insert(&mut disks, 1, &[1]).unwrap();
        assert!(matches!(
            dict.insert(&mut disks, 1, &[2]),
            Err(DictError::DuplicateKey(1))
        ));
    }
}

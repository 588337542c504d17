//! The Section 4.1 wide-bandwidth variant.
//!
//! "By changing the parameters of the load balancing scheme to k = d/2
//! and v = kN/log N, it is possible to accommodate lookup of associated
//! information of size O(BD/log N) in one I/O."
//!
//! Each key's satellite record is split into `k` chunks, placed by the
//! greedy scheme into `k` *distinct* least-loaded candidate buckets
//! (distinctness keeps the buckets on distinct disks, so both the probe
//! and the chunk writes are single parallel I/Os). A lookup reads all `d`
//! candidate buckets — one per disk, one parallel I/O — gathers the key's
//! chunks and reassembles them by chunk index, returning `k · chunk`
//! words ≈ `B·D / (2·log N)` of satellite data per probe.

use crate::bucket::BucketCodec;
use crate::layout::{DiskAllocator, Region};
use crate::traits::{DictError, LookupOutcome};
use expander::{FamilyExpander, FamilyKind, NeighborFamily, NeighborFn};
use pdm::{BlockAddr, DiskArray, OpCost, ReadOptions, Round, Word, WriteOptions};

/// Sizing parameters for a [`WideDict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideDictConfig {
    /// Capacity `N`.
    pub capacity: usize,
    /// Universe size `u`.
    pub universe: u64,
    /// Expander degree `d` (= disks used).
    pub degree: usize,
    /// Chunks per key, `k` (the paper: `d/2`).
    pub chunks_per_key: usize,
    /// Words per chunk.
    pub chunk_words: usize,
    /// Buckets `v` (positive multiple of `degree`).
    pub buckets: usize,
    /// Slots per bucket.
    pub bucket_slots: usize,
    /// Expander seed.
    pub seed: u64,
    /// Hash family the expander is drawn from.
    pub family: FamilyKind,
}

impl WideDictConfig {
    /// The paper's parameterization: `k = d/2`, `v = Θ(k·N / log N)`, so
    /// bucket loads stay `Θ(log N)` and the bandwidth is
    /// `k · chunk_words ≈ B·D/(2·log N)` words per lookup.
    #[must_use]
    pub fn paper(
        capacity: usize,
        universe: u64,
        degree: usize,
        chunk_words: usize,
        seed: u64,
    ) -> Self {
        let n = capacity.max(2);
        let k = (degree / 2).max(1);
        let target_load = (usize::BITS - n.leading_zeros()) as usize; // ~log2 N
        let raw_v = (2 * k * n).div_ceil(target_load).max(degree);
        let buckets = raw_v.div_ceil(degree) * degree;
        WideDictConfig {
            capacity,
            universe,
            degree,
            chunks_per_key: k,
            chunk_words,
            buckets,
            bucket_slots: target_load + 8,
            seed,
            family: FamilyKind::default(),
        }
    }

    /// Override the hash family the expander is drawn from.
    #[must_use]
    pub fn with_family(mut self, family: FamilyKind) -> Self {
        self.family = family;
        self
    }

    /// Satellite words per key (`k · chunk_words`).
    #[must_use]
    pub fn satellite_words(&self) -> usize {
        self.chunks_per_key * self.chunk_words
    }
}

/// The `k = d/2` wide-bandwidth dictionary of Section 4.1.
///
/// ```
/// use pdm::{DiskArray, PdmConfig};
/// use pdm_dict::layout::DiskAllocator;
/// use pdm_dict::wide::{WideDict, WideDictConfig};
///
/// let d = 16;
/// let mut disks = DiskArray::new(PdmConfig::new(d, 128), 0);
/// let mut alloc = DiskAllocator::new(d);
/// let cfg = WideDictConfig::paper(500, 1 << 40, d, 4, 1); // 4-word chunks
/// let mut dict = WideDict::create(&mut disks, &mut alloc, 0, cfg)?;
/// let record: Vec<u64> = (0..dict.bandwidth_words() as u64).collect();
/// dict.insert(&mut disks, 9, &record)?;
/// let out = dict.lookup(&mut disks, 9);
/// assert_eq!(out.satellite, Some(record));
/// assert_eq!(out.cost.parallel_ios, 1); // k·chunk words in ONE probe
/// # Ok::<(), pdm_dict::DictError>(())
/// ```
#[derive(Debug)]
pub struct WideDict {
    cfg: WideDictConfig,
    graph: FamilyExpander,
    region: Region,
    codec: BucketCodec,
    blocks_per_bucket: usize,
    len: usize,
}

impl WideDict {
    /// Create on `degree` disks starting at `first_disk`.
    pub fn create(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        cfg: WideDictConfig,
    ) -> Result<Self, DictError> {
        if cfg.degree == 0 || cfg.buckets == 0 || !cfg.buckets.is_multiple_of(cfg.degree) {
            return Err(DictError::UnsupportedParams(format!(
                "buckets v = {} must be a positive multiple of degree d = {}",
                cfg.buckets, cfg.degree
            )));
        }
        if cfg.chunks_per_key == 0 || cfg.chunks_per_key > cfg.degree {
            return Err(DictError::UnsupportedParams(format!(
                "chunks k = {} must satisfy 1 ≤ k ≤ d = {}",
                cfg.chunks_per_key, cfg.degree
            )));
        }
        // Slot: [flags, key, chunk index, chunk words…].
        let codec = BucketCodec::new(1 + cfg.chunk_words);
        let bucket_words = codec.slot_words() * cfg.bucket_slots;
        let blocks_per_bucket = bucket_words.div_ceil(disks.block_words());
        let buckets_per_disk = cfg.buckets / cfg.degree;
        let region = alloc.alloc(
            disks,
            first_disk,
            cfg.degree,
            buckets_per_disk * blocks_per_bucket,
        );
        let graph = cfg
            .family
            .build(cfg.universe, buckets_per_disk, cfg.degree, cfg.seed);
        Ok(WideDict {
            cfg,
            graph,
            region,
            codec,
            blocks_per_bucket,
            len: 0,
        })
    }

    /// Live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Words of satellite data returned per lookup.
    #[must_use]
    pub fn bandwidth_words(&self) -> usize {
        self.cfg.satellite_words()
    }

    /// Capacity `N` (maximum live keys).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Space in words.
    #[must_use]
    pub fn space_words(&self, disks: &DiskArray) -> usize {
        self.region.space_words(disks)
    }

    fn bucket_addrs(&self, stripe: usize, j: usize) -> Vec<BlockAddr> {
        (0..self.blocks_per_bucket)
            .map(|b| self.region.addr(stripe, j * self.blocks_per_bucket + b))
            .collect()
    }

    fn probe_addrs(&self, key: u64) -> Vec<BlockAddr> {
        self.graph
            .neighbors(key)
            .into_iter()
            .flat_map(|y| {
                let (s, j) = self.graph.stripe_of(y);
                self.bucket_addrs(s, j)
            })
            .collect()
    }

    /// One buffer per bucket: consecutive blocks of the round's buffer.
    fn bucket_bufs(&self, blocks: &Round<'_>) -> Vec<Vec<Word>> {
        let bucket: Vec<&[Word]> = blocks.iter().collect();
        bucket
            .chunks(self.blocks_per_bucket)
            .map(|c| c.concat())
            .collect()
    }

    /// Lookup: one parallel I/O, returning up to `k · chunk_words` words.
    pub fn lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        let scope = disks.begin_op();
        let blocks = disks.read(&self.probe_addrs(key), ReadOptions::default()).blocks;
        let bufs = self.bucket_bufs(&blocks);
        // Gather this key's chunks from all candidate buckets.
        let mut chunks: Vec<(u64, Vec<Word>)> = Vec::new();
        for buf in &bufs {
            for (k, payload) in self.codec.live_entries(buf) {
                if k == key {
                    chunks.push((payload[0], payload[1..].to_vec()));
                }
            }
        }
        let satellite = if chunks.len() == self.cfg.chunks_per_key {
            chunks.sort_unstable_by_key(|&(idx, _)| idx);
            let mut out = Vec::with_capacity(self.cfg.satellite_words());
            for (_, c) in chunks {
                out.extend_from_slice(&c);
            }
            Some(out)
        } else {
            None
        };
        LookupOutcome::new(satellite, disks.end_op(scope))
    }

    /// Insert: read the `d` candidate buckets (1 I/O), spread the `k`
    /// chunks over the `k` least-loaded *distinct* candidates, write those
    /// buckets back (1 I/O — distinct stripes, distinct disks).
    pub fn insert(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
        satellite: &[Word],
    ) -> Result<OpCost, DictError> {
        if satellite.len() != self.cfg.satellite_words() {
            return Err(DictError::SatelliteWidth {
                expected: self.cfg.satellite_words(),
                got: satellite.len(),
            });
        }
        if self.len >= self.cfg.capacity {
            return Err(DictError::CapacityExhausted {
                capacity: self.cfg.capacity,
            });
        }
        let scope = disks.begin_op();
        let blocks = disks.read(&self.probe_addrs(key), ReadOptions::default()).blocks;
        let mut bufs = self.bucket_bufs(&blocks);
        if bufs
            .iter()
            .any(|b| self.codec.live_entries(b).iter().any(|&(k, _)| k == key))
        {
            return Err(DictError::DuplicateKey(key));
        }
        // Greedy: k distinct least-loaded candidates with a free slot.
        let mut order: Vec<usize> = (0..bufs.len()).collect();
        order.sort_by_key(|&i| (self.codec.live_count(&bufs[i]), i));
        let mut chosen = Vec::with_capacity(self.cfg.chunks_per_key);
        for &i in &order {
            if chosen.len() == self.cfg.chunks_per_key {
                break;
            }
            if self.codec.live_count(&bufs[i]) < self.cfg.bucket_slots {
                chosen.push(i);
            }
        }
        if chosen.len() < self.cfg.chunks_per_key {
            return Err(DictError::BucketOverflow { key });
        }
        let mut writes: Vec<(BlockAddr, Vec<Word>)> = Vec::new();
        for (t, &i) in chosen.iter().enumerate() {
            let mut payload = Vec::with_capacity(1 + self.cfg.chunk_words);
            payload.push(t as Word);
            payload.extend_from_slice(
                &satellite[t * self.cfg.chunk_words..(t + 1) * self.cfg.chunk_words],
            );
            let inserted = self.codec.insert(&mut bufs[i], key, &payload);
            debug_assert!(inserted, "free slot checked");
            // Emit block writes for this bucket.
            let y = self.graph.neighbor(key, i);
            let (stripe, j) = self.graph.stripe_of(y);
            let bw = bufs[i].len() / self.blocks_per_bucket;
            for (b, addr) in self.bucket_addrs(stripe, j).into_iter().enumerate() {
                writes.push((addr, bufs[i][b * bw..(b + 1) * bw].to_vec()));
            }
        }
        let refs: Vec<(BlockAddr, &[Word])> =
            writes.iter().map(|(a, w)| (*a, w.as_slice())).collect();
        disks.write(&refs, WriteOptions::default());
        self.len += 1;
        Ok(disks.end_op(scope))
    }

    /// Delete: tombstone every chunk (all candidate buckets were read
    /// anyway). 2 parallel I/Os.
    pub fn delete(&mut self, disks: &mut DiskArray, key: u64) -> (bool, OpCost) {
        let scope = disks.begin_op();
        let blocks = disks.read(&self.probe_addrs(key), ReadOptions::default()).blocks;
        let mut bufs = self.bucket_bufs(&blocks);
        let mut writes: Vec<(BlockAddr, Vec<Word>)> = Vec::new();
        let mut found = false;
        for (i, buf) in bufs.iter_mut().enumerate() {
            let mut touched = false;
            while self.codec.delete(buf, key) {
                touched = true;
                found = true;
            }
            if touched {
                let y = self.graph.neighbor(key, i);
                let (stripe, j) = self.graph.stripe_of(y);
                let bw = buf.len() / self.blocks_per_bucket;
                for (b, addr) in self.bucket_addrs(stripe, j).into_iter().enumerate() {
                    writes.push((addr, buf[b * bw..(b + 1) * bw].to_vec()));
                }
            }
        }
        if found {
            let refs: Vec<(BlockAddr, &[Word])> =
                writes.iter().map(|(a, w)| (*a, w.as_slice())).collect();
            disks.write(&refs, WriteOptions::default());
            self.len -= 1;
        }
        (found, disks.end_op(scope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::PdmConfig;

    fn setup(n: usize, chunk_words: usize) -> (DiskArray, WideDict) {
        let d = 16;
        let mut disks = DiskArray::new(PdmConfig::new(d, 128), 0);
        let mut alloc = DiskAllocator::new(d);
        let cfg = WideDictConfig::paper(n, 1 << 40, d, chunk_words, 0x71DE);
        let dict = WideDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
        (disks, dict)
    }

    fn sat(dict: &WideDict, key: u64) -> Vec<Word> {
        (0..dict.bandwidth_words() as u64)
            .map(|i| expander::mix::mix64(key ^ (i << 32)))
            .collect()
    }

    #[test]
    fn roundtrip_with_wide_satellite() {
        let (mut disks, mut dict) = setup(300, 3);
        assert_eq!(dict.bandwidth_words(), 8 * 3); // k = 8 chunks of 3 words
        for k in 0..300u64 {
            let s = sat(&dict, k);
            dict.insert(&mut disks, k * 5 + 1, &s).unwrap();
        }
        for k in 0..300u64 {
            let out = dict.lookup(&mut disks, k * 5 + 1);
            assert_eq!(out.satellite, Some(sat(&dict, k)), "key {k}");
        }
        assert!(!dict.lookup(&mut disks, 2).found());
    }

    #[test]
    fn one_io_lookup_two_io_insert() {
        let (mut disks, mut dict) = setup(200, 2);
        let s = sat(&dict, 9);
        let ins = dict.insert(&mut disks, 9, &s).unwrap();
        assert_eq!(ins.parallel_ios, 2, "insert = probe + chunk writes");
        let out = dict.lookup(&mut disks, 9);
        assert_eq!(out.cost.parallel_ios, 1, "wide lookup must stay one probe");
    }

    #[test]
    fn bandwidth_scales_with_degree_over_log_n() {
        // The headline: satellite ≈ B·D/(2·log N) words in one I/O.
        let (_, dict) = setup(1 << 14, 4);
        let d = 16;
        let expected = (d / 2) * 4;
        assert_eq!(dict.bandwidth_words(), expected);
    }

    #[test]
    fn delete_removes_every_chunk() {
        let (mut disks, mut dict) = setup(100, 2);
        let s = sat(&dict, 77);
        dict.insert(&mut disks, 77, &s).unwrap();
        let (was, cost) = dict.delete(&mut disks, 77);
        assert!(was);
        assert_eq!(cost.parallel_ios, 2);
        assert!(!dict.lookup(&mut disks, 77).found());
        // Reinsert works (slots reused).
        dict.insert(&mut disks, 77, &s).unwrap();
        assert!(dict.lookup(&mut disks, 77).found());
    }

    #[test]
    fn duplicate_and_width_checked() {
        let (mut disks, mut dict) = setup(50, 2);
        let s = sat(&dict, 1);
        dict.insert(&mut disks, 1, &s).unwrap();
        assert!(matches!(
            dict.insert(&mut disks, 1, &s),
            Err(DictError::DuplicateKey(1))
        ));
        assert!(matches!(
            dict.insert(&mut disks, 2, &s[..3]),
            Err(DictError::SatelliteWidth { .. })
        ));
    }

    #[test]
    fn loads_stay_near_log_n() {
        let (mut disks, mut dict) = setup(2000, 1);
        for k in 0..2000u64 {
            let s = sat(&dict, k);
            dict.insert(&mut disks, k.wrapping_mul(0x9E37_79B9) % (1 << 40), &s)
                .unwrap();
        }
        assert_eq!(dict.len(), 2000);
        // Spot-check reads still one I/O after heavy fill.
        let probe = 0x9E37_79B9u64;
        assert_eq!(dict.lookup(&mut disks, probe).cost.parallel_ios, 1);
    }

    #[test]
    fn rejects_bad_chunk_count() {
        let mut disks = DiskArray::new(PdmConfig::new(4, 64), 0);
        let mut alloc = DiskAllocator::new(4);
        let mut cfg = WideDictConfig::paper(10, 1 << 20, 4, 1, 0);
        cfg.chunks_per_key = 5; // > d
        assert!(WideDict::create(&mut disks, &mut alloc, 0, cfg).is_err());
    }
}

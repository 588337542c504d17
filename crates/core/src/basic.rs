//! The Section 4.1 basic dictionary.
//!
//! "Use a striped expander graph G with v = N/log N, and an array of v
//! (more elementary) dictionaries. The array is split across D = d disks
//! according to the stripes of G. ... The dictionary implements the load
//! balancing scheme described above, with k = 1."
//!
//! Concretely: `v` buckets (a multiple of `d`), stripe `i` of the expander
//! living on disk `i` of the structure's region. A lookup reads the key's
//! `d` candidate buckets — one per disk, so **one parallel I/O** when a
//! bucket is one block. An insertion reads the same `d` buckets, places
//! the record in the *currently least loaded* candidate (the greedy scheme
//! of Section 3 with `k = 1` — the loads are counted from the blocks just
//! read, so no in-memory index exists), and writes that bucket back:
//! **two parallel I/Os**, the minimum possible for a read-modify-write.
//!
//! Given `2d` disks (`BasicDict::create_on`), bucket `j` of stripe `i`
//! lies on disk `i + d·(j mod 2)`, at row `⌊j/2⌋` of its half (`⌈n/2⌉` rows
//! below, `⌊n/2⌋` above, `n = v/d`: the blocks of `d` disks). A key's
//! buckets still lie on `d` distinct disks, so the counts above hold, and a
//! batch costs its largest per-disk load over `2d` disks instead of `d`.
//!
//! With `v = Θ(N / log N)` the greedy bound (Lemma 3) keeps every bucket
//! at `Θ(log N)` records, so `B = Ω(log N)` gives single-block buckets.
//! Without any constraint on `B` a bucket spans `O(log N / B)` blocks and
//! operations stay `O(1)` I/Os for constant `log N / B`; see
//! [`crate::micro`] for the atomic-heap-style sub-bucket structure the
//! paper invokes for the fully general case.

use crate::bucket::BucketCodec;
use crate::layout::{DiskAllocator, Region};
use crate::traits::{DictError, LookupOutcome};
use expander::{FamilyExpander, FamilyKind, NeighborFamily, NeighborFn};
use pdm::{
    BatchExecutor, BatchPlan, BlockAddr, BlockView, DiskArray, OpCost, ReadOptions, Word,
    WriteOptions,
};
use std::borrow::Cow;

/// Sizing and identity parameters for a [`BasicDict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicDictConfig {
    /// Capacity `N` (maximum live keys).
    pub capacity: usize,
    /// Universe size `u`.
    pub universe: u64,
    /// Expander degree `d` = disks used by this structure.
    pub degree: usize,
    /// Payload words stored with each key.
    pub payload_words: usize,
    /// Number of buckets `v` (must be a positive multiple of `degree`).
    pub buckets: usize,
    /// Slots per bucket.
    pub bucket_slots: usize,
    /// Expander seed.
    pub seed: u64,
    /// Hash family the expander is drawn from.
    pub family: FamilyKind,
}

impl BasicDictConfig {
    /// The paper's sizing: `v ≈ N / log N` buckets, so bucket loads are
    /// `Θ(log N)`; slot count adds the Lemma 3 additive margin.
    #[must_use]
    pub fn log_load(
        capacity: usize,
        universe: u64,
        degree: usize,
        payload_words: usize,
        seed: u64,
    ) -> Self {
        let n = capacity.max(2);
        let target_load = (usize::BITS - n.leading_zeros()) as usize; // ~log2 N
        let raw_v = (2 * n).div_ceil(target_load).max(degree);
        let buckets = raw_v.div_ceil(degree) * degree;
        BasicDictConfig {
            capacity,
            universe,
            degree,
            payload_words,
            buckets,
            // Average load ≤ target/2; Lemma 3's additive term is
            // log_{(1-ε)d}(v), far below 8 for any feasible v.
            bucket_slots: target_load + 8,
            seed,
            family: FamilyKind::default(),
        }
    }

    /// Single-block buckets: "by setting v = O(N/B) sufficiently large we
    /// can get a maximum load of less than B, and hence membership queries
    /// take 1 I/O".
    #[must_use]
    pub fn block_load(
        capacity: usize,
        universe: u64,
        degree: usize,
        payload_words: usize,
        block_words: usize,
        seed: u64,
    ) -> Self {
        let codec = BucketCodec::new(payload_words);
        let slots = codec.capacity(block_words).max(2);
        let raw_v = (4 * capacity.max(1)).div_ceil(slots).max(degree);
        let buckets = raw_v.div_ceil(degree) * degree;
        BasicDictConfig {
            capacity,
            universe,
            degree,
            payload_words,
            buckets,
            bucket_slots: slots,
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

    fn validate(&self) -> Result<(), DictError> {
        if self.degree == 0 || self.buckets == 0 || !self.buckets.is_multiple_of(self.degree) {
            return Err(DictError::UnsupportedParams(format!(
                "buckets v = {} must be a positive multiple of degree d = {}",
                self.buckets, self.degree
            )));
        }
        if self.bucket_slots == 0 {
            return Err(DictError::UnsupportedParams(
                "buckets must have at least one slot".into(),
            ));
        }
        Ok(())
    }
}

/// The new content of one bucket (consecutive blocks of one disk), planned
/// from a probe and ready to write: the only copy an update makes.
#[derive(Debug, Clone)]
pub struct BucketPatch {
    first: BlockAddr,
    image: Vec<Word>,
    blocks: usize,
}

impl BucketPatch {
    /// The block writes that commit the patch.
    pub fn writes(&self) -> impl Iterator<Item = (BlockAddr, &[Word])> {
        let first = self.first;
        self.image
            .chunks(self.image.len() / self.blocks)
            .enumerate()
            .map(move |(b, words)| (BlockAddr::new(first.disk, first.block + b), words))
    }
}

/// The Section 4.1 dictionary: expander-indexed buckets with greedy
/// balancing, `O(1)`-I/O operations worst case.
///
/// ```
/// use pdm::{DiskArray, PdmConfig};
/// use pdm_dict::basic::{BasicDict, BasicDictConfig};
/// use pdm_dict::layout::DiskAllocator;
///
/// let d = 13; // one disk per expander stripe
/// let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
/// let mut alloc = DiskAllocator::new(d);
/// let cfg = BasicDictConfig::log_load(1000, 1 << 40, d, 1, 42);
/// let mut dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg)?;
///
/// let cost = dict.insert(&mut disks, 7, &[99])?;
/// assert_eq!(cost.parallel_ios, 2); // read + write, worst case
/// let out = dict.lookup(&mut disks, 7);
/// assert_eq!(out.satellite, Some(vec![99]));
/// assert_eq!(out.cost.parallel_ios, 1); // one probe, worst case
/// # Ok::<(), pdm_dict::DictError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BasicDict {
    cfg: BasicDictConfig,
    graph: FamilyExpander,
    /// Bucket `j` of a stripe lies in `halves[j & spread]` at row `j >>
    /// spread`; `spread` is 1 on `2d` disks, 0 (one half) on `d`.
    halves: [Region; 2],
    spread: usize,
    codec: BucketCodec,
    blocks_per_bucket: usize,
    len: usize,
}

impl BasicDict {
    /// Create the structure on `degree` disks starting at `first_disk`.
    pub fn create(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        cfg: BasicDictConfig,
    ) -> Result<Self, DictError> {
        Self::create_on(disks, alloc, first_disk..first_disk + cfg.degree, cfg)
    }

    /// Create the structure on the disks `on`: `degree` of them, or
    /// `2·degree` to spread every stripe over two (see the module doc).
    ///
    /// # Panics
    /// Panics if `on` holds another number of disks.
    pub(crate) fn create_on(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        on: std::ops::Range<usize>,
        cfg: BasicDictConfig,
    ) -> Result<Self, DictError> {
        cfg.validate()?;
        let (d, spread) = (cfg.degree, usize::from(on.len() == 2 * cfg.degree));
        assert_eq!(on.len(), d << spread, "a structure of degree {d} lies on {d} or {} disks", 2 * d);
        let codec = BucketCodec::new(cfg.payload_words);
        let bucket_words = codec.slot_words() * cfg.bucket_slots;
        let blocks_per_bucket = bucket_words.div_ceil(disks.block_words());
        let buckets_per_disk = cfg.buckets / d;
        let rows = |half: usize| (buckets_per_disk + spread - half) >> spread;
        let lower = alloc.alloc(disks, on.start, d, rows(0) * blocks_per_bucket);
        let upper = if spread == 1 { alloc.alloc(disks, on.start + d, d, rows(1) * blocks_per_bucket) } else { lower };
        let graph = cfg
            .family
            .build(cfg.universe, buckets_per_disk, d, cfg.seed);
        Ok(BasicDict {
            cfg,
            graph,
            halves: [lower, upper],
            spread,
            codec,
            blocks_per_bucket,
            len: 0,
        })
    }

    /// Live keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dictionary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configuration.
    #[must_use]
    pub fn config(&self) -> &BasicDictConfig {
        &self.cfg
    }

    /// Total buckets `v`.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.cfg.buckets
    }

    /// Blocks per bucket (1 when `B` is large enough — the 1-I/O regime).
    #[must_use]
    pub fn blocks_per_bucket(&self) -> usize {
        self.blocks_per_bucket
    }

    /// Space usage in words.
    #[must_use]
    pub fn space_words(&self, disks: &DiskArray) -> usize {
        self.regions().iter().map(|r| r.space_words(disks)).sum()
    }

    /// The regions of the buckets, one per half (for diagnostics).
    #[must_use]
    pub fn regions(&self) -> &[Region] {
        &self.halves[..=self.spread]
    }

    /// Block `b` of bucket `(stripe, j)`.
    fn block_addr(&self, stripe: usize, j: usize, b: usize) -> BlockAddr {
        self.halves[j & self.spread].addr(stripe, (j >> self.spread) * self.blocks_per_bucket + b)
    }

    /// The block addresses of bucket `(stripe, j)`.
    fn bucket_addrs(&self, stripe: usize, j: usize) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.blocks_per_bucket).map(move |b| self.block_addr(stripe, j, b))
    }

    /// Block addresses probed for `key`: all blocks of its `d` candidate
    /// buckets, grouped bucket by bucket (stripe order). One block per
    /// disk per bucket-block-row, so the batch costs `blocks_per_bucket`
    /// parallel I/Os — 1 in the `B = Ω(log N)` regime.
    #[must_use]
    pub fn probe_addrs(&self, key: u64) -> Vec<BlockAddr> {
        let mut out = Vec::with_capacity(self.probe_blocks());
        self.extend_probe_addrs(key, &mut out);
        out
    }

    /// Blocks of [`probe_addrs`](Self::probe_addrs): `d` buckets of
    /// [`blocks_per_bucket`](Self::blocks_per_bucket) blocks.
    pub(crate) fn probe_blocks(&self) -> usize {
        self.cfg.degree * self.blocks_per_bucket
    }

    /// Append [`probe_addrs`](Self::probe_addrs) of `key` to `out`.
    pub fn extend_probe_addrs(&self, key: u64, out: &mut Vec<BlockAddr>) {
        for (stripe, y) in self.graph.neighbors(key).into_iter().enumerate() {
            let (s, j) = self.graph.stripe_of(y);
            debug_assert_eq!(s, stripe);
            out.extend(self.bucket_addrs(stripe, j));
        }
    }

    /// Candidate bucket `i` of the blocks read for
    /// [`probe_addrs`](Self::probe_addrs): the block itself when a bucket
    /// is one block, its blocks joined otherwise.
    fn bucket<'a>(&self, blocks: &'a impl BlockView, i: usize) -> Cow<'a, [Word]> {
        let bpb = self.blocks_per_bucket;
        if bpb == 1 {
            Cow::Borrowed(blocks.block(i))
        } else {
            Cow::Owned((i * bpb..(i + 1) * bpb).flat_map(|b| blocks.block(b)).copied().collect())
        }
    }

    /// Decode a lookup from pre-read probe blocks (for composed structures
    /// that merge several probes into one parallel I/O), handing `key`'s
    /// payload to `take` where it lies in the probe.
    pub fn find_with<R>(
        &self,
        key: u64,
        probe_blocks: &impl BlockView,
        take: impl FnOnce(&[Word]) -> R,
    ) -> Option<R> {
        for i in 0..self.cfg.degree {
            if let Some(payload) = self.codec.find(&self.bucket(probe_blocks, i), key) {
                return Some(take(payload));
            }
        }
        None
    }

    /// [`find_with`](Self::find_with), copying the payload out.
    #[must_use]
    pub fn decode_find(&self, key: u64, probe_blocks: &impl BlockView) -> Option<Vec<Word>> {
        self.find_with(key, probe_blocks, <[Word]>::to_vec)
    }

    /// Plan an insertion given pre-read probe blocks: the checks, the
    /// bucket choice and the record, in that order. The caller issues the
    /// patch's writes and then calls [`note_inserted`](Self::note_inserted).
    pub fn plan_insert(
        &self,
        key: u64,
        payload: &[Word],
        probe_blocks: &impl BlockView,
    ) -> Result<BucketPatch, DictError> {
        self.check_insertable(payload)?;
        let patch = self.choose_bucket(key, probe_blocks)?;
        self.fill(patch, key, payload)
    }

    /// The checks an insertion makes without looking at any block.
    pub fn check_insertable(&self, payload: &[Word]) -> Result<(), DictError> {
        if payload.len() != self.cfg.payload_words {
            return Err(DictError::SatelliteWidth {
                expected: self.cfg.payload_words,
                got: payload.len(),
            });
        }
        if self.len >= self.cfg.capacity {
            return Err(DictError::CapacityExhausted {
                capacity: self.cfg.capacity,
            });
        }
        Ok(())
    }

    /// One pass over the candidates read for `key`: a duplicate fails,
    /// otherwise the least loaded bucket (greedy `k = 1` from the read
    /// blocks themselves, ties to the lowest stripe) is copied — the only
    /// bucket an insertion copies — for [`fill`](Self::fill) to complete.
    pub fn choose_bucket(
        &self,
        key: u64,
        probe_blocks: &impl BlockView,
    ) -> Result<BucketPatch, DictError> {
        let candidate = self.choose_candidate(key, probe_blocks)?;
        Ok(self.patch(key, candidate, probe_blocks))
    }

    /// [`choose_bucket`](Self::choose_bucket)'s pass without the copy: the
    /// candidate `key` goes to.
    fn choose_candidate(&self, key: u64, probe_blocks: &impl BlockView) -> Result<usize, DictError> {
        let mut least = (usize::MAX, 0);
        for i in 0..self.cfg.degree {
            let bucket = self.bucket(probe_blocks, i);
            let (found, load) = self.codec.find_and_count(&bucket, key);
            if found.is_some() {
                return Err(DictError::DuplicateKey(key));
            }
            least = least.min((load, i));
        }
        Ok(least.1)
    }

    /// Where `key`'s record goes, from the blocks read for its probe, with
    /// no copy made: after [`choose_bucket`](Self::choose_bucket)'s duplicate
    /// check, the block of the slot [`fill`](Self::fill) would fill and the
    /// slot's first word in it — or, the bucket full, the error `fill`
    /// would give (`Err` in the `Ok`). Buckets of one block.
    pub(crate) fn choose_slot(
        &self,
        key: u64,
        probe_blocks: &impl BlockView,
    ) -> Result<Result<(BlockAddr, usize), DictError>, DictError> {
        debug_assert_eq!(self.blocks_per_bucket, 1, "a slot lies in one block");
        let candidate = self.choose_candidate(key, probe_blocks)?;
        let (stripe, j) = self.graph.stripe_of(self.graph.neighbor(key, candidate));
        let at = self.codec.free_at(probe_blocks.block(candidate));
        Ok(at.map(|at| (self.block_addr(stripe, j, 0), at)).ok_or(DictError::BucketOverflow { key }))
    }

    /// The codec of the buckets.
    pub(crate) fn codec(&self) -> BucketCodec {
        self.codec
    }

    /// Put `key`'s record into the bucket [`choose_bucket`](Self::choose_bucket)
    /// picked. A bucket rejects a record only when every slot is live, and
    /// then so does every other candidate: the chosen one has the fewest.
    pub fn fill(
        &self,
        mut patch: BucketPatch,
        key: u64,
        payload: &[Word],
    ) -> Result<BucketPatch, DictError> {
        if self.codec.insert(&mut patch.image, key, payload) {
            Ok(patch)
        } else {
            Err(DictError::BucketOverflow { key })
        }
    }

    /// Plan a deletion (tombstone) from pre-read probe blocks; `None` when
    /// the key is absent.
    #[must_use]
    pub fn plan_delete(&self, key: u64, probe_blocks: &impl BlockView) -> Option<BucketPatch> {
        let i = self.holder(key, probe_blocks)?;
        let mut patch = self.patch(key, i, probe_blocks);
        self.codec.delete(&mut patch.image, key);
        Some(patch)
    }

    /// Where deleting `key` writes, from the blocks read for its probe: the
    /// block of its record and the record's flags word in it — all a
    /// tombstone changes ([`BucketCodec::TOMBSTONE`]). `None` when the key is
    /// absent.
    pub(crate) fn tombstone_word(&self, key: u64, probe_blocks: &impl BlockView) -> Option<(BlockAddr, usize)> {
        let (i, at) =
            (0..self.cfg.degree).find_map(|i| Some((i, self.codec.flags_at(&self.bucket(probe_blocks, i), key)?)))?;
        let b = probe_blocks.block(0).len();
        let (stripe, j) = self.graph.stripe_of(self.graph.neighbor(key, i));
        Some((self.block_addr(stripe, j, at / b), at % b))
    }

    /// Plan a payload update in place; `None` when the key is absent.
    #[must_use]
    pub fn plan_update(
        &self,
        key: u64,
        payload: &[Word],
        probe_blocks: &impl BlockView,
    ) -> Option<BucketPatch> {
        assert_eq!(payload.len(), self.cfg.payload_words, "payload width");
        let i = self.holder(key, probe_blocks)?;
        let mut patch = self.patch(key, i, probe_blocks);
        self.codec.update(&mut patch.image, key, payload);
        Some(patch)
    }

    /// The candidate bucket holding `key` live, if any.
    fn holder(&self, key: u64, probe_blocks: &impl BlockView) -> Option<usize> {
        (0..self.cfg.degree)
            .find(|&i| self.codec.find(&self.bucket(probe_blocks, i), key).is_some())
    }

    /// A copy of `key`'s candidate bucket `candidate`, addressed for
    /// writing back.
    fn patch(&self, key: u64, candidate: usize, probe_blocks: &impl BlockView) -> BucketPatch {
        let (stripe, j) = self.graph.stripe_of(self.graph.neighbor(key, candidate));
        BucketPatch {
            first: self.block_addr(stripe, j, 0),
            image: self.bucket(probe_blocks, candidate).into_owned(),
            blocks: self.blocks_per_bucket,
        }
    }

    /// Record a committed insertion.
    pub fn note_inserted(&mut self) {
        self.len += 1;
    }

    /// Record a committed deletion.
    pub fn note_deleted(&mut self) {
        debug_assert!(self.len > 0);
        self.len -= 1;
    }

    /// Restore the live-key counter from a persisted checkpoint (journal
    /// reopen; the blocks on disk already hold the keys).
    pub(crate) fn set_len(&mut self, len: usize) {
        self.len = len;
    }

    /// Lookup: one batched probe (1 parallel I/O per bucket-block row).
    pub fn lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        let scope = disks.begin_op();
        let blocks = disks.read(&self.probe_addrs(key), ReadOptions::default()).blocks;
        LookupOutcome::new(self.decode_find(key, &blocks), disks.end_op(scope))
    }

    /// Read `key`'s probe, plan a patch from it, and write the patch back.
    fn patch_probe<E>(
        &self,
        disks: &mut DiskArray,
        key: u64,
        plan: impl FnOnce(&pdm::Round<'_>) -> Result<BucketPatch, E>,
    ) -> Result<(), E> {
        let blocks = disks.read(&self.probe_addrs(key), ReadOptions::default()).blocks;
        let patch = plan(&blocks)?;
        let refs: Vec<(BlockAddr, &[Word])> = patch.writes().collect();
        disks.write(&refs, WriteOptions::default());
        Ok(())
    }

    /// Insert: read probe + write chosen bucket (2 parallel I/Os in the
    /// single-block regime, "the best possible" per Figure 1's footnote).
    pub fn insert(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
        payload: &[Word],
    ) -> Result<OpCost, DictError> {
        let scope = disks.begin_op();
        self.patch_probe(disks, key, |blocks| self.plan_insert(key, payload, blocks))?;
        self.note_inserted();
        Ok(disks.end_op(scope))
    }

    /// Delete (tombstone). Returns whether the key was present.
    pub fn delete(&mut self, disks: &mut DiskArray, key: u64) -> (bool, OpCost) {
        let scope = disks.begin_op();
        let was = self
            .patch_probe(disks, key, |blocks| self.plan_delete(key, blocks).ok_or(()))
            .is_ok();
        if was {
            self.note_deleted();
        }
        (was, disks.end_op(scope))
    }

    /// Overwrite the payload of an existing key. Returns whether present.
    pub fn update(&mut self, disks: &mut DiskArray, key: u64, payload: &[Word]) -> (bool, OpCost) {
        let scope = disks.begin_op();
        let was = self
            .patch_probe(disks, key, |blocks| self.plan_update(key, payload, blocks).ok_or(()))
            .is_ok();
        (was, disks.end_op(scope))
    }

    /// Batched lookup: all keys' probes are planned as **one** batch, so
    /// shared candidate buckets are read once and independent buckets
    /// share parallel rounds across disks — the Section 4.1 bandwidth
    /// story (`m` lookups cost the per-disk maximum of unique blocks,
    /// not `m` separate probes).
    ///
    /// Results are byte-identical to looking every key up sequentially.
    /// The returned cost is for the whole batch; per-key attribution is
    /// meaningless once blocks are shared.
    pub fn lookup_batch(
        &self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let scope = disks.begin_op();
        let per = self.cfg.degree * self.blocks_per_bucket;
        let mut requests = Vec::with_capacity(keys.len() * per);
        for &k in keys {
            self.extend_probe_addrs(k, &mut requests);
        }
        let plan = BatchPlan::new(disks.disks(), &requests);
        let reads = plan.execute_read(disks);
        let results = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| self.decode_find(k, &reads.sub(i * per..(i + 1) * per)))
            .collect();
        (results, disks.end_op(scope))
    }

    /// Batched insert with sequential semantics: keys are placed in
    /// order, each seeing the staged writes of its predecessors, and all
    /// dirty buckets are flushed as one planned write batch. Per-key
    /// errors (duplicates, overflow) leave the other keys' insertions
    /// intact, exactly as a sequential loop would.
    pub fn insert_batch(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(u64, Vec<Word>)],
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        let scope = disks.begin_op();
        let mut all: Vec<BlockAddr> = Vec::new();
        for (key, _) in entries {
            self.extend_probe_addrs(*key, &mut all);
        }
        let mut ex = BatchExecutor::new(disks);
        ex.prefetch(&all);
        let mut results = Vec::with_capacity(entries.len());
        let per = self.cfg.degree * self.blocks_per_bucket;
        for (i, (key, payload)) in entries.iter().enumerate() {
            let planned = self.plan_insert(*key, payload, &ex.get_many(&all[i * per..(i + 1) * per]));
            results.push(planned.map(|patch| {
                for (a, img) in patch.writes() {
                    ex.stage_write(a, img);
                }
                self.note_inserted();
            }));
        }
        let _ = ex.commit();
        (results, disks.end_op(scope))
    }

    /// Test hook: pack every candidate bucket of `key` with dummy records
    /// (keys `fake_base`, `fake_base + 1`, …) so the next
    /// [`Self::plan_insert`] of `key` fails with
    /// [`DictError::BucketOverflow`] — the deterministic stand-in for a
    /// sampled expander missing its load-balancing parameters.
    #[cfg(test)]
    pub(crate) fn saturate_probe_buckets(&self, disks: &mut DiskArray, key: u64, fake_base: u64) {
        let blocks = disks.read(&self.probe_addrs(key), ReadOptions::default()).blocks.into_buf();
        let payload = vec![0 as Word; self.cfg.payload_words];
        let mut fake = fake_base;
        for i in 0..self.cfg.degree {
            let mut patch = self.patch(key, i, &blocks);
            while self.codec.insert(&mut patch.image, fake, &payload) {
                fake += 1;
            }
            for (addr, words) in patch.writes() {
                disks.write_block(addr, words);
            }
        }
    }

    /// Read all live entries of the buckets `range` in **one** charged
    /// batch (global rebuilding's enumeration). Bucket indices run
    /// `0 .. buckets()` disk-interleaved — index `i` is bucket `i / d` of
    /// stripe `i mod d` — so up to `d` consecutive buckets sit on distinct
    /// disks and cost `blocks_per_bucket` parallel I/Os together.
    ///
    /// # Panics
    /// Panics if the range exceeds `buckets()`.
    pub fn scan_buckets(
        &self,
        disks: &mut DiskArray,
        range: std::ops::Range<usize>,
    ) -> Vec<(u64, Vec<Word>)> {
        assert!(
            range.end <= self.cfg.buckets,
            "buckets {range:?} out of range"
        );
        let d = self.cfg.degree;
        let addrs: Vec<BlockAddr> = range
            .flat_map(|i| self.bucket_addrs(i % d, i / d))
            .collect();
        let blocks = disks.read(&addrs, ReadOptions::default()).blocks;
        (0..blocks.len() / self.blocks_per_bucket)
            .flat_map(|i| self.codec.live_entries(&self.bucket(&blocks, i)))
            .collect()
    }

    /// The keys of every bucket, read in **one** charged, verified batch;
    /// `None` when a bucket reads damaged.
    pub(crate) fn live_keys(&self, disks: &mut DiskArray) -> Option<Vec<u64>> {
        let d = self.cfg.degree;
        let addrs: Vec<BlockAddr> = (0..self.cfg.buckets).flat_map(|i| self.bucket_addrs(i % d, i / d)).collect();
        let out = disks.read(&addrs, ReadOptions::verified());
        let keys = |i| self.codec.live_entries(&self.bucket(&out.blocks, i)).into_iter().map(|(key, _)| key);
        out.all_ok().then(|| (0..self.cfg.buckets).flat_map(keys).collect())
    }

    /// Observed maximum bucket load (peeks without I/O; diagnostics only).
    #[must_use]
    pub fn max_load_peek(&self, disks: &DiskArray) -> usize {
        let per = self.cfg.buckets / self.cfg.degree;
        let mut max = 0;
        for stripe in 0..self.cfg.degree {
            for j in 0..per {
                let buf: Vec<Word> = self
                    .bucket_addrs(stripe, j)
                    .flat_map(|a| disks.peek(a))
                    .collect();
                max = max.max(self.codec.live_count(&buf));
            }
        }
        max
    }

    /// Bulk-build from `(key, payload)` pairs: greedy balancing computed
    /// in one pass, then every bucket written once — `Θ(v/d ·
    /// blocks_per_bucket)` parallel I/Os, the streaming optimum.
    pub fn bulk_build(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<OpCost, DictError> {
        let scope = disks.begin_op();
        if entries.len() > self.cfg.capacity {
            return Err(DictError::CapacityExhausted {
                capacity: self.cfg.capacity,
            });
        }
        let per = self.cfg.buckets / self.cfg.degree;
        let mut bufs: Vec<Vec<Word>> =
            vec![vec![0; self.codec.slot_words() * self.cfg.bucket_slots]; self.cfg.buckets];
        let mut seen = std::collections::HashSet::with_capacity(entries.len());
        for (key, payload) in entries {
            if !seen.insert(*key) {
                return Err(DictError::DuplicateKey(*key));
            }
            let neighbors = self.graph.neighbors(*key);
            let mut order: Vec<usize> = (0..neighbors.len()).collect();
            order.sort_by_key(|&i| (self.codec.live_count(&bufs[neighbors[i]]), i));
            let mut placed = false;
            for &i in &order {
                if self.codec.insert(&mut bufs[neighbors[i]], *key, payload) {
                    placed = true;
                    break;
                }
            }
            if !placed {
                return Err(DictError::BucketOverflow { key: *key });
            }
        }
        // Stream out: rows of d blocks (one bucket-block per disk) per batch.
        for j in 0..per {
            for b in 0..self.blocks_per_bucket {
                let bw = disks.block_words();
                let mut writes = Vec::with_capacity(self.cfg.degree);
                for stripe in 0..self.cfg.degree {
                    let buf = &bufs[stripe * per + j];
                    let lo = b * bw;
                    let hi = (lo + bw).min(buf.len());
                    if lo < buf.len() {
                        writes.push((
                            self.block_addr(stripe, j, b),
                            buf[lo..hi].to_vec(),
                        ));
                    }
                }
                let refs: Vec<(BlockAddr, &[Word])> =
                    writes.iter().map(|(a, w)| (*a, w.as_slice())).collect();
                disks.write(&refs, WriteOptions::default());
            }
        }
        self.len = entries.len();
        Ok(disks.end_op(scope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::PdmConfig;

    fn setup(capacity: usize, payload: usize) -> (DiskArray, BasicDict) {
        let d = 13;
        let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
        let mut alloc = DiskAllocator::new(d);
        let cfg = BasicDictConfig::log_load(capacity, 1 << 30, d, payload, 42);
        let dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
        (disks, dict)
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let (mut disks, mut dict) = setup(500, 2);
        for k in 0..200u64 {
            dict.insert(&mut disks, k * 3, &[k, k + 1]).unwrap();
        }
        assert_eq!(dict.len(), 200);
        for k in 0..200u64 {
            let out = dict.lookup(&mut disks, k * 3);
            assert_eq!(out.satellite, Some(vec![k, k + 1]));
        }
        assert!(!dict.lookup(&mut disks, 1).found());
        let (was, _) = dict.delete(&mut disks, 9);
        assert!(was);
        assert!(!dict.lookup(&mut disks, 9).found());
        assert_eq!(dict.len(), 199);
    }

    #[test]
    fn lookup_costs_one_parallel_io() {
        let (mut disks, mut dict) = setup(500, 0);
        assert_eq!(dict.blocks_per_bucket(), 1, "test geometry must be 1-block");
        dict.insert(&mut disks, 77, &[]).unwrap();
        let out = dict.lookup(&mut disks, 77);
        assert_eq!(out.cost.parallel_ios, 1);
        let miss = dict.lookup(&mut disks, 78);
        assert_eq!(miss.cost.parallel_ios, 1);
    }

    #[test]
    fn insert_costs_two_parallel_ios() {
        let (mut disks, mut dict) = setup(500, 0);
        let cost = dict.insert(&mut disks, 5, &[]).unwrap();
        assert_eq!(cost.parallel_ios, 2);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (mut disks, mut dict) = setup(100, 0);
        dict.insert(&mut disks, 5, &[]).unwrap();
        assert!(matches!(
            dict.insert(&mut disks, 5, &[]),
            Err(DictError::DuplicateKey(5))
        ));
        assert_eq!(dict.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let (mut disks, mut dict) = setup(2, 0);
        dict.insert(&mut disks, 1, &[]).unwrap();
        dict.insert(&mut disks, 2, &[]).unwrap();
        assert!(matches!(
            dict.insert(&mut disks, 3, &[]),
            Err(DictError::CapacityExhausted { capacity: 2 })
        ));
    }

    #[test]
    fn wrong_payload_width_rejected() {
        let (mut disks, mut dict) = setup(10, 2);
        assert!(matches!(
            dict.insert(&mut disks, 1, &[9]),
            Err(DictError::SatelliteWidth {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn update_changes_payload() {
        let (mut disks, mut dict) = setup(10, 1);
        dict.insert(&mut disks, 4, &[1]).unwrap();
        let (ok, _) = dict.update(&mut disks, 4, &[2]);
        assert!(ok);
        assert_eq!(dict.lookup(&mut disks, 4).satellite, Some(vec![2]));
        let (missing, _) = dict.update(&mut disks, 5, &[0]);
        assert!(!missing);
    }

    #[test]
    fn max_load_stays_near_lemma3_bound() {
        let (mut disks, mut dict) = setup(2000, 0);
        for k in 0..2000u64 {
            dict.insert(&mut disks, k.wrapping_mul(0x9E37_79B9) % (1 << 30), &[])
                .unwrap();
        }
        let v = dict.buckets() as f64;
        let avg = 2000.0 / v;
        let max = dict.max_load_peek(&disks) as f64;
        // Lemma 3 shape: average plus a small logarithmic additive term.
        assert!(
            max <= avg + 12.0,
            "max load {max} too far above average {avg}"
        );
    }

    #[test]
    fn bulk_build_matches_incremental_lookups() {
        let (mut disks, mut dict) = setup(300, 1);
        let entries: Vec<(u64, Vec<Word>)> = (0..300u64).map(|k| (k * 7, vec![k])).collect();
        dict.bulk_build(&mut disks, &entries).unwrap();
        assert_eq!(dict.len(), 300);
        for (k, p) in &entries {
            assert_eq!(dict.lookup(&mut disks, *k).satellite, Some(p.clone()));
        }
    }

    #[test]
    fn bulk_build_is_cheaper_than_incremental() {
        let entries: Vec<(u64, Vec<Word>)> = (0..1000u64).map(|k| (k * 11, vec![])).collect();
        let (mut disks_a, mut bulk) = setup(1000, 0);
        let bulk_cost = bulk.bulk_build(&mut disks_a, &entries).unwrap();
        let (mut disks_b, mut inc) = setup(1000, 0);
        let scope = disks_b.begin_op();
        for (k, p) in &entries {
            inc.insert(&mut disks_b, *k, p).unwrap();
        }
        let inc_cost = disks_b.end_op(scope);
        assert!(
            bulk_cost.parallel_ios < inc_cost.parallel_ios / 2,
            "bulk {} vs incremental {}",
            bulk_cost.parallel_ios,
            inc_cost.parallel_ios
        );
    }

    #[test]
    fn scan_bucket_enumerates_everything() {
        let (mut disks, mut dict) = setup(120, 1);
        let mut expect = std::collections::HashMap::new();
        for k in 0..120u64 {
            dict.insert(&mut disks, k, &[k * 2]).unwrap();
            expect.insert(k, vec![k * 2]);
        }
        let mut seen = std::collections::HashMap::new();
        for b in (0..dict.buckets()).step_by(2) {
            let scope = disks.begin_op();
            let end = (b + 2).min(dict.buckets());
            for (k, p) in dict.scan_buckets(&mut disks, b..end) {
                assert!(seen.insert(k, p).is_none(), "key {k} in two buckets");
            }
            assert_eq!(
                disks.end_op(scope).parallel_ios,
                1,
                "consecutive buckets sit on distinct disks"
            );
        }
        assert_eq!(seen, expect);
    }

    #[test]
    fn block_load_config_gives_single_block_buckets() {
        let d = 13;
        let mut disks = DiskArray::new(PdmConfig::new(d, 32), 0);
        let mut alloc = DiskAllocator::new(d);
        let cfg = BasicDictConfig::block_load(1000, 1 << 30, d, 0, 32, 1);
        let dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
        assert_eq!(dict.blocks_per_bucket(), 1);
    }

    #[test]
    fn rejects_bad_bucket_count() {
        let mut disks = DiskArray::new(PdmConfig::new(4, 32), 0);
        let mut alloc = DiskAllocator::new(4);
        let cfg = BasicDictConfig {
            capacity: 10,
            universe: 1 << 20,
            degree: 4,
            payload_words: 0,
            buckets: 10, // not a multiple of 4
            bucket_slots: 4,
            seed: 0,
            family: FamilyKind::default(),
        };
        assert!(BasicDict::create(&mut disks, &mut alloc, 0, cfg).is_err());
    }

    /// `tcp_file_mixed`'s shard shape (N = 12 966, d = 20, B = 128, σ = 2):
    /// 93 buckets a stripe, an odd count. Spread over `2d` disks when
    /// `spread`, on `d` otherwise.
    fn served(spread: bool) -> (DiskArray, BasicDict) {
        let d = 20;
        let cfg = BasicDictConfig::log_load(12_966, 1 << 40, d, 2, 7);
        assert_eq!(cfg.buckets / d, 93);
        let mut disks = DiskArray::new(PdmConfig::new(2 * d, 128), 0);
        let mut alloc = DiskAllocator::new(2 * d);
        let dict = BasicDict::create_on(&mut disks, &mut alloc, 0..d << usize::from(spread), cfg).unwrap();
        (disks, dict)
    }

    #[test]
    fn the_halves_hold_exactly_the_blocks_of_a_stripe() {
        let (disks, dict) = served(true);
        let halves: Vec<_> = dict.regions().iter().map(|r| (r.first_disk, r.disks, r.blocks_per_disk)).collect();
        assert_eq!(halves, [(0, 20, 47), (20, 20, 46)]);
        for stripe in 0..20 {
            assert_eq!(disks.blocks_on(stripe) + disks.blocks_on(stripe + 20), 93, "stripe {stripe}");
        }
        // Every bucket has a block of its own, and every block is a bucket's.
        let all: std::collections::HashSet<BlockAddr> =
            (0..20).flat_map(|stripe| (0..93).map(move |j| (stripe, j))).map(|(i, j)| dict.block_addr(i, j, 0)).collect();
        assert_eq!(all.len(), 20 * 93);
        assert_eq!(dict.space_words(&disks), 20 * 93 * 128);
        let (narrow_disks, narrow) = served(false);
        assert_eq!(narrow.space_words(&narrow_disks), dict.space_words(&disks));
    }

    #[test]
    fn a_spread_key_probes_one_disk_of_each_pair() {
        let (_, dict) = served(true);
        for key in 0..2_000u64 {
            let disks: Vec<usize> = dict.probe_addrs(key.wrapping_mul(0x9E37_79B9) % (1 << 40)).iter().map(|a| a.disk).collect();
            assert!(disks.iter().enumerate().all(|(i, &disk)| disk == i || disk == i + 20), "key {key}: {disks:?}");
        }
    }

    /// A batch of `k` lookups costs its largest per-disk load of distinct
    /// blocks, at most `k`; spread over `2d` disks that load is never more
    /// than on `d` (disks `i` and `i + d` split what disk `i` held).
    #[test]
    fn a_batch_costs_its_largest_per_disk_load() {
        let (mut spread_disks, spread) = served(true);
        let (mut narrow_disks, narrow) = served(false);
        let mut keys = (1..).map(|i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24);
        let (mut spread_rounds, mut narrow_rounds) = (0, 0);
        for k in [1, 2, 8, 64, 128, 512] {
            let batch: Vec<u64> = keys.by_ref().take(k).collect();
            let mut rounds = [0; 2];
            for (r, (disks, dict)) in rounds.iter_mut().zip([(&mut spread_disks, &spread), (&mut narrow_disks, &narrow)]) {
                let blocks: std::collections::HashSet<BlockAddr> = batch.iter().flat_map(|&key| dict.probe_addrs(key)).collect();
                let load = (0..40).map(|disk| blocks.iter().filter(|a| a.disk == disk).count()).max().unwrap();
                *r = dict.lookup_batch(disks, &batch).1.parallel_ios;
                assert_eq!(*r, load as u64, "k = {k}");
                assert!(load <= k, "k = {k}: load {load}");
            }
            assert!(rounds[0] <= rounds[1], "k = {k}: spread {rounds:?}");
            spread_rounds += rounds[0];
            narrow_rounds += rounds[1];
        }
        assert!(spread_rounds < narrow_rounds, "{spread_rounds} spread, {narrow_rounds} narrow");
    }

    #[test]
    #[should_panic(expected = "lies on 13 or 26 disks")]
    fn a_structure_lies_on_d_or_2d_disks() {
        let mut disks = DiskArray::new(PdmConfig::new(40, 128), 0);
        let cfg = BasicDictConfig::log_load(1000, 1 << 30, 13, 1, 1);
        let _ = BasicDict::create_on(&mut disks, &mut DiskAllocator::new(40), 0..20, cfg);
    }

    #[test]
    fn tombstone_slot_reused_on_reinsert() {
        let (mut disks, mut dict) = setup(50, 1);
        dict.insert(&mut disks, 8, &[1]).unwrap();
        dict.delete(&mut disks, 8);
        dict.insert(&mut disks, 8, &[2]).unwrap();
        assert_eq!(dict.lookup(&mut disks, 8).satellite, Some(vec![2]));
    }
}

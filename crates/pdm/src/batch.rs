//! Batched I/O execution: pack many block requests into parallel rounds.
//!
//! The paper's efficiency claims are *bandwidth* claims: with `k = d/2`
//! choices the basic dictionary sustains `O(BD/log N)` bandwidth
//! (Section 4.1), and the one-probe structure answers a lookup in a
//! single parallel I/O (Theorem 6). Both are statements about how many
//! independent operations can share one parallel I/O round across the
//! `D` disks. This module supplies the machinery that turns per-operation
//! probing into round-sharing execution:
//!
//! * [`BatchPlan`] — takes any multiset of [`BlockAddr`] requests,
//!   deduplicates them, and greedily packs the unique blocks into rounds
//!   that touch each disk at most once. The number of rounds equals the
//!   maximum number of unique blocks on any one disk — exactly the
//!   `ParallelDisk` model cost [`DiskArray`] charges for the batch, so
//!   the greedy schedule is optimal for that model.
//! * [`BatchReads`] — the result of executing a read plan: the plan's
//!   [`Round`], viewed by original request (duplicates included).
//! * [`BatchExecutor`] — a read-cache + staged-write layer for batched
//!   *updates*: reads are served from the cache at access time (so a key
//!   later in the batch observes the staged writes of earlier keys, and
//!   batched execution is byte-identical to sequential), and all dirty
//!   blocks are flushed in one planned write batch on
//!   [`commit`](BatchExecutor::commit). Where the array's reads complete
//!   as views it holds only what it changes.
//!
//! The win is deduplication: `m` lookups that would sequentially touch
//! `m · d'` blocks collapse to at most `min(m·d', blocks in the
//! structure)` unique blocks, spread over `D` disks — so the charged
//! cost per lookup drops toward the paper's `⌈m·d'/D⌉ / m` as batches
//! share buckets.

use crate::blocks::{BlockBuf, BlockView, Round};
use crate::disk::{BlockAddr, DiskArray, IoOutcome, ReadOptions};
use crate::integrity::BlockHealth;
use crate::journal::{diff_runs, Delta};
use crate::metrics::IoEvent;
use crate::stats::OpCost;
use crate::Word;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Two-word multiplicative hasher for [`BlockAddr`] keys (rotate, xor,
/// multiply per word). The addresses are produced by this process's own
/// layout code, never by outside input, so the collision resistance of
/// the default SipHash buys nothing here and costs most of a batch's
/// planning time.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type AddrMap<V> = HashMap<BlockAddr, V, BuildHasherDefault<AddrHasher>>;

/// A deduplicated, round-scheduled set of block requests.
///
/// Round `r` holds the `r`-th unique block of every disk (in first-seen
/// order), so each round touches each disk at most once and the round
/// count is the per-disk maximum — the `ParallelDisk` batch cost.
///
/// Requests that name every disk at most once — one key's probe, one
/// key's commit — are their own plan: no two can be one block, and one
/// round in request order holds them all. The plan then keeps only their
/// copy: no dedup map, no request-to-block map, no round table.
///
/// ```
/// use pdm::{BatchPlan, BlockAddr};
/// let plan = BatchPlan::new(4, &[
///     BlockAddr::new(0, 0),
///     BlockAddr::new(0, 1),
///     BlockAddr::new(1, 0),
///     BlockAddr::new(0, 0), // duplicate: shares the first request's slot
/// ]);
/// assert_eq!(plan.num_requests(), 4);
/// assert_eq!(plan.num_unique_blocks(), 3);
/// assert_eq!(plan.num_rounds(), 2); // disk 0 holds two unique blocks
/// ```
#[derive(Debug, Clone)]
pub struct BatchPlan {
    disks: usize,
    /// Unique addresses in first-seen order.
    unique: Vec<BlockAddr>,
    /// `slot[i]` = index into `unique` serving request `i`; empty when the
    /// requests are `unique` themselves, one round in request order.
    slot: Vec<usize>,
    /// `round_of[u]` = the round unique block `u` is scheduled in (empty
    /// with `slot`).
    round_of: Vec<usize>,
    /// `round_sizes[r]` = blocks in round `r`, at most one per disk (empty
    /// with `slot`).
    round_sizes: Vec<usize>,
}

/// Whether `requests` name every disk at most once: then they are their
/// own one-round plan. One bit a disk, on the stack; requests on a disk
/// past the 256th take the general path.
fn disjoint(requests: &[BlockAddr]) -> bool {
    let mut seen = [0u64; 4];
    requests.iter().all(|a| {
        let (word, bit) = (a.disk / 64, 1u64 << (a.disk % 64));
        let fresh = word < seen.len() && seen[word] & bit == 0;
        if fresh {
            seen[word] |= bit;
        }
        fresh
    })
}

/// Record one round of `blocks` blocks on `disks` (none for no block).
fn record_round(disks: &mut DiskArray, blocks: usize) {
    if blocks > 0 {
        disks.record_rounds(1);
        disks.emit_io_event(IoEvent::RoundScheduled { blocks: blocks as u64 });
    }
}

/// Charge a read of `unique` (distinct addresses) and record `plan`'s
/// rounds — one round where there is no plan, the addresses naming each
/// disk at most once: all of a read but its completion (which may borrow
/// `disks`).
fn charge_rounds(disks: &mut DiskArray, unique: &[BlockAddr], plan: Option<&BatchPlan>) -> OpCost {
    let cost = disks.charge_read(unique);
    match plan {
        Some(plan) => plan.record_rounds(disks),
        None => record_round(disks, unique.len()),
    }
    cost
}

impl BatchPlan {
    /// Plan `requests` against an array of `disks` disks.
    ///
    /// Duplicates are coalesced onto one unique block; requests keep
    /// their identity through [`BatchReads`].
    ///
    /// # Panics
    /// Panics if `disks == 0` or any request names a disk `>= disks`.
    #[must_use]
    pub fn new(disks: usize, requests: &[BlockAddr]) -> Self {
        assert!(disks > 0, "need at least one disk");
        for a in requests {
            assert!(a.disk < disks, "disk index {} out of range (D = {disks})", a.disk);
        }
        if disjoint(requests) {
            let unique = requests.to_vec();
            return BatchPlan { disks, unique, slot: Vec::new(), round_of: Vec::new(), round_sizes: Vec::new() };
        }
        let mut index: AddrMap<usize> =
            AddrMap::with_capacity_and_hasher(requests.len(), BuildHasherDefault::default());
        // Sized for no duplicates: doubling allocates twice what is held.
        let mut unique = Vec::with_capacity(requests.len());
        let mut slot = Vec::with_capacity(requests.len());
        let mut per_disk = vec![0usize; disks];
        let mut round_of = Vec::with_capacity(requests.len());
        let mut round_sizes: Vec<usize> = Vec::new();
        for &a in requests {
            let idx = *index.entry(a).or_insert_with(|| {
                unique.push(a);
                let r = per_disk[a.disk];
                per_disk[a.disk] += 1;
                if round_sizes.len() <= r {
                    round_sizes.push(0);
                }
                round_sizes[r] += 1;
                round_of.push(r);
                unique.len() - 1
            });
            slot.push(idx);
        }
        BatchPlan {
            disks,
            unique,
            slot,
            round_of,
            round_sizes,
        }
    }

    /// Number of disks this plan schedules over.
    #[must_use]
    pub fn disks(&self) -> usize {
        self.disks
    }

    /// Whether the requests are the unique blocks themselves, in one round.
    fn one_round(&self) -> bool {
        self.slot.is_empty()
    }

    /// Number of original requests (duplicates included).
    #[must_use]
    pub fn num_requests(&self) -> usize {
        if self.one_round() { self.unique.len() } else { self.slot.len() }
    }

    /// Number of distinct blocks touched.
    #[must_use]
    pub fn num_unique_blocks(&self) -> usize {
        self.unique.len()
    }

    /// Number of parallel rounds — the maximum number of unique blocks
    /// on any single disk, which is also the `ParallelDisk` model cost
    /// of executing the plan.
    #[must_use]
    pub fn num_rounds(&self) -> usize {
        if self.one_round() { usize::from(!self.unique.is_empty()) } else { self.round_sizes.len() }
    }

    /// The unique blocks, in first-seen order.
    #[must_use]
    pub fn unique_blocks(&self) -> &[BlockAddr] {
        &self.unique
    }

    /// The addresses scheduled in round `r` (each on a distinct disk).
    ///
    /// # Panics
    /// Panics if `r >= num_rounds()`.
    #[must_use]
    pub fn round(&self, r: usize) -> Vec<BlockAddr> {
        assert!(r < self.num_rounds(), "round {r} out of range");
        if self.one_round() {
            return self.unique.clone();
        }
        let in_round = self.unique.iter().zip(&self.round_of);
        in_round.filter(|(_, &at)| at == r).map(|(&a, _)| a).collect()
    }

    /// Record the plan's rounds on `disks`: the round counter, and one
    /// [`IoEvent::RoundScheduled`] per round.
    fn record_rounds(&self, disks: &mut DiskArray) {
        if self.one_round() {
            return record_round(disks, self.unique.len());
        }
        disks.record_rounds(self.num_rounds() as u64);
        for &blocks in &self.round_sizes {
            disks.emit_io_event(IoEvent::RoundScheduled {
                blocks: blocks as u64,
            });
        }
    }

    /// One charged, verified read of the unique blocks, the rounds recorded
    /// between its accounting and its completion (which may borrow `disks`).
    fn read_unique<'d>(&self, disks: &'d mut DiskArray) -> IoOutcome<'d> {
        let cost = charge_rounds(disks, &self.unique, Some(self));
        disks.complete_read(&self.unique, ReadOptions::verified(), cost)
    }

    /// Execute the plan as one charged, verified read batch over the
    /// unique blocks, recording the scheduled rounds. Failed blocks are
    /// sanitized to zeros, as in a verified [`DiskArray::read`], and their
    /// [`BlockHealth`] is kept in the returned [`BatchReads`] (see
    /// [`BatchReads::health`]), which like the read's [`Round`] may borrow
    /// the array: retry a request that read unhealthy once it is dropped.
    ///
    /// In the `ParallelDisk` model the charge equals
    /// [`num_rounds`](BatchPlan::num_rounds); in the `ParallelDiskHead`
    /// model the charge may be lower (heads pack same-disk blocks).
    pub fn execute_read<'p>(&'p self, disks: &'p mut DiskArray) -> BatchReads<'p> {
        let out = self.read_unique(disks);
        BatchReads {
            blocks: out.blocks,
            healths: out.healths,
            slot: Cow::Borrowed(&self.slot),
        }
    }

    /// Plan `requests` and execute the plan's read at once
    /// ([`execute_read`](BatchPlan::execute_read)): requests that name every
    /// disk at most once are read as they are, with nothing copied.
    ///
    /// # Panics
    /// As [`new`](BatchPlan::new).
    pub fn read<'d>(disks: &'d mut DiskArray, requests: &[BlockAddr]) -> BatchReads<'d> {
        if disjoint(requests) {
            let cost = charge_rounds(disks, requests, None);
            let out = disks.complete_read(requests, ReadOptions::verified(), cost);
            return BatchReads { blocks: out.blocks, healths: out.healths, slot: Cow::Borrowed(&[]) };
        }
        let plan = BatchPlan::new(disks.disks(), requests);
        let out = plan.read_unique(disks);
        BatchReads { blocks: out.blocks, healths: out.healths, slot: Cow::Owned(plan.slot) }
    }

    /// Execute the plan through a **shared** reference: returns the reads
    /// plus the cost the batch would be charged, without touching the
    /// global counters (see [`DiskArray::read_shared`]).
    ///
    /// Callers that want the cost recorded pass the returned [`OpCost`]
    /// to [`DiskArray::charge_cost`] and the round count to
    /// [`DiskArray::record_rounds`].
    #[must_use]
    pub fn execute_read_shared<'p>(&'p self, disks: &'p DiskArray) -> (BatchReads<'p>, OpCost) {
        let out = disks.read_shared(&self.unique, ReadOptions::verified());
        (
            BatchReads {
                blocks: out.blocks,
                healths: out.healths,
                slot: Cow::Borrowed(&self.slot),
            },
            out.cost,
        )
    }
}

/// Blocks produced by executing a read [`BatchPlan`]: a [`BlockView`] by
/// original request index (duplicates resolve to the same block image;
/// [`BlockView::sub`] gives one operation's contiguous probes). Borrows
/// the plan's request-to-block mapping, and the array where the round does.
#[derive(Debug, Clone)]
pub struct BatchReads<'p> {
    /// Unique blocks, aligned with `BatchPlan::unique_blocks`.
    blocks: Round<'p>,
    /// Health per unique block, aligned with `blocks`.
    healths: Vec<BlockHealth>,
    /// The plan's request-to-block map; empty when request `i` is block `i`.
    slot: Cow<'p, [usize]>,
}

impl BlockView for BatchReads<'_> {
    fn len(&self) -> usize {
        if self.slot.is_empty() { self.blocks.len() } else { self.slot.len() }
    }

    fn block(&self, i: usize) -> &[Word] {
        self.blocks.block(self.unique_of(i))
    }
}

impl BatchReads<'_> {
    /// The unique block serving request `i`.
    fn unique_of(&self, i: usize) -> usize {
        if self.slot.is_empty() { i } else { self.slot[i] }
    }

    /// The health of the block serving request `i` (as observed when the
    /// plan executed).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn health(&self, i: usize) -> BlockHealth {
        self.healths[self.unique_of(i)]
    }

    /// Whether every block serving the request range read cleanly.
    ///
    /// # Panics
    /// Panics if the range exceeds `len()`.
    #[must_use]
    pub fn range_ok(&self, mut range: std::ops::Range<usize>) -> bool {
        range.all(|i| self.health(i).is_ok())
    }
}

/// What the executor knows of an address it has read or staged.
#[derive(Debug, Clone, Copy, Default)]
struct Held {
    /// The executor's own copy of the image, as `(index into
    /// BatchExecutor::bufs, block position in it)`; `None` while the image
    /// is the block in the backend, read there as a view.
    copy: Option<(u32, u32)>,
    /// Staged for writing and not yet landed.
    dirty: bool,
    /// The image is what the medium holds apart from the words staged
    /// since: it read healthy (a failed read is sanitized to zeros) or was
    /// written by a commit that landed. Only then do the patched words
    /// alone (`BatchExecutor::touched`) describe the change to a journal.
    sound: bool,
}

impl Held {
    fn clean(copy: Option<(usize, usize)>, sound: bool) -> Self {
        Held { copy: copy.map(|(buf, slot)| (buf as u32, slot as u32)), dirty: false, sound }
    }

    /// [`copy`](Held::copy), as indices.
    fn copied(&self) -> Option<(usize, usize)> {
        self.copy.map(|(buf, slot)| (buf as usize, slot as usize))
    }
}

/// What an executor knows of every address it read or staged: each disk's
/// first block in the disk's own slot, found by index — all one key's probe
/// needs, naming each disk once — and the others in a hash map. A slot
/// counts only under the generation that filled it: emptying is a count.
#[derive(Debug, Default)]
struct HeldMap {
    /// Per disk, `(generation, block, what is known of it)`.
    first: Vec<(u64, usize, Held)>,
    /// One past the generation of every slot filled before the latest
    /// [`clear`](HeldMap::clear).
    generation: u64,
    rest: AddrMap<Held>,
}

impl HeldMap {
    fn get(&self, a: &BlockAddr) -> Option<&Held> {
        match self.first.get(a.disk)? {
            (g, block, at) if *g == self.generation && *block == a.block => Some(at),
            (g, ..) if *g == self.generation => self.rest.get(a),
            _ => None,
        }
    }

    fn get_mut(&mut self, a: &BlockAddr) -> Option<&mut Held> {
        match self.first.get_mut(a.disk)? {
            (g, block, at) if *g == self.generation && *block == a.block => Some(at),
            (g, ..) if *g == self.generation => self.rest.get_mut(a),
            _ => None,
        }
    }

    fn contains_key(&self, a: &BlockAddr) -> bool {
        self.get(a).is_some()
    }

    fn insert(&mut self, a: BlockAddr, held: Held) {
        let generation = self.generation;
        match &mut self.first[a.disk] {
            (g, block, at) if *g == generation && *block == a.block => *at = held,
            (g, ..) if *g == generation => {
                self.rest.insert(a, held);
            }
            slot => *slot = (generation, a.block, held),
        }
    }

    fn is_empty(&self) -> bool {
        self.first.iter().all(|slot| slot.0 != self.generation)
    }

    /// Forget every address, keeping a slot for each of `disks` disks; the
    /// map's room beyond [`ARENA_ENTRIES`] is given back.
    fn clear(&mut self, disks: usize) {
        self.generation += 1;
        self.first.resize(disks.max(self.first.len()), (0, 0, Held::default()));
        self.rest.clear();
        self.rest.shrink_to(ARENA_ENTRIES);
    }
}

impl std::ops::Index<&BlockAddr> for HeldMap {
    type Output = Held;

    fn index(&self, a: &BlockAddr) -> &Held {
        self.get(a).expect("the address is held")
    }
}

/// A read-cache + staged-write layer executing batched updates with
/// sequential semantics.
///
/// Lifecycle: [`prefetch`](BatchExecutor::prefetch) the addresses the
/// batch will touch (one planned read batch), process each operation
/// against [`get`](BatchExecutor::get) /
/// [`stage_write`](BatchExecutor::stage_write) (reads observe earlier
/// staged writes — exactly what sequential execution would see), then
/// [`commit`](BatchExecutor::commit) to flush all dirty blocks as one
/// planned write batch. Dropping the executor without committing
/// discards staged writes.
///
/// Where the array's reads complete as views ([`Round::Resident`]) the
/// executor holds what it changes: a read charges its round and records the
/// addresses, a clean block is resolved in the backend, the first staging
/// of a block copies it out, a commit that landed gives the copy back.
/// Anywhere else a read round's buffer is kept whole and a staged write
/// modifies the block where it lies in it. When the array has a journal,
/// whose intents are the words a commit changed, the executor also notes
/// which words of a block each staging touched, and hands those ranges to
/// [`DiskArray::journaled_delta_batch_checked`] with the commit.
///
/// Its containers are kept by its array, emptied for each executor, so that
/// a plan of one key allocates none of them once warm; a read or a commit
/// whose addresses name every disk at most once plans no dedup.
///
/// ```
/// use pdm::{BatchExecutor, BlockAddr, DiskArray, PdmConfig};
/// let mut disks = DiskArray::new(PdmConfig::new(2, 4), 2);
/// let a = BlockAddr::new(0, 0);
/// let mut ex = BatchExecutor::new(&mut disks);
/// ex.prefetch(&[a]);
/// ex.stage_mut(a)[0] = 7;
/// assert_eq!(ex.get(a)[0], 7, "reads observe staged writes");
/// let cost = ex.commit();
/// assert_eq!(cost.block_writes, 1);
/// assert_eq!(disks.peek(a)[0], 7);
/// ```
#[derive(Debug)]
pub struct BatchExecutor<'a> {
    /// The array, which keeps what the executor holds ([`Arena`]).
    disks: &'a mut DiskArray,
}

/// What a [`BatchExecutor`] holds, kept by its array: its read rounds and
/// all but the first 64 KiB of its copies given back when it is dropped, the
/// rest emptied when the next one starts, and room beyond [`ARENA_ENTRIES`]
/// entries given back then.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    /// `bufs[0]` collects the blocks that arrive one at a time (a view
    /// copied out for staging, a write staged over a block never read);
    /// each later entry is the buffer of one copied read round.
    bufs: Vec<BlockBuf>,
    /// Positions of `bufs[0]` whose copy a landed commit gave back.
    free: Vec<usize>,
    /// Every address read or staged so far.
    map: HeldMap,
    /// Dirty addresses in first-staged order (each appears once).
    dirty: Vec<BlockAddr>,
    /// The word ranges staged since the last commit in blocks that were
    /// [sound](Held::sound) then, as `(block, start, end)`; empty, and
    /// never allocated, without a journal.
    touched: Vec<(BlockAddr, usize, usize)>,
    /// Whether an image was ever held that is not the medium's (a read
    /// sanitized, a write that did not land, a block staged unread).
    unsound: bool,
    /// What [`get_many`](BatchExecutor::get_many) found of its addresses.
    found: Vec<Held>,
}

/// Entries an [`Arena`] container keeps room for: a few keys' probes.
const ARENA_ENTRIES: usize = 256;

/// A clone is a fresh array: it starts with an empty arena.
impl Clone for Arena {
    fn clone(&self) -> Self {
        Arena::default()
    }
}

impl Arena {
    /// Empty the arena for an executor over `disks` disks of `block_words`
    /// words.
    fn reset(&mut self, disks: usize, block_words: usize) {
        self.release();
        if self.bufs.is_empty() {
            self.bufs.push(BlockBuf::with_capacity(block_words, 0));
        }
        self.map.clear(disks);
        self.free.clear();
        self.dirty.clear();
        self.touched.clear();
        self.found.clear();
        self.free.shrink_to(ARENA_ENTRIES);
        self.dirty.shrink_to(ARENA_ENTRIES);
        self.touched.shrink_to(ARENA_ENTRIES);
        self.found.shrink_to(ARENA_ENTRIES);
        self.unsound = false;
    }

    /// Give back the blocks an executor held: its read rounds, and the
    /// copies beyond the first piece.
    fn release(&mut self) {
        self.bufs.truncate(1);
        if let Some(singles) = self.bufs.first_mut() {
            singles.clear();
        }
    }
}

impl Drop for BatchExecutor<'_> {
    fn drop(&mut self) {
        self.disks.arena.release();
    }
}

/// The image `at` describes: the executor's copy, or the block in the backend.
fn image_of<'x>(bufs: &'x [BlockBuf], disks: &'x DiskArray, addr: BlockAddr, at: Held) -> &'x [Word] {
    match at.copied() {
        Some((buf, slot)) => bufs[buf].block(slot),
        None => disks.resident(addr).expect("`settle` copies a view out once its array gives none"),
    }
}

impl<'a> BatchExecutor<'a> {
    /// Start a batch over `disks`.
    pub fn new(disks: &'a mut DiskArray) -> Self {
        let (d, w) = (disks.disks(), disks.block_words());
        disks.arena.reset(d, w);
        BatchExecutor { disks }
    }

    /// The disk array geometry (for planning probe addresses).
    #[must_use]
    pub fn disks(&self) -> &DiskArray {
        self.disks
    }

    /// The underlying array, for journal bookkeeping between two commits
    /// of one executor. Blocks written through it behind the executor's
    /// back are not reflected in its cache; hazards installed through it end
    /// the array's views, and a block recorded as one is copied out, as the
    /// medium holds it then, when next asked for.
    pub fn disks_mut(&mut self) -> &mut DiskArray {
        self.disks
    }

    /// Blocks the executor holds copies of now: what a plan costs in memory.
    #[must_use]
    pub fn held_blocks(&self) -> usize {
        self.disks.arena.bufs.iter().map(BlockView::len).sum::<usize>() - self.disks.arena.free.len()
    }

    /// Read `addrs` (duplicates allowed) as one planned, verified batch;
    /// they now resolve to the round — its buffer, held whole, or the
    /// backend where it came as views. Hands `each` every unique block and
    /// its health, and returns how many there were.
    fn read_round(&mut self, addrs: &[BlockAddr], mut each: impl FnMut(BlockAddr, BlockHealth)) -> usize {
        let plan = (!disjoint(addrs)).then(|| BatchPlan::new(self.disks.disks(), addrs));
        let unique = plan.as_ref().map_or(addrs, BatchPlan::unique_blocks);
        let cost = charge_rounds(self.disks, unique, plan.as_ref());
        let (copied, healths) = self.disks.complete_read_held(unique, cost);
        let arena = &mut self.disks.arena;
        let buf = copied.as_ref().map(|_| arena.bufs.len());
        for (slot, &a) in unique.iter().enumerate() {
            let h = healths.get(slot).copied().unwrap_or(BlockHealth::Ok);
            arena.map.insert(a, Held::clean(buf.map(|buf| (buf, slot)), h.is_ok()));
            arena.unsound |= !h.is_ok();
            each(a, h);
        }
        arena.bufs.extend(copied);
        unique.len()
    }

    fn image(&self, addr: BlockAddr) -> &[Word] {
        image_of(&self.disks.arena.bufs, self.disks, addr, self.disks.arena.map[&addr])
    }

    /// Make `addr`'s image the executor's own: the block copied out of the
    /// backend (once the array gives no views, as the medium holds it).
    fn copy_out(&mut self, addr: BlockAddr) {
        let (Some(block), arena) = self.disks.resident_and_arena(addr) else {
            let block = self.disks.peek(addr);
            return self.hold_single(addr, &block, true);
        };
        let slot = Self::put(&mut arena.bufs[0], &mut arena.free, block);
        arena.map.insert(addr, Held::clean(Some((0, slot)), true));
    }

    /// Copy out whichever of `addrs` are recorded as views of blocks the
    /// array no longer gives views of ([`disks_mut`](BatchExecutor::disks_mut)).
    /// Returns whether it had to look.
    fn settle(&mut self, addrs: &[BlockAddr]) -> bool {
        // With no hazard at all a resident array gives views of every block.
        let d = &*self.disks;
        if d.backend_resident() && d.fault_plan().is_none() && !d.integrity_enabled() {
            return false;
        }
        for &a in addrs {
            if self.disks.arena.map.get(&a).is_some_and(|at| at.copy.is_none()) && self.disks.resident(a).is_none() {
                self.copy_out(a);
            }
        }
        true
    }

    /// Store `block` in `singles`, in a position given back if there is one.
    fn put(singles: &mut BlockBuf, free: &mut Vec<usize>, block: &[Word]) -> usize {
        match free.pop() {
            Some(slot) => {
                singles.block_mut(slot).copy_from_slice(block);
                slot
            }
            None => {
                singles.push(block);
                singles.len() - 1
            }
        }
    }

    /// Read every not-yet-cached address in `addrs` as one planned batch,
    /// charging its model cost.
    pub fn prefetch(&mut self, addrs: &[BlockAddr]) {
        // An executor that holds nothing yet misses every address.
        let missing: Cow<'_, [BlockAddr]> = if self.disks.arena.map.is_empty() {
            addrs.into()
        } else {
            addrs.iter().copied().filter(|a| !self.disks.arena.map.contains_key(a)).collect()
        };
        let hits = (addrs.len() - missing.len()) as u64;
        if hits > 0 {
            self.disks.emit_io_event(IoEvent::CacheHit { blocks: hits });
        }
        if missing.is_empty() {
            return;
        }
        let blocks = self.read_round(&missing, |_, _| ()) as u64;
        self.disks.emit_io_event(IoEvent::CacheMiss { blocks });
    }

    /// The current image of `addr`: staged write if any, else cached
    /// read. A miss falls back to a charged single-block read (counted
    /// as its own round), so under-prefetching stays correct — just
    /// costlier.
    pub fn get(&mut self, addr: BlockAddr) -> &[Word] {
        if self.disks.arena.map.contains_key(&addr) {
            self.disks.emit_io_event(IoEvent::CacheHit { blocks: 1 });
            self.settle(&[addr]);
        } else {
            self.disks.emit_io_event(IoEvent::CacheMiss { blocks: 1 });
            // Sampled before the read, which moves the fault clocks.
            let sound = self.disks.block_health(addr).is_ok();
            let copied = self.disks.read(&[addr], ReadOptions::default()).blocks.copied();
            self.disks.record_rounds(1);
            self.disks.arena.unsound |= !sound;
            match copied {
                Some(buf) => self.hold_single(addr, buf.block(0), sound),
                None => self.disks.arena.map.insert(addr, Held::clean(None, sound)),
            }
        }
        self.image(addr)
    }

    /// The current images of several addresses, as a view in `addrs`
    /// order (cache misses are read as one planned batch, as in
    /// [`prefetch`](BatchExecutor::prefetch)).
    pub fn get_many<'s>(&'s mut self, addrs: &'s [BlockAddr]) -> StagedBlocks<'s> {
        let (map, found) = (&self.disks.arena.map, &mut self.disks.arena.found);
        found.clear();
        if addrs.iter().all(|a| map.get(a).map(|&at| found.push(at)).is_some()) {
            if !addrs.is_empty() {
                self.disks.emit_io_event(IoEvent::CacheHit {
                    blocks: addrs.len() as u64,
                });
            }
        } else {
            self.prefetch(addrs);
        }
        if self.settle(addrs) || self.disks.arena.found.len() < addrs.len() {
            self.disks.arena.found.clear();
            self.disks.arena.found.extend(addrs.iter().map(|a| self.disks.arena.map[a]));
        }
        let (bufs, disks) = (&self.disks.arena.bufs, &*self.disks);
        let images = addrs.iter().zip(&self.disks.arena.found).map(|(&a, &at)| image_of(bufs, disks, a, at)).collect();
        StagedBlocks { images }
    }

    /// Each address's current [`BlockHealth`], or none at all — an empty
    /// list — when every one is `Ok`; sampled ahead of
    /// [`get_many`](BatchExecutor::get_many), at the clock its read runs at.
    /// Blocks staged for writing report `Ok` (their image is ours, not the
    /// disk's); others [`DiskArray::block_health`] — except that a cached
    /// image sanitized when it was read never reports `Ok`, even if the
    /// health has since recovered: the image is zeros, not the block. Call
    /// [`refresh`](BatchExecutor::refresh) to re-read such blocks.
    #[must_use]
    pub fn verify(&self, addrs: &[BlockAddr]) -> Vec<BlockHealth> {
        let d = &*self.disks;
        if !self.disks.arena.unsound && d.fault_plan().is_none() && !d.integrity_enabled() {
            return Vec::new();
        }
        let health = |a: &BlockAddr| match self.disks.arena.map.get(a) {
            Some(at) if at.dirty => BlockHealth::Ok,
            Some(at) if !at.sound && self.disks.block_health(*a).is_ok() => BlockHealth::TransientError,
            _ => self.disks.block_health(*a),
        };
        if addrs.iter().all(|a| health(a).is_ok()) {
            return Vec::new();
        }
        addrs.iter().map(health).collect()
    }

    /// Drop the cached images of the non-dirty addresses in `addrs` and
    /// re-read them from disk as one planned, verified batch (advancing
    /// the fault clocks, so a transient window can clear). Returns the
    /// health per address; dirty (staged) addresses are left untouched
    /// and report `Ok`. This is the retry primitive for degraded reads.
    pub fn refresh(&mut self, addrs: &[BlockAddr]) -> Vec<BlockHealth> {
        let retry: Vec<BlockAddr> = addrs
            .iter()
            .copied()
            .filter(|a| !self.disks.arena.map.get(a).is_some_and(|at| at.dirty))
            .collect();
        let mut fresh: AddrMap<BlockHealth> = AddrMap::default();
        if !retry.is_empty() {
            self.read_round(&retry, |a, h| {
                fresh.insert(a, h);
            });
        }
        addrs
            .iter()
            .map(|a| fresh.get(a).copied().unwrap_or(BlockHealth::Ok))
            .collect()
    }

    /// Hold a copy of `block` as `addr`'s image, outside any round buffer.
    fn hold_single(&mut self, addr: BlockAddr, block: &[Word], sound: bool) {
        self.disks.arena.unsound |= !sound;
        let slot = Self::put(&mut self.disks.arena.bufs[0], &mut self.disks.arena.free, block);
        self.disks.arena.map.insert(addr, Held::clean(Some((0, slot)), sound));
    }

    /// Stage `addr` for writing and return its image to modify in place
    /// (read first if not cached, as in [`get`](BatchExecutor::get)).
    /// Subsequent reads of `addr` within this batch observe the
    /// modifications; disk content changes only on
    /// [`commit`](BatchExecutor::commit). A journaled commit logs the whole
    /// block: a caller that changes a few words says which with
    /// [`stage_words`](BatchExecutor::stage_words).
    pub fn stage_mut(&mut self, addr: BlockAddr) -> &mut [Word] {
        self.stage_words(addr, 0..self.disks.block_words())
    }

    /// [`stage_mut`](BatchExecutor::stage_mut) for a caller that changes
    /// only `words` of the block: those words of its image, to modify in
    /// place. A journaled commit logs them and nothing else of the block.
    ///
    /// # Panics
    /// Panics if `words` runs past the block.
    pub fn stage_words(&mut self, addr: BlockAddr, words: Range<usize>) -> &mut [Word] {
        if !self.disks.arena.map.contains_key(&addr) {
            self.get(addr);
        }
        if self.disks.arena.map[&addr].copy.is_none() {
            // The first staging of a block read as a view copies it.
            self.copy_out(addr);
        }
        let journaled = self.disks.journal_enabled();
        let arena = &mut self.disks.arena;
        let at = arena.map.get_mut(&addr).expect("just read");
        if !at.dirty {
            at.dirty = true;
            arena.dirty.push(addr);
        }
        if at.sound && !words.is_empty() && journaled {
            arena.touched.push((addr, words.start, words.end));
        }
        let (buf, slot) = at.copied().expect("a staged block is a copy");
        &mut arena.bufs[buf].block_mut(slot)[words]
    }

    /// Stage a full-block write of `data`, whatever `addr` held before
    /// (which is not read).
    ///
    /// # Panics
    /// Panics if `data` is not exactly one block wide — partial writes
    /// would need the current block content merged in, and every writer
    /// in this workspace produces full-block images.
    pub fn stage_write(&mut self, addr: BlockAddr, data: &[Word]) {
        assert_eq!(
            data.len(),
            self.disks.block_words(),
            "batch staging requires full-block images"
        );
        if !self.disks.arena.map.contains_key(&addr) {
            // Never read: a journal has nothing to take a delta from.
            self.hold_single(addr, data, false);
            self.stage_mut(addr);
            return;
        }
        self.stage_patch(addr, 0, data);
    }

    /// Stage `words` over the block's words from `at` on (read first if not
    /// cached, as in [`get`](BatchExecutor::get)). Over an image the batch
    /// knows a journaled commit logs the words that differ from it; over
    /// any other, all of `words`.
    ///
    /// # Panics
    /// Panics if `words` runs past the block.
    pub fn stage_patch(&mut self, addr: BlockAddr, at: usize, words: &[Word]) {
        if !self.disks.arena.map.contains_key(&addr) {
            self.get(addr);
        }
        let range = at..at + words.len();
        if self.disks.arena.map[&addr].sound && self.disks.journal_enabled() {
            self.settle(&[addr]);
            let mut touched = std::mem::take(&mut self.disks.arena.touched);
            let image = self.image(addr);
            diff_runs(words, &image[range.clone()], |run| touched.push((addr, at + run.start, at + run.end)));
            self.disks.arena.touched = touched;
            // Dirty even when nothing differs, as without a journal.
            self.stage_words(addr, 0..0);
            let (buf, slot) = self.disks.arena.map[&addr].copied().expect("a staged block is a copy");
            self.disks.arena.bufs[buf].block_mut(slot)[range].copy_from_slice(words);
        } else {
            self.stage_words(addr, range).copy_from_slice(words);
        }
    }

    /// Number of distinct blocks currently staged for writing.
    #[must_use]
    pub fn staged_writes(&self) -> usize {
        self.disks.arena.dirty.len()
    }

    /// Flush all staged writes as one planned write batch and return its
    /// cost (zero if nothing was staged).
    ///
    /// Consumes the executor, so write faults that fire mid-commit cannot
    /// be retried through it; use
    /// [`commit_checked`](BatchExecutor::commit_checked) when a fault
    /// plan may be active.
    pub fn commit(mut self) -> OpCost {
        self.commit_checked().cost
    }

    /// Flush all staged writes as one planned, **checked** write batch.
    ///
    /// The report lists which blocks landed and which failed (dropped on
    /// a dead disk, or torn). Failed blocks **stay dirty** with their
    /// staged images intact, so the commit never silently half-applies:
    /// a later `commit_checked` retries exactly the lost writes (a torn
    /// write is one-shot, so its retry lands; a dead disk keeps failing
    /// until the plan is cleared).
    ///
    /// The physical write order is **canonical**: staged blocks are
    /// flushed sorted by `(disk, block)`, regardless of staging order.
    /// PR 1's in-memory model made the order unobservable; with crash
    /// points (`Fault::CrashPoint`) the prefix that survives a crash *is*
    /// observable, and sorting pins it so the exhaustive crash matrix is
    /// deterministic across platforms and hash-map iteration orders.
    ///
    /// When the underlying array has a journal enabled
    /// ([`DiskArray::journal_enabled`]) the whole commit is recorded as
    /// one intent entry — the words each staged block changed since it was
    /// read — before any in-place write, making it atomic under crashes; use
    /// [`commit_checked_with_meta`](BatchExecutor::commit_checked_with_meta)
    /// to attach the owner's replay metadata to that entry.
    pub fn commit_checked(&mut self) -> CommitReport {
        self.commit_checked_with_meta(&[])
    }

    /// [`commit_checked`](BatchExecutor::commit_checked), attaching
    /// `meta` to the journal intent entry (ignored without a journal).
    pub fn commit_checked_with_meta(&mut self, meta: &[Word]) -> CommitReport {
        self.commit_as(Some(meta))
    }

    /// [`commit_checked`](BatchExecutor::commit_checked) of the **one**
    /// staged block, written in place with no intent
    /// ([`DiskArray::write_block_atomic`]).
    pub fn commit_checked_in_place(&mut self) -> CommitReport {
        self.commit_as(None)
    }

    fn commit_as(&mut self, meta: Option<&[Word]>) -> CommitReport {
        let scope = self.disks.begin_op();
        let mut failed = Vec::new();
        if !self.disks.arena.dirty.is_empty() {
            // Satellite fix: one canonical commit order (see above). The
            // dirty blocks are distinct: a plan only schedules their rounds.
            let (disks, journaled) = (self.disks.disks(), meta.is_some() && self.disks.journal_enabled());
            let arena = &mut self.disks.arena;
            arena.dirty.sort_unstable();
            arena.touched.sort_unstable();
            let plan = (!disjoint(&arena.dirty)).then(|| BatchPlan::new(disks, &arena.dirty));
            // The images are the arena's, lent out for the write.
            let (bufs, dirty) = (std::mem::take(&mut arena.bufs), std::mem::take(&mut arena.dirty));
            let image = |a: &BlockAddr| {
                let (buf, slot) = arena.map[a].copied().expect("a staged block is a copy");
                bufs[buf].block(slot)
            };
            let writes: Vec<(BlockAddr, &[Word])> = dirty.iter().map(|a| (*a, image(a))).collect();
            // What a journal logs of each block: the ranges staged in it,
            // or all of it where the held image was not the medium's. None
            // without an intent, when the call below is a plain write.
            let ranges: Vec<Range<usize>> = arena.touched.iter().map(|&(_, s, e)| s..e).collect();
            let mut deltas = Vec::new();
            if journaled {
                let mut at = 0;
                deltas.extend(dirty.iter().map(|a| {
                    let from = at;
                    at += arena.touched[at..].iter().take_while(|t| t.0 == *a).count();
                    if arena.map[a].sound { Delta::Words(&ranges[from..at]) } else { Delta::Whole }
                }));
            }
            let healths = match (meta, &writes[..]) {
                (Some(meta), _) => self.disks.journaled_delta_batch_checked(&writes, &deltas, meta),
                (None, &[(a, image)]) => vec![self.disks.write_block_atomic(a, image)],
                (None, _) => panic!("an in-place commit writes one block"),
            };
            match &plan {
                Some(plan) => plan.record_rounds(self.disks),
                None => record_round(self.disks, dirty.len()),
            }
            self.disks.emit_io_event(IoEvent::BatchCommitted {
                dirty_blocks: dirty.len() as u64,
            });
            // What landed is the medium's content now; what did not left it
            // in doubt, and its retry journals the whole block.
            for (&a, h) in dirty.iter().zip(&healths) {
                // The backend holds a landed image now: the copy goes back.
                let resident = h.is_ok() && self.disks.resident(a).is_some();
                let arena = &mut self.disks.arena;
                let at = arena.map.get_mut(&a).expect("staged blocks are held");
                (at.sound, at.dirty) = (h.is_ok(), !h.is_ok());
                arena.unsound |= !h.is_ok();
                if !h.is_ok() {
                    failed.push((a, *h));
                } else if let (Some((0, slot)), true) = (at.copied(), resident) {
                    arena.free.push(slot);
                    at.copy = None;
                }
            }
            let arena = &mut self.disks.arena;
            (arena.bufs, arena.dirty) = (bufs, dirty);
            arena.touched.clear();
            arena.dirty.retain(|a| failed.iter().any(|(f, _)| f == a));
        }
        CommitReport {
            cost: self.disks.end_op(scope),
            failed,
        }
    }
}

/// The executor's current images of a list of addresses
/// ([`BatchExecutor::get_many`]), in the list's order: looked up at once,
/// as a read round's are, so that a decoder's misses on them overlap.
#[derive(Debug)]
pub struct StagedBlocks<'s> {
    images: Vec<&'s [Word]>,
}

impl BlockView for StagedBlocks<'_> {
    fn len(&self) -> usize {
        self.images.len()
    }

    fn block(&self, i: usize) -> &[Word] {
        self.images[i]
    }
}

/// Outcome of [`BatchExecutor::commit_checked`]: which staged writes
/// failed (and why) — every other one landed — and the I/O charged.
#[derive(Debug, Clone, Default)]
pub struct CommitReport {
    /// I/O cost of the commit batch.
    pub cost: OpCost,
    /// Blocks whose write failed; they remain staged (dirty) for retry.
    pub failed: Vec<(BlockAddr, BlockHealth)>,
}

impl CommitReport {
    /// Whether every staged write landed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Model, PdmConfig};

    fn array(disks: usize, blocks: usize) -> DiskArray {
        DiskArray::new(PdmConfig::new(disks, 4), blocks)
    }

    #[test]
    fn empty_plan_is_free() {
        let mut disks = array(4, 4);
        let plan = BatchPlan::new(4, &[]);
        assert_eq!(plan.num_rounds(), 0);
        assert_eq!(plan.num_unique_blocks(), 0);
        let before = disks.stats();
        let reads = plan.execute_read(&mut disks);
        assert!(reads.is_empty());
        let cost = disks.stats().since(&before);
        assert_eq!(cost.parallel_ios, 0);
        assert_eq!(cost.block_reads, 0);
        assert_eq!(disks.stats().batches, 0, "empty plan issues no batch");
        assert_eq!(disks.stats().rounds, 0);
    }

    #[test]
    fn striped_plan_costs_one_round() {
        let mut disks = array(4, 4);
        let addrs: Vec<_> = (0..4).map(|d| BlockAddr::new(d, 1)).collect();
        let plan = BatchPlan::new(4, &addrs);
        assert_eq!(plan.num_rounds(), 1);
        let before = disks.stats();
        plan.execute_read(&mut disks);
        let cost = disks.stats().since(&before);
        assert_eq!(cost.parallel_ios, 1);
        assert_eq!(cost.block_reads, 4);
        assert_eq!(disks.stats().rounds, 1);
    }

    #[test]
    fn skewed_plan_serializes_on_one_disk() {
        let mut disks = array(4, 8);
        let addrs: Vec<_> = (0..5).map(|b| BlockAddr::new(2, b)).collect();
        let plan = BatchPlan::new(4, &addrs);
        assert_eq!(plan.num_rounds(), 5);
        let before = disks.stats();
        plan.execute_read(&mut disks);
        let cost = disks.stats().since(&before);
        assert_eq!(cost.parallel_ios, 5, "all blocks on one disk serialize");
        assert_eq!(disks.stats().rounds, 5);
    }

    #[test]
    fn duplicates_coalesce_to_one_block() {
        let mut disks = array(4, 4);
        disks.poke(BlockAddr::new(1, 0), &[9; 4]);
        let a = BlockAddr::new(1, 0);
        let plan = BatchPlan::new(4, &[a, a, a, a]);
        assert_eq!(plan.num_requests(), 4);
        assert_eq!(plan.num_unique_blocks(), 1);
        assert_eq!(plan.num_rounds(), 1);
        let before = disks.stats();
        let reads = plan.execute_read(&mut disks);
        for i in 0..4 {
            assert_eq!(reads.block(i), &[9; 4]);
        }
        let cost = disks.stats().since(&before);
        assert_eq!(cost.parallel_ios, 1, "four requests, one block, one round");
        assert_eq!(cost.block_reads, 1);
    }

    #[test]
    fn rounds_touch_each_disk_at_most_once() {
        let addrs = [
            BlockAddr::new(0, 0),
            BlockAddr::new(0, 1),
            BlockAddr::new(0, 2),
            BlockAddr::new(1, 0),
            BlockAddr::new(2, 0),
            BlockAddr::new(2, 1),
        ];
        let plan = BatchPlan::new(4, &addrs);
        assert_eq!(plan.num_rounds(), 3, "disk 0 has three unique blocks");
        let mut seen = 0usize;
        for r in 0..plan.num_rounds() {
            let round = plan.round(r);
            let mut disks_in_round: Vec<usize> = round.iter().map(|a| a.disk).collect();
            let len = disks_in_round.len();
            disks_in_round.dedup();
            assert_eq!(disks_in_round.len(), len, "round {r} repeats a disk");
            seen += len;
        }
        assert_eq!(seen, plan.num_unique_blocks(), "every block is scheduled");
    }

    #[test]
    fn round_count_is_optimal_per_disk_max() {
        // Mixed shape: per-disk unique counts 3 / 1 / 2 / 0 → 3 rounds.
        let addrs = [
            BlockAddr::new(0, 0),
            BlockAddr::new(0, 5),
            BlockAddr::new(0, 7),
            BlockAddr::new(1, 1),
            BlockAddr::new(2, 0),
            BlockAddr::new(2, 3),
            BlockAddr::new(0, 0), // duplicate
        ];
        let plan = BatchPlan::new(4, &addrs);
        assert_eq!(plan.num_rounds(), 3);
        let mut disks = array(4, 8);
        let before = disks.stats();
        plan.execute_read(&mut disks);
        assert_eq!(
            disks.stats().since(&before).parallel_ios,
            plan.num_rounds() as u64,
            "ParallelDisk charge equals the scheduled round count"
        );
    }

    #[test]
    fn head_model_can_beat_round_count() {
        let cfg = PdmConfig::new(4, 4).with_model(Model::ParallelDiskHead);
        let mut disks = DiskArray::new(cfg, 8);
        let addrs: Vec<_> = (0..3).map(|b| BlockAddr::new(0, b)).collect();
        let plan = BatchPlan::new(4, &addrs);
        assert_eq!(plan.num_rounds(), 3);
        let before = disks.stats();
        plan.execute_read(&mut disks);
        assert_eq!(
            disks.stats().since(&before).parallel_ios,
            1,
            "disk heads pack same-disk blocks below the round count"
        );
    }

    #[test]
    fn shared_execution_matches_charged_execution() {
        let mut disks = array(4, 4);
        disks.poke(BlockAddr::new(3, 2), &[4; 4]);
        let addrs = [BlockAddr::new(3, 2), BlockAddr::new(0, 0), BlockAddr::new(3, 2)];
        let plan = BatchPlan::new(4, &addrs);
        let (shared, cost) = plan.execute_read_shared(&disks);
        let shared: Vec<Vec<Word>> = (0..addrs.len()).map(|i| shared.block(i).to_vec()).collect();
        let before = disks.stats();
        let charged = plan.execute_read(&mut disks);
        for (i, block) in shared.iter().enumerate() {
            assert_eq!(block, charged.block(i));
        }
        assert_eq!(disks.stats().since(&before), cost);
        disks.charge_cost(cost);
        disks.record_rounds(plan.num_rounds() as u64);
        assert_eq!(disks.stats().rounds, 2 * plan.num_rounds() as u64);
    }

    #[test]
    fn sub_views_return_per_request_blocks() {
        let mut disks = array(2, 4);
        disks.poke(BlockAddr::new(0, 1), &[1; 4]);
        disks.poke(BlockAddr::new(1, 1), &[2; 4]);
        let addrs = [BlockAddr::new(0, 1), BlockAddr::new(1, 1), BlockAddr::new(0, 1)];
        let plan = BatchPlan::new(2, &addrs);
        let reads = plan.execute_read(&mut disks);
        let (first, second) = (reads.sub(0..2), reads.sub(2..3));
        assert_eq!((first.block(0), first.block(1)), (&[1; 4][..], &[2; 4][..]));
        assert_eq!((second.len(), second.block(0)), (1, &[1; 4][..]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plan_rejects_out_of_range_disks() {
        let _ = BatchPlan::new(2, &[BlockAddr::new(2, 0)]);
    }

    #[test]
    fn executor_reads_observe_staged_writes() {
        let mut disks = array(2, 4);
        let a = BlockAddr::new(0, 0);
        let b = BlockAddr::new(1, 0);
        let mut ex = BatchExecutor::new(&mut disks);
        ex.prefetch(&[a, b]);
        assert_eq!(ex.get(a), &[0; 4]);
        ex.stage_write(a, &[5; 4]);
        assert_eq!(ex.get(a), &[5; 4], "read-your-writes within the batch");
        assert_eq!(ex.get(b), &[0; 4], "other blocks unaffected");
        drop(ex);
        assert_eq!(disks.peek(a), &[0; 4], "disk unchanged before commit");
    }

    #[test]
    fn executor_commit_flushes_once() {
        let mut disks = array(4, 4);
        let addrs: Vec<_> = (0..4).map(|d| BlockAddr::new(d, 0)).collect();
        let mut ex = BatchExecutor::new(&mut disks);
        ex.prefetch(&addrs);
        for (i, &a) in addrs.iter().enumerate() {
            let mut img = ex.get(a).to_vec();
            img[0] = i as Word + 1;
            ex.stage_write(a, &img);
            // Restage the same block: still one write.
            let img = ex.get(a).to_vec();
            ex.stage_write(a, &img);
        }
        assert_eq!(ex.staged_writes(), 4);
        let cost = ex.commit();
        assert_eq!(cost.parallel_ios, 1, "four dirty blocks, four disks, one round");
        assert_eq!(cost.block_writes, 4);
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(disks.peek(a)[0], i as Word + 1);
        }
    }

    #[test]
    fn executor_drop_discards_staged_writes() {
        let mut disks = array(2, 4);
        let a = BlockAddr::new(0, 0);
        {
            let mut ex = BatchExecutor::new(&mut disks);
            ex.stage_write(a, &[7; 4]);
        }
        assert_eq!(disks.peek(a), &[0; 4]);
    }

    #[test]
    fn executor_miss_falls_back_to_single_read() {
        let mut disks = array(2, 4);
        let before = disks.stats();
        let mut ex = BatchExecutor::new(&mut disks);
        let _ = ex.get(BlockAddr::new(1, 1));
        let _ = ex.get(BlockAddr::new(1, 1)); // cached: no second charge
        drop(ex);
        let cost = disks.stats().since(&before);
        assert_eq!(cost.parallel_ios, 1);
        assert_eq!(cost.block_reads, 1);
        assert_eq!(disks.stats().rounds, 1);
    }

    #[test]
    fn executor_prefetch_skips_cached_blocks() {
        let mut disks = array(2, 4);
        let a = BlockAddr::new(0, 0);
        let b = BlockAddr::new(1, 0);
        let mut ex = BatchExecutor::new(&mut disks);
        ex.prefetch(&[a]);
        let before = ex.disks().stats();
        ex.prefetch(&[a, b]);
        let cost = ex.disks().stats().since(&before);
        assert_eq!(cost.block_reads, 1, "only the uncached block is read");
        let empty_before = ex.disks().stats();
        ex.prefetch(&[a, b]);
        assert_eq!(ex.disks().stats(), empty_before, "fully cached: free");
    }

    #[test]
    fn executor_commit_cost_scopes_cleanly() {
        let mut disks = array(4, 4);
        let scope = disks.begin_op();
        let mut ex = BatchExecutor::new(&mut disks);
        ex.prefetch(&[BlockAddr::new(0, 0), BlockAddr::new(1, 0)]);
        ex.stage_write(BlockAddr::new(0, 0), &[1; 4]);
        let write_cost = ex.commit();
        let total = disks.end_op(scope);
        assert_eq!(write_cost.parallel_ios, 1);
        assert_eq!(total.parallel_ios, 2, "one read round plus one write round");
        assert_eq!(disks.stats().rounds, 2);
    }

    #[test]
    fn noop_hook_adds_zero_counted_work() {
        use crate::metrics::NoopSink;
        use std::sync::Arc;

        // The same plan executed with a no-op sink installed and with no
        // sink at all must produce identical IoStats: hooks observe costs,
        // they never add any.
        let run = |sink: bool| {
            let mut disks = array(4, 8);
            if sink {
                disks.set_io_sink(Some(Arc::new(NoopSink)));
            }
            let addrs = [
                BlockAddr::new(0, 0),
                BlockAddr::new(0, 1),
                BlockAddr::new(1, 0),
                BlockAddr::new(2, 3),
                BlockAddr::new(0, 0),
            ];
            let plan = BatchPlan::new(4, &addrs);
            let reads = plan.execute_read(&mut disks);
            let imgs: Vec<Vec<Word>> = (0..reads.len()).map(|i| reads.block(i).to_vec()).collect();
            let mut ex = BatchExecutor::new(&mut disks);
            ex.prefetch(&addrs);
            let img = ex.get(addrs[0]).to_vec();
            ex.stage_write(addrs[0], &img);
            let _ = ex.commit();
            (disks.stats(), imgs)
        };
        let (with_hooks, reads_hooked) = run(true);
        let (without_hooks, reads_bare) = run(false);
        assert_eq!(with_hooks, without_hooks, "hooks must not change IoStats");
        assert_eq!(reads_hooked, reads_bare);
    }

    #[test]
    fn metrics_sink_observes_executor_traffic() {
        use crate::metrics::{
            IoMetricsSink, MetricsRegistry, CACHE_EVENTS_TOTAL, COMMIT_DIRTY_BLOCKS, ROUNDS_TOTAL,
            ROUND_WIDTH,
        };
        use std::sync::Arc;

        let reg = Arc::new(MetricsRegistry::new());
        let mut disks = array(4, 8);
        disks.set_io_sink(Some(Arc::new(IoMetricsSink::new(&reg, 4))));
        let a = BlockAddr::new(0, 0);
        let b = BlockAddr::new(1, 0);
        let mut ex = BatchExecutor::new(&mut disks);
        ex.prefetch(&[a, b]); // two misses, one round of width 2
        ex.prefetch(&[a, b]); // two hits
        let img = ex.get(a).to_vec(); // one hit
        ex.stage_write(a, &img);
        let _ = ex.commit(); // one dirty block, one write round
        let s = reg.snapshot();
        assert_eq!(s.counter(CACHE_EVENTS_TOTAL, &[("event", "miss")]), Some(2));
        assert_eq!(s.counter(CACHE_EVENTS_TOTAL, &[("event", "hit")]), Some(3));
        assert_eq!(s.counter(ROUNDS_TOTAL, &[]), Some(2));
        let widths = s.histogram(ROUND_WIDTH, &[]).unwrap();
        assert_eq!(widths.count, 2);
        assert_eq!(widths.max, 2);
        assert_eq!(s.histogram(COMMIT_DIRTY_BLOCKS, &[]).unwrap().sum, 1);
    }

    #[test]
    #[should_panic(expected = "full-block images")]
    fn executor_rejects_partial_writes() {
        let mut disks = array(2, 4);
        let mut ex = BatchExecutor::new(&mut disks);
        ex.stage_write(BlockAddr::new(0, 0), &[1, 2]);
    }

    #[test]
    fn commit_checked_keeps_torn_writes_dirty_until_they_land() {
        // Regression for partial commits: a torn-write fault mid-commit
        // must be reported, keep the block staged, and succeed on retry.
        use crate::fault::FaultPlan;
        use crate::integrity::BlockHealth;

        let mut disks = array(4, 4);
        disks.enable_integrity();
        disks.set_fault_plan(FaultPlan::new().torn_write(1, 0));
        let a = BlockAddr::new(0, 0);
        let b = BlockAddr::new(1, 0);
        let mut ex = BatchExecutor::new(&mut disks);
        ex.prefetch(&[a, b]);
        ex.stage_write(a, &[7; 4]);
        ex.stage_write(b, &[8; 4]);
        let report = ex.commit_checked();
        assert_eq!(report.failed, vec![(b, BlockHealth::TornWrite)]);
        assert!(!report.is_clean());
        assert_eq!(ex.staged_writes(), 1, "failed write stays dirty");
        assert_eq!(ex.get(b), &[8; 4], "staged image intact for retry");
        let retry = ex.commit_checked();
        assert!(retry.is_clean());
        assert_eq!(retry.cost.block_writes, 1, "only the lost write is retried");
        assert_eq!(ex.staged_writes(), 0);
        drop(ex);
        assert_eq!(disks.peek(a), &[7; 4]);
        assert_eq!(disks.peek(b), &[8; 4]);
        assert_eq!(disks.scrub_verify().checksum_failures, 0);
    }

    #[test]
    fn commit_checked_reports_dead_disk_drops() {
        use crate::fault::FaultPlan;
        use crate::integrity::BlockHealth;

        let mut disks = array(4, 4);
        disks.set_fault_plan(FaultPlan::new().dead_disk(2));
        let dead = BlockAddr::new(2, 1);
        let live = BlockAddr::new(3, 1);
        let mut ex = BatchExecutor::new(&mut disks);
        ex.stage_write(dead, &[5; 4]);
        ex.stage_write(live, &[6; 4]);
        let report = ex.commit_checked();
        assert_eq!(report.failed, vec![(dead, BlockHealth::DiskDead)]);
        assert_eq!(ex.staged_writes(), 1, "dead-disk write stays dirty");
        // Replacement disk arrives: the retried commit lands.
        ex.disks.clear_fault_plan();
        let retry = ex.commit_checked();
        assert!(retry.is_clean());
        drop(ex);
        assert_eq!(disks.peek(dead), &[5; 4]);
    }

    #[test]
    fn refresh_rereads_past_a_transient_window() {
        use crate::fault::FaultPlan;
        use crate::integrity::BlockHealth;

        let mut disks = array(2, 4);
        let a = BlockAddr::new(0, 0);
        disks.write_block(a, &[3; 4]);
        // The next (= first since install) read batch on disk 0 fails.
        disks.set_fault_plan(FaultPlan::new().transient_read(0, 0, 1));
        let mut ex = BatchExecutor::new(&mut disks);
        let addrs = [a];
        let healths = ex.verify(&addrs);
        let blocks = ex.get_many(&addrs);
        assert_eq!(healths, vec![BlockHealth::TransientError]);
        assert_eq!(blocks.block(0), [0; 4], "window active: sanitized");
        let healths = ex.refresh(&[a]);
        assert_eq!(healths, vec![BlockHealth::Ok], "retry cleared the window");
        assert_eq!(ex.get(a), &[3; 4], "cache now holds the real content");
    }

    #[test]
    fn commit_order_is_canonical_disk_then_block() {
        use crate::fault::FaultPlan;

        // Stage in a deliberately scrambled order, crash after j writes,
        // and check that exactly the first j blocks in (disk, block)
        // order landed — the order PR 4 pins for the crash matrix.
        let staged = [
            BlockAddr::new(2, 1),
            BlockAddr::new(0, 3),
            BlockAddr::new(1, 0),
            BlockAddr::new(0, 1),
            BlockAddr::new(2, 0),
        ];
        let mut canonical = staged;
        canonical.sort_unstable();
        for j in 0..=staged.len() as u64 {
            let mut disks = array(4, 4);
            disks.set_fault_plan(FaultPlan::new().crash_after(j));
            let mut ex = BatchExecutor::new(&mut disks);
            for (i, &a) in staged.iter().enumerate() {
                ex.stage_write(a, &[10 + i as Word; 4]);
            }
            let _ = ex.commit_checked();
            drop(ex);
            disks.clear_fault_plan();
            for (rank, &a) in canonical.iter().enumerate() {
                let want_landed = (rank as u64) < j;
                let landed = disks.peek(a) != [0; 4];
                assert_eq!(
                    landed, want_landed,
                    "crash after {j}: canonical rank {rank} ({a:?})"
                );
            }
        }
    }

    /// A journaled commit logs the words staged in each block since the
    /// executor read it — and a second commit of the same executor, the
    /// words staged since the first landed. Both intents stay live over
    /// the same blocks; a crash at any write of the second recovers to
    /// exactly one of the two committed states.
    #[test]
    fn journaled_commits_log_what_changed_since_the_last_one() {
        use crate::fault::FaultPlan;
        use crate::journal::JournalRegion;

        let targets = [BlockAddr::new(0, 1), BlockAddr::new(1, 2), BlockAddr::new(2, 0)];
        let image = |round: usize, i: usize| -> Vec<Word> {
            let mut v: Vec<Word> = (0..16).map(|w| 50 * i as Word + w).collect();
            if round >= 1 {
                v[3] = 7;
            }
            if round >= 2 {
                v[3] = 8;
                v[9] = 9;
            }
            v
        };
        for k in 0..=5u64 {
            let mut disks = DiskArray::new(PdmConfig::new(4, 16), 8);
            for (i, &a) in targets.iter().enumerate() {
                disks.write_block(a, &image(0, i));
            }
            disks.enable_journal(JournalRegion {
                first_block: 4,
                rows: 3,
            });
            let mut ex = BatchExecutor::new(&mut disks);
            ex.prefetch(&targets);
            for &a in &targets {
                ex.stage_words(a, 3..4)[0] = 7;
            }
            let first = ex.commit_checked();
            assert_eq!(first.cost.block_writes, 1 + 3, "3 × (2 + 1 + 1) delta words: one slot");
            ex.disks_mut().set_fault_plan(FaultPlan::new().crash_after(k));
            // A full image staged over a held block logs the words that
            // differ from it; so does naming them.
            let mut whole = ex.get(targets[0]).to_vec();
            (whole[3], whole[9]) = (8, 9);
            ex.stage_write(targets[0], &whole);
            for &a in &targets[1..] {
                ex.stage_words(a, 9..10)[0] = 9;
                ex.stage_words(a, 3..4)[0] = 8;
            }
            // 3 × (2 + 2 + 2) = 18 delta words: a continuation and the head.
            let _ = ex.commit_checked_with_meta(&[2]);
            drop(ex);
            let fired = disks.crash_fired();
            disks.clear_fault_plan();
            let region = disks.journal_region().unwrap();
            disks.reopen_journal(region);
            for pass in 0..2 {
                let report = disks.recover();
                let round = report.replayed.len();
                assert_eq!(round == 2, k >= 2, "crash after {k}: the head is the 2nd write");
                assert_eq!((report.stalled, report.mismatched), (0, 0));
                for (i, &a) in targets.iter().enumerate() {
                    assert_eq!(disks.read_block(a), image(round, i), "crash after {k}, pass {pass}");
                }
            }
            assert_eq!(fired, k < 5, "2 slots + 3 in-place writes");
        }
        // `stage_mut` hands out the whole block, and that is what is logged.
        let mut disks = DiskArray::new(PdmConfig::new(4, 16), 8);
        disks.enable_journal(JournalRegion {
            first_block: 4,
            rows: 3,
        });
        let mut ex = BatchExecutor::new(&mut disks);
        ex.stage_mut(targets[0])[3] = 7;
        assert_eq!(ex.commit_checked().cost.block_writes, 2 + 1, "2 + 1 + 16 delta words");
    }

    /// On a resident array the executor holds what it stages and nothing
    /// else — and reads, staged images, a commit's journal deltas, counters
    /// and the final image are what an executor holding whole copied rounds
    /// (the same array under an empty fault plan) produces.
    #[test]
    fn a_resident_executor_holds_what_it_stages_and_commits_the_same() {
        use crate::fault::FaultPlan;
        use crate::journal::JournalRegion;

        let addrs: Vec<BlockAddr> = (0..4).flat_map(|d| (0..3).map(move |b| BlockAddr::new(d, b))).collect();
        let run = |copied: bool| {
            let mut disks = DiskArray::new(PdmConfig::new(4, 16), 8);
            for (i, &a) in addrs.iter().enumerate() {
                disks.write_block(a, &[i as Word + 1; 16]);
            }
            disks.enable_journal(JournalRegion { first_block: 4, rows: 3 });
            if copied {
                disks.set_fault_plan(FaultPlan::new());
            }
            let mut ex = BatchExecutor::new(&mut disks);
            ex.prefetch(&addrs);
            assert_eq!(ex.held_blocks(), if copied { 12 } else { 0 }, "a clean block stays in the backend");
            ex.stage_words(addrs[1], 3..5).copy_from_slice(&[70, 71]);
            let mut whole = ex.get(addrs[7]).to_vec();
            whole[9] = 72;
            ex.stage_write(addrs[7], &whole);
            assert_eq!(ex.held_blocks(), if copied { 12 } else { 2 }, "the first staging copies the block");
            assert_eq!(ex.get(addrs[1])[3..5], [70, 71], "reads observe staged writes");
            assert_eq!(ex.get_many(&addrs).block(7)[9], 72);
            assert_eq!(ex.disks().peek(addrs[1])[3], 2, "the medium changes at commit");
            let first = ex.commit_checked_with_meta(&[5]);
            assert!(first.is_clean());
            assert_eq!(ex.held_blocks(), if copied { 12 } else { 0 }, "a landed commit gives the copy back");
            assert_eq!(ex.get(addrs[1])[3..5], [70, 71], "and the block reads from the backend again");
            // A second commit over a block the first wrote, and a fresh one.
            ex.stage_words(addrs[1], 4..5)[0] = 73;
            ex.stage_words(addrs[2], 0..1)[0] = 74;
            let second = ex.commit_checked();
            let costs = (first.cost, second.cost);
            drop(ex);
            (costs, disks.stats(), disks.snapshot())
        };
        assert_eq!(run(false), run(true));
    }

    /// A fault plan installed through `disks_mut` ends the array's views: a
    /// block recorded as one is copied out when next asked for, and later
    /// reads are held copies.
    #[test]
    fn hazards_installed_mid_executor_turn_views_into_held_copies() {
        use crate::fault::FaultPlan;

        let mut disks = array(4, 4);
        let (a, b, c) = (BlockAddr::new(0, 0), BlockAddr::new(1, 1), BlockAddr::new(2, 2));
        disks.write_block(a, &[1; 4]);
        disks.write_block(c, &[3; 4]);
        let mut ex = BatchExecutor::new(&mut disks);
        ex.prefetch(&[a, b]);
        assert_eq!(ex.held_blocks(), 0);
        ex.disks_mut().set_fault_plan(FaultPlan::new().transient_read(2, 0, 1));
        let before = ex.disks().stats();
        assert_eq!(ex.get(a), [1; 4], "a recorded view is copied out, uncharged");
        assert_eq!((ex.held_blocks(), ex.disks().stats()), (1, before));
        let got = [a, b, c];
        let healths = ex.verify(&got);
        let blocks = ex.get_many(&got);
        assert_eq!((blocks.block(1), blocks.block(2)), (&[0; 4][..], &[0; 4][..]), "c is inside the window");
        assert_eq!(healths, [BlockHealth::Ok, BlockHealth::Ok, BlockHealth::TransientError]);
        assert_eq!(ex.held_blocks(), 3, "the later read is a held copy");
        assert_eq!(ex.refresh(&[c]), [BlockHealth::Ok]);
        assert_eq!(ex.get(c), [3; 4]);
    }

    #[test]
    fn journaled_commit_is_atomic_under_any_crash_point() {
        use crate::fault::FaultPlan;
        use crate::journal::JournalRegion;

        // 3 blocks staged whole, never read (no pre-image): 57 delta
        // words in 5 ring slots + 3 in-place = 8 physical writes. Every
        // crash point must leave all-or-nothing.
        let targets = [
            BlockAddr::new(0, 1),
            BlockAddr::new(1, 2),
            BlockAddr::new(2, 0),
        ];
        for k in 0..=8u64 {
            let mut disks = DiskArray::new(PdmConfig::new(4, 16), 8);
            disks.enable_journal(JournalRegion {
                first_block: 4,
                rows: 3,
            });
            disks.set_fault_plan(FaultPlan::new().crash_after(k));
            let mut ex = BatchExecutor::new(&mut disks);
            for (i, &a) in targets.iter().enumerate() {
                ex.stage_write(a, &[100 + i as Word; 16]);
            }
            let _ = ex.commit_checked_with_meta(&[k]);
            drop(ex);
            disks.clear_fault_plan();
            let report = disks.recover();
            let committed = report.replayed.iter().any(|e| e.meta == vec![k]);
            for (i, &a) in targets.iter().enumerate() {
                let want: Vec<Word> = if committed {
                    vec![100 + i as Word; 16]
                } else {
                    vec![0; 16]
                };
                assert_eq!(disks.read_block(a), want, "crash after {k} ({a:?})");
            }
        }
    }
}

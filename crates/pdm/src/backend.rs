//! The storage seam: physical block storage behind [`DiskArray`](crate::DiskArray).
//!
//! Everything above this module — cost accounting, fault injection,
//! integrity checksums, the journal, the batch engine — is *model* logic:
//! it decides which blocks to touch and what the access costs in parallel
//! I/Os. This module owns the question of where the bytes actually live.
//! A [`StorageBackend`] accepts one [`IoSubmission`] at a time (a batch of
//! block reads and block-aligned writes, optionally followed by a
//! durability barrier) and returns a [`CompletionSet`].
//!
//! Two implementations ship:
//!
//! * [`MemBackend`] — in-memory storage that allocates a block the first
//!   time something other than zeros is written to it; every other block
//!   reads as one shared zero block. Its reads, writes and charges are
//!   bit-compatible with every release before the seam existed, and it is
//!   the default: tests and simulated-count benchmarks run on it with zero
//!   behavioral drift.
//! * [`FileBackend`](crate::file_backend::FileBackend) — one file plus one
//!   dedicated worker thread per "disk". A submission is split per disk
//!   and issued to **all** per-disk queues before any completion is
//!   joined, so a parallel round is *actually* parallel: the per-disk
//!   device waits (page-cache misses, `O_DIRECT` round trips, `fsync`
//!   barriers) overlap in real time exactly the way the PDM cost model
//!   assumes they do.
//!
//! ## The completion contract
//!
//! Physical completions arrive in whatever order the disks finish.
//! [`CompletionSet::reads`] is **one flat buffer** ([`BlockBuf`]) holding
//! the block images in **request order**; views into it stay valid until
//! the buffer is dropped, and the array sanitizes a failed block by zeroing
//! its slice in place. Request order is deliberate: every layer above (the batch
//! engine's slot mapping, the journal's replay matrices, the differential
//! test harness) indexes completions by request position, and PR 4 pinned
//! the *write* order to canonical `(disk, block)` sorting so that
//! crash-prefix experiments are deterministic. A backend that leaked
//! completion order would make observable behavior depend on device
//! timing — the one thing a deterministic reproduction cannot allow.
//!
//! ## Residency
//!
//! A block is copied only where the medium is not memory. A backend that
//! keeps its blocks in memory says so through
//! [`StorageBackend::resident`], and [`DiskArray`](crate::DiskArray) then
//! completes a read as views of them (a [`Round`](crate::Round) that
//! borrows the array until its next `&mut` use), with the same charge,
//! counters and events — unless a fault plan is active or a requested
//! block still awaits its checksum verification, when what is read may
//! differ from what the medium holds and the read is copied and sanitized
//! as above. `resident` has a default (`None`), so a decorator forwarding
//! only the required methods hides its inner backend's residency and sees
//! every read as a `submit`.
//!
//! ## Ordering and durability contract
//!
//! * Submissions on one backend are processed in submission order; within
//!   a submission, a disk performs its reads before its writes, and
//!   writes land in the order given. Two different disks are unordered
//!   relative to each other *within* a submission — no layer may assume
//!   cross-disk ordering short of a barrier.
//! * [`IoSubmission::sync_after`] (or [`StorageBackend::sync`]) is the
//!   barrier: when it completes, every write submitted before it is
//!   durable to the backend's medium. `MemBackend` is trivially durable;
//!   `FileBackend` issues `fdatasync` per disk file.
//! * A submission's writes are visible to every later read (on any disk)
//!   once [`StorageBackend::submit`] returns.

use crate::blocks::BlockBuf;
use crate::disk::BlockAddr;
use crate::integrity::IoFaultKind;
use crate::Word;

/// One batch of physical I/O handed to a [`StorageBackend`].
///
/// Writes may be partial (`payload.len() <= B`): the tail of the block
/// keeps its previous content. Addresses are validated by the caller
/// ([`crate::DiskArray`]); backends may assume they are in range.
#[derive(Debug, Clone, Copy)]
pub struct IoSubmission<'a> {
    /// Blocks to read, in request order.
    pub reads: &'a [BlockAddr],
    /// Blocks to write with their payloads, in request order.
    pub writes: &'a [(BlockAddr, &'a [Word])],
    /// Issue a durability barrier on every disk touched by `writes`
    /// (plus every disk with earlier unsynced writes) before completing.
    pub sync_after: bool,
}

impl<'a> IoSubmission<'a> {
    /// A read-only submission.
    #[must_use]
    pub fn reads(reads: &'a [BlockAddr]) -> Self {
        IoSubmission {
            reads,
            writes: &[],
            sync_after: false,
        }
    }

    /// A write-only submission.
    #[must_use]
    pub fn writes(writes: &'a [(BlockAddr, &'a [Word])]) -> Self {
        IoSubmission {
            reads: &[],
            writes,
            sync_after: false,
        }
    }

    /// Request a durability barrier after the writes complete.
    #[must_use]
    pub fn with_sync(mut self, sync: bool) -> Self {
        self.sync_after = sync;
        self
    }
}

/// The result of one [`IoSubmission`]: block images for every requested
/// read, canonicalized to request order (see the module docs for why the
/// physical completion order is never exposed).
#[derive(Debug, Clone, Default)]
pub struct CompletionSet {
    /// One block image per entry of [`IoSubmission::reads`], same order.
    pub reads: BlockBuf,
}

/// Ticket for an in-flight durability barrier started with
/// [`StorageBackend::flush_begin`]. Must be redeemed with
/// [`StorageBackend::flush_join`] before the writes it covers may be
/// acknowledged to anyone.
#[derive(Debug)]
#[must_use = "a flush is not durable until flush_join is called"]
pub struct FlushTicket {
    pub(crate) pending: usize,
}

/// A typed backend configuration / open failure.
///
/// Carried by [`crate::file_backend::FileBackend::open`] and friends
/// instead of a panic, so callers (and the dictionary layer's
/// `DictError::Io`) can react to a missing disk file or a geometry
/// mismatch as data, not as a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Classification of the failure (typically
    /// [`IoFaultKind::Misconfigured`]).
    pub kind: IoFaultKind,
    /// The disk the failure is attributed to (0 for whole-array problems).
    pub disk: usize,
    /// Human-readable detail.
    pub message: String,
}

impl BackendError {
    /// A misconfiguration attributed to `disk`.
    #[must_use]
    pub fn misconfigured(disk: usize, message: impl Into<String>) -> Self {
        BackendError {
            kind: IoFaultKind::Misconfigured,
            disk,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "storage backend error ({}) on disk {}: {}",
            self.kind, self.disk, self.message
        )
    }
}

impl std::error::Error for BackendError {}

/// Physical block storage: `D` disks of `B`-word blocks behind a
/// submission/completion batch interface.
///
/// Implementations are driven exclusively through whole batches — there
/// is no single-block fast path to accidentally serialize on — and must
/// uphold the ordering/durability contract in the [module docs](self).
///
/// The required methods are **frozen**: decorators outside this workspace
/// implement the trait (the wall-clock benchmark's tracing backend), so a
/// method may be added only with a default body, and none may be removed
/// or re-signed.
///
/// [`peek`](StorageBackend::peek) / [`poke`](StorageBackend::poke) are
/// the uncharged test/debug escape hatches [`crate::DiskArray`] has
/// always offered; they bypass cost accounting but **not** storage (a
/// poke on a file backend reaches the file).
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Stable tag naming the backend (`"mem"`, `"file"`); surfaces in
    /// debug output and bench reports.
    fn kind(&self) -> &'static str;

    /// Number of disks, `D`.
    fn disks(&self) -> usize;

    /// Words per block, `B`.
    fn block_words(&self) -> usize;

    /// Number of blocks currently on `disk`.
    fn blocks_on(&self, disk: usize) -> usize;

    /// Grow every disk to at least `blocks_per_disk` blocks, the new
    /// blocks zeroed. Never shrinks.
    fn grow(&mut self, blocks_per_disk: usize);

    /// Grow only the disks `first_disk .. first_disk + disks` to at least
    /// `blocks` blocks each, the new blocks zeroed. Never shrinks.
    ///
    /// The default lengthens every disk ([`grow`](StorageBackend::grow)):
    /// correct, not tight — a decorator forwarding only the required
    /// methods stays rectangular. The two backends lengthen the range.
    fn grow_disks(&mut self, first_disk: usize, disks: usize, blocks: usize) {
        let _ = (first_disk, disks);
        self.grow(blocks);
    }

    /// Give back every block at index `first_block` or above on the disks
    /// `first_disk .. first_disk + disks`: a disk of the range longer than
    /// `first_block` ends there afterwards (a shorter one keeps its
    /// length), and its content is gone — a later
    /// [`grow_disks`](StorageBackend::grow_disks) brings the range back
    /// zeroed, like any new block. The inverse of `grow_disks`, and like it
    /// bookkeeping, not I/O: it is uncharged, and it is the caller's job
    /// ([`crate::DiskArray::discard_tail`]) to make sure no journal intent
    /// still names a discarded block.
    ///
    /// The default zeroes block by block through
    /// [`poke`](StorageBackend::poke) and keeps every length: correct, not
    /// tight, like the default `grow_disks` — a decorator forwarding only
    /// the required methods still reads zeros over the range.
    /// [`MemBackend`] shortens its disks and keeps their blocks for later
    /// writes; the file backend records the shorter lengths, then
    /// truncates its files.
    fn discard_tail(&mut self, first_disk: usize, disks: usize, first_block: usize) {
        let zeros = vec![0 as Word; self.block_words()];
        for disk in first_disk..first_disk + disks {
            for block in first_block..self.blocks_on(disk) {
                self.poke(BlockAddr::new(disk, block), &zeros);
            }
        }
    }

    /// Execute one submission and return its completions (reads in
    /// request order). The submission is split per disk and issued to
    /// every disk's queue before any completion is joined.
    fn submit(&mut self, batch: IoSubmission<'_>) -> CompletionSet;

    /// Execute a read-only submission through a shared reference, for
    /// concurrent readers. Semantically identical to
    /// [`submit`](StorageBackend::submit) with no writes.
    fn submit_reads(&self, reads: &[BlockAddr]) -> CompletionSet;

    /// The block at `addr` where it lies, if this backend keeps its blocks
    /// in memory: [`crate::DiskArray`] then completes a read as views of
    /// them and copies nothing. A property of the medium: `Some` for every
    /// in-range address or for none. The default `None` makes a decorator
    /// forwarding only the required methods hide its inner backend's
    /// residency; its reads are copied through `submit` as before.
    fn resident(&self, addr: BlockAddr) -> Option<&[Word]> {
        let _ = addr;
        None
    }

    /// How many blocks of the extent hold memory of their own, if this
    /// backend allocates a block only once it is written ([`MemBackend`]).
    /// The extent — [`blocks_on`](StorageBackend::blocks_on) summed — is
    /// what the structures reserved; this is what they cost. The default
    /// `None` is for a backend that keeps its whole extent (a file) or does
    /// not say.
    fn materialised_blocks(&self) -> Option<usize> {
        None
    }

    /// The materialised blocks and any kept outside the extent for later
    /// writes: every block this backend holds memory for.
    fn held_blocks(&self) -> Option<usize> {
        self.materialised_blocks()
    }

    /// Read one block without charging I/O (test/debug hook).
    fn peek(&self, addr: BlockAddr) -> Vec<Word>;

    /// Write up to one block without charging I/O (test/debug hook); a
    /// short payload leaves the block tail untouched.
    fn poke(&mut self, addr: BlockAddr, data: &[Word]);

    /// A full in-memory image of every disk (used to clone an array and
    /// by the differential harness as a byte-identity witness).
    fn snapshot(&self) -> Vec<Vec<Box<[Word]>>>;

    /// Durability barrier: block until every write submitted so far is
    /// durable on every disk.
    fn sync(&mut self) {
        let ticket = self.flush_begin();
        self.flush_join(ticket);
    }

    /// Start an asynchronous durability barrier covering every write
    /// submitted so far, without waiting for it. Work submitted after
    /// this call queues *behind* the barrier on each disk, so the flush
    /// overlaps with the caller's next planning phase — the serving
    /// engine uses this to overlap window `N`'s journal flush with
    /// window `N+1`'s accumulation.
    fn flush_begin(&mut self) -> FlushTicket;

    /// Wait for a barrier started with
    /// [`flush_begin`](StorageBackend::flush_begin) to complete.
    fn flush_join(&mut self, ticket: FlushTicket);
}

/// The in-memory storage: `D` vectors of blocks, each block allocated only
/// once something is written to it.
///
/// A block no payload that is not all zeros has reached holds no memory of
/// its own and reads as the backend's one shared zero block, so laying out a
/// region costs its extent, not its bytes — Theorem 7's deeper levels, which
/// few keys reach, stay mostly unallocated. The extent itself
/// ([`blocks_on`](StorageBackend::blocks_on)) is exactly what a dense
/// backend would report, and every read, write and charge is the same:
/// simulated-count tests and benches see zero drift. The default backend.
///
/// A [`discard_tail`](StorageBackend::discard_tail) shortens the disks and
/// keeps the blocks that fall off, zeroed, on one spare list that writes
/// draw from before they allocate: a rebuilding dictionary hands a slot
/// back and lays the next tenant over it, and freeing the blocks in
/// between fragments the heap (a larger peak resident set, measured on
/// `engine_churn`).
#[derive(Debug, Clone)]
pub struct MemBackend {
    block_words: usize,
    /// Per disk, its blocks; `None` for one never written non-zero.
    disks: Vec<Vec<Option<Box<[Word]>>>>,
    /// What every absent block reads as.
    zero: Box<[Word]>,
    /// The `Some` entries of `disks`.
    materialised: usize,
    /// Zeroed blocks a discard took out of the extent, for the next writes.
    spare: Vec<Box<[Word]>>,
}

impl MemBackend {
    /// Create `disks` disks of `blocks_per_disk` zeroed blocks.
    #[must_use]
    pub fn new(disks: usize, block_words: usize, blocks_per_disk: usize) -> Self {
        MemBackend {
            block_words,
            disks: vec![vec![None; blocks_per_disk]; disks],
            zero: vec![0 as Word; block_words].into_boxed_slice(),
            materialised: 0,
            spare: Vec::new(),
        }
    }

    /// Adopt an existing image (used when cloning an array whose backend
    /// cannot itself be cloned — e.g. a file backend snapshot). Its all-zero
    /// blocks are dropped: they read the same absent.
    #[must_use]
    pub fn from_image(block_words: usize, image: Vec<Vec<Box<[Word]>>>) -> Self {
        debug_assert!(image
            .iter()
            .all(|d| d.iter().all(|b| b.len() == block_words)));
        let disks: Vec<Vec<_>> = image
            .into_iter()
            .map(|disk| disk.into_iter().map(|b| b.iter().any(|&w| w != 0).then_some(b)).collect())
            .collect();
        MemBackend {
            block_words,
            materialised: disks.iter().flatten().flatten().count(),
            disks,
            zero: vec![0 as Word; block_words].into_boxed_slice(),
            spare: Vec::new(),
        }
    }

    fn block(&self, addr: BlockAddr) -> &[Word] {
        self.disks[addr.disk][addr.block].as_deref().unwrap_or(&self.zero)
    }

    /// Write `data` over the head of the block at `addr`, materialising it
    /// (from the spare list first) unless it is absent and `data` is all
    /// zeros.
    fn write(&mut self, addr: BlockAddr, data: &[Word]) {
        let slot = &mut self.disks[addr.disk][addr.block];
        if slot.is_none() {
            if data.iter().all(|&w| w == 0) {
                return;
            }
            self.materialised += 1;
        }
        let block = slot.get_or_insert_with(|| {
            self.spare.pop().unwrap_or_else(|| vec![0 as Word; self.block_words].into_boxed_slice())
        });
        block[..data.len()].copy_from_slice(data);
    }
}

impl StorageBackend for MemBackend {
    fn kind(&self) -> &'static str {
        "mem"
    }

    fn disks(&self) -> usize {
        self.disks.len()
    }

    fn block_words(&self) -> usize {
        self.block_words
    }

    fn blocks_on(&self, disk: usize) -> usize {
        self.disks[disk].len()
    }

    fn grow(&mut self, blocks_per_disk: usize) {
        self.grow_disks(0, self.disks.len(), blocks_per_disk);
    }

    fn grow_disks(&mut self, first_disk: usize, disks: usize, blocks: usize) {
        for disk in &mut self.disks[first_disk..first_disk + disks] {
            if disk.len() < blocks {
                disk.resize(blocks, None);
            }
        }
    }

    /// Shortens the disks of the range; their materialised blocks go,
    /// zeroed, onto the spare list.
    fn discard_tail(&mut self, first_disk: usize, disks: usize, first_block: usize) {
        for disk in &mut self.disks[first_disk..first_disk + disks] {
            for mut block in disk.drain(first_block.min(disk.len())..).flatten() {
                block.fill(0);
                self.spare.push(block);
                self.materialised -= 1;
            }
        }
    }

    fn submit(&mut self, batch: IoSubmission<'_>) -> CompletionSet {
        let reads = self.submit_reads(batch.reads);
        for &(a, data) in batch.writes {
            self.write(a, data);
        }
        // sync_after: memory is trivially durable.
        reads
    }

    fn submit_reads(&self, reads: &[BlockAddr]) -> CompletionSet {
        let mut out = BlockBuf::with_capacity(self.block_words, reads.len());
        for &a in reads {
            out.push(self.block(a));
        }
        CompletionSet { reads: out }
    }

    fn resident(&self, addr: BlockAddr) -> Option<&[Word]> {
        Some(self.block(addr))
    }

    fn peek(&self, addr: BlockAddr) -> Vec<Word> {
        self.block(addr).to_vec()
    }

    fn poke(&mut self, addr: BlockAddr, data: &[Word]) {
        self.write(addr, data);
    }

    fn snapshot(&self) -> Vec<Vec<Box<[Word]>>> {
        let disk = |d: &Vec<Option<Box<[Word]>>>| d.iter().map(|b| b.as_deref().unwrap_or(&self.zero).into()).collect();
        self.disks.iter().map(disk).collect()
    }

    /// The blocks of the extent written non-zero. Not counted: the spare
    /// list, the zeroed blocks discards took out of the extent and no write
    /// has taken back yet. A block is allocated only while that list is
    /// empty, so the list and the extent together never hold more blocks
    /// than the extent once held materialised at the same time.
    fn materialised_blocks(&self) -> Option<usize> {
        Some(self.materialised)
    }

    fn held_blocks(&self) -> Option<usize> {
        Some(self.materialised + self.spare.len())
    }

    fn flush_begin(&mut self) -> FlushTicket {
        FlushTicket { pending: 0 }
    }

    fn flush_join(&mut self, _ticket: FlushTicket) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mem_backend_roundtrips_in_request_order() {
        let mut b = MemBackend::new(3, 4, 2);
        let w1 = [7 as Word; 4];
        let w2 = [9 as Word; 4];
        let writes: Vec<(BlockAddr, &[Word])> = vec![
            (BlockAddr::new(2, 1), &w1[..]),
            (BlockAddr::new(0, 0), &w2[..]),
        ];
        b.submit(IoSubmission::writes(&writes));
        let got = b.submit(IoSubmission::reads(&[
            BlockAddr::new(0, 0),
            BlockAddr::new(2, 1),
            BlockAddr::new(1, 0),
        ]));
        assert_eq!(got.reads.into_words(), [[9; 4], [7; 4], [0; 4]].concat());
    }

    #[test]
    fn mem_backend_partial_write_preserves_tail() {
        let mut b = MemBackend::new(1, 4, 1);
        b.poke(BlockAddr::new(0, 0), &[5; 4]);
        let w = [1 as Word, 2];
        let writes: Vec<(BlockAddr, &[Word])> = vec![(BlockAddr::new(0, 0), &w[..])];
        b.submit(IoSubmission::writes(&writes));
        assert_eq!(b.peek(BlockAddr::new(0, 0)), vec![1, 2, 5, 5]);
    }

    #[test]
    fn mem_backend_reads_observe_same_submission_writes_afterward() {
        // Contract: within one submission, reads execute BEFORE writes.
        let mut b = MemBackend::new(1, 2, 1);
        b.poke(BlockAddr::new(0, 0), &[3; 2]);
        let w = [8 as Word; 2];
        let writes: Vec<(BlockAddr, &[Word])> = vec![(BlockAddr::new(0, 0), &w[..])];
        let got = b.submit(IoSubmission {
            reads: &[BlockAddr::new(0, 0)],
            writes: &writes,
            sync_after: false,
        });
        assert_eq!(got.reads[0], [3; 2], "reads precede writes");
        assert_eq!(b.peek(BlockAddr::new(0, 0)), vec![8; 2]);
    }

    #[test]
    fn mem_backend_grow_and_snapshot() {
        let mut b = MemBackend::new(2, 2, 1);
        b.poke(BlockAddr::new(1, 0), &[4; 2]);
        b.grow(3);
        assert_eq!(b.blocks_on(0), 3);
        assert_eq!(b.blocks_on(1), 3);
        let snap = b.snapshot();
        assert_eq!(snap[1][0].as_ref(), &[4, 4]);
        assert_eq!(snap[0][2].as_ref(), &[0, 0]);
        let b2 = MemBackend::from_image(2, snap);
        assert_eq!(b2.peek(BlockAddr::new(1, 0)), vec![4; 2]);
    }

    #[test]
    fn a_block_is_materialised_by_its_first_non_zero_write_only() {
        let mut b = MemBackend::new(2, 4, 3);
        b.grow(1_000);
        assert_eq!(b.materialised_blocks(), Some(0), "growing allocates nothing");
        let a = BlockAddr::new(1, 999);
        b.submit(IoSubmission::reads(&[a]));
        b.poke(a, &[0; 3]);
        assert_eq!(b.materialised_blocks(), Some(0), "a read or a zero write allocates nothing");
        b.poke(a, &[0, 6]);
        b.poke(BlockAddr::new(0, 0), &[1]);
        assert_eq!(b.materialised_blocks(), Some(2));
        assert_eq!(b.peek(a), [0, 6, 0, 0]);
        b.discard_tail(0, 2, 1);
        assert_eq!((b.blocks_on(0), b.blocks_on(1)), (1, 1), "the extent is given back");
        assert_eq!((b.materialised_blocks(), b.spare.len()), (Some(1), 1), "its block kept, spare");
        b.grow(1_000);
        assert_eq!(b.peek(a), [0; 4], "a regrown block reads zeros");
        b.poke(a, &[7]);
        assert_eq!((b.materialised_blocks(), b.spare.len()), (Some(2), 0), "a write takes the spare");
        assert_eq!(b.peek(a), [7, 0, 0, 0], "which was zeroed");
        b.poke(a, &[0; 4]);
        let copy = MemBackend::from_image(4, b.snapshot());
        assert_eq!(copy.materialised_blocks(), Some(1), "a copy drops the zero blocks");
        assert_eq!(copy.snapshot(), b.snapshot());
    }

    /// The dense model the sparse backend must be indistinguishable from:
    /// per disk, every block's words.
    type Dense = Vec<Vec<Vec<Word>>>;

    const DISKS: usize = 3;
    const WORDS: usize = 4;

    /// An address of the current extent, drawn from `r`; `None` while empty.
    fn pick(model: &Dense, r: u64) -> Option<BlockAddr> {
        let disk = (0..DISKS).map(|i| (r as usize + i) % DISKS).find(|&d| !model[d].is_empty())?;
        Some(BlockAddr::new(disk, (r >> 8) as usize % model[disk].len()))
    }

    /// A full, a partial or an all-zero payload, drawn from `x` and `salt`.
    fn payload(x: u64, salt: u64) -> Vec<Word> {
        let len = 1 + (x >> 3) as usize % WORDS;
        let word = |i: usize| if (salt >> i) & 1 == 1 { salt.rotate_left(i as u32) | 1 } else { 0 };
        match x % 3 {
            0 => (0..WORDS).map(word).collect(),
            1 => (0..len).map(word).collect(),
            _ => vec![0; len],
        }
    }

    fn nonzero(model: &Dense) -> usize {
        model.iter().flatten().filter(|x| x.iter().any(|&w| w != 0)).count()
    }

    fn agrees(b: &MemBackend, model: &Dense) -> Result<(), TestCaseError> {
        let lens: Vec<usize> = model.iter().map(Vec::len).collect();
        prop_assert_eq!((0..DISKS).map(|d| b.blocks_on(d)).collect::<Vec<_>>(), lens);
        let addrs: Vec<BlockAddr> = (0..DISKS)
            .flat_map(|d| (0..model[d].len()).map(move |i| BlockAddr::new(d, i)))
            .collect();
        for &a in &addrs {
            let want = &model[a.disk][a.block];
            prop_assert_eq!(&b.peek(a), want);
            prop_assert_eq!(b.resident(a), Some(&want[..]));
        }
        let flat: Vec<Word> = model.iter().flatten().flatten().copied().collect();
        prop_assert_eq!(b.submit_reads(&addrs).reads.into_words(), flat);
        let snapshot: Dense = b.snapshot().iter().map(|d| d.iter().map(|x| x.to_vec()).collect()).collect();
        prop_assert_eq!(&snapshot, model);
        let (written, held) = (nonzero(model), b.materialised_blocks().unwrap());
        prop_assert!(written <= held && held <= addrs.len(), "{written} ≤ {held} ≤ {}", addrs.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The sparse backend against a dense model: after every step of a
        /// random sequence of grows, submissions (reads, full, partial and
        /// all-zero writes), pokes, discards (which shorten the model too)
        /// and snapshot round trips, every way of reading it agrees with the
        /// model; a read or an all-zero write materialises nothing, a
        /// discard frees nothing (its blocks go to the spare list), a block
        /// is allocated only while that list is empty, and a copy holds
        /// exactly the blocks that are not zero.
        #[test]
        fn the_sparse_backend_reads_as_a_dense_one(
            steps in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..40),
        ) {
            let mut b = MemBackend::new(DISKS, WORDS, 1);
            let mut model: Dense = vec![vec![vec![0; WORDS]; 1]; DISKS];
            let held = |b: &MemBackend| b.held_blocks().unwrap();
            for (kind, x, salt) in steps {
                let before = held(&b);
                // Whether the step may allocate a block: only a write that
                // is not all zeros.
                let mut grows = false;
                match kind {
                    0 => {
                        b.grow(x as usize % 6);
                        for disk in &mut model {
                            let len = disk.len().max(x as usize % 6);
                            disk.resize(len, vec![0; WORDS]);
                        }
                    }
                    1 => {
                        let first = x as usize % DISKS;
                        let (disks, blocks) = (1 + (x >> 8) as usize % (DISKS - first), (x >> 16) as usize % 8);
                        b.grow_disks(first, disks, blocks);
                        for disk in &mut model[first..first + disks] {
                            let len = disk.len().max(blocks);
                            disk.resize(len, vec![0; WORDS]);
                        }
                    }
                    2 => {
                        let (first, first_block) = (x as usize % DISKS, (x >> 16) as usize % 6);
                        let disks = 1 + (x >> 8) as usize % (DISKS - first);
                        b.discard_tail(first, disks, first_block);
                        for disk in &mut model[first..first + disks] {
                            disk.truncate(first_block);
                        }
                    }
                    3 => {
                        b = MemBackend::from_image(WORDS, b.snapshot());
                        prop_assert_eq!(b.materialised_blocks(), Some(nonzero(&model)), "a copy holds the non-zero blocks");
                        agrees(&b, &model)?;
                        continue;
                    }
                    4 => {
                        let Some(a) = pick(&model, salt) else { continue };
                        let data = payload(x, salt);
                        b.poke(a, &data);
                        model[a.disk][a.block][..data.len()].copy_from_slice(&data);
                        grows = data.iter().any(|&w| w != 0);
                    }
                    _ => {
                        let mut r = salt;
                        let mut next = || { r = r.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(x); r };
                        let reads: Vec<BlockAddr> = (0..x % 4).filter_map(|_| pick(&model, next())).collect();
                        let writes: Vec<(BlockAddr, Vec<Word>)> = (0..(x >> 2) % 4)
                            .filter_map(|_| Some((pick(&model, next())?, payload(next(), next()))))
                            .collect();
                        let want: Vec<Word> = reads.iter().flat_map(|a| model[a.disk][a.block].clone()).collect();
                        let refs: Vec<(BlockAddr, &[Word])> = writes.iter().map(|(a, w)| (*a, &w[..])).collect();
                        let got = b.submit(IoSubmission { reads: &reads, writes: &refs, sync_after: x & 1 == 1 });
                        prop_assert_eq!(got.reads.into_words(), want, "reads see the blocks before the writes");
                        for (a, data) in &writes {
                            model[a.disk][a.block][..data.len()].copy_from_slice(data);
                        }
                        grows = writes.iter().any(|(_, w)| w.iter().any(|&w| w != 0));
                    }
                }
                let after = held(&b);
                // Writes only take from the list, so one that allocated left it empty.
                let allocated = grows && after > before && b.spare.is_empty();
                prop_assert!(after == before || allocated, "kind {}: {} → {} held", kind, before, after);
                agrees(&b, &model)?;
            }
        }
    }

    /// A decorator that forwards only the required methods, so it
    /// exercises the trait's default `discard_tail` and `grow_disks`.
    #[derive(Debug)]
    struct Forwarding(MemBackend);
    impl StorageBackend for Forwarding {
        fn kind(&self) -> &'static str {
            "forwarding"
        }
        fn disks(&self) -> usize {
            self.0.disks()
        }
        fn block_words(&self) -> usize {
            self.0.block_words()
        }
        fn blocks_on(&self, disk: usize) -> usize {
            self.0.blocks_on(disk)
        }
        fn grow(&mut self, blocks_per_disk: usize) {
            self.0.grow(blocks_per_disk);
        }
        fn submit(&mut self, batch: IoSubmission<'_>) -> CompletionSet {
            self.0.submit(batch)
        }
        fn submit_reads(&self, reads: &[BlockAddr]) -> CompletionSet {
            self.0.submit_reads(reads)
        }
        fn peek(&self, addr: BlockAddr) -> Vec<Word> {
            self.0.peek(addr)
        }
        fn poke(&mut self, addr: BlockAddr, data: &[Word]) {
            self.0.poke(addr, data);
        }
        fn snapshot(&self) -> Vec<Vec<Box<[Word]>>> {
            self.0.snapshot()
        }
        fn flush_begin(&mut self) -> FlushTicket {
            self.0.flush_begin()
        }
        fn flush_join(&mut self, ticket: FlushTicket) {
            self.0.flush_join(ticket);
        }
    }

    #[test]
    fn grow_disks_lengthens_the_range_and_the_default_every_disk() {
        let mut mem = MemBackend::new(4, 2, 3);
        mem.poke(BlockAddr::new(2, 1), &[7; 2]);
        let mut fwd = Forwarding(mem.clone());
        mem.grow_disks(1, 2, 5);
        mem.grow_disks(2, 2, 4); // never shrinks disk 2
        fwd.grow_disks(1, 2, 5);
        let lens = |b: &dyn StorageBackend| (0..4).map(|d| b.blocks_on(d)).collect::<Vec<_>>();
        assert_eq!(lens(&mem), [3, 5, 5, 4]);
        assert_eq!(lens(&fwd), [5; 4], "a forwarding decorator stays rectangular");
        for b in [&mem as &dyn StorageBackend, &fwd] {
            assert_eq!(b.peek(BlockAddr::new(2, 1)), vec![7; 2], "content kept");
            assert_eq!(b.peek(BlockAddr::new(2, 4)), vec![0; 2], "new blocks zeroed");
        }
    }

    #[test]
    fn discard_tail_zeroes_the_range_and_nothing_else() {
        let mut mem = MemBackend::new(4, 2, 3);
        for d in 0..4 {
            for b in 0..3 {
                mem.poke(BlockAddr::new(d, b), &[7; 2]);
            }
        }
        let mut fwd = Forwarding(mem.clone());
        mem.discard_tail(1, 2, 1);
        mem.discard_tail(2, 1, 2); // disk 2 is already shorter: kept
        fwd.discard_tail(1, 2, 1);
        let lens = |b: &dyn StorageBackend| (0..4).map(|d| b.blocks_on(d)).collect::<Vec<_>>();
        assert_eq!(lens(&mem), [3, 1, 1, 3], "the range is given back");
        assert_eq!(lens(&fwd), [3; 4], "the default keeps every length");
        mem.grow_disks(1, 2, 3);
        assert_eq!(mem.snapshot(), fwd.snapshot(), "regrown, the range reads as the default left it");
        for d in 0..4 {
            for b in 0..3 {
                let want = if (1..3).contains(&d) && b >= 1 { 0 } else { 7 };
                assert_eq!(mem.peek(BlockAddr::new(d, b)), vec![want; 2], "({d}, {b})");
            }
        }
    }

    #[test]
    fn mem_backend_sync_is_a_noop_barrier() {
        let mut b = MemBackend::new(1, 2, 1);
        let t = b.flush_begin();
        b.flush_join(t);
        b.sync();
    }

    #[test]
    fn backend_error_displays_typed_detail() {
        let e = BackendError::misconfigured(3, "block size changed");
        assert_eq!(e.kind, IoFaultKind::Misconfigured);
        let msg = e.to_string();
        assert!(msg.contains("disk 3"), "{msg}");
        assert!(msg.contains("block size changed"), "{msg}");
    }
}

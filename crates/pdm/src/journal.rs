//! Write-ahead intent journal: crash-consistent multi-block commits.
//!
//! The PDM write primitive is block-atomic (a physical block write either
//! lands fully or not at all — torn writes are a separate, checksummed
//! fault), but every interesting mutation in this workspace writes
//! *several* blocks: a `DynamicDict` insert touches membership **and**
//! field blocks, a `BatchExecutor` commit flushes a whole staged set, a
//! scrub repair re-encodes a stripe. A crash between the first and last
//! write of such a group leaves the image in a state no decoder is
//! specified for. The journal closes that gap with a classic redo
//! (intent) log, striped across the disks and checksummed through the
//! same [`BlockCodec`](crate::integrity::BlockCodec) seam as the
//! integrity layer.
//!
//! ## What an intent holds
//!
//! An update changes a few words of each block it writes — Theorem 7's
//! insert puts `m = ⌈2d/3⌉` small fields and one membership slot into 15
//! blocks, about 40 words in all — so an intent records **what changed,
//! not the block**: per target a header `(disk, block, run count)`, the
//! checksum of the target's *new* image, and the runs of words in which the
//! new image differs from the pre-image the writer read in the same
//! operation, each `(offset, len, words…)`. The diff is taken here, at
//! [`DiskArray::journaled_delta_batch_checked`], from what the writer
//! hands in beside the new image (a [`Delta`]): the pre-image itself, from
//! a writer that still holds its probe, or, from the batch engine, which
//! patches blocks where they lie and keeps no second copy, the word ranges
//! it patched. A writer with neither (a scrub repair, whose target
//! is damaged by definition; a bulk build) gets one run covering the whole
//! block — the same entry layout, the same append, the same replay. Words
//! are absolute values, never XORs or increments.
//!
//! 1. **Append**: the intent — descriptor head `(seq, counts, the owner's
//!    opaque metadata)` followed by the packed target stream, spilling into
//!    continuation blocks when one block is too small — is written to
//!    consecutive ring slots, **head last**. Physical writes land in batch
//!    slice order, so the head — the single atomicity point — exists on
//!    disk only if every continuation before it landed. A single-key
//!    insert's intent is one slot at `B = 128` and two at `B = 64`, where
//!    whole images took 16.
//! 2. **Apply**: the new images are written in place.
//! 3. **Truncate**: a superblock recording the highest applied seq (plus
//!    the owner's metadata checkpoint) is rewritten *lazily*, every
//!    [`GROUP_COMMIT_EVERY`] ops or under ring pressure — the group
//!    commit that keeps the journal's amortized cost at one parallel I/O
//!    per op.
//!
//! ## Replay
//!
//! [`DiskArray::recover`] is the other half: scan the ring, discard
//! intents that are stale (seq ≤ superblock) or incomplete (missing head,
//! a continuation that fails its seal), read the targets of the intact
//! newer ones, **patch** the runs into them in seq order, and write the
//! results back. Two assumptions carry it, both the model's own:
//!
//! * *Block atomicity.* A target found at recovery is in one of the states
//!   the operations wrote: its pre-image, or the image after any prefix of
//!   the un-truncated intents that name it. Patching absolute words over
//!   any of these, in seq order, ends at the image after the *last* intent
//!   — so replay is idempotent, recovering twice converges, and an intent
//!   whose in-place writes had already landed replays to the same state.
//!   The recorded checksum of each target's final image checks the
//!   assumption mechanically; a target that misses it is counted in
//!   [`RecoveryReport::mismatched`].
//! * *A damaged target is not patched.* Whole images used to repair a torn
//!   or rotted target as a side effect; a delta cannot (patching words
//!   into a block that reads unhealthy would reseal the damage as good
//!   data). Such an intent is reported [`stalled`](RecoveryReport::stalled)
//!   and stays in the ring until a scrub has repaired the block — unless
//!   its run for that target covers the whole block, which still repairs.
//!
//! An op is therefore atomic under any crash point: before its head lands
//! it rolls back (no in-place write has happened, in-flight journal slots
//! are garbage), after it lands it rolls forward.
//!
//! The journal is **opt-in** (`None` costs one branch per write batch)
//! and its placement is the caller's job: allocate
//! [`JournalRegion::rows`] blocks on *every* disk through the same
//! allocator that lays out the dictionaries — before any dictionary
//! structures for growing fronts, or appended past the high-water mark
//! via [`DiskArray::enable_journal_appended`] for frozen layouts.
//!
//! While a journal is enabled, **every** mutation of journal-protected
//! structures must route through
//! [`DiskArray::journaled_delta_batch_checked`] (or its pre-image-less
//! form [`DiskArray::journaled_write_batch_checked`]) or, writing one block,
//! [`DiskArray::write_block_atomic`], which truncates every live intent
//! first: an in-place change the journal never saw can lie *between* two
//! states an intent's delta was taken across, and replay would then rebuild
//! neither.

use crate::blocks::BlockView;
use crate::disk::{BlockAddr, DiskArray, ReadOptions, WriteOptions};
use crate::integrity::BlockHealth;
use crate::metrics::IoEvent;
use crate::stats::OpCost;
use crate::Word;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// `"PDMJSUP1"` — superblock magic (the format version is the word after).
const SUPER_MAGIC: Word = 0x5044_4D4A_5355_5031;
/// `"PDMJHED2"` — intent-head magic.
const HEAD_MAGIC: Word = 0x5044_4D4A_4845_4432;
/// `"PDMJCON2"` — intent-continuation magic.
const CONT_MAGIC: Word = 0x5044_4D4A_434F_4E32;
/// On-disk format version recorded in the superblock — the one format
/// stamp a served shard has, so it also covers what the ring protects.
/// Version 1 logged whole block images; version 2 logs word runs; version
/// 3 is version 2 over `pdm-dict`'s exact-width chain fields; version 4 is
/// version 3 where a record that fits its membership slot is stored there
/// (no retrieval level laid out), so a version-3 image of such a shape is
/// refused, never decoded inline; version 5 spreads an inline membership's
/// stripe `i` over disks `i` and `i + d`, so a version-4 image is refused.
const VERSION: Word = 5;

/// Stream words one target costs before its runs: the packed
/// `(disk, runs, block)` header and the checksum of the new image.
pub const TARGET_WORDS: usize = 2;
/// Stream words one run costs before its payload: the packed
/// `(offset, len)` header.
pub const RUN_WORDS: usize = 1;

/// What a journaled writer knows about the block a new image replaces —
/// what the intent's runs are taken from.
#[derive(Debug, Clone, Copy)]
pub enum Delta<'a> {
    /// Nothing (the block was never read, or read damaged): the intent
    /// holds the whole block.
    Whole,
    /// The block as the writer read it in this operation, which must still
    /// be what the medium holds: the intent holds the words that differ.
    Base(&'a [Word]),
    /// The word ranges the writer changed since it read the block, sorted
    /// by start (they may touch or overlap); every word outside them must
    /// still be what the medium holds. The intent holds those words.
    Words(&'a [Range<usize>]),
}

/// Superblock rewrites are amortized over this many journaled ops (the
/// group-commit factor). Recovery replays at most this many extra
/// already-applied intents — harmless, because replay is idempotent.
pub const GROUP_COMMIT_EVERY: u64 = 8;

/// Placement of the journal ring: `rows` blocks on **every** disk,
/// starting at block `first_block`. Slot `g` of the ring lives at disk
/// `g mod D`, block `first_block + g / D` — consecutive slots land on
/// consecutive disks, so appending a `k`-slot entry costs `ceil(k/D)`
/// parallel I/Os (one, for every op the paper's structures perform).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRegion {
    /// First block index of the ring on every disk.
    pub first_block: usize,
    /// Blocks per disk reserved for the ring.
    pub rows: usize,
}

impl JournalRegion {
    /// Total ring slots (superblock included).
    #[must_use]
    pub fn slots(&self, disks: usize) -> usize {
        self.rows * disks
    }

    /// Address of global ring slot `g` (slot 0 is the superblock).
    #[must_use]
    pub fn slot_addr(&self, g: usize, disks: usize) -> BlockAddr {
        BlockAddr::new(g % disks, self.first_block + g / disks)
    }
}

/// One intact intent replayed by [`DiskArray::recover`], in the order it
/// was applied. Dictionaries use the `meta` payload (opaque to the disk
/// layer) to reconcile their in-memory counters with the replay — see
/// `Dict::recover` in `pdm-dict`.
#[derive(Debug, Clone)]
pub struct ReplayedIntent {
    /// The entry's journal sequence number (also its op id).
    pub seq: u64,
    /// The opaque metadata words the appender recorded with the intent.
    pub meta: Vec<Word>,
    /// The in-place blocks the replay patched.
    pub targets: Vec<BlockAddr>,
}

/// Outcome of a [`DiskArray::recover`] pass.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Ring slots scanned (0 when no journal is enabled).
    pub scanned_slots: u64,
    /// Intact intents replayed, oldest first.
    pub replayed: Vec<ReplayedIntent>,
    /// Intents discarded: stale (already truncated), incomplete (a block
    /// of the entry missing or failing its seal — the crash hit
    /// mid-append, the op rolls back), or naming blocks outside the
    /// current geometry.
    pub discarded: u64,
    /// Intents that could not be fully replayed: a target read unhealthy
    /// (and the intent holds only part of it), or its in-place write
    /// failed (e.g. a still-dead disk). They stay in the ring; a later
    /// `recover` after the hardware is replaced or the block repaired
    /// retries them.
    pub stalled: u64,
    /// In-place blocks written back by the replay, each once however many
    /// intents patched it.
    pub blocks_rewritten: u64,
    /// Patched targets whose final image does not match the checksum the
    /// last intent naming them recorded: the block was in none of the
    /// states the deltas were taken across (see the module docs). Zero
    /// whenever block atomicity held.
    pub mismatched: u64,
    /// I/O charged for the scan plus the replay.
    pub cost: OpCost,
}

impl RecoveryReport {
    /// Whether the pass found nothing to do (clean shutdown).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.replayed.is_empty() && self.discarded == 0 && self.stalled == 0
    }
}

/// In-memory journal cursor state (`DiskArray::journal`).
#[derive(Debug, Clone)]
pub(crate) struct JournalState {
    region: JournalRegion,
    /// Seq the next appended entry receives (seqs start at 1).
    next_seq: u64,
    /// Data-slot index (0-based, superblock excluded) of the next append.
    next_slot: usize,
    /// Highest seq whose in-place writes have been issued (in memory —
    /// runs ahead of the superblock by up to the group-commit factor).
    applied: u64,
    /// Highest applied seq the on-disk superblock records.
    persisted: u64,
    /// Latest metadata checkpoint supplied by the owner
    /// ([`DiskArray::journal_edit_meta`]); persisted with the next
    /// superblock rewrite.
    meta: Vec<Word>,
    /// Entries appended but not yet covered by a persisted truncation:
    /// `(seq, slots)` in append order. Their slots must not be reused.
    live: VecDeque<(u64, usize)>,
    appends_since_persist: u64,
    /// Seq of the most recent append (0 = none since enable/reopen).
    last_seq: u64,
    /// Oversized entries written directly, bypassing the ring.
    bypassed: u64,
    /// Set by `reopen_journal`: cursors are unknown until `recover`
    /// scans the ring.
    needs_scan: bool,
}

impl JournalState {
    fn new(region: JournalRegion, applied: u64, meta: Vec<Word>, needs_scan: bool) -> Self {
        JournalState {
            region,
            next_seq: applied + 1,
            next_slot: 0,
            applied,
            persisted: applied,
            meta,
            live: VecDeque::new(),
            appends_since_persist: 0,
            last_seq: 0,
            bypassed: 0,
            needs_scan,
        }
    }

    fn live_slots(&self) -> usize {
        self.live.iter().map(|&(_, n)| n).sum()
    }
}

/// Seal a journal block in place: its last word becomes the codec checksum
/// of the words before it (salted by `addr`).
fn seal(disks: &DiskArray, addr: BlockAddr, block: &mut [Word]) {
    let (body, sum) = block.split_at_mut(disks.block_words() - 1);
    sum[0] = disks.block_codec().checksum(addr, body);
}

/// Verify a sealed journal block; `false` for garbage.
fn seal_ok(disks: &DiskArray, addr: BlockAddr, block: &[Word]) -> bool {
    let b = disks.block_words();
    block.len() == b && disks.block_codec().checksum(addr, &block[..b - 1]) == block[b - 1]
}

/// Stream words an intent's head block holds beside `m` metadata words
/// (magic, seq, counts and the seal take four).
fn head_words(block_words: usize, m: usize) -> usize {
    block_words.saturating_sub(4 + m)
}

/// Stream words a continuation block holds.
fn cont_words(block_words: usize) -> usize {
    block_words - 4
}

/// Ring slots an intent of `stream` delta words and `meta_len` metadata
/// words occupies: continuations, then the head.
fn intent_slots(block_words: usize, stream: usize, meta_len: usize) -> usize {
    1 + stream
        .saturating_sub(head_words(block_words, meta_len))
        .div_ceil(cont_words(block_words))
}

/// Targets and continuations are counted in 24 bits each.
const COUNT_MAX: usize = 0xFF_FFFF;

fn pack_counts(k: usize, conts: usize, meta_len: usize) -> Word {
    debug_assert!(k <= COUNT_MAX && conts <= COUNT_MAX && meta_len <= 0xFFFF);
    (k as Word) | ((conts as Word) << 24) | ((meta_len as Word) << 48)
}

fn unpack_counts(w: Word) -> (usize, usize, usize) {
    (
        (w & 0xFF_FFFF) as usize,
        ((w >> 24) & 0xFF_FFFF) as usize,
        (w >> 48) as usize,
    )
}

fn pack_run(offset: usize, len: usize) -> Word {
    offset as Word | (len as Word) << 32
}

fn unpack_run(run: Word) -> (usize, usize) {
    ((run & 0xFFFF_FFFF) as usize, (run >> 32) as usize)
}

/// The runs of words in which `new` differs from `old`, as `start..end`.
/// Two runs closer than two equal words are one: an unchanged word costs
/// a run what a header costs the stream.
pub fn diff_runs(new: &[Word], old: &[Word], mut run: impl FnMut(Range<usize>)) {
    assert_eq!(new.len(), old.len(), "a pre-image is a full block");
    let b = new.len();
    let mut i = 0;
    while i < b {
        if new[i] == old[i] {
            i += 1;
            continue;
        }
        let mut end = i + 1;
        while end < b {
            if new[end] != old[end] {
                end += 1;
            } else if end + 1 < b && new[end + 1] != old[end + 1] {
                end += 2;
            } else {
                break;
            }
        }
        run(i..end);
        i = end;
    }
}

/// Append `addr`'s target record to `stream`: header, the checksum `sum`
/// of the new image `new`, and the runs of `new` that `delta` says
/// changed. When there is nothing to take them from — or they would
/// outgrow it — one run covers the block.
fn encode_target(
    stream: &mut Vec<Word>,
    addr: BlockAddr,
    sum: Word,
    new: &[Word],
    delta: Delta<'_>,
) {
    let b = new.len();
    let at = stream.len();
    stream.extend([0, sum]);
    let mut runs = 0;
    let mut run = |words: Range<usize>| {
        stream.push(pack_run(words.start, words.len()));
        stream.extend_from_slice(&new[words]);
        runs += 1;
    };
    match delta {
        Delta::Whole => {}
        Delta::Base(base) => diff_runs(new, base, run),
        Delta::Words(ranges) => {
            // Ranges that touch, overlap or leave one word between them
            // are one run.
            let mut open: Option<Range<usize>> = None;
            for next in ranges {
                match &mut open {
                    Some(cur) if next.start <= cur.end + 1 => {
                        debug_assert!(next.start >= cur.start, "ranges sorted by start");
                        cur.end = cur.end.max(next.end);
                    }
                    _ => {
                        open.replace(next.clone()).map(&mut run);
                    }
                }
            }
            open.map(&mut run);
        }
    }
    if matches!(delta, Delta::Whole) || stream.len() - at > TARGET_WORDS + RUN_WORDS + b {
        stream.truncate(at + TARGET_WORDS);
        stream.push(pack_run(0, b));
        stream.extend_from_slice(new);
        runs = 1;
    }
    debug_assert!(addr.disk <= 0xFFFF && runs <= 0xFFFF && addr.block <= 0xFFFF_FFFF);
    stream[at] = addr.disk as Word | (runs as Word) << 16 | (addr.block as Word) << 32;
}

/// One target of a parsed intent: where its runs start in the intent's
/// stream.
#[derive(Debug, Clone, Copy)]
struct TargetRecord {
    addr: BlockAddr,
    /// Checksum of the target's image after this intent.
    sum: Word,
    runs: usize,
    /// Index of the first run header in the stream.
    at: usize,
}

/// A sealed intent found during the ring scan, pending replay.
#[derive(Debug)]
struct Candidate {
    seq: u64,
    slots: usize,
    meta: Vec<Word>,
    stream: Vec<Word>,
    targets: Vec<TargetRecord>,
}

/// Parse the `k` target records of `stream`; `None` if it is malformed
/// (a record running past the stream, a run past the block).
fn parse_stream(stream: &[Word], k: usize, block_words: usize) -> Option<Vec<TargetRecord>> {
    let mut targets = Vec::with_capacity(k);
    let mut at = 0;
    for _ in 0..k {
        let (&head, &sum) = (stream.get(at)?, stream.get(at + 1)?);
        let addr = BlockAddr::new((head & 0xFFFF) as usize, (head >> 32) as usize);
        let runs = ((head >> 16) & 0xFFFF) as usize;
        at += TARGET_WORDS;
        targets.push(TargetRecord {
            addr,
            sum,
            runs,
            at,
        });
        for _ in 0..runs {
            let (offset, len) = unpack_run(*stream.get(at)?);
            if offset + len > block_words || at + RUN_WORDS + len > stream.len() {
                return None;
            }
            at += RUN_WORDS + len;
        }
    }
    Some(targets)
}

impl DiskArray {
    /// Format and enable a write-ahead intent journal over `region`.
    ///
    /// The region's blocks must already exist on every disk (allocate
    /// them through the same allocator that lays out the dictionaries,
    /// **before** any structure that may grow later, so nothing is ever
    /// placed on top of the ring). Writes the initial superblock (one
    /// charged block write).
    ///
    /// # Panics
    /// Panics if the geometry cannot hold a journal (`B < 8`, fewer than
    /// 3 data slots) or the region exceeds the current disk size.
    pub fn enable_journal(&mut self, region: JournalRegion) {
        let b = self.block_words();
        let d = self.disks();
        assert!(b >= 8, "journal needs B >= 8 words (B = {b})");
        assert!(
            region.rows >= 1 && region.slots(d) >= 4,
            "journal region too small: {region:?} on {d} disks"
        );
        for disk in 0..d {
            assert!(
                self.blocks_on(disk) >= region.first_block + region.rows,
                "journal region {region:?} exceeds disk {disk} ({} blocks)",
                self.blocks_on(disk)
            );
        }
        self.journal = Some(JournalState::new(region, 0, Vec::new(), false));
        self.persist_superblock();
    }

    /// [`enable_journal`](DiskArray::enable_journal) for frozen layouts:
    /// grow every disk by `rows` blocks past the current high-water mark
    /// and put the ring there. Only safe when nothing else will allocate
    /// on this array afterwards (static dictionaries, post-build).
    pub fn enable_journal_appended(&mut self, rows: usize) -> JournalRegion {
        let first_block = (0..self.disks())
            .map(|d| self.blocks_on(d))
            .max()
            .unwrap_or(0);
        self.grow(first_block + rows);
        let region = JournalRegion { first_block, rows };
        self.enable_journal(region);
        region
    }

    /// Attach to an existing journal without formatting it: reads the
    /// superblock (one charged read) and adopts its truncation point and
    /// metadata checkpoint. Cursors into the ring stay unknown until
    /// [`recover`](DiskArray::recover) scans it — appending before then
    /// panics. This is the reopen path after a crash.
    ///
    /// # Panics
    /// Panics if the region holds no valid superblock (the array was
    /// never journal-enabled there), or one of another format version —
    /// a ring of whole-image intents cannot be replayed as deltas, and a
    /// shard laid out under wider chain fields cannot be read.
    pub fn reopen_journal(&mut self, region: JournalRegion) {
        let addr = region.slot_addr(0, self.disks());
        let block = self.read_block(addr);
        if let Err(why) = self.superblock_fits(addr, &block) {
            panic!("{why}");
        }
        let meta_len = block[3] as usize;
        let meta = block[4..4 + meta_len].to_vec();
        self.journal = Some(JournalState::new(region, block[2], meta, true));
    }

    /// What [`reopen_journal`](Self::reopen_journal) would refuse at
    /// `region`, read uncharged, so an image can be refused before it opens.
    ///
    /// # Errors
    /// The refusal: no superblock, another format version or a failed seal.
    pub fn check_journal(&self, region: JournalRegion) -> Result<(), String> {
        let addr = region.slot_addr(0, self.disks());
        let held = addr.block < self.blocks_on(addr.disk);
        self.superblock_fits(addr, &if held { self.peek(addr) } else { vec![0; self.block_words()] })
    }

    fn superblock_fits(&self, addr: BlockAddr, block: &[Word]) -> Result<(), String> {
        match block[1] {
            _ if block[0] != SUPER_MAGIC => Err(format!("no journal superblock at {addr:?}")),
            VERSION if seal_ok(self, addr, block) => Ok(()),
            VERSION => Err(format!("journal superblock at {addr:?} fails its checksum")),
            v => Err(format!(
                "journal superblock at {addr:?} has format version {v}, this build reads version {VERSION}: \
                 recover the array with the build that wrote it, then enable a fresh journal"
            )),
        }
    }

    /// Whether a journal is enabled on this array.
    #[must_use]
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// The enabled journal's region, if any.
    #[must_use]
    pub fn journal_region(&self) -> Option<JournalRegion> {
        self.journal.as_ref().map(|j| j.region)
    }

    /// Seq assigned to the most recent journaled write (0 if none since
    /// enable/reopen). Dictionaries record this as their replay
    /// watermark.
    #[must_use]
    pub fn last_journal_seq(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.last_seq)
    }

    /// Oversized entries that bypassed the ring (written in place,
    /// unprotected) because they needed more slots than the whole ring
    /// holds. Size the region, or split the commit by
    /// [`journal_intent_capacity`](DiskArray::journal_intent_capacity), so
    /// this stays 0.
    #[must_use]
    pub fn journal_bypassed(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.bypassed)
    }

    /// The most **delta words** one intent carrying `meta_len` metadata
    /// words can hold and still fit the ring (`usize::MAX` without a
    /// journal): [`TARGET_WORDS`] per block written, and per run of changed
    /// words [`RUN_WORDS`] plus the run — never more than a whole block's
    /// `TARGET_WORDS + RUN_WORDS + B`, however much changed. A larger batch
    /// bypasses the journal ([`journal_bypassed`](DiskArray::journal_bypassed));
    /// a writer that must not — a batched insert, global rebuilding's
    /// migration step — bounds what it has staged and splits its commit at
    /// this size instead.
    #[must_use]
    pub fn journal_intent_capacity(&self, meta_len: usize) -> usize {
        let Some(j) = &self.journal else {
            return usize::MAX;
        };
        let b = self.block_words();
        let conts = (j.region.slots(self.disks()) - 2).min(COUNT_MAX);
        head_words(b, meta_len) + conts * cont_words(b)
    }

    /// The metadata checkpoint currently associated with the journal
    /// (as the owner last left it through
    /// [`journal_edit_meta`](DiskArray::journal_edit_meta) /
    /// [`journal_checkpoint`](DiskArray::journal_checkpoint), or after
    /// [`reopen_journal`](DiskArray::reopen_journal) the superblock's);
    /// empty without a journal.
    #[must_use]
    pub fn journal_meta(&self) -> &[Word] {
        self.journal.as_ref().map_or(&[], |j| &j.meta)
    }

    /// Edit the owner's metadata checkpoint in place (no I/O; a no-op
    /// without a journal). The words are persisted together with the
    /// applied-seq watermark at the next superblock rewrite, so the pair
    /// `(checkpoint, applied seq)` on disk is always mutually consistent:
    /// the checkpoint reflects exactly the ops up to that seq, and newer
    /// intents still in the ring carry the deltas on top. Call it after
    /// every journaled op.
    ///
    /// # Panics
    /// Panics if the edited checkpoint does not fit the superblock
    /// (`B - 5` words).
    pub fn journal_edit_meta(&mut self, edit: impl FnOnce(&mut Vec<Word>)) {
        let cap = self.block_words() - 5;
        if let Some(j) = self.journal.as_mut() {
            edit(&mut j.meta);
            assert!(
                j.meta.len() <= cap,
                "journal meta of {} words exceeds the superblock capacity {cap}",
                j.meta.len()
            );
        }
    }

    /// Persist `meta` as the metadata checkpoint and truncate the journal
    /// **now** (one charged superblock write): every intent up to the
    /// current applied seq stops being replayable. Called by
    /// `Dict::recover` implementations once their in-memory state reflects
    /// the replay.
    pub fn journal_checkpoint(&mut self, meta: &[Word]) {
        self.journal_edit_meta(|m| {
            m.clear();
            m.extend_from_slice(meta);
        });
        self.journal_truncate();
    }

    /// Truncate the journal **now** under the checkpoint as it stands (one
    /// charged superblock write; a no-op without a journal). A writer
    /// whose in-place write failed calls this before reporting the
    /// failure, so the intent of an op the caller was told failed can
    /// never replay.
    pub fn journal_truncate(&mut self) {
        if self.journal.is_some() {
            self.persist_superblock();
        }
    }

    /// Rewrite the superblock with the current applied seq + metadata
    /// checkpoint, truncating every applied entry.
    fn persist_superblock(&mut self) {
        let Some(j) = &self.journal else {
            return;
        };
        let addr = j.region.slot_addr(0, self.disks());
        let mut image = vec![0; self.block_words()];
        image[..4].copy_from_slice(&[SUPER_MAGIC, VERSION, j.applied, j.meta.len() as Word]);
        image[4..4 + j.meta.len()].copy_from_slice(&j.meta);
        seal(self, addr, &mut image);
        self.write(&[(addr, &image)], WriteOptions::checked());
        let j = self.journal.as_mut().expect("journal enabled");
        j.persisted = j.applied;
        while j.live.front().is_some_and(|&(seq, _)| seq <= j.persisted) {
            j.live.pop_front();
        }
        j.appends_since_persist = 0;
    }

    /// A checked write of **one** block in place with no intent, atomic by
    /// the model. While the ring holds a live intent the superblock is
    /// persisted first, truncating them all, stalled ones too: an older
    /// delta replayed across the new image would patch its words back. An
    /// owner whose counters the write moves recounts them at recovery.
    ///
    /// # Panics
    /// On a reopened journal not yet recovered.
    pub fn write_block_atomic(&mut self, addr: BlockAddr, image: &[Word]) -> BlockHealth {
        if let Some(j) = self.journal.as_mut() {
            assert!(!j.needs_scan, "journal reopened but not recovered: call recover() first");
            if let Some(&(newest, _)) = j.live.back() {
                j.applied = j.applied.max(newest);
                self.persist_superblock();
            }
        }
        self.write(&[(addr, image)], WriteOptions::checked()).healths[0]
    }

    /// [`journaled_delta_batch_checked`](DiskArray::journaled_delta_batch_checked)
    /// for a writer that holds no pre-image of what it overwrites (a
    /// scrub repair, a bulk build): every target is journaled as one run
    /// covering the block.
    pub fn journaled_write_batch_checked(
        &mut self,
        writes: &[(BlockAddr, &[Word])],
        meta: &[Word],
    ) -> Vec<BlockHealth> {
        self.journaled_delta_batch_checked(writes, &[], meta)
    }

    /// A checked [`write`](DiskArray::write) with crash protection: the
    /// batch is recorded in the journal as one intent entry (the words in
    /// which each new image differs from its pre-image, head block last),
    /// then applied in place, making the whole multi-block group atomic
    /// under any crash point — recovery replays it fully or rolls it back
    /// fully. `meta` is an opaque payload stored in the intent and handed
    /// back by [`recover`](DiskArray::recover) for the owner to reconcile
    /// its in-memory counters.
    ///
    /// Every payload must be a **full** block image. `deltas[i]` says what
    /// the intent's runs for `writes[i]` are taken from (see [`Delta`]; a
    /// `deltas` shorter than `writes` leaves the rest [`Delta::Whole`]).
    /// Without an enabled journal this degrades to a plain checked write.
    /// Entries larger than the whole ring bypass it (counted by
    /// [`journal_bypassed`](DiskArray::journal_bypassed)).
    ///
    /// # Panics
    /// Panics on out-of-range addresses, non-full-block payloads, an
    /// oversized `meta`, or if called after
    /// [`reopen_journal`](DiskArray::reopen_journal) without an
    /// intervening [`recover`](DiskArray::recover).
    pub fn journaled_delta_batch_checked(
        &mut self,
        writes: &[(BlockAddr, &[Word])],
        deltas: &[Delta<'_>],
        meta: &[Word],
    ) -> Vec<BlockHealth> {
        let Some(j) = &self.journal else {
            return self.write(writes, WriteOptions::checked()).healths;
        };
        let b = self.block_words();
        let d = self.disks();
        assert!(
            meta.len() <= 0xFFFF && meta.len() + 4 < b,
            "journal meta too large"
        );
        assert!(
            !j.needs_scan,
            "journal reopened but not recovered: call recover() first"
        );
        let data_slots = j.region.slots(d) - 1;
        let mut stream = Vec::with_capacity(writes.len() * (TARGET_WORDS + RUN_WORDS + 3));
        for (i, &(a, data)) in writes.iter().enumerate() {
            assert_eq!(data.len(), b, "journaled writes require full-block images");
            let sum = self.block_codec().checksum(a, data);
            let delta = deltas.get(i).copied().unwrap_or(Delta::Whole);
            encode_target(&mut stream, a, sum, data, delta);
        }
        let n_slots = intent_slots(b, stream.len(), meta.len());
        if n_slots > data_slots || writes.len() > COUNT_MAX {
            self.journal.as_mut().expect("journal enabled").bypassed += 1;
            return self.write(writes, WriteOptions::checked()).healths;
        }
        // Group commit: persist the (stale-by-design) truncation point
        // BEFORE this op when the schedule or ring pressure calls for
        // it, so the superblock never pairs a newer applied seq with an
        // older metadata checkpoint.
        if j.appends_since_persist >= GROUP_COMMIT_EVERY || j.live_slots() + n_slots > data_slots {
            self.persist_superblock();
        }
        let j = self.journal.as_ref().expect("journal enabled");
        let (seq, first_slot, region) = (j.next_seq, j.next_slot, j.region);
        // The entry: continuations in stream order, then the head, which
        // holds the stream's first words.
        let conts = n_slots - 1;
        let slot_addr = |i: usize| region.slot_addr((first_slot + i) % data_slots + 1, d);
        let mut images = vec![0; n_slots * b];
        let (head_chunk, rest) = stream.split_at(stream.len().min(head_words(b, meta.len())));
        let mut chunks = rest.chunks(cont_words(b));
        for (c, block) in images.chunks_exact_mut(b).enumerate() {
            if c < conts {
                let chunk = chunks.next().expect("one chunk per continuation");
                block[..3].copy_from_slice(&[CONT_MAGIC, seq, c as Word]);
                block[3..3 + chunk.len()].copy_from_slice(chunk);
            } else {
                block[..3].copy_from_slice(&[
                    HEAD_MAGIC,
                    seq,
                    pack_counts(writes.len(), conts, meta.len()),
                ]);
                block[3..3 + meta.len()].copy_from_slice(meta);
                block[3 + meta.len()..][..head_chunk.len()].copy_from_slice(head_chunk);
            }
            seal(self, slot_addr(c), block);
        }
        let refs: Vec<(BlockAddr, &[Word])> = images
            .chunks_exact(b)
            .enumerate()
            .map(|(i, block)| (slot_addr(i), block))
            .collect();
        self.write(&refs, WriteOptions::checked());
        // In-place apply. The intent exists on disk first, so a crash
        // anywhere in here rolls the whole group forward at recovery.
        let healths = self.write(writes, WriteOptions::checked()).healths;
        let j = self.journal.as_mut().expect("journal enabled");
        j.next_seq += 1;
        j.next_slot = (first_slot + n_slots) % data_slots;
        j.applied = seq;
        j.last_seq = seq;
        j.live.push_back((seq, n_slots));
        j.appends_since_persist += 1;
        self.emit_io_event(IoEvent::JournalAppend {
            blocks: n_slots as u64,
            targets: writes.len() as u64,
        });
        healths
    }

    /// The sealed intents of the scanned ring `slots` (read from `addrs`)
    /// that are newer than the truncation point and parse whole, oldest
    /// first; the rest are counted in `report.discarded`. Also returns
    /// the newest sealed head of any age, `(seq, slot)`.
    fn scan_intents(
        &self,
        persisted: u64,
        addrs: &[BlockAddr],
        slots: &impl BlockView,
        report: &mut RecoveryReport,
    ) -> (Vec<Candidate>, Option<(u64, usize)>) {
        let b = self.block_words();
        let data_slots = addrs.len();
        let mut entries = Vec::new();
        let mut newest: Option<(u64, usize)> = None;
        for h in 0..data_slots {
            let block = slots.block(h);
            if block[0] != HEAD_MAGIC || !seal_ok(self, addrs[h], block) {
                continue;
            }
            let seq = block[1];
            if newest.is_none_or(|(s, _)| seq > s) {
                newest = Some((seq, h));
            }
            if seq <= persisted {
                continue; // truncated: already applied and checkpointed
            }
            let (k, conts, meta_len) = unpack_counts(block[2]);
            if conts + 1 > data_slots || 4 + meta_len > b {
                report.discarded += 1;
                continue;
            }
            let mut stream = block[3 + meta_len..b - 1].to_vec();
            let intact = (0..conts).all(|c| {
                let at = (h + data_slots - conts + c) % data_slots;
                let cont = slots.block(at);
                let ok =
                    cont[..3] == [CONT_MAGIC, seq, c as Word] && seal_ok(self, addrs[at], cont);
                stream.extend_from_slice(&cont[3..b - 1]);
                ok
            });
            let targets = parse_stream(&stream, k, b).filter(|targets| {
                // The targets must exist in the current geometry.
                intact
                    && targets.iter().all(|t| {
                        t.addr.disk < self.disks() && t.addr.block < self.blocks_on(t.addr.disk)
                    })
            });
            match targets {
                Some(targets) => entries.push(Candidate {
                    seq,
                    slots: conts + 1,
                    meta: block[3..3 + meta_len].to_vec(),
                    stream,
                    targets,
                }),
                None => report.discarded += 1,
            }
        }
        entries.sort_by_key(|e| e.seq);
        (entries, newest)
    }

    /// Crash recovery: scan the journal ring, discard stale or
    /// incomplete intents, and replay intact ones newer than the
    /// superblock's truncation point: their targets are read in one
    /// batch, the intents' word runs patched into them oldest first
    /// (absolute words, so the redo is idempotent), and every patched
    /// block written back once, in one batch. Also drops the entire
    /// verified-once clean cache — before the targets are read, so the
    /// replay itself trusts nothing verified before the crash, and again
    /// at the end.
    ///
    /// Does **not** truncate: the replayed intents stay replayable until
    /// the owner confirms its in-memory state with
    /// [`journal_checkpoint`](DiskArray::journal_checkpoint), so a crash
    /// *during* recovery just recovers again. Without an enabled journal
    /// this only invalidates the clean cache.
    pub fn recover(&mut self) -> RecoveryReport {
        self.invalidate_verified();
        let Some(j) = &self.journal else {
            return RecoveryReport::default();
        };
        let scope = self.begin_op();
        let d = self.disks();
        let b = self.block_words();
        let (region, persisted) = (j.region, j.persisted);
        let data_slots = region.slots(d) - 1;
        let addrs: Vec<BlockAddr> = (0..data_slots)
            .map(|s| region.slot_addr(s + 1, d))
            .collect();
        // A copy: the scan below needs the array as well.
        let slots = self.read(&addrs, ReadOptions::default()).blocks.into_buf();
        let mut report = RecoveryReport {
            scanned_slots: data_slots as u64 + 1,
            ..RecoveryReport::default()
        };
        let (entries, newest) = self.scan_intents(persisted, &addrs, &slots, &mut report);
        drop(slots);

        // Every distinct target, read once.
        let mut index: HashMap<BlockAddr, usize> = HashMap::new();
        let mut targets: Vec<BlockAddr> = Vec::new();
        for t in entries.iter().flat_map(|e| &e.targets) {
            index.entry(t.addr).or_insert_with(|| {
                targets.push(t.addr);
                targets.len() - 1
            });
        }
        let out = self.read(&targets, ReadOptions::verified());
        // Replay patches the images: they are this pass's own.
        let mut images = out.blocks.into_buf();
        // A target is patchable while its image is what the medium holds:
        // it read healthy, or an earlier intent replaced all of it.
        let mut sound: Vec<bool> = out.healths.iter().map(|h| h.is_ok()).collect();
        let mut matches = vec![true; targets.len()];
        let mut whole: Vec<bool> = vec![true; entries.len()];
        for (e, entry) in entries.iter().enumerate() {
            for t in &entry.targets {
                let i = index[&t.addr];
                let covers_block = t.runs == 1 && entry.stream[t.at] == pack_run(0, b);
                if !sound[i] && !covers_block {
                    whole[e] = false;
                    continue;
                }
                sound[i] = true;
                let image = images.block_mut(i);
                let mut at = t.at;
                for _ in 0..t.runs {
                    let (offset, len) = unpack_run(entry.stream[at]);
                    image[offset..offset + len]
                        .copy_from_slice(&entry.stream[at + RUN_WORDS..][..len]);
                    at += RUN_WORDS + len;
                }
                matches[i] = self.block_codec().checksum(t.addr, image) == t.sum;
            }
        }
        let patched: Vec<usize> = (0..targets.len()).filter(|&i| sound[i]).collect();
        let writes: Vec<(BlockAddr, &[Word])> = patched
            .iter()
            .map(|&i| (targets[i], images.block(i)))
            .collect();
        let healths = self.write(&writes, WriteOptions::checked()).healths;
        let mut landed = vec![false; targets.len()];
        for (&i, h) in patched.iter().zip(&healths) {
            landed[i] = h.is_ok();
            report.blocks_rewritten += u64::from(h.is_ok());
            report.mismatched += u64::from(!matches[i]);
        }

        let j = self.journal.as_mut().expect("journal enabled");
        j.live.clear();
        let mut clean_prefix = true;
        for (entry, whole) in entries.into_iter().zip(whole) {
            j.live.push_back((entry.seq, entry.slots));
            if whole && entry.targets.iter().all(|t| landed[index[&t.addr]]) {
                if clean_prefix {
                    j.applied = entry.seq;
                }
                report.replayed.push(ReplayedIntent {
                    seq: entry.seq,
                    meta: entry.meta,
                    targets: entry.targets.iter().map(|t| t.addr).collect(),
                });
            } else {
                report.stalled += 1;
                clean_prefix = false;
            }
        }
        // Reconstruct the cursors past everything the ring has seen —
        // including stale or discarded heads, whose seqs must never be
        // reissued.
        if let Some((max_seq, h)) = newest {
            j.next_seq = j.next_seq.max(max_seq + 1);
            j.next_slot = (h + 1) % data_slots;
        }
        j.next_seq = j.next_seq.max(j.applied + 1);
        j.needs_scan = false;
        // Last, so even blocks the replay itself verified are distrusted:
        // nothing observed before this point may skip re-verification.
        self.invalidate_verified();
        report.cost = self.end_op(scope);
        self.emit_io_event(IoEvent::Recovery {
            replayed: report.replayed.len() as u64,
            discarded: report.discarded,
            blocks_rewritten: report.blocks_rewritten,
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;
    use crate::fault::FaultPlan;
    use proptest::prelude::*;

    const B: usize = 16;

    fn array() -> DiskArray {
        // 4 disks × 16-word blocks; 8 data blocks + journal rows.
        let mut disks = DiskArray::new(PdmConfig::new(4, B), 12);
        disks.enable_journal(JournalRegion {
            first_block: 8,
            rows: 4,
        });
        disks
    }

    fn img(tag: Word) -> Vec<Word> {
        (0..B as Word).map(|i| tag * 1000 + i).collect()
    }

    fn set_meta(disks: &mut DiskArray, meta: &[Word]) {
        disks.journal_edit_meta(|m| {
            m.clear();
            m.extend_from_slice(meta);
        });
    }

    /// `base` with `words` written at `offset`.
    fn patched(base: &[Word], offset: usize, words: &[Word]) -> Vec<Word> {
        let mut image = base.to_vec();
        image[offset..offset + words.len()].copy_from_slice(words);
        image
    }

    /// Ring slots the next intent over `writes` would take (on a clone).
    fn slots_of(
        disks: &DiskArray,
        writes: &[(BlockAddr, &[Word])],
        deltas: &[Delta<'_>],
        meta: &[Word],
    ) -> u64 {
        let mut trial = disks.clone();
        trial.clear_fault_plan();
        let before = trial.stats().block_writes;
        trial.journaled_delta_batch_checked(writes, deltas, meta);
        trial.stats().block_writes - before - writes.len() as u64
    }

    #[test]
    fn journaled_write_lands_and_reads_back() {
        let mut disks = array();
        let a = BlockAddr::new(1, 2);
        let data = img(7);
        let healths = disks.journaled_write_batch_checked(&[(a, &data)], &[42]);
        assert!(healths.iter().all(|h| h.is_ok()));
        assert_eq!(disks.read_block(a), data);
        assert_eq!(disks.last_journal_seq(), 1);
        assert_eq!(disks.journal_bypassed(), 0);
    }

    #[test]
    fn recover_on_clean_array_is_a_noop() {
        let mut disks = array();
        let a = BlockAddr::new(0, 0);
        disks.journaled_write_batch_checked(&[(a, &img(1))], &[]);
        // The entry is applied but not yet truncated, so it replays
        // (idempotent: same image).
        let report = disks.recover();
        assert_eq!(report.replayed.len(), 1);
        assert_eq!((report.discarded, report.mismatched), (0, 0));
        assert_eq!(disks.read_block(a), img(1));
        // Checkpoint truncates; the next recovery is clean.
        disks.journal_checkpoint(&[9, 9]);
        let report = disks.recover();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn a_small_change_costs_one_slot_whatever_the_block_holds() {
        // Two words changed in each of three blocks: 3 × (2 + 1 + 2) = 15
        // delta words do not fit the 12 a 16-word head holds; two of the
        // blocks do.
        let mut disks = array();
        let addrs = [
            BlockAddr::new(0, 1),
            BlockAddr::new(1, 1),
            BlockAddr::new(2, 1),
        ];
        for &a in &addrs {
            disks.write_block(a, &img(3));
        }
        let new: Vec<Vec<Word>> = (0..3).map(|i| patched(&img(3), 4 + i, &[7, 8])).collect();
        let writes: Vec<(BlockAddr, &[Word])> = addrs
            .iter()
            .zip(&new)
            .map(|(&a, v)| (a, v.as_slice()))
            .collect();
        let base = img(3);
        let bases = vec![Delta::Base(&base); 3];
        assert_eq!(
            slots_of(&disks, &writes, &bases, &[1]),
            2,
            "15 delta words + 1 of meta"
        );
        assert_eq!(slots_of(&disks, &writes, &bases, &[]), 2);
        assert_eq!(
            slots_of(&disks, &writes[..2], &bases, &[]),
            1,
            "10 delta words: head only"
        );
        assert_eq!(
            slots_of(&disks, &writes, &[], &[]),
            5,
            "whole blocks without pre-images"
        );
        // An unchanged target is still named (and written), with no run.
        let same = [(addrs[0], base.as_slice())];
        assert_eq!(slots_of(&disks, &same, &bases[..1], &[]), 1);
        disks.journaled_delta_batch_checked(&writes, &bases, &[1]);
        let report = disks.recover();
        assert_eq!(report.replayed[0].targets, addrs);
        assert_eq!((report.blocks_rewritten, report.mismatched), (3, 0));
        for (a, v) in addrs.iter().zip(&new) {
            assert_eq!(&disks.read_block(*a), v);
        }
    }

    #[test]
    fn runs_merge_across_one_unchanged_word_and_fall_back_to_the_block() {
        let base = img(1);
        let a = BlockAddr::new(0, 0);
        let mut stream = Vec::new();
        // Words 2, 4 and 7 change: 2 and 4 are one run (one unchanged word
        // between them), 7 its own.
        let mut new = base.clone();
        for i in [2, 4, 7] {
            new[i] = 99;
        }
        encode_target(&mut stream, a, 5, &new, Delta::Base(&base));
        assert_eq!(
            stream.len(),
            TARGET_WORDS + (RUN_WORDS + 3) + (RUN_WORDS + 1)
        );
        assert_eq!(stream[2], pack_run(2, 3));
        assert_eq!(stream[6], pack_run(7, 1));
        let targets = parse_stream(&stream, 1, B).unwrap();
        assert_eq!(
            (targets[0].addr, targets[0].sum, targets[0].runs),
            (a, 5, 2)
        );
        // Every other word changed: eight runs would cost as much as the
        // block, so would their merge; all of it changed costs the block.
        stream.clear();
        encode_target(&mut stream, a, 5, &img(2), Delta::Base(&base));
        assert_eq!(stream.len(), TARGET_WORDS + RUN_WORDS + B);
        assert_eq!(stream[2], pack_run(0, B));
        // A truncated stream does not parse.
        assert!(parse_stream(&stream[..stream.len() - 1], 1, B).is_none());
        assert!(parse_stream(&stream, 2, B).is_none());
    }

    #[test]
    fn crash_before_descriptor_rolls_back() {
        let mut disks = array();
        let a = BlockAddr::new(2, 3);
        disks.write_block(a, &img(1));
        disks.journal_checkpoint(&[]);
        // Two whole-block targets: continuations, then the head. Crash
        // after 1 write: only the first continuation lands.
        let b2 = BlockAddr::new(3, 4);
        let (new_a, new_b) = (img(2), img(3));
        let writes = [(a, new_a.as_slice()), (b2, new_b.as_slice())];
        assert!(slots_of(&disks, &writes, &[], &[]) > 1);
        disks.set_fault_plan(FaultPlan::new().crash_after(1));
        disks.journaled_write_batch_checked(&writes, &[]);
        assert!(disks.crash_fired());
        disks.clear_fault_plan();
        let report = disks.recover();
        assert!(report.replayed.is_empty(), "{report:?}");
        assert_eq!(disks.read_block(a), img(1), "in-place state untouched");
    }

    /// Crash coverage (c): a write with no pre-image — a scrub repair, a
    /// bulk build — is journaled as whole-block runs and replays.
    #[test]
    fn crash_after_descriptor_rolls_forward() {
        let mut disks = array();
        let a = BlockAddr::new(2, 3);
        let b2 = BlockAddr::new(3, 4);
        disks.write_block(a, &img(1));
        disks.journal_checkpoint(&[]);
        let (new_a, new_b) = (img(2), img(3));
        let writes = [(a, new_a.as_slice()), (b2, new_b.as_slice())];
        // Every journal slot lands; both in-place writes are lost.
        let slots = slots_of(&disks, &writes, &[], &[5]);
        disks.set_fault_plan(FaultPlan::new().crash_after(slots));
        disks.journaled_write_batch_checked(&writes, &[5]);
        disks.clear_fault_plan();
        assert_eq!(disks.read_block(a), img(1), "apply was dropped");
        let report = disks.recover();
        assert_eq!(report.replayed.len(), 1);
        assert_eq!(report.replayed[0].meta, vec![5]);
        assert_eq!((report.blocks_rewritten, report.mismatched), (2, 0));
        assert_eq!(disks.read_block(a), img(2));
        assert_eq!(disks.read_block(b2), img(3));
    }

    #[test]
    fn every_crash_point_is_all_or_nothing() {
        // The miniature exhaustive crash matrix at the disk layer, over
        // deltas: three words change in each of three blocks.
        let targets = [
            BlockAddr::new(0, 1),
            BlockAddr::new(0, 2),
            BlockAddr::new(1, 5),
        ];
        let old = img(100);
        let new: Vec<Vec<Word>> = (0..3).map(|i| patched(&old, 3 * i, &[1, 2, 3])).collect();
        let writes: Vec<(BlockAddr, &[Word])> = targets
            .iter()
            .zip(&new)
            .map(|(&a, v)| (a, v.as_slice()))
            .collect();
        let bases = vec![Delta::Base(&old); 3];
        let mut slots = 0;
        for k in 0..=8u64 {
            let mut disks = array();
            for &t in &targets {
                disks.write_block(t, &old);
            }
            disks.journal_checkpoint(&[]);
            slots = slots_of(&disks, &writes, &bases, &[k]);
            disks.set_fault_plan(FaultPlan::new().crash_after(k));
            disks.journaled_delta_batch_checked(&writes, &bases, &[k]);
            disks.clear_fault_plan();
            let report = disks.recover();
            let committed = report.replayed.iter().any(|e| e.meta == vec![k]);
            for (i, &t) in targets.iter().enumerate() {
                let got = disks.read_block(t);
                if committed {
                    assert_eq!(got, new[i], "crash at {k}: partial commit");
                } else {
                    assert_eq!(got, old, "crash at {k}: partial rollback");
                }
            }
            // The head is the last slot written: once it landed, the op
            // must roll forward.
            assert_eq!(committed, k >= slots, "crash at {k}");
            assert_eq!(report.mismatched, 0, "crash at {k}");
        }
        assert_eq!(slots, 2, "18 delta words: one continuation and the head");
    }

    /// Crash coverage (a), at the disk layer: two un-truncated intents
    /// patch overlapping words of one block. Whatever write of the second
    /// the crash cuts, recovering (twice) ends at the second's image or at
    /// the first's — never at a blend.
    #[test]
    fn two_live_intents_over_one_block_replay_in_order() {
        let x = BlockAddr::new(1, 1);
        let y = BlockAddr::new(2, 6);
        let v0 = img(4);
        let v1 = patched(&v0, 2, &[11, 12, 13]);
        let v2 = patched(&v1, 3, &[21, 22, 23, 24]);
        let y1 = patched(&v0, 0, &[9]);
        let mut disks0 = array();
        disks0.write_block(x, &v0);
        disks0.write_block(y, &v0);
        disks0.journal_checkpoint(&[]);
        disks0.journaled_delta_batch_checked(&[(x, &v1)], &[Delta::Base(&v0)], &[1]);
        let second = [(x, v2.as_slice()), (y, y1.as_slice())];
        let bases = [Delta::Base(&v1), Delta::Base(&v0)];
        let slots = slots_of(&disks0, &second, &bases, &[2]);
        for k in 0..=slots + 2 {
            let mut disks = disks0.clone();
            disks.set_fault_plan(FaultPlan::new().crash_after(k));
            disks.journaled_delta_batch_checked(&second, &bases, &[2]);
            disks.clear_fault_plan();
            // Reboot: nothing the dead process knew survives.
            let region = disks.journal_region().unwrap();
            disks.reopen_journal(region);
            for pass in 0..2 {
                let report = disks.recover();
                let metas: Vec<Word> = report.replayed.iter().map(|e| e.meta[0]).collect();
                let forward = k >= slots;
                assert_eq!(
                    metas,
                    if forward { vec![1, 2] } else { vec![1] },
                    "crash at {k}"
                );
                assert_eq!((report.stalled, report.mismatched), (0, 0), "crash at {k}");
                let (want_x, want_y) = if forward { (&v2, &y1) } else { (&v1, &v0) };
                assert_eq!(&disks.read_block(x), want_x, "crash at {k}, pass {pass}");
                assert_eq!(&disks.read_block(y), want_y, "crash at {k}, pass {pass}");
            }
        }
    }

    /// Crash coverage (b), at the disk layer: an intent of a head and one
    /// continuation, cut between the two.
    #[test]
    fn a_crash_between_continuation_and_head_rolls_back() {
        let mut disks = array();
        let targets = [
            BlockAddr::new(0, 1),
            BlockAddr::new(1, 1),
            BlockAddr::new(2, 1),
        ];
        let old = img(6);
        for &t in &targets {
            disks.write_block(t, &old);
        }
        disks.journal_checkpoint(&[]);
        let new = patched(&old, 5, &[1, 2]);
        let writes: Vec<(BlockAddr, &[Word])> =
            targets.iter().map(|&t| (t, new.as_slice())).collect();
        let bases = vec![Delta::Base(&old); 3];
        assert_eq!(slots_of(&disks, &writes, &bases, &[]), 2);
        disks.set_fault_plan(FaultPlan::new().crash_after(1));
        disks.journaled_delta_batch_checked(&writes, &bases, &[]);
        disks.clear_fault_plan();
        let report = disks.recover();
        assert!(
            report.replayed.is_empty() && report.discarded == 0,
            "{report:?}"
        );
        for &t in &targets {
            assert_eq!(disks.read_block(t), old);
        }
        // The orphaned continuation's slot is reused by the next intent.
        disks.journaled_delta_batch_checked(&writes, &bases, &[3]);
        let report = disks.recover();
        assert_eq!(report.replayed.len(), 1);
        assert_eq!(disks.read_block(targets[2]), new);
    }

    #[test]
    fn a_target_in_none_of_the_journaled_states_is_counted_not_hidden() {
        let mut disks = array();
        let a = BlockAddr::new(3, 2);
        let v0 = img(8);
        disks.write_block(a, &v0);
        disks.journal_checkpoint(&[]);
        let v1 = patched(&v0, 1, &[5]);
        disks.journaled_delta_batch_checked(&[(a, &v1)], &[Delta::Base(&v0)], &[]);
        // Damage behind the journal's back, outside the journaled words.
        disks.poke(a, &patched(&v1, 9, &[666]));
        let report = disks.recover();
        assert_eq!(
            (report.replayed.len(), report.mismatched),
            (1, 1),
            "{report:?}"
        );
    }

    #[test]
    fn a_damaged_target_stalls_a_delta_and_is_repaired_by_a_whole_block() {
        let mut disks = array();
        let a = BlockAddr::new(0, 4);
        let v0 = img(8);
        disks.write_block(a, &v0);
        disks.enable_integrity();
        disks.journal_checkpoint(&[]);
        let v1 = patched(&v0, 1, &[5]);
        disks.journaled_delta_batch_checked(&[(a, &v1)], &[Delta::Base(&v0)], &[1]);
        disks.set_fault_plan(FaultPlan::new().bit_rot(0, 4, 70));
        disks.clear_fault_plan();
        // Patching a word into a block that fails verification would
        // reseal the damage: the intent stalls and the block stays flagged.
        let report = disks.recover();
        assert_eq!(
            (report.replayed.len(), report.stalled),
            (0, 1),
            "{report:?}"
        );
        assert_eq!(report.blocks_rewritten, 0);
        assert!(!disks.block_health(a).is_ok());
        // A repair journals the whole block; replaying it needs no read.
        disks.journaled_write_batch_checked(&[(a, &v1)], &[2]);
        let report = disks.recover();
        assert_eq!(report.stalled, 0, "{report:?}");
        assert_eq!(disks.read_block(a), v1);
        assert!(disks.block_health(a).is_ok());
    }

    /// A one-block write in place truncates the live intents first (one
    /// superblock write), so no older delta is replayed across it; behind
    /// an empty ring it is the one write.
    #[test]
    fn an_atomic_block_write_truncates_live_intents_first() {
        let mut disks = array();
        let a = BlockAddr::new(1, 1);
        disks.journaled_write_batch_checked(&[(a, &img(4)), (BlockAddr::new(2, 1), &img(6))], &[]);
        let writes = disks.stats().block_writes;
        assert!(disks.write_block_atomic(a, &img(5)).is_ok());
        assert_eq!(disks.stats().block_writes - writes, 2, "the superblock, then the block");
        assert!(disks.write_block_atomic(a, &img(7)).is_ok());
        assert_eq!(disks.stats().block_writes - writes, 3, "then the block alone");
        let region = disks.journal_region().unwrap();
        let mut reopened = disks.clone();
        reopened.reopen_journal(region);
        assert!(reopened.recover().is_clean());
        assert_eq!(reopened.read_block(a), img(7));
    }

    #[test]
    fn reopen_recovers_in_flight_intents() {
        let mut disks = array();
        let a = BlockAddr::new(1, 1);
        disks.journaled_write_batch_checked(&[(a, &img(4))], &[]);
        set_meta(&mut disks, &[11, 22]);
        // Crash with the intent applied but untruncated; a new process
        // reopens from the medium alone.
        let region = disks.journal_region().unwrap();
        let mut reopened = disks.clone();
        reopened.journal = None;
        reopened.reopen_journal(region);
        assert!(
            reopened.journal_meta().is_empty(),
            "unpersisted meta is lost with the process"
        );
        let report = reopened.recover();
        assert_eq!(report.replayed.len(), 1);
        assert_eq!(reopened.read_block(a), img(4));
        // Seqs continue past everything the ring has seen.
        reopened.journaled_write_batch_checked(&[(a, &img(5))], &[]);
        assert_eq!(reopened.last_journal_seq(), 2);
    }

    #[test]
    #[should_panic(expected = "format version 1")]
    fn reopening_a_ring_of_whole_images_names_its_version() {
        let mut disks = array();
        let region = disks.journal_region().unwrap();
        // A version-1 superblock, sealed the way version 1 sealed it.
        let addr = region.slot_addr(0, 4);
        let mut block = vec![0; B];
        block[..4].copy_from_slice(&[SUPER_MAGIC, 1, 0, 0]);
        block[B - 1] = disks.block_codec().checksum(addr, &block);
        disks.poke(addr, &block);
        disks.journal = None;
        disks.reopen_journal(region);
    }

    /// A version-4 ring belongs to a shard whose inline membership kept each
    /// stripe on one disk: it is refused by name, as an error before it is
    /// opened and as a panic if it is opened anyway.
    #[test]
    #[should_panic(expected = "format version 4, this build reads version 5")]
    fn a_version_4_superblock_is_refused_by_name() {
        let mut disks = array();
        let region = disks.journal_region().unwrap();
        assert_eq!(disks.check_journal(region), Ok(()));
        let addr = region.slot_addr(0, 4);
        let mut block = disks.peek(addr);
        block[1] = 4;
        block[B - 1] = disks.block_codec().checksum(addr, &block[..B - 1]);
        disks.poke(addr, &block);
        let why = disks.check_journal(region).unwrap_err();
        assert!(why.contains("format version 4, this build reads version 5"), "{why}");
        disks.journal = None;
        disks.reopen_journal(region);
    }

    #[test]
    fn group_commit_truncates_lazily_and_meta_stays_paired() {
        let mut disks = array();
        let a = BlockAddr::new(0, 3);
        for i in 0..GROUP_COMMIT_EVERY + 2 {
            disks.journaled_write_batch_checked(&[(a, &img(i))], &[]);
            set_meta(&mut disks, &[i]);
        }
        // The superblock was rewritten at some op boundary; reopen sees
        // a checkpoint k paired with applied seq k (entries k+1.. replay).
        let region = disks.journal_region().unwrap();
        let mut reopened = disks.clone();
        reopened.reopen_journal(region);
        let meta = reopened.journal_meta().to_vec();
        let report = reopened.recover();
        let persisted_ops = meta.first().map_or(0, |&m| m + 1);
        let newest_replayed = report.replayed.last().expect("untruncated tail").seq;
        assert_eq!(
            persisted_ops + report.replayed.len() as u64,
            newest_replayed,
            "checkpoint {meta:?} + replayed deltas must reach the newest op"
        );
        assert_eq!(reopened.read_block(a), img(GROUP_COMMIT_EVERY + 1));
    }

    #[test]
    fn ring_wrap_reuses_slots_without_losing_live_entries() {
        let mut disks = array();
        // 4×4 ring = 15 data slots; each whole-block entry takes 2.
        // 40 ops force several wraps and several forced truncations.
        for i in 0..40u64 {
            let a = BlockAddr::new((i % 4) as usize, (i % 8) as usize);
            disks.journaled_write_batch_checked(&[(a, &img(i))], &[i]);
        }
        let report = disks.recover();
        assert!(
            report.replayed.len() <= 8,
            "only the untruncated tail replays"
        );
        assert_eq!(
            disks.read_block(BlockAddr::new(3, 7)),
            img(39),
            "latest images survive replay"
        );
    }

    #[test]
    fn continuation_descriptors_cover_wide_entries() {
        // Nine whole 16-word blocks: 171 delta words, 12 to a slot.
        let mut disks = DiskArray::new(PdmConfig::new(4, B), 16);
        disks.enable_journal(JournalRegion {
            first_block: 8,
            rows: 8,
        });
        let writes: Vec<(BlockAddr, Vec<Word>)> = (0..9)
            .map(|i| (BlockAddr::new(i % 4, i / 4), img(i as Word)))
            .collect();
        let refs: Vec<(BlockAddr, &[Word])> =
            writes.iter().map(|(a, v)| (*a, v.as_slice())).collect();
        let slots = slots_of(&disks, &refs, &[], &[]);
        assert_eq!(slots, 15);
        // Crash right before the head: everything rolls back.
        disks.set_fault_plan(FaultPlan::new().crash_after(slots - 1));
        disks.journaled_write_batch_checked(&refs, &[]);
        disks.clear_fault_plan();
        let report = disks.recover();
        assert!(report.replayed.is_empty(), "{report:?}");
        // Retry with no crash, then verify replay covers all 9 targets.
        disks.journaled_write_batch_checked(&refs, &[7]);
        let report = disks.recover();
        let wide = report.replayed.iter().find(|e| e.meta == vec![7]).unwrap();
        assert_eq!(wide.targets.len(), 9);
        for (a, v) in &writes {
            assert_eq!(&disks.read_block(*a), v);
        }
    }

    #[test]
    fn oversized_entries_bypass_the_ring() {
        let mut disks = DiskArray::new(PdmConfig::new(2, B), 40);
        disks.enable_journal(JournalRegion {
            first_block: 36,
            rows: 2,
        });
        let writes: Vec<(BlockAddr, Vec<Word>)> = (0..30)
            .map(|i| (BlockAddr::new(i % 2, i / 2), img(i as Word)))
            .collect();
        let refs: Vec<(BlockAddr, &[Word])> =
            writes.iter().map(|(a, v)| (*a, v.as_slice())).collect();
        let healths = disks.journaled_write_batch_checked(&refs, &[]);
        assert!(healths.iter().all(|h| h.is_ok()));
        assert_eq!(disks.journal_bypassed(), 1);
        assert_eq!(disks.read_block(BlockAddr::new(0, 0)), img(0));
    }

    #[test]
    fn intent_capacity_is_the_largest_batch_that_stays_in_the_ring() {
        // 8 rows × 2 disks = 15 data slots of 16-word blocks: 12 delta
        // words in the head, 12 per continuation.
        let mut disks = DiskArray::new(PdmConfig::new(2, B), 40);
        assert_eq!(
            disks.journal_intent_capacity(0),
            usize::MAX,
            "no journal, no limit"
        );
        disks.enable_journal(JournalRegion {
            first_block: 32,
            rows: 8,
        });
        assert_eq!(disks.journal_intent_capacity(0), 15 * 12);
        assert_eq!(disks.journal_intent_capacity(2), 15 * 12 - 2);
        // A whole block costs TARGET_WORDS + RUN_WORDS + B = 19 words.
        let cap = disks.journal_intent_capacity(0) / (TARGET_WORDS + RUN_WORDS + B);
        assert_eq!(cap, 9);
        let writes: Vec<(BlockAddr, Vec<Word>)> = (0..cap + 1)
            .map(|i| (BlockAddr::new(i % 2, i / 2), img(i as Word)))
            .collect();
        let refs: Vec<(BlockAddr, &[Word])> =
            writes.iter().map(|(a, v)| (*a, v.as_slice())).collect();
        disks.journaled_write_batch_checked(&refs[..cap], &[]);
        assert_eq!(disks.journal_bypassed(), 0, "a full-capacity intent fits");
        disks.journaled_write_batch_checked(&refs, &[]);
        assert_eq!(disks.journal_bypassed(), 1, "one more block does not");
    }

    #[test]
    fn recover_drops_the_verified_clean_cache() {
        let mut disks = array();
        let a = BlockAddr::new(1, 4);
        disks.write_block(a, &img(3));
        disks.enable_integrity();
        let _ = disks.read(&[a, BlockAddr::new(0, 0)], ReadOptions::verified());
        assert!(disks.verified_clean_blocks() > 0);
        let _ = disks.recover();
        assert_eq!(
            disks.verified_clean_blocks(),
            0,
            "recovery must distrust every pre-crash verification"
        );
    }

    #[test]
    fn journal_overhead_is_about_one_io_per_op() {
        let mut plain = DiskArray::new(PdmConfig::new(8, B), 16);
        let mut journaled = DiskArray::new(PdmConfig::new(8, B), 16);
        journaled.enable_journal_appended(4);
        let base = journaled.stats().parallel_ios;
        for i in 0..32u64 {
            let writes: Vec<(BlockAddr, Vec<Word>)> = (0..3)
                .map(|t| {
                    (
                        BlockAddr::new(((i + t) % 8) as usize, (i % 16) as usize),
                        img(t),
                    )
                })
                .collect();
            let refs: Vec<(BlockAddr, &[Word])> =
                writes.iter().map(|(a, v)| (*a, v.as_slice())).collect();
            plain.write(&refs, WriteOptions::checked());
            journaled.journaled_write_batch_checked(&refs, &[]);
        }
        let plain_ios = plain.stats().parallel_ios;
        let extra = journaled.stats().parallel_ios - base - plain_ios;
        // 32 ops: ~1 I/O per append + ~1/8 amortized superblock.
        assert!(
            extra <= 32 + 32 / GROUP_COMMIT_EVERY + 2,
            "journal overhead too high: {extra} extra parallel I/Os over {plain_ios}"
        );
    }

    /// A 4-disk array of 8 data rows under a ring roomy enough (31 slots)
    /// that seven small intents never force a truncation.
    fn roomy_array() -> DiskArray {
        let mut disks = DiskArray::new(PdmConfig::new(4, B), 16);
        disks.enable_journal(JournalRegion {
            first_block: 8,
            rows: 8,
        });
        disks
    }

    /// Sixteen data blocks of [`roomy_array`], as `(addr, content)`.
    fn data_blocks(disks: &DiskArray) -> Vec<(BlockAddr, Vec<Word>)> {
        (0..16)
            .map(|i| BlockAddr::new(i % 4, i / 4))
            .map(|a| (a, disks.peek(a)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Crash coverage (d): for a random sequence of un-truncated patch
        /// intents, `recover()` of the ring ≡ applying the patches
        /// directly — from the image in which no in-place write landed,
        /// and from the one a crash inside the last operation leaves.
        #[test]
        fn replaying_the_ring_equals_applying_the_patches(
            ops in proptest::collection::vec(
                proptest::collection::vec((0usize..16, 0usize..B, 1usize..6, any::<u64>()), 1..4),
                1..8,
            ),
            cut in 0u64..12,
        ) {
            let mut live = roomy_array();
            for (i, (a, _)) in data_blocks(&live).into_iter().enumerate() {
                live.write_block(a, &img(i as Word));
            }
            live.journal_checkpoint(&[]);
            let pre = data_blocks(&live);
            let mut crashed = live.clone();
            let mut before_last = Vec::new();
            for (n, op) in ops.iter().enumerate() {
                // One intent: each distinct block of the op, patched.
                let mut new: Vec<(BlockAddr, Vec<Word>, Vec<Word>)> = Vec::new();
                for &(block, offset, len, salt) in op {
                    let a = BlockAddr::new(block % 4, block / 4);
                    if !new.iter().any(|(t, ..)| *t == a) {
                        new.push((a, live.peek(a), live.peek(a)));
                    }
                    let image = &mut new.iter_mut().find(|(t, ..)| *t == a).unwrap().1;
                    for (i, w) in image.iter_mut().skip(offset).take(len).enumerate() {
                        // Sometimes the old value: runs split and merge.
                        if (salt >> i) & 3 != 0 {
                            *w = salt.wrapping_add(i as u64);
                        }
                    }
                }
                let writes: Vec<(BlockAddr, &[Word])> =
                    new.iter().map(|(a, image, _)| (*a, image.as_slice())).collect();
                let bases: Vec<Delta<'_>> =
                    new.iter().map(|(_, _, base)| Delta::Base(base)).collect();
                if n + 1 == ops.len() {
                    before_last = data_blocks(&live);
                    crashed = live.clone();
                    crashed.set_fault_plan(FaultPlan::new().crash_after(cut));
                    crashed.journaled_delta_batch_checked(&writes, &bases, &[n as Word]);
                }
                live.journaled_delta_batch_checked(&writes, &bases, &[n as Word]);
            }
            prop_assert_eq!(live.journal_bypassed(), 0);
            let want = data_blocks(&live);

            // No in-place write of any intent landed; every intent did.
            let mut none_applied = live.clone();
            for (a, content) in &pre {
                none_applied.poke(*a, content);
            }
            let report = none_applied.recover();
            prop_assert_eq!(report.replayed.len(), ops.len());
            prop_assert_eq!((report.stalled, report.mismatched), (0, 0));
            prop_assert_eq!(&data_blocks(&none_applied), &want);
            none_applied.recover();
            prop_assert_eq!(&data_blocks(&none_applied), &want, "recovering twice");

            // A crash inside the last operation: forward if its head
            // landed, back to the state before it otherwise.
            crashed.clear_fault_plan();
            let region = crashed.journal_region().unwrap();
            crashed.reopen_journal(region);
            let report = crashed.recover();
            prop_assert_eq!(report.mismatched, 0);
            let forward = report.replayed.len() == ops.len();
            prop_assert!(forward || report.replayed.len() == ops.len() - 1, "{:?}", report);
            prop_assert_eq!(&data_blocks(&crashed), if forward { &want } else { &before_last });
        }
    }
}

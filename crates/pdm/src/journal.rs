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
//! integrity layer:
//!
//! 1. **Append**: the op's new block images are written to consecutive
//!    journal slots, followed by a *descriptor* (op seq, per-target
//!    `(disk, block, checksum)` triples, and a small opaque metadata
//!    payload owned by the calling dictionary), **descriptor last**.
//!    Physical writes land in batch slice order, so the descriptor — the
//!    single atomicity point — exists on disk only if every payload
//!    image before it landed.
//! 2. **Apply**: the same images are written in place.
//! 3. **Truncate**: a superblock recording the highest applied seq (plus
//!    the owner's metadata checkpoint) is rewritten *lazily*, every
//!    [`GROUP_COMMIT_EVERY`] ops or under ring pressure — the group
//!    commit that keeps the journal's amortized cost at one parallel I/O
//!    per op.
//!
//! [`DiskArray::recover`] is the other half: scan the ring, discard
//! descriptors that are stale (seq ≤ superblock) or incomplete (missing
//! descriptor, payload image whose checksum does not match its triple),
//! and **replay** intact newer intents in seq order. Replay rewrites
//! absolute images, so it is idempotent: recovering twice, or recovering
//! an intent whose in-place writes had already landed, converges to the
//! same state. An op is therefore atomic under any crash point: before
//! its descriptor lands it rolls back (no in-place write has happened,
//! in-flight journal slots are garbage), after it lands it rolls
//! forward.
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
//! [`DiskArray::journaled_write_batch_checked`]: replay rewrites old
//! images over any unjournaled in-place change, so mixing the two on the
//! same blocks would let recovery undo an acknowledged op.

use crate::disk::{BlockAddr, DiskArray, ReadOptions, WriteOptions};
use crate::integrity::BlockHealth;
use crate::metrics::IoEvent;
use crate::stats::OpCost;
use crate::Word;
use std::collections::VecDeque;

/// `"PDMJSUP1"` — superblock magic.
const SUPER_MAGIC: Word = 0x5044_4D4A_5355_5031;
/// `"PDMJHED1"` — entry-descriptor magic.
const HEAD_MAGIC: Word = 0x5044_4D4A_4845_4431;
/// `"PDMJCON1"` — descriptor-continuation magic.
const CONT_MAGIC: Word = 0x5044_4D4A_434F_4E31;
/// On-disk format version recorded in the superblock.
const VERSION: Word = 1;

/// A sealed intent found during the ring scan, pending replay:
/// `(seq, head slot, target images, owner metadata, slots consumed)`.
type CandidateEntry = (u64, usize, Vec<(BlockAddr, Vec<Word>)>, Vec<Word>, usize);

/// Superblock rewrites are amortized over this many journaled ops (the
/// group-commit factor). Recovery replays at most this many extra
/// already-applied intents — harmless, because replay is idempotent.
pub const GROUP_COMMIT_EVERY: u64 = 8;

/// Placement of the journal ring: `rows` blocks on **every** disk,
/// starting at block `first_block`. Slot `g` of the ring lives at disk
/// `g mod D`, block `first_block + g / D` — consecutive slots land on
/// consecutive disks, so appending a `k`-slot entry costs
/// `ceil((k+1)/D)` parallel I/Os (one, for every op the paper's
/// structures perform).
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
    /// The in-place blocks the replay rewrote.
    pub targets: Vec<BlockAddr>,
}

/// Outcome of a [`DiskArray::recover`] pass.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Ring slots scanned (0 when no journal is enabled).
    pub scanned_slots: u64,
    /// Intact intents replayed, oldest first.
    pub replayed: Vec<ReplayedIntent>,
    /// Descriptors discarded: stale (already truncated), incomplete
    /// (payload missing or mismatched — the crash hit mid-append, the op
    /// rolls back), or targeting blocks outside the current geometry.
    pub discarded: u64,
    /// Intents that could not be fully replayed because in-place writes
    /// failed (e.g. a still-dead disk). They stay in the ring; a later
    /// `recover` after the hardware is replaced retries them.
    pub stalled: u64,
    /// In-place blocks rewritten by the replay.
    pub blocks_rewritten: u64,
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
    /// ([`DiskArray::journal_set_meta`]); persisted with the next
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
    fn live_slots(&self) -> usize {
        self.live.iter().map(|&(_, n)| n).sum()
    }
}

/// Build a sealed journal block: `words` padded to `B`, with the last
/// word set to the codec checksum of the rest (salted by `addr`).
fn seal(disks: &DiskArray, addr: BlockAddr, mut words: Vec<Word>) -> Vec<Word> {
    let b = disks.block_words();
    assert!(words.len() < b, "journal block layout overflows B = {b}");
    words.resize(b, 0);
    let sum = disks.block_codec().checksum(addr, &words);
    *words.last_mut().expect("B >= 1") = sum;
    words
}

/// Verify a sealed journal block; returns `false` for garbage.
fn seal_ok(disks: &DiskArray, addr: BlockAddr, block: &[Word]) -> bool {
    let b = disks.block_words();
    if block.len() != b {
        return false;
    }
    let mut tmp = block.to_vec();
    let stored = tmp[b - 1];
    tmp[b - 1] = 0;
    disks.block_codec().checksum(addr, &tmp) == stored
}

/// Descriptor-head triples capacity for a metadata payload of `m` words.
fn head_triples(block_words: usize, m: usize) -> usize {
    (block_words - 1).saturating_sub(3 + m) / 3
}

/// Continuation-block triples capacity.
fn cont_triples(block_words: usize) -> usize {
    (block_words - 1).saturating_sub(3) / 3
}

/// Ring slots an intent of `k` targets and `meta_len` metadata words
/// occupies: payload images, continuation descriptors, head.
fn intent_slots(block_words: usize, k: usize, meta_len: usize) -> usize {
    let t_head = head_triples(block_words, meta_len);
    let conts = k.saturating_sub(t_head).div_ceil(cont_triples(block_words).max(1));
    k + conts + 1
}

fn pack_counts(k: usize, conts: usize, meta_len: usize) -> Word {
    debug_assert!(k <= 0xFFFF && conts <= 0xFFFF && meta_len <= 0xFFFF);
    (k as Word) | ((conts as Word) << 16) | ((meta_len as Word) << 32)
}

fn unpack_counts(w: Word) -> (usize, usize, usize) {
    (
        (w & 0xFFFF) as usize,
        ((w >> 16) & 0xFFFF) as usize,
        ((w >> 32) & 0xFFFF) as usize,
    )
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
        self.journal = Some(JournalState {
            region,
            next_seq: 1,
            next_slot: 0,
            applied: 0,
            persisted: 0,
            meta: Vec::new(),
            live: VecDeque::new(),
            appends_since_persist: 0,
            last_seq: 0,
            bypassed: 0,
            needs_scan: false,
        });
        self.persist_superblock();
    }

    /// [`enable_journal`](DiskArray::enable_journal) for frozen layouts:
    /// grow every disk by `rows` blocks past the current high-water mark
    /// and put the ring there. Only safe when nothing else will allocate
    /// on this array afterwards (static dictionaries, post-build).
    pub fn enable_journal_appended(&mut self, rows: usize) -> JournalRegion {
        let first_block = (0..self.disks()).map(|d| self.blocks_on(d)).max().unwrap_or(0);
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
    /// never journal-enabled there).
    pub fn reopen_journal(&mut self, region: JournalRegion) {
        let d = self.disks();
        let addr = region.slot_addr(0, d);
        let block = self.read_block(addr);
        assert!(
            block[0] == SUPER_MAGIC && block[1] == VERSION,
            "no journal superblock at {addr:?}"
        );
        // Verify through a temporary state so `seal_ok` can borrow self.
        assert!(
            seal_ok(self, addr, &block),
            "journal superblock at {addr:?} fails its checksum"
        );
        let applied = block[2];
        let meta_len = block[3] as usize;
        let meta = block[4..4 + meta_len].to_vec();
        self.journal = Some(JournalState {
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
            needs_scan: true,
        });
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
    /// holds. Size the region so this stays 0.
    #[must_use]
    pub fn journal_bypassed(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.bypassed)
    }

    /// The most targets one intent carrying `meta_len` metadata words can
    /// name and still fit the ring (`usize::MAX` without a journal). A
    /// larger batch bypasses the journal
    /// ([`journal_bypassed`](DiskArray::journal_bypassed)); a writer that
    /// must not — global rebuilding's migration step — splits its commit
    /// at this size instead.
    #[must_use]
    pub fn journal_intent_capacity(&self, meta_len: usize) -> usize {
        let Some(j) = &self.journal else {
            return usize::MAX;
        };
        let b = self.block_words();
        let data_slots = j.region.slots(self.disks()) - 1;
        let mut k = data_slots.saturating_sub(1).min(0xFFFF);
        while k > 0 && intent_slots(b, k, meta_len) > data_slots {
            k -= 1;
        }
        k
    }

    /// The metadata checkpoint currently associated with the journal
    /// (the owner's last [`journal_set_meta`](DiskArray::journal_set_meta)
    /// / [`journal_checkpoint`](DiskArray::journal_checkpoint), or after
    /// [`reopen_journal`](DiskArray::reopen_journal) the superblock's).
    #[must_use]
    pub fn journal_meta(&self) -> Vec<Word> {
        self.journal.as_ref().map_or_else(Vec::new, |j| j.meta.clone())
    }

    /// Stage the owner's metadata checkpoint (no I/O). The words are
    /// persisted together with the applied-seq watermark at the next
    /// superblock rewrite, so the pair `(checkpoint, applied seq)` on
    /// disk is always mutually consistent: the checkpoint reflects
    /// exactly the ops up to that seq, and newer intents still in the
    /// ring carry the deltas on top. Call it after every journaled op.
    ///
    /// # Panics
    /// Panics if `meta` does not fit the superblock (`B - 5` words).
    pub fn journal_set_meta(&mut self, meta: &[Word]) {
        let cap = self.block_words() - 5;
        assert!(
            meta.len() <= cap,
            "journal meta of {} words exceeds the superblock capacity {cap}",
            meta.len()
        );
        if let Some(j) = self.journal.as_mut() {
            j.meta = meta.to_vec();
        }
    }

    /// Persist a metadata checkpoint and truncate the journal **now**
    /// (one charged superblock write): every intent up to the current
    /// applied seq stops being replayable. Called by `Dict::recover`
    /// implementations once their in-memory state reflects the replay.
    pub fn journal_checkpoint(&mut self, meta: &[Word]) {
        self.journal_set_meta(meta);
        if self.journal.is_some() {
            self.persist_superblock();
        }
    }

    /// Rewrite the superblock with the current applied seq + metadata
    /// checkpoint, truncating every applied entry.
    fn persist_superblock(&mut self) {
        let Some(mut j) = self.journal.take() else {
            return;
        };
        let addr = j.region.slot_addr(0, self.disks());
        let mut words = vec![SUPER_MAGIC, VERSION, j.applied, j.meta.len() as Word];
        words.extend_from_slice(&j.meta);
        let image = seal(self, addr, words);
        self.write(&[(addr, &image)], WriteOptions::checked());
        j.persisted = j.applied;
        while j.live.front().is_some_and(|&(seq, _)| seq <= j.persisted) {
            j.live.pop_front();
        }
        j.appends_since_persist = 0;
        self.journal = Some(j);
    }

    /// A checked [`write`](DiskArray::write) with
    /// crash protection: the batch is recorded in the journal as one
    /// intent entry (images + checksummed descriptor, descriptor last),
    /// then applied in place, making the whole multi-block group atomic
    /// under any crash point — recovery replays it fully or rolls it
    /// back fully. `meta` is an opaque payload stored in the descriptor
    /// and handed back by [`recover`](DiskArray::recover) for the owner
    /// to reconcile its in-memory counters.
    ///
    /// Every payload must be a **full** block image (replay rewrites
    /// whole blocks). Without an enabled journal this degrades to a
    /// plain checked write. Entries larger than the whole ring bypass it
    /// (counted by [`journal_bypassed`](DiskArray::journal_bypassed)).
    ///
    /// # Panics
    /// Panics on out-of-range addresses, non-full-block payloads, more
    /// than `u16::MAX` targets, an oversized `meta`, or if called after
    /// [`reopen_journal`](DiskArray::reopen_journal) without an
    /// intervening [`recover`](DiskArray::recover).
    pub fn journaled_write_batch_checked(
        &mut self,
        writes: &[(BlockAddr, &[Word])],
        meta: &[Word],
    ) -> Vec<BlockHealth> {
        if self.journal.is_none() {
            return self.write(writes, WriteOptions::checked()).healths;
        }
        let b = self.block_words();
        let d = self.disks();
        for &(_, data) in writes {
            assert_eq!(data.len(), b, "journaled writes require full-block images");
        }
        assert!(writes.len() <= 0xFFFF, "too many targets for one intent");
        assert!(meta.len() <= 0xFFFF && meta.len() + 4 < b, "journal meta too large");
        {
            let j = self.journal.as_ref().expect("journal enabled");
            assert!(
                !j.needs_scan,
                "journal reopened but not recovered: call recover() first"
            );
        }
        let k = writes.len();
        let t_head = head_triples(b, meta.len());
        let t_cont = cont_triples(b);
        let n_slots = intent_slots(b, k, meta.len());
        let conts = n_slots - k - 1;
        let data_slots = {
            let j = self.journal.as_ref().expect("journal enabled");
            j.region.slots(d) - 1
        };
        if n_slots > data_slots {
            let j = self.journal.as_mut().expect("journal enabled");
            j.bypassed += 1;
            return self.write(writes, WriteOptions::checked()).healths;
        }
        // Group commit: persist the (stale-by-design) truncation point
        // BEFORE this op when the schedule or ring pressure calls for
        // it, so the superblock never pairs a newer applied seq with an
        // older metadata checkpoint.
        {
            let j = self.journal.as_ref().expect("journal enabled");
            if j.appends_since_persist >= GROUP_COMMIT_EVERY
                || j.live_slots() + n_slots > data_slots
            {
                self.persist_superblock();
            }
        }
        let mut j = self.journal.take().expect("journal enabled");
        let seq = j.next_seq;
        // Build the entry: payload images, continuations, head LAST.
        let codec = self.block_codec().clone();
        let triples: Vec<(BlockAddr, Word)> = writes
            .iter()
            .map(|&(a, data)| (a, codec.checksum(a, data)))
            .collect();
        let slot_at = |i: usize| -> BlockAddr {
            let s = (j.next_slot + i) % data_slots;
            j.region.slot_addr(s + 1, d)
        };
        let mut images: Vec<(BlockAddr, Vec<Word>)> = Vec::with_capacity(n_slots);
        for (i, &(_, data)) in writes.iter().enumerate() {
            images.push((slot_at(i), data.to_vec()));
        }
        let head_take = k.min(t_head);
        for c in 0..conts {
            let addr = slot_at(k + c);
            let mut words = vec![CONT_MAGIC, seq, c as Word];
            for (a, sum) in triples
                .iter()
                .skip(head_take + c * t_cont)
                .take(t_cont)
            {
                words.extend_from_slice(&[a.disk as Word, a.block as Word, *sum]);
            }
            images.push((addr, seal(self, addr, words)));
        }
        let head_addr = slot_at(k + conts);
        let mut head = vec![HEAD_MAGIC, seq, pack_counts(k, conts, meta.len())];
        head.extend_from_slice(meta);
        for (a, sum) in triples.iter().take(head_take) {
            head.extend_from_slice(&[a.disk as Word, a.block as Word, *sum]);
        }
        images.push((head_addr, seal(self, head_addr, head)));
        let refs: Vec<(BlockAddr, &[Word])> =
            images.iter().map(|(a, v)| (*a, v.as_slice())).collect();
        self.write(&refs, WriteOptions::checked());
        // In-place apply. The intent exists on disk first, so a crash
        // anywhere in here rolls the whole group forward at recovery.
        let healths = self.write(writes, WriteOptions::checked()).healths;
        j.next_seq += 1;
        j.next_slot = (j.next_slot + n_slots) % data_slots;
        j.applied = seq;
        j.last_seq = seq;
        j.live.push_back((seq, n_slots));
        j.appends_since_persist += 1;
        self.journal = Some(j);
        self.emit_io_event(IoEvent::JournalAppend {
            blocks: n_slots as u64,
            targets: k as u64,
        });
        healths
    }

    /// Crash recovery: scan the journal ring, discard stale or
    /// incomplete intents, and replay intact ones newer than the
    /// superblock's truncation point, oldest first (idempotent redo of
    /// absolute block images). Also drops the entire verified-once clean
    /// cache — replay rewrites blocks underneath any prior verification,
    /// so nothing read before the crash may be trusted without
    /// re-verification.
    ///
    /// Does **not** truncate: the replayed intents stay replayable until
    /// the owner confirms its in-memory state with
    /// [`journal_checkpoint`](DiskArray::journal_checkpoint), so a crash
    /// *during* recovery just recovers again. Without an enabled journal
    /// this only invalidates the clean cache.
    pub fn recover(&mut self) -> RecoveryReport {
        let Some(mut j) = self.journal.take() else {
            self.invalidate_verified();
            return RecoveryReport::default();
        };
        let scope = self.begin_op();
        let d = self.disks();
        let b = self.block_words();
        let data_slots = j.region.slots(d) - 1;
        let addrs: Vec<BlockAddr> = (0..data_slots)
            .map(|s| j.region.slot_addr(s + 1, d))
            .collect();
        let slots = self.read(&addrs, ReadOptions::default()).into_blocks();
        let mut report = RecoveryReport {
            scanned_slots: data_slots as u64 + 1,
            ..RecoveryReport::default()
        };
        let mut entries: Vec<CandidateEntry> = Vec::new();
        let mut max_seal_valid: Option<(u64, usize)> = None;
        for (h, block) in slots.iter().enumerate() {
            if block[0] != HEAD_MAGIC || !seal_ok(self, addrs[h], block) {
                continue;
            }
            let seq = block[1];
            if max_seal_valid.is_none_or(|(s, _)| seq > s) {
                max_seal_valid = Some((seq, h));
            }
            if seq <= j.persisted {
                continue; // truncated: already applied and checkpointed
            }
            let (k, conts, meta_len) = unpack_counts(block[2]);
            let n_slots = k + conts + 1;
            if n_slots > data_slots || 3 + meta_len + 3 * k.min(head_triples(b, meta_len)) > b - 1
            {
                report.discarded += 1;
                continue;
            }
            let meta = block[3..3 + meta_len].to_vec();
            let slot_of = |i: usize| (h + data_slots - (n_slots - 1) + i) % data_slots;
            // Collect the triples: head first, then continuations.
            let t_head = head_triples(b, meta_len);
            let head_take = k.min(t_head);
            let t_cont = cont_triples(b);
            let mut triples: Vec<(BlockAddr, Word)> = Vec::with_capacity(k);
            let mut at = 3 + meta_len;
            for _ in 0..head_take {
                triples.push((
                    BlockAddr::new(block[at] as usize, block[at + 1] as usize),
                    block[at + 2],
                ));
                at += 3;
            }
            let mut intact = true;
            for c in 0..conts {
                let cs = slot_of(k + c);
                let cb = &slots[cs];
                if cb[0] != CONT_MAGIC
                    || cb[1] != seq
                    || cb[2] != c as Word
                    || !seal_ok(self, addrs[cs], cb)
                {
                    intact = false;
                    break;
                }
                let take = (k - head_take - c * t_cont).min(t_cont);
                let mut cat = 3;
                for _ in 0..take {
                    triples.push((
                        BlockAddr::new(cb[cat] as usize, cb[cat + 1] as usize),
                        cb[cat + 2],
                    ));
                    cat += 3;
                }
            }
            if !intact || triples.len() != k {
                report.discarded += 1;
                continue;
            }
            // Validate every payload image against its recorded checksum
            // (also proves the image itself landed before the crash) and
            // the target against the current geometry.
            let mut writes: Vec<(BlockAddr, Vec<Word>)> = Vec::with_capacity(k);
            for (i, &(target, sum)) in triples.iter().enumerate() {
                let ps = slot_of(i);
                let image = &slots[ps];
                if target.disk >= d
                    || target.block >= self.blocks_on(target.disk)
                    || self.block_codec().checksum(target, image) != sum
                {
                    intact = false;
                    break;
                }
                writes.push((target, image.to_vec()));
            }
            if !intact {
                report.discarded += 1;
                continue;
            }
            entries.push((seq, h, writes, meta, n_slots));
        }
        entries.sort_by_key(|&(seq, ..)| seq);
        let mut clean_prefix = true;
        j.live.clear();
        for (seq, _, writes, meta, n_slots) in entries {
            let refs: Vec<(BlockAddr, &[Word])> =
                writes.iter().map(|(a, v)| (*a, v.as_slice())).collect();
            let healths = self.write(&refs, WriteOptions::checked()).healths;
            let landed = healths.iter().all(|h| h.is_ok());
            if landed {
                report.blocks_rewritten += writes.len() as u64;
                report.replayed.push(ReplayedIntent {
                    seq,
                    meta,
                    targets: writes.iter().map(|&(a, _)| a).collect(),
                });
                if clean_prefix {
                    j.applied = seq;
                }
            } else {
                report.stalled += 1;
                clean_prefix = false;
            }
            j.live.push_back((seq, n_slots));
        }
        // Reconstruct the cursors past everything the ring has seen —
        // including stale or discarded descriptors, whose seqs must
        // never be reissued.
        if let Some((max_seq, h)) = max_seal_valid {
            j.next_seq = j.next_seq.max(max_seq + 1);
            j.next_slot = (h + 1) % data_slots;
        }
        j.next_seq = j.next_seq.max(j.applied + 1);
        j.needs_scan = false;
        // Last, so even blocks the scan itself verified are distrusted:
        // nothing observed before this point may skip re-verification.
        self.invalidate_verified();
        report.cost = self.end_op(scope);
        self.journal = Some(j);
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
        assert_eq!(report.discarded, 0);
        assert_eq!(disks.read_block(a), img(1));
        // Checkpoint truncates; the next recovery is clean.
        disks.journal_checkpoint(&[9, 9]);
        let report = disks.recover();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn crash_before_descriptor_rolls_back() {
        let mut disks = array();
        let a = BlockAddr::new(2, 3);
        disks.write_block(a, &img(1));
        disks.journal_checkpoint(&[]);
        // Entry = 2 payloads + head = 3 slot writes, then 2 in-place.
        // Crash after 1 write: only the first payload slot lands.
        disks.set_fault_plan(FaultPlan::new().crash_after(1));
        let b2 = BlockAddr::new(3, 4);
        disks.journaled_write_batch_checked(&[(a, &img(2)), (b2, &img(3))], &[]);
        assert!(disks.crash_fired());
        disks.clear_fault_plan();
        let report = disks.recover();
        assert!(report.replayed.is_empty(), "{report:?}");
        assert_eq!(disks.read_block(a), img(1), "in-place state untouched");
    }

    #[test]
    fn crash_after_descriptor_rolls_forward() {
        let mut disks = array();
        let a = BlockAddr::new(2, 3);
        let b2 = BlockAddr::new(3, 4);
        disks.write_block(a, &img(1));
        disks.journal_checkpoint(&[]);
        // 3 journal slot writes land; both in-place writes are lost.
        disks.set_fault_plan(FaultPlan::new().crash_after(3));
        disks.journaled_write_batch_checked(&[(a, &img(2)), (b2, &img(3))], &[5]);
        disks.clear_fault_plan();
        assert_eq!(disks.read_block(a), img(1), "apply was dropped");
        let report = disks.recover();
        assert_eq!(report.replayed.len(), 1);
        assert_eq!(report.replayed[0].meta, vec![5]);
        assert_eq!(report.blocks_rewritten, 2);
        assert_eq!(disks.read_block(a), img(2));
        assert_eq!(disks.read_block(b2), img(3));
    }

    #[test]
    fn every_crash_point_is_all_or_nothing() {
        // The miniature exhaustive crash matrix at the disk layer.
        let targets = [BlockAddr::new(0, 1), BlockAddr::new(0, 2), BlockAddr::new(1, 5)];
        // 3 payloads + 1 head + 3 in-place = 7 writes.
        for k in 0..=7u64 {
            let mut disks = array();
            for &t in &targets {
                disks.write_block(t, &img(100));
            }
            disks.journal_checkpoint(&[]);
            disks.set_fault_plan(FaultPlan::new().crash_after(k));
            let old = img(100);
            let new: Vec<Vec<Word>> = (0..3).map(|i| img(200 + i)).collect();
            let writes: Vec<(BlockAddr, &[Word])> = targets
                .iter()
                .zip(&new)
                .map(|(&a, v)| (a, v.as_slice()))
                .collect();
            disks.journaled_write_batch_checked(&writes, &[k]);
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
            // k >= 4 means the descriptor landed: must roll forward.
            assert_eq!(committed, k >= 4, "crash at {k}");
        }
    }

    #[test]
    fn reopen_recovers_in_flight_intents() {
        let mut disks = array();
        let a = BlockAddr::new(1, 1);
        disks.journaled_write_batch_checked(&[(a, &img(4))], &[]);
        disks.journal_set_meta(&[11, 22]);
        // Crash with the intent applied but untruncated; a new process
        // reopens from the medium alone.
        let region = disks.journal_region().unwrap();
        let mut reopened = disks.clone();
        reopened.journal = None;
        reopened.reopen_journal(region);
        assert_eq!(
            reopened.journal_meta(),
            Vec::<Word>::new(),
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
    fn group_commit_truncates_lazily_and_meta_stays_paired() {
        let mut disks = array();
        let a = BlockAddr::new(0, 3);
        for i in 0..GROUP_COMMIT_EVERY + 2 {
            disks.journaled_write_batch_checked(&[(a, &img(i))], &[]);
            disks.journal_set_meta(&[i]);
        }
        // The superblock was rewritten at some op boundary; reopen sees
        // a checkpoint k paired with applied seq k (entries k+1.. replay).
        let region = disks.journal_region().unwrap();
        let mut reopened = disks.clone();
        reopened.reopen_journal(region);
        let meta = reopened.journal_meta();
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
        // 4×4 ring = 15 data slots; each single-block entry takes 2.
        // 40 ops force several wraps and several forced truncations.
        for i in 0..40u64 {
            let a = BlockAddr::new((i % 4) as usize, (i % 8) as usize);
            disks.journaled_write_batch_checked(&[(a, &img(i))], &[i]);
        }
        let report = disks.recover();
        assert!(report.replayed.len() <= 8, "only the untruncated tail replays");
        assert_eq!(
            disks.read_block(BlockAddr::new(3, 7)),
            img(39),
            "latest images survive replay"
        );
    }

    #[test]
    fn continuation_descriptors_cover_wide_entries() {
        // 16-word blocks hold 4 head triples; 9 targets need conts.
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
        // Crash right before the head: everything rolls back.
        disks.set_fault_plan(FaultPlan::new().crash_after(11));
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
        // 8 rows × 2 disks = 15 data slots of 16-word blocks: 4 head
        // triples, then 4 per continuation.
        let mut disks = DiskArray::new(PdmConfig::new(2, B), 40);
        assert_eq!(disks.journal_intent_capacity(0), usize::MAX, "no journal, no limit");
        disks.enable_journal(JournalRegion {
            first_block: 32,
            rows: 8,
        });
        let cap = disks.journal_intent_capacity(0);
        assert_eq!(cap, 12, "12 images + 2 continuations + head = 15 slots");
        let writes: Vec<(BlockAddr, Vec<Word>)> = (0..cap + 1)
            .map(|i| (BlockAddr::new(i % 2, i / 2), img(i as Word)))
            .collect();
        let refs: Vec<(BlockAddr, &[Word])> =
            writes.iter().map(|(a, v)| (*a, v.as_slice())).collect();
        disks.journaled_write_batch_checked(&refs[..cap], &[]);
        assert_eq!(disks.journal_bypassed(), 0, "a full-capacity intent fits");
        disks.journaled_write_batch_checked(&refs, &[]);
        assert_eq!(disks.journal_bypassed(), 1, "one more target does not");
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
                .map(|t| (BlockAddr::new(((i + t) % 8) as usize, (i % 16) as usize), img(t)))
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
}

//! Theorem 7: the dynamic dictionary with full bandwidth and `1 + ɛ`
//! average-I/O lookups.
//!
//! Two sub-dictionaries on `2d` disks, as in Theorem 6(a):
//!
//! * a Section 4.1 membership dictionary (disks `0..d`) whose per-key
//!   payload packs the head pointer (`⌈lg d⌉` bits) and the level the key
//!   landed on (on all `2d` disks when records are inline, below);
//! * `l = ⌈log N / log(1/(6ε))⌉` retrieval arrays `A_1 ⊃ A_2 ⊃ …` of
//!   geometrically decreasing size (factor `6ε`), each indexed by its own
//!   degree-`d` expander, all on disks `d..2d`.
//!
//! **Insertion is first-fit**: "for a given `x ∈ U` find the first array
//! in the sequence `(A_1, A_2, …, A_l)` in which there are `2d/3` fields
//! unique to `x` (at that moment)" — operationally, read `x`'s `d`
//! candidate fields level by level (each read is one parallel I/O; the
//! level-1 read shares the insertion's first I/O with the membership
//! probe, since the two halves live on disjoint disks) until a level
//! offers `m = ⌈2d/3⌉` *unoccupied* fields, then write the chain and the
//! membership record in one more parallel I/O. Lemma 5 guarantees the
//! first fit exists and that at most a `6ε` fraction of keys falls through
//! each level, so `n` insertions cost `n` writes plus
//! `n(1 + 6ε + (6ε)² + …) < (1+ɛ)n` reads — `2 + ɛ` I/Os per insertion on
//! average, `l + 1 = O(log n)` worst case.
//!
//! **Lookups** read the membership bucket and the level-1 fields in one
//! parallel I/O; keys living on level 1 (all but a `≤ ɛ` fraction) finish
//! there, others pay one more I/O for their level. Unsuccessful searches
//! are always exactly 1 I/O.
//!
//! **A record that fits its membership slot is stored there.** The
//! membership dictionary already keeps a payload per key in a one-block
//! bucket. When a bucket of `[flags, key, σ words]` slots fits one block —
//! `slot_words(σ) × bucket_slots(N) ≤ B`, a function of the record width,
//! the capacity and the block size alone — the payload *is* the satellite
//! and no retrieval level is laid out: Section 4.1's dictionary, with its
//! 1-I/O lookups and 2-I/O updates worst case, spread over all `2d` disks
//! (`BasicDict::create_on`: a batch's rounds are its largest load over
//! `2d` disks). Otherwise the chain above, unchanged. Everything around the
//! two layouts (batches, journal intents and replay, tombstones, reopen,
//! degraded reads, migration) is one implementation; where the chained
//! layout reads or writes fields the inline one has none.

use crate::basic::{BasicDict, BasicDictConfig};
use crate::bucket::BucketCodec;
use crate::config::DictParams;
use crate::fields::{FieldArray, FieldPos};
use crate::layout::{DiskAllocator, SpaceRow};
use crate::one_probe::encoding::Chain;
use crate::traits::{DictError, LookupOutcome};
use expander::{params, FamilyExpander, NeighborFamily, NeighborFn};
use pdm::batch::StagedBlocks;
use pdm::journal::{JournalRegion, RecoveryReport};
use pdm::{
    BatchExecutor, BatchPlan, BatchReads, BlockAddr, BlockHealth, BlockView, DiskArray, IoFaultKind, OpCost, Word,
};
use std::borrow::Cow;
use std::ops::Range;

/// Journal-entry metadata opcodes (`meta[1]`); `meta[0]` is the
/// instance tag ([`DynamicDict::meta_tag`]). This one is one insertion,
/// `[tag, META_INSERT, level]`, as rings written before a single-key insert
/// was the batch of one hold it (replayed, never written).
pub(crate) const META_INSERT: Word = 1;
/// One tombstone, as rings written before [`META_TOMBSTONES`] hold it
/// (replayed, never written). A third word, when present, is the tag of a
/// *second* instance the same intent deleted the key from.
pub(crate) const META_DELETE: Word = 2;
pub(crate) const META_BATCH: Word = 3;
/// One commit of the global-rebuilding wrapper's migration step
/// ([`DynamicDict::migrate_from`]): *copies* of keys still present in the
/// old structure. Layout and counter deltas equal [`META_BATCH`]'s, and
/// the summed counts also enter [`DynamicDict::copies`].
pub(crate) const META_MIGRATE_BATCH: Word = 4;
/// The tombstones of one intent ([`DynamicDict::tombstone_batch`]): a section
/// `[tag, META_TOMBSTONES, n, c]` per instance it deleted from — two when
/// the global-rebuilding wrapper tombstoned keys in both of its structures.
/// `n` keys left the instance's `len`, `c` of them its `copies` too.
pub(crate) const META_TOMBSTONES: Word = 5;

/// One key's first-round probe: its membership buckets followed by its
/// level-1 candidate fields — `2d` blocks on the structure's `2d` disks
/// (`d` membership blocks when records are inline), one parallel I/O, and
/// all a miss or a level-1 key ever needs. Computed apart from the read,
/// its addresses appended to the caller's list, so a caller holding two
/// structures on disjoint disks (the global-rebuilding wrapper) can fetch
/// both probes at once.
#[derive(Debug, Clone)]
struct Probe {
    /// How many of the probe's addresses are membership addresses; the
    /// rest are the level-1 field addresses (none when records are inline).
    msplit: usize,
    /// The key's candidate field on each stripe of level 1.
    fields0: Vec<usize>,
}

impl Probe {
    /// Blocks of the probe: the membership buckets, then the level-1 fields.
    fn len(&self) -> usize {
        self.msplit + self.fields0.len()
    }
}

/// One key of [`DynamicDict::lookup_in`]: its probe in each structure, then
/// what each first round said and whether it read damaged; the structure
/// consulted next, and whether damage taints the answer so far.
struct Found {
    probes: [Option<Probe>; 2],
    firsts: [Option<(FirstRound, bool)>; 2],
    at: usize,
    taint: bool,
}

impl Found {
    /// Consult the structures from `at` on: answer the key from the first
    /// whose first round holds it, or queue the deeper record one names; a
    /// miss in every structure is answered too.
    fn settle(
        &mut self,
        i: usize,
        deeper: &mut Vec<(usize, usize, DeeperRecord)>,
        answer: &mut impl FnMut(usize, Option<Vec<Word>>, bool),
    ) {
        while let Some((first, damaged)) = self.firsts.get_mut(self.at).and_then(Option::take) {
            self.taint |= damaged;
            match first {
                FirstRound::Absent | FirstRound::Here(None) => self.at += 1,
                FirstRound::Here(Some(satellite)) => return answer(i, Some(satellite), self.taint),
                FirstRound::Deeper(record) => return deeper.push((i, self.at, record)),
            }
        }
        answer(i, None, self.taint);
    }
}

/// Read `addrs` as one plan and hand each item — `width` consecutive
/// blocks — to `take` with its index, the read and its range there. The
/// items that read damaged are read once more, together, in one more plan
/// (a later clock: a transient window can pass), and handed that read.
fn read_retried(
    disks: &mut DiskArray,
    addrs: &[BlockAddr],
    width: usize,
    mut take: impl FnMut(usize, &BatchReads<'_>, Range<usize>),
) {
    let reads = BatchPlan::read(disks, addrs);
    let (mut damaged, mut again) = (Vec::new(), Vec::new());
    for i in 0..addrs.len() / width.max(1) {
        let range = i * width..(i + 1) * width;
        if reads.range_ok(range.clone()) {
            take(i, &reads, range);
        } else {
            damaged.push((i, again.len()..again.len() + range.len()));
            again.extend_from_slice(&addrs[range]);
        }
    }
    drop(reads);
    if damaged.is_empty() {
        return;
    }
    let reads = BatchPlan::read(disks, &again);
    for (i, range) in damaged {
        take(i, &reads, range);
    }
}

/// A lookup's outcome, degraded or not.
pub(crate) fn outcome(satellite: Option<Vec<Word>>, cost: OpCost, degraded: bool) -> LookupOutcome {
    if degraded {
        LookupOutcome::degraded(satellite, cost)
    } else {
        LookupOutcome::new(satellite, cost)
    }
}

/// Where a membership record says its key's satellite lies.
enum Located {
    /// In the record itself: the inline layout.
    Inline(Vec<Word>),
    /// In a chain of fields, not yet read.
    Chain(DeeperRecord),
}

/// What a key's first-round blocks say about it.
#[derive(Debug)]
enum FirstRound {
    /// No membership record: the key is not stored.
    Absent,
    /// Stored on level 1 and decoded from the probe itself (fail-closed:
    /// `None` when the chain is damaged).
    Here(Option<Vec<Word>>),
    /// Stored deeper: one more read finishes the lookup.
    Deeper(DeeperRecord),
}

/// A record's chain, located but not yet read: on a level past the first
/// for a lookup, on any level for a migration step.
#[derive(Debug)]
struct DeeperRecord {
    level: usize,
    head: usize,
    fields: Vec<usize>,
    /// The `d` field blocks to read for [`DynamicDict::decode_deeper`].
    addrs: Vec<BlockAddr>,
}

/// The keys one executor has staged since its last commit, as `(index in
/// the caller's results, what, end of its blocks)` — `what` the level of an
/// insertion or the bit set of structures a tombstone is staged in — and
/// the blocks they changed: a commit that loses a block names its keys.
/// Kept by the structure between its updates, emptied, like the executor's
/// containers by the array.
#[derive(Debug, Default, Clone)]
struct Staged {
    keys: Vec<(usize, usize, usize)>,
    blocks: Vec<BlockAddr>,
}

impl Staged {
    /// Commit what `ex` has staged as one intent under `meta`, and what did
    /// not land once more (failed blocks stay dirty; a torn write is
    /// one-shot) under none, so that a replay counts its keys once. Empties
    /// the list, as `(what, landed)`, into `count`, which settles the
    /// owner's counters and checkpoint section; a key with a block still not
    /// on the medium gets the typed error in `results`, and the intent is
    /// truncated so that it never replays a key the caller was told failed.
    /// Under a journal, one staged block is written in place with no intent
    /// (atomic by the model) when `recountable`: an inline structure's,
    /// changing no counter but `len`, which [`DynamicDict::recount`] takes
    /// back from the image at recovery.
    fn commit<R>(
        &mut self,
        ex: &mut BatchExecutor<'_>,
        meta: &[Word],
        recountable: bool,
        results: &mut [Result<R, DictError>],
        count: impl FnOnce(&mut dyn Iterator<Item = (usize, bool)>, &mut DiskArray),
    ) -> Option<DictError> {
        if self.keys.is_empty() {
            return None;
        }
        let in_place = ex.disks().journal_enabled() && recountable && ex.staged_writes() == 1;
        let commit = |ex: &mut BatchExecutor<'_>, meta| {
            if in_place { ex.commit_checked_in_place() } else { ex.commit_checked_with_meta(meta) }
        };
        let mut report = commit(ex, meta);
        if report.is_clean() {
            count(&mut self.keys.drain(..).map(|(_, what, _)| (what, true)), ex.disks_mut());
            self.blocks.clear();
            return None;
        }
        report = commit(ex, &[]);
        let (lost, healths): (Vec<BlockAddr>, Vec<BlockHealth>) = report.failed.into_iter().unzip();
        let error = DynamicDict::io_error(&lost, &healths);
        let mut from = 0;
        let blocks = &self.blocks;
        let mut settled = self.keys.drain(..).map(|(index, what, end)| {
            let landed = !blocks[from..end].iter().any(|a| lost.contains(a));
            if let (false, Some(e)) = (landed, &error) {
                results[index] = Err(e.clone());
            }
            from = end;
            (what, landed)
        });
        count(&mut settled, ex.disks_mut());
        drop(settled);
        self.blocks.clear();
        if error.is_some() && !in_place {
            ex.disks_mut().journal_truncate();
        }
        error
    }
}

/// Field positions from per-stripe field indices (`fields[s]` on stripe `s`).
fn positions(fields: &[usize]) -> impl Iterator<Item = FieldPos> + '_ {
    fields.iter().copied().enumerate()
}

/// The Theorem 7 dynamic dictionary.
///
/// `Clone` copies only the in-memory description (expander seeds,
/// counters, region placement) — the blocks live on the external
/// [`DiskArray`]. Crash tests use a clone as a metadata snapshot to pair
/// with a post-crash disk image.
#[derive(Debug, Clone)]
pub struct DynamicDict {
    params: DictParams,
    membership: BasicDict,
    /// The retrieval levels; none when records are inline.
    levels: Vec<Level>,
    enc: Chain,
    len: usize,
    insertions: usize,
    /// Keys stored per level: one population, level 1's, when records are
    /// inline.
    level_population: Vec<usize>,
    /// Keys stored here as *copies* of records a migration source still
    /// holds ([`Self::migrate_from`]); the global-rebuilding wrapper's
    /// inclusion–exclusion term. Zero outside a rebuild window.
    copies: usize,
    /// Watermark: journal seq of the newest op reflected in the
    /// counters above. [`Self::apply_replay`] applies only newer deltas.
    pub(crate) journal_seq: u64,
    /// What an update has staged, between updates empty.
    staged: Staged,
}

#[derive(Debug, Clone)]
struct Level {
    graph: FamilyExpander,
    fields: FieldArray,
}

impl DynamicDict {
    /// Whether a record of `params`' width is stored in its membership
    /// slot on blocks of `block_words` words: a bucket of `[flags, key,
    /// σ words]` slots, sized for the capacity, fits one block. Derived,
    /// never set — the layout is a function of (σ, N, B) alone.
    #[must_use]
    pub fn records_inline(params: &DictParams, block_words: usize) -> bool {
        let sigma = params.satellite_words;
        let cfg = BasicDictConfig::log_load(params.capacity.max(2), params.universe, params.degree.max(1), sigma, 0);
        BucketCodec::new(sigma).slot_words() * cfg.bucket_slots <= block_words
    }

    /// Whether this instance stores its records inline (no retrieval
    /// level): [`Self::records_inline`] of its parameters and block size.
    #[must_use]
    pub fn is_inline(&self) -> bool {
        self.levels.is_empty()
    }

    /// Create an empty dictionary on disks
    /// `first_disk .. first_disk + 2d`: the membership on the first `d`, the
    /// levels on the others — or, records [inline](Self::records_inline),
    /// the membership spread over all `2d`.
    pub fn create(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        params: DictParams,
    ) -> Result<Self, DictError> {
        params.validate(disks.config(), true)?;
        let d = params.degree;
        let (graph_eps, min_degree) = expander::params::theorem7_graph_epsilon(params.epsilon_perf);
        if d < min_degree {
            return Err(DictError::UnsupportedParams(format!(
                "Theorem 7 with ɛ = {} needs degree d > 6(1 + 1/ɛ) = {}, got {d}",
                params.epsilon_perf,
                min_degree - 1
            )));
        }
        let n_cap = params.capacity.max(2);
        let enc = Chain::new(params.sigma_bits(), d);

        // Write-ahead intent journal, reserved through the same allocator
        // as the dictionary regions and **before** them, so any structure
        // created later (including a rebuild replacement) can never
        // collide with the ring. A rebuild replacement sharing the array
        // reuses the already-enabled journal instead.
        if params.journal_rows > 0 && !disks.journal_enabled() {
            let region = alloc.alloc(disks, 0, disks.disks(), params.journal_rows);
            disks.enable_journal(JournalRegion {
                first_block: region.first_block,
                rows: params.journal_rows,
            });
        }

        // Membership payload: the satellite itself when it fits, else the
        // head stripe + level, packed into one word.
        let inline = Self::records_inline(&params, disks.block_words());
        let payload_words = if inline { params.satellite_words } else { 1 };
        let mcfg = BasicDictConfig::log_load(n_cap, params.universe, d, payload_words, params.seed ^ 0x4D45_4D42)
            .with_family(params.family);
        let membership = BasicDict::create_on(disks, alloc, first_disk..first_disk + (d << usize::from(inline)), mcfg)?;
        if membership.blocks_per_bucket() != 1 {
            return Err(DictError::UnsupportedParams(format!(
                "Theorem 7 inherits Theorem 6(a)'s condition B = Ω(log n): a bucket of {} \
                 slots must fit one block of {} words",
                membership.config().bucket_slots,
                disks.block_words()
            )));
        }

        // Retrieval levels, sizes v·(6ε)^{i-1}, each its own expander.
        let l = if inline { 0 } else { params::theorem7_levels(n_cap, graph_eps).max(1) };
        let shrink = 6.0 * graph_eps;
        let mut levels = Vec::with_capacity(l);
        let mut stripe = ((params.right_slack * n_cap as f64).ceil() as usize).max(4);
        for i in 0..l {
            let graph = params.family.build(
                params.universe,
                stripe,
                d,
                params.seed.wrapping_add(0xBEEF).wrapping_add(i as u64),
            );
            let fields =
                FieldArray::create(disks, alloc, first_disk + d, d, stripe, enc.field_bits)?;
            levels.push(Level { graph, fields });
            stripe = ((stripe as f64 * shrink).ceil() as usize).max(4);
        }

        Ok(DynamicDict {
            params,
            membership,
            levels,
            enc,
            len: 0,
            insertions: 0,
            level_population: vec![0; l.max(1)],
            copies: 0,
            journal_seq: disks.last_journal_seq(),
            staged: Staged::default(),
        })
    }

    /// Reconstruct an instance over an existing disk image whose journal
    /// ring lives at `region`: adopt the persisted superblock
    /// ([`DiskArray::reopen_journal`]), rebuild the (deterministic)
    /// layout, replay in-flight intents ([`DiskArray::recover`]), restore
    /// counters from the persisted checkpoint, reconcile them with the
    /// replay, recount an inline structure's live keys from the image (its
    /// one-block updates went in place with no intent), and truncate. The result answers lookups for every key
    /// whose journaled mutation was acked before the crash.
    ///
    /// `params` must equal the parameters the image was created with
    /// (the layout is a pure function of them), including
    /// `journal_rows == region.rows`.
    pub fn reopen(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        params: DictParams,
        region: JournalRegion,
    ) -> Result<(Self, RecoveryReport), DictError> {
        assert_eq!(
            params.journal_rows, region.rows,
            "reopen params disagree with the journal region"
        );
        disks.reopen_journal(region);
        // Account the ring in the (fresh) allocator so `create` places
        // the dictionary regions exactly where they were originally.
        let _ = alloc.alloc(disks, 0, disks.disks(), region.rows);
        let mut dict = Self::create(disks, alloc, first_disk, params)?;
        let report = disks.recover();
        let meta = disks.journal_meta();
        if !meta.is_empty() && !dict.adopt_section(meta) {
            return Err(DictError::UnsupportedParams(
                "journal checkpoint does not belong to this dictionary".into(),
            ));
        }
        dict.apply_replay(&report);
        dict.recount(disks);
        disks.journal_checkpoint(&dict.checkpoint_section());
        Ok((dict, report))
    }

    /// Instance tag recorded as `meta[0]` of every journal entry and
    /// checkpoint: the placement of the level-1 field region (of the
    /// membership region when records are inline), unique per live
    /// instance (the allocator hands out disjoint regions, and the two lie
    /// on different disks of a slot). Replay reconciliation filters on it,
    /// so two structures sharing one journal (the active dictionary and its
    /// rebuild replacement) only consume their own deltas.
    pub(crate) fn meta_tag(&self) -> Word {
        let r = self.levels.first().map_or(&self.membership.regions()[0], |level| level.fields.region());
        ((r.first_disk as Word) << 32) | r.first_block as Word
    }

    /// This instance's section of the metadata checkpoint persisted in the
    /// journal superblock: `[tag, words following, seq, len, insertions,
    /// copies, level populations…]`. The checkpoint is a list of such
    /// sections, one per instance sharing the journal (one standalone; the
    /// active structure and its replacement under global rebuilding), each
    /// kept current by its owner after every intent it appends
    /// ([`Self::after_op`]). `seq` is the owner's watermark when the
    /// counters were taken: they reflect exactly its intents up to `seq`,
    /// and newer intents still in the ring carry the deltas — so whichever
    /// moment a group-commit truncation freezes the checkpoint at, counters
    /// and replay add up exactly.
    pub(crate) fn checkpoint_section(&self) -> Vec<Word> {
        let mut section = vec![0; self.section_len()];
        self.fill_section(&mut section);
        section
    }

    /// Words of [`checkpoint_section`](Self::checkpoint_section).
    fn section_len(&self) -> usize {
        6 + self.level_population.len()
    }

    /// Write [`checkpoint_section`](Self::checkpoint_section) into
    /// `section`, which has its length.
    fn fill_section(&self, section: &mut [Word]) {
        section[..6].copy_from_slice(&[
            self.meta_tag(),
            (self.section_len() - 2) as Word,
            self.journal_seq,
            self.len as Word,
            self.insertions as Word,
            self.copies as Word,
        ]);
        for (w, &p) in section[6..].iter_mut().zip(&self.level_population) {
            *w = p as Word;
        }
    }

    /// Where this instance's section sits in a checkpoint `meta`.
    fn find_section(&self, meta: &[Word]) -> Option<Range<usize>> {
        let tag = self.meta_tag();
        let mut at = 0;
        while at + 2 <= meta.len() {
            let end = at + 2 + meta[at + 1] as usize;
            if meta[at] == tag {
                return (end <= meta.len()).then_some(at..end);
            }
            at = end;
        }
        None
    }

    /// Adopt the counters of this instance's section of the checkpoint
    /// `meta` unless the instance already holds newer ones (its watermark
    /// is past the section's — a live instance recovering in place).
    /// Returns `false` if `meta` has no well-formed section under this
    /// instance's tag.
    pub(crate) fn adopt_section(&mut self, meta: &[Word]) -> bool {
        let Some(range) = self.find_section(meta) else {
            return false;
        };
        let section = &meta[range];
        if section.len() != self.section_len() {
            return false;
        }
        if section[2] >= self.journal_seq {
            self.journal_seq = section[2];
            self.len = section[3] as usize;
            self.insertions = section[4] as usize;
            self.copies = section[5] as usize;
            for (p, &w) in self.level_population.iter_mut().zip(&section[6..]) {
                *p = w as usize;
            }
            self.membership.set_len(self.len);
        }
        true
    }

    /// Reconcile the in-memory counters with a recovery replay: apply
    /// the per-op deltas of every replayed intent that is tagged with
    /// this instance's identity and newer than its watermark. The
    /// watermark makes reconciliation idempotent — recovering twice, or
    /// replaying an intent the counters already reflect, changes
    /// nothing. Returns how many intents were applied.
    pub fn apply_replay(&mut self, report: &RecoveryReport) -> usize {
        let tag = self.meta_tag();
        let mut applied = 0;
        for intent in &report.replayed {
            let op = intent.meta.get(1);
            let tombstones = intent.meta.chunks_exact(4).find(|section| section[0] == tag);
            let tombstones = tombstones.filter(|_| op == Some(&META_TOMBSTONES));
            let mine = intent.meta.first() == Some(&tag)
                || tombstones.is_some()
                || (op == Some(&META_DELETE) && intent.meta.get(2) == Some(&tag));
            if intent.seq <= self.journal_seq || !mine {
                continue;
            }
            match op {
                Some(&META_TOMBSTONES) => {
                    let section = tombstones.unwrap_or(&[0; 4]);
                    self.len = self.len.saturating_sub(section[2] as usize);
                    self.membership.set_len(self.len);
                    self.copies = self.copies.saturating_sub(section[3] as usize);
                }
                Some(&META_INSERT) => {
                    let level = intent.meta.get(2).map_or(0, |&l| l as usize);
                    self.membership.note_inserted();
                    self.len += 1;
                    self.insertions += 1;
                    if let Some(p) = self.level_population.get_mut(level) {
                        *p += 1;
                    }
                }
                Some(&META_DELETE) => {
                    self.membership.note_deleted();
                    self.len = self.len.saturating_sub(1);
                    if intent.meta.len() > 2 && intent.meta[0] == tag {
                        // Tombstoned here and in its migration source.
                        self.copies = self.copies.saturating_sub(1);
                    }
                }
                Some(&(META_BATCH | META_MIGRATE_BATCH)) => {
                    for (level, &dp) in intent.meta[2..].iter().enumerate() {
                        let dp = dp as usize;
                        if op == Some(&META_MIGRATE_BATCH) {
                            self.copies += dp;
                        }
                        self.len += dp;
                        self.insertions += dp;
                        if let Some(p) = self.level_population.get_mut(level) {
                            *p += dp;
                        }
                        for _ in 0..dp {
                            self.membership.note_inserted();
                        }
                    }
                }
                _ => {}
            }
            self.journal_seq = self.journal_seq.max(intent.seq);
            applied += 1;
        }
        applied
    }

    /// Under a journal, take an inline structure's `len` (and insertions, by
    /// what it grew) from one verified read of its membership, and return
    /// the keys counted: a one-block update went in place with no intent
    /// ([`Staged::commit`]). A damaged bucket leaves the counters as they are.
    pub(crate) fn recount(&mut self, disks: &mut DiskArray) -> Option<Vec<u64>> {
        if !self.is_inline() || !disks.journal_enabled() {
            return None;
        }
        let keys = self.membership.live_keys(disks)?;
        let len = keys.len();
        let grown = len.saturating_sub(self.len);
        self.insertions += grown;
        self.level_population[0] += grown;
        self.len = len;
        self.membership.set_len(len);
        Some(keys)
    }

    /// Post-mutation journal bookkeeping: advance the watermark to the
    /// intent just appended and stage the updated counters — this
    /// instance's [section](Self::checkpoint_section) of the checkpoint,
    /// rewritten where it lies, other instances' sections left as they are
    /// — for the next group-commit truncation.
    fn after_op(&mut self, disks: &mut DiskArray) {
        if !disks.journal_enabled() {
            return;
        }
        self.journal_seq = self.journal_seq.max(disks.last_journal_seq());
        let len = self.section_len();
        disks.journal_edit_meta(|meta| {
            let range = match self.find_section(meta) {
                Some(range) if range.len() == len => range,
                Some(range) => {
                    meta.splice(range.clone(), std::iter::repeat_n(0, len));
                    range.start..range.start + len
                }
                None => {
                    meta.resize(meta.len() + len, 0);
                    meta.len() - len..meta.len()
                }
            };
            self.fill_section(&mut meta[range]);
        });
    }

    /// The executor's images and healths of `addrs` — no health, when all
    /// are `Ok` — re-read once (a later clock: a transient window can pass)
    /// if any is not what its block holds.
    fn staged_probe<'s>(
        ex: &'s mut BatchExecutor<'_>,
        addrs: &'s [BlockAddr],
    ) -> (StagedBlocks<'s>, Vec<BlockHealth>) {
        let mut healths = ex.verify(addrs);
        if !healths.is_empty() {
            ex.get_many(addrs);
            healths = ex.refresh(addrs);
        }
        (ex.get_many(addrs), healths)
    }

    /// Per structure `(tombstones, of them copies)` of keys tombstoned where
    /// the bit sets `held` say: one gone from both no longer double-counts.
    fn tombstone_counts(held: impl Iterator<Item = usize>) -> [(usize, usize); 2] {
        let mut gone = [(0, 0); 2];
        for h in held {
            gone[0] = (gone[0].0 + (h & 1), gone[0].1 + usize::from(h == 3));
            gone[1].0 += h >> 1;
        }
        gone
    }

    /// The [`META_TOMBSTONES`] metadata of an intent with `counts` in `dicts`,
    /// and its length.
    fn tombstone_meta(dicts: &[&mut DynamicDict], counts: [(usize, usize); 2]) -> ([Word; 8], usize) {
        let (mut meta, mut len) = ([0; 8], 0);
        for (dict, (n, c)) in dicts.iter().zip(counts).filter(|(_, gone)| gone.0 > 0) {
            meta[len..len + 4].copy_from_slice(&[dict.meta_tag(), META_TOMBSTONES, n as Word, c as Word]);
            len += 4;
        }
        (meta, len)
    }

    /// Keys stored here that a migration source still holds.
    pub(crate) fn copies(&self) -> usize {
        self.copies
    }

    /// Set [`Self::copies`]: none once the migration source is gone, or the
    /// keys a recovery counted in both structures.
    pub(crate) fn set_copies(&mut self, copies: usize) {
        self.copies = copies;
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

    /// Capacity `N`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.params.capacity
    }

    /// The parameters the structure was laid out with.
    #[must_use]
    pub fn params(&self) -> &DictParams {
        &self.params
    }

    /// Total insertions ever performed, deleted keys included.
    #[must_use]
    pub fn insertions(&self) -> usize {
        self.insertions
    }

    /// The capacity budget used: an insertion is refused once it reaches
    /// [`capacity`](Self::capacity), and a rebuilding [`crate::Dictionary`]
    /// grows at 3/4 of it. With records inline a deletion tombstones the
    /// key's slot and a later insertion reuses it (§4.1), so the budget is
    /// the live keys. Chained, deleted keys do not release their fields
    /// ("no piece of data is ever moved, once inserted"), so it is every
    /// [insertion](Self::insertions); global rebuilding resets it.
    #[must_use]
    pub fn budget_used(&self) -> usize {
        if self.is_inline() { self.len } else { self.insertions }
    }

    /// Number of retrieval levels `l`.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// How many keys landed on each level (diagnostics for THM7).
    #[must_use]
    pub fn level_population(&self) -> &[usize] {
        &self.level_population
    }

    /// This structure's rows of [`crate::layout::space_ledger`]: the
    /// blocks of each region the allocator handed it.
    #[must_use]
    pub fn space_rows(&self) -> Vec<SpaceRow> {
        let levels = self.levels.iter().enumerate();
        let levels = levels.map(|(i, lv)| (format!("level_{}", i + 1), lv.fields.region().total_blocks()));
        let membership = ("membership".to_string(), self.membership.regions().iter().map(|r| r.total_blocks()).sum());
        std::iter::once(membership).chain(levels).collect()
    }

    /// Space usage in words.
    #[must_use]
    pub fn space_words(&self, disks: &DiskArray) -> usize {
        self.space_rows().iter().map(|(_, blocks)| blocks).sum::<usize>() * disks.block_words()
    }

    fn pack_payload(head_stripe: usize, level: usize) -> Word {
        (head_stripe as Word) | ((level as Word) << 32)
    }

    fn unpack_payload(payload: Word) -> (usize, usize) {
        ((payload & 0xFFFF_FFFF) as usize, (payload >> 32) as usize)
    }

    /// `key`'s candidate field on each stripe of `level`: entry `s` is the
    /// field's index within stripe `s` (one neighbor per stripe).
    fn level_fields(&self, level: usize, key: u64) -> Vec<usize> {
        let graph = &self.levels[level].graph;
        let mut fields = graph.neighbors(key);
        for (stripe, y) in fields.iter_mut().enumerate() {
            let (s, j) = graph.stripe_of(*y);
            debug_assert_eq!(s, stripe);
            *y = j;
        }
        fields
    }

    /// The first unhealthy probe in a verified batch as a typed error.
    fn io_error<'a>(
        addrs: impl IntoIterator<Item = &'a BlockAddr>,
        healths: &[BlockHealth],
    ) -> Option<DictError> {
        healths
            .iter()
            .zip(addrs)
            .find(|(h, _)| !h.is_ok())
            .map(|(h, a)| DictError::Io {
                kind: h.fault_kind().unwrap_or(IoFaultKind::TransientError),
                disk: a.disk,
                addr: a.block,
            })
    }

    /// The first-round probe of `key` (no I/O); its addresses are appended
    /// to `addrs`.
    fn probe(&self, key: u64, addrs: &mut Vec<BlockAddr>) -> Probe {
        let start = addrs.len();
        addrs.reserve(self.probe_blocks());
        self.membership.extend_probe_addrs(key, addrs);
        let msplit = addrs.len() - start;
        let Some(level) = self.levels.first() else {
            return Probe { msplit, fields0: Vec::new() };
        };
        let fields0 = self.level_fields(0, key);
        addrs.extend(level.fields.probe_addrs(positions(&fields0)));
        Probe { msplit, fields0 }
    }

    /// Decode `key` from the blocks read for its [`Probe`] (no I/O).
    /// `scratch` is working space for the extracted fields.
    fn first_round(
        &self,
        key: u64,
        probe: &Probe,
        blocks: &impl BlockView,
        scratch: &mut Vec<Word>,
    ) -> FirstRound {
        let mblocks = blocks.sub(0..probe.msplit);
        if self.is_inline() {
            let satellite = self.membership.find_with(key, &mblocks, <[Word]>::to_vec);
            return satellite.map_or(FirstRound::Absent, |satellite| FirstRound::Here(Some(satellite)));
        }
        let record = |payload: &[Word]| Self::unpack_payload(payload[0]);
        let Some((head, level)) = self.membership.find_with(key, &mblocks, record) else {
            return FirstRound::Absent;
        };
        if level == 0 {
            let fblocks0 = blocks.sub(probe.msplit..blocks.len());
            self.levels[0].fields.extract(positions(&probe.fields0), &fblocks0, scratch);
            return FirstRound::Here(self.decode_satellite(head, scratch));
        }
        FirstRound::Deeper(self.chain(key, head, level))
    }

    /// Blocks of a first-round probe: `d` membership buckets, and `d`
    /// level-1 fields unless records are inline.
    fn probe_blocks(&self) -> usize {
        self.params.degree * if self.is_inline() { 1 } else { 2 }
    }

    /// `key`'s chain starting at stripe `head` of `level`, located.
    fn chain(&self, key: u64, head: usize, level: usize) -> DeeperRecord {
        let fields = self.level_fields(level, key);
        let addrs = self.levels[level].fields.probe_addrs(positions(&fields)).collect();
        DeeperRecord {
            level,
            head,
            fields,
            addrs,
        }
    }

    /// Where the membership record `payload` of `key` says its satellite
    /// lies.
    fn locate(&self, key: u64, payload: Vec<Word>) -> Located {
        if self.is_inline() {
            return Located::Inline(payload);
        }
        let (head, level) = Self::unpack_payload(payload[0]);
        Located::Chain(self.chain(key, head, level))
    }

    /// Decode a deeper record from the blocks read for its `addrs`.
    fn decode_deeper(
        &self,
        record: &DeeperRecord,
        blocks: &impl BlockView,
        scratch: &mut Vec<Word>,
    ) -> Option<Vec<Word>> {
        let fields = &self.levels[record.level].fields;
        fields.extract(positions(&record.fields), blocks, scratch);
        self.decode_satellite(record.head, scratch)
    }

    /// Lookup, as the batch of one ([`Self::lookup_batch`]). 1 parallel I/O
    /// when the key is absent, lives on level 1 or records are inline; 2
    /// parallel I/Os otherwise — averaging `1 + ɛ` over stored keys.
    ///
    /// Reads are verified: a probe that fails (dead disk, transient
    /// window, checksum mismatch) is retried once; if damage persists the
    /// outcome is flagged [`crate::Provenance::Degraded`] and decodes
    /// fail closed — a damaged key reads as a miss, never as wrong data.
    pub fn lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        let scope = disks.begin_op();
        let mut answer = None;
        Self::lookup_in(disks, &[self], &[key], |_, satellite, degraded| answer = Some((satellite, degraded)));
        let (satellite, degraded) = answer.expect("one answer per key");
        outcome(satellite, disks.end_op(scope), degraded)
    }

    /// Decode the chain starting at stripe `head` of the `d` extracted
    /// `fields`.
    fn decode_satellite(&self, head: usize, fields: &[Word]) -> Option<Vec<Word>> {
        self.enc.decode(head, fields).map(|mut s| {
            s.truncate(self.params.satellite_words);
            s.resize(self.params.satellite_words, 0);
            s
        })
    }

    /// Batched lookup: one plan covers every key's membership probe plus
    /// level-1 fields (all that most keys — and all misses — ever need); a
    /// second plan covers only the stragglers that landed on a deeper
    /// level. `m` lookups therefore cost at most two batch rounds of
    /// per-disk-maximum I/Os instead of up to `2m` sequential ones, and a
    /// key whose blocks read unhealthy is re-read once, together with the
    /// other damaged keys of its plan, in one more.
    pub fn lookup_batch(
        &self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let scope = disks.begin_op();
        let mut results = vec![None; keys.len()];
        Self::lookup_in(disks, &[self], keys, |i, satellite, _| results[i] = satellite);
        (results, disks.end_op(scope))
    }

    /// The lookup engine: `keys` in `dicts` — one structure, or a rebuild's
    /// replacement followed by the structure it is built from, on disjoint
    /// disks — handing `answer` each key's index, its satellite in the
    /// first structure holding it, and whether a block the answer rests on
    /// read damaged ([`crate::Provenance::Degraded`]).
    ///
    /// One plan reads every key's first-round probe in every structure; a
    /// structure's first round is decoded only when the ones before it did
    /// not answer outright. One more plan reads the records on a deeper
    /// level of the first structure that holds the key — and, where such a
    /// record does not decode, one more the next structure's. Each plan
    /// re-reads its damaged keys once, together, in one more plan: the rule
    /// "retried once, then degraded". Decodes fail closed.
    pub(crate) fn lookup_in(
        disks: &mut DiskArray,
        dicts: &[&DynamicDict],
        keys: &[u64],
        mut answer: impl FnMut(usize, Option<Vec<Word>>, bool),
    ) {
        assert!(dicts.len() <= 2, "a key lives in at most two structures");
        let per: usize = dicts.iter().map(|dict| dict.probe_blocks()).sum();
        let mut addrs = Vec::with_capacity(keys.len() * per);
        let mut found: Vec<Found> = keys
            .iter()
            .map(|&key| {
                let start = addrs.len();
                let probes = [0, 1].map(|j| dicts.get(j).map(|dict| dict.probe(key, &mut addrs)));
                debug_assert_eq!(addrs.len() - start, per, "every probe is as wide");
                Found { probes, firsts: [None, None], at: 0, taint: false }
            })
            .collect();
        let mut scratch = Vec::new();
        read_retried(disks, &addrs, per, |i, reads, range| {
            let f = &mut found[i];
            let mut at = range.start;
            for (j, dict) in dicts.iter().enumerate() {
                let probe = f.probes[j].take().expect("probed");
                let blocks = at..at + probe.len();
                at = blocks.end;
                let first = dict.first_round(keys[i], &probe, &reads.sub(blocks.clone()), &mut scratch);
                let answered = matches!(first, FirstRound::Here(Some(_)));
                f.firsts[j] = Some((first, !reads.range_ok(blocks)));
                if answered {
                    break;
                }
            }
        });
        // (key, structure, record) of the keys a deeper level answers.
        let mut deeper = Vec::new();
        for (i, f) in found.iter_mut().enumerate() {
            f.settle(i, &mut deeper, &mut answer);
        }
        while !deeper.is_empty() {
            // A record is its `d` fields, in either structure.
            addrs.clear();
            addrs.extend(deeper.iter().flat_map(|(_, _, record): &(usize, usize, DeeperRecord)| &record.addrs));
            let mut decoded = vec![(None, false); deeper.len()];
            read_retried(disks, &addrs, addrs.len() / deeper.len(), |p, reads, range| {
                let (_, j, record) = &deeper[p];
                let satellite = dicts[*j].decode_deeper(record, &reads.sub(range.clone()), &mut scratch);
                decoded[p] = (satellite, !reads.range_ok(range));
            });
            let mut next = Vec::new();
            for ((i, _, _), (satellite, damaged)) in deeper.drain(..).zip(decoded) {
                let f = &mut found[i];
                f.taint |= damaged;
                match satellite {
                    Some(satellite) => answer(i, Some(satellite), f.taint),
                    None => {
                        f.at += 1;
                        f.settle(i, &mut next, &mut answer);
                    }
                }
            }
            deeper = next;
        }
    }

    /// Insertions one commit may stage and still fit the journal ring as
    /// one intent (`usize::MAX` without a journal): a batched insert and
    /// the migration step commit what they have staged at this many keys.
    /// An insertion changes at most a field's words (one more when it
    /// straddles a word) in each of `m` blocks — none when records are
    /// inline — and one slot of a bucket; keys sharing a block only share
    /// its header.
    fn intent_keys(&self, disks: &DiskArray) -> usize {
        use pdm::journal::{RUN_WORDS, TARGET_WORDS};
        let field = TARGET_WORDS + RUN_WORDS + self.enc.field_words() + 1;
        // A slot is its flags, its key and its payload.
        let slot = TARGET_WORDS + RUN_WORDS + 2 + self.membership.config().payload_words;
        let per_key = self.chain_blocks() * field + self.membership.blocks_per_bucket() * slot;
        (disks.journal_intent_capacity(2 + self.level_population.len()) / per_key).max(1)
    }

    /// Field blocks one insertion writes: `m`, none when records are inline.
    fn chain_blocks(&self) -> usize {
        if self.is_inline() {
            0
        } else {
            self.enc.fields_per_key
        }
    }

    /// Commit the insertions `staged` holds as one journal intent tagged
    /// `op` ([`META_BATCH`] or [`META_MIGRATE_BATCH`]) whose metadata carries
    /// their per-level counts (one count when records are inline), enough
    /// to reconcile `len`/`insertions`/populations on replay. A key that did
    /// not land ([`Staged::commit`]) is counted out again; returns its error.
    fn commit_staged(
        &mut self,
        ex: &mut BatchExecutor<'_>,
        op: Word,
        staged: &mut Staged,
        results: &mut [Result<(), DictError>],
    ) -> Option<DictError> {
        let len = 2 + self.level_population.len();
        let (mut inline, mut spilled) = ([0; 16], Vec::new());
        let meta: &mut [Word] = if len <= 16 { &mut inline[..len] } else { spilled.resize(len, 0); &mut spilled };
        (meta[0], meta[1]) = (self.meta_tag(), op);
        for &(_, level, _) in &staged.keys {
            meta[2 + level] += 1;
        }
        let recountable = self.is_inline() && op != META_MIGRATE_BATCH;
        staged.commit(ex, meta, recountable, results, |settled, disks| {
            for (level, _) in settled.filter(|key| !key.1) {
                self.len -= 1;
                self.insertions -= 1;
                self.level_population[level] -= 1;
                self.copies -= usize::from(op == META_MIGRATE_BATCH);
            }
            self.membership.set_len(self.len);
            // Per commit, not per batch: a group-commit truncation between
            // two commits must pair the first's seq with counters holding it.
            self.after_op(disks);
        })
    }

    /// Batched insert with sequential semantics: keys are placed
    /// first-fit in order, each seeing its predecessors' staged fields
    /// (so intra-batch occupancy is exactly what a sequential loop would
    /// observe), and all dirty blocks flush as one planned write batch.
    /// Membership and level-1 blocks for the whole batch are prefetched
    /// in one plan; only deeper-level probes read on demand.
    ///
    /// Under a journal the flush is one intent, atomic under a crash — or,
    /// for a batch of more keys than the ring holds as one intent, one per
    /// ring-sized run of keys in order, each atomic: a crash keeps a prefix
    /// of the batch, and no batch ever bypasses the ring.
    ///
    /// Processing **stops at the first budget error**
    /// ([`DictError::CapacityExhausted`] / [`DictError::LevelsExhausted`]):
    /// the returned vector then ends with that error and is shorter than
    /// `entries`, and no entry past the failed one has been committed.
    /// This lets a caller (the global-rebuilding [`crate::Dictionary`])
    /// re-route the failed key *and everything after it* through another
    /// structure without double-inserting keys this batch already stored.
    /// Non-budget errors (duplicates, satellite width) are per-key and do
    /// not stop the batch, exactly as in a sequential loop; neither does a
    /// write that did not land on the commit's one retry ([`DictError::Io`]),
    /// though the keys not yet staged then fail with its error too.
    pub fn insert_batch<S: AsRef<[Word]>>(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(u64, S)],
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        self.insert_batch_beside(disks, entries, None)
    }

    /// [`Self::insert_batch`], into a rebuild's replacement when `old` is the
    /// structure it is built from (other disks of `disks`): the same plan
    /// probes `old`'s membership — the authority on what it holds — and a
    /// key found there is a duplicate. A budget error then stops nothing.
    /// A key the checks refuse before any I/O ([`Self::check_insertable`] at
    /// the call's start) is not probed: an insert refused so costs nothing.
    pub(crate) fn insert_batch_beside<S: AsRef<[Word]>>(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(u64, S)],
        old: Option<&DynamicDict>,
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        let scope = disks.begin_op();
        let open = self.budget_used() < self.params.capacity;
        let probed = |satellite: &[Word], sigma: usize| open && satellite.len() == sigma;
        let sigma = self.params.satellite_words;
        let twin = old.map_or(0, |old| old.membership.probe_blocks());
        let mut all: Vec<BlockAddr> = Vec::with_capacity(entries.len() * (self.probe_blocks() + twin));
        // Each probed key's probe here, then `old`'s membership probe.
        let mut probes = Vec::with_capacity(entries.len());
        for (key, _) in entries.iter().filter(|(_, satellite)| probed(satellite.as_ref(), sigma)) {
            let start = all.len();
            probes.push((self.probe(*key, &mut all), start));
            if let Some(old) = old {
                old.membership.extend_probe_addrs(*key, &mut all);
            }
        }
        let mut probes = probes.into_iter();
        let room = self.intent_keys(disks);
        let mut ex = BatchExecutor::new(disks);
        ex.prefetch(&all);
        let mut results = Vec::with_capacity(entries.len());
        let mut staged = std::mem::take(&mut self.staged);
        for (i, (key, satellite)) in entries.iter().enumerate() {
            let satellite = satellite.as_ref();
            if staged.keys.len() == room {
                if let Some(e) = self.commit_staged(&mut ex, META_BATCH, &mut staged, &mut results) {
                    results.resize(entries.len(), Err(e));
                    break;
                }
            }
            let probe = probed(satellite, sigma).then(|| probes.next().expect("one probe per probed key"));
            let res = self.check_insertable(satellite).and_then(|()| {
                let (probe, start) = probe.expect("an insertable key was probed");
                let own = start..start + probe.len();
                if let Some(old) = old {
                    let addrs = &all[own.end..own.end + twin];
                    let (blocks, healths) = Self::staged_probe(&mut ex, addrs);
                    if old.membership.find_with(*key, &blocks, |_| ()).is_some() {
                        return Err(DictError::DuplicateKey(*key));
                    }
                    if let Some(e) = Self::io_error(addrs, &healths) {
                        return Err(e);
                    }
                }
                self.insert_staged(&mut ex, &mut staged, i, *key, satellite, &probe, &all[own])
            });
            let stop = old.is_none()
                && matches!(
                    res,
                    Err(DictError::CapacityExhausted { .. } | DictError::LevelsExhausted { .. })
                );
            results.push(res);
            if stop {
                break;
            }
        }
        self.commit_staged(&mut ex, META_BATCH, &mut staged, &mut results);
        self.staged = staged;
        drop(ex);
        (results, disks.end_op(scope))
    }

    /// The checks an insertion makes before any I/O.
    fn check_insertable(&self, satellite: &[Word]) -> Result<(), DictError> {
        if satellite.len() != self.params.satellite_words {
            return Err(DictError::SatelliteWidth {
                expected: self.params.satellite_words,
                got: satellite.len(),
            });
        }
        if self.budget_used() >= self.params.capacity {
            return Err(DictError::CapacityExhausted {
                capacity: self.params.capacity,
            });
        }
        Ok(())
    }

    /// First-fit test of one level: the stripes of the first `m` of the
    /// key's candidate `fields` that are unoccupied in `fblocks` (the
    /// blocks read for them, stripe order), if there are `m`. Routes
    /// around damage: a field on an unreadable block (`fhealths`, empty
    /// when none is) counts as occupied, so no data is placed where a write
    /// would be dropped or a later read sanitized.
    fn free_stripes(
        &self,
        level: usize,
        fields: &[usize],
        fblocks: &impl BlockView,
        fhealths: &[BlockHealth],
        scratch: &mut Vec<Word>,
    ) -> Option<Vec<usize>> {
        self.levels[level].fields.extract(positions(fields), fblocks, scratch);
        let (m, w) = (self.enc.fields_per_key, self.enc.field_words());
        let healthy = |s: usize| fhealths.get(s).is_none_or(|h| h.is_ok());
        let mut free = Vec::with_capacity(m);
        free.extend(
            (0..fields.len())
                .filter(|&s| healthy(s) && !self.enc.is_occupied(&scratch[s * w..]))
                .take(m),
        );
        (free.len() == m).then_some(free)
    }

    /// One first-fit insertion through a batch executor, from the key's
    /// first-round `probe` (its blocks `addrs`, prefetched): reads come from
    /// the executor's cache (which reflects earlier keys' staged writes),
    /// a deeper level's fields read on demand, each read retried once under
    /// damage; writes are staged rather than flushed and noted in `staged`
    /// under `index`. The caller has made [`Self::check_insertable`]'s checks.
    #[allow(clippy::too_many_arguments)]
    fn insert_staged(
        &mut self,
        ex: &mut BatchExecutor<'_>,
        staged: &mut Staged,
        index: usize,
        key: u64,
        satellite: &[Word],
        probe: &Probe,
        addrs: &[BlockAddr],
    ) -> Result<(), DictError> {
        let maddrs = &addrs[..probe.msplit];
        // A membership bucket that stays unreadable makes the duplicate
        // check unsound, so the insertion must fail typed, not guess.
        let (mblocks, mhealths) = Self::staged_probe(ex, maddrs);
        if let Some(e) = Self::io_error(maddrs, &mhealths) {
            return Err(e);
        }
        let slot = self.membership.choose_slot(key, &mblocks)?;

        let mut scratch = Vec::new();
        let mut chosen = None;
        for level in 0..self.levels.len() {
            let (fields, faddrs): (Cow<'_, [usize]>, Cow<'_, [BlockAddr]>) = if level == 0 {
                (probe.fields0[..].into(), addrs[probe.msplit..].into())
            } else {
                let fields = self.level_fields(level, key);
                let faddrs = self.levels[level].fields.probe_addrs(positions(&fields)).collect();
                (fields.into(), faddrs)
            };
            let (fblocks, fhealths) = Self::staged_probe(ex, &faddrs);
            if let Some(stripes) = self.free_stripes(level, &fields, &fblocks, &fhealths, &mut scratch) {
                chosen = Some((level, fields, faddrs, stripes));
                break;
            }
        }
        if chosen.is_none() && !self.is_inline() {
            return Err(DictError::LevelsExhausted { key });
        }

        // Complete the membership record before staging anything: it can
        // still fail (BucketOverflow), and an aborted key must leave the
        // executor's dirty set untouched — otherwise orphaned field slots
        // would flush at commit with no owning membership record.
        let packed;
        let mpayload = match &chosen {
            Some((level, _, _, stripes)) => {
                packed = [Self::pack_payload(stripes[0], *level)];
                &packed[..]
            }
            None => satellite,
        };
        self.membership.check_insertable(mpayload)?;
        let (maddr, at) = slot?;
        let slot_words = self.membership.codec().slot_words();
        let (mut inline, mut spilled) = ([0; 16], Vec::new());
        let record: &mut [Word] = if slot_words <= 16 { &mut inline[..slot_words] } else { spilled.resize(slot_words, 0); &mut spilled };
        self.membership.codec().insert(record, key, mpayload);
        let level = chosen.as_ref().map_or(0, |chain| chain.0);
        if let Some((level, fields, addrs, stripes)) = chosen {
            let encoded = self.enc.encode(&stripes, satellite);
            let fa = &self.levels[level].fields;
            for (&s, bits) in stripes.iter().zip(encoded.chunks(self.enc.field_words())) {
                let pos = (s, fields[s]);
                fa.patch_words(pos, ex.stage_words(addrs[s], fa.words_of(pos)), bits);
                staged.blocks.push(addrs[s]);
            }
        }
        ex.stage_patch(maddr, at, record);
        staged.blocks.push(maddr);
        staged.keys.push((index, level, staged.blocks.len()));
        self.membership.note_inserted();
        self.len += 1;
        self.insertions += 1;
        self.level_population[level] += 1;
        Ok(())
    }

    /// Insert, as the batch of one ([`Self::insert_batch`]). First-fit over
    /// the levels: `j + 1` parallel I/Os when the key lands on level `j`
    /// (1-based), averaging `2 + ɛ`: the duplicate check and level 1 share
    /// the first read, deeper levels are read on demand, and one (journaled)
    /// write stores chain and record. With records inline: 2, the probe and
    /// the one bucket written, in place under a journal too. Refused before
    /// any I/O (satellite width, capacity), it costs nothing.
    pub fn insert(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
        satellite: &[Word],
    ) -> Result<OpCost, DictError> {
        let (mut results, cost) = self.insert_batch(disks, &[(key, satellite)]);
        results.pop().expect("one result per entry").map(|()| cost)
    }

    /// Delete, as the batch of one ([`Self::delete_batch`]): tombstone the
    /// membership record. Inline, a later insertion reuses the slot; chained,
    /// fields are not reclaimed ("no piece of data is ever moved, once
    /// inserted"; space is recovered by global rebuilding). Returns whether
    /// the key was present.
    ///
    /// With a journal enabled an inline tombstone is one block, written in
    /// place with no intent after truncating any live
    /// intent, whose replay over the same bucket would resurrect the key.
    ///
    /// # Errors
    /// As [`Self::delete_batch`]'s for the key.
    pub fn delete(&mut self, disks: &mut DiskArray, key: u64) -> Result<(bool, OpCost), DictError> {
        let (mut results, cost) = self.delete_batch(disks, &[key]);
        results.pop().expect("one result per key").map(|was| (was, cost))
    }

    /// Batched delete with sequential semantics. One plan reads every key's
    /// membership probe; tombstones are planned in order on the executor's
    /// staged view — a key listed twice answers `true`, then `false` — and
    /// committed as **one** planned write under **one** journal intent
    /// (one per ring-sized run of keys on a smaller ring), atomic under a
    /// crash.
    ///
    /// Per key `Ok(held)`, or [`DictError::Io`]: when the key did not show
    /// and a membership probe stayed unreadable after the one retry — a
    /// stored key's bucket may be the one that read as zeros, so "absent"
    /// would be a guess — or when its tombstone did not land after the
    /// commit's one retry of what did not (dropped on a dead disk, torn
    /// twice): the record may still be on disk, so the key stays counted,
    /// and the intent is truncated so that nothing replays a delete that
    /// failed.
    pub fn delete_batch(
        &mut self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Result<bool, DictError>>, OpCost) {
        let scope = disks.begin_op();
        let results = Self::tombstone_batch(disks, &mut [self], keys);
        (results, disks.end_op(scope))
    }

    /// [`Self::delete_batch`] in every structure of `dicts` that holds the
    /// key: one structure, or a rebuild's replacement followed by the
    /// structure it is built from — disjoint disks, so their probes share
    /// rounds, and one intent tombstones a key in both. A structure that
    /// did not show the key behind an unreadable probe fails the key:
    /// tombstoning only the copy in sight would be a guess too.
    pub(crate) fn tombstone_batch(
        disks: &mut DiskArray,
        dicts: &mut [&mut DynamicDict],
        keys: &[u64],
    ) -> Vec<Result<bool, DictError>> {
        use pdm::journal::{RUN_WORDS, TARGET_WORDS};
        assert!(dicts.len() <= 2, "a key lives in at most two structures");
        let each = dicts[0].membership.probe_blocks();
        let mut all: Vec<BlockAddr> = Vec::with_capacity(keys.len() * each * dicts.len());
        for &key in keys {
            for dict in dicts.iter() {
                dict.membership.extend_probe_addrs(key, &mut all);
            }
        }
        let per = each * dicts.len();
        // A tombstone changes one word of one block of each structure.
        let room = disks.journal_intent_capacity(8) / (dicts.len() * (TARGET_WORDS + RUN_WORDS + 1));
        let room = room.max(1);
        let mut ex = BatchExecutor::new(disks);
        ex.prefetch(&all);
        let mut results = Vec::with_capacity(keys.len());
        let mut staged = std::mem::take(&mut dicts[0].staged);
        for (i, &key) in keys.iter().enumerate() {
            if staged.keys.len() == room {
                if let Some(e) = Self::commit_tombstones(&mut ex, dicts, &mut staged, &mut results) {
                    results.resize(keys.len(), Err(e));
                    break;
                }
            }
            let addrs = &all[i * per..(i + 1) * per];
            let (blocks, healths) = Self::staged_probe(&mut ex, addrs);
            let (mut held, mut words, mut unknown) = (0, [None; 2], None);
            for (j, dict) in dicts.iter().enumerate() {
                let at = j * each..(j + 1) * each;
                match dict.membership.tombstone_word(key, &blocks.sub(at.clone())) {
                    Some(word) => {
                        held |= 1 << j;
                        words[j] = Some(word);
                    }
                    None => unknown = unknown.or(Self::io_error(&addrs[at.clone()], healths.get(at).unwrap_or(&[]))),
                }
            }
            if let Some(e) = unknown {
                results.push(Err(e));
                continue;
            }
            for (a, word) in words.into_iter().flatten() {
                ex.stage_words(a, word..word + 1)[0] = BucketCodec::TOMBSTONE;
                staged.blocks.push(a);
            }
            if held != 0 {
                staged.keys.push((i, held, staged.blocks.len()));
            }
            results.push(Ok(held != 0));
        }
        Self::commit_tombstones(&mut ex, dicts, &mut staged, &mut results);
        dicts[0].staged = staged;
        results
    }

    /// Commit the tombstones `staged` holds in `dicts` and count the ones
    /// that landed; the rest answer the typed error this returns.
    fn commit_tombstones(
        ex: &mut BatchExecutor<'_>,
        dicts: &mut [&mut DynamicDict],
        staged: &mut Staged,
        results: &mut [Result<bool, DictError>],
    ) -> Option<DictError> {
        let counts = Self::tombstone_counts(staged.keys.iter().map(|key| key.1));
        let (meta, len) = Self::tombstone_meta(dicts, counts);
        let recountable = dicts.iter().zip(counts).all(|(dict, gone)| gone.0 == 0 || dict.is_inline());
        staged.commit(ex, &meta[..len], recountable, results, |settled, disks| {
            let landed = Self::tombstone_counts(settled.filter(|key| key.1).map(|key| key.0));
            for (dict, (n, c)) in dicts.iter_mut().zip(landed).filter(|(_, gone)| gone.0 > 0) {
                dict.note_deleted(disks, n, c);
            }
        })
    }

    /// Record `n` journaled tombstones, `copies` of them of keys the same
    /// intent tombstoned in this structure's migration source too.
    fn note_deleted(&mut self, disks: &mut DiskArray, n: usize, copies: usize) {
        self.len -= n;
        self.membership.set_len(self.len);
        self.copies -= copies;
        self.after_op(disks);
    }

    /// The live records of membership buckets `buckets` (a sub-range of
    /// `0..membership_buckets()`), read in one charged batch: each key and
    /// where its satellite lies, bucket by bucket. Consecutive buckets sit
    /// on distinct disks, so a short range costs one parallel I/O.
    fn scan_records(&self, disks: &mut DiskArray, buckets: Range<usize>) -> Vec<(u64, Located)> {
        let records = self.membership.scan_buckets(disks, buckets).into_iter();
        records.map(|(key, payload)| (key, self.locate(key, payload))).collect()
    }

    /// Number of membership buckets (scan domain).
    #[must_use]
    pub fn membership_buckets(&self) -> usize {
        self.membership.buckets()
    }

    /// How many of `old`'s membership buckets one planned batch of
    /// [`Self::migrate_from`] may cover and hold at most `blocks` blocks in
    /// memory. A bucket brings `old`'s mean load of keys; for each the
    /// executor holds the blocks it stages where the backend is memory
    /// (`m + 1`; the bucket alone when records are inline here), the blocks
    /// of its rounds where rounds are copied out (the record's `d` fields in
    /// `old`, the first-round probe here: `3d` between chained layouts,
    /// fields left out where records are inline). The answer follows the
    /// medium, not the hazards of the moment (under a fault plan a resident
    /// array's plan holds `3d / (m + 1)` times the bound), or a crash point
    /// would move the very writes it is counted in.
    pub(crate) fn migration_buckets(&self, disks: &DiskArray, old: &DynamicDict, blocks: usize) -> usize {
        let per_key = if disks.backend_resident() {
            self.chain_blocks() + 1
        } else {
            let record = if old.is_inline() { 0 } else { old.params.degree };
            record + self.probe_blocks()
        };
        (blocks * old.membership_buckets() / (per_key * old.len().max(1))).max(1)
    }

    /// One migration step of global rebuilding, as **one planned batch**:
    /// copy every live record of `old`'s membership buckets `buckets` into
    /// this structure. Both structures live on `disks`, on disjoint disk
    /// ranges.
    ///
    /// 1. The buckets are scanned in one charged read; each record found
    ///    is its satellite (records inline in `old`) or names its own level
    ///    and chain head, so `old`'s membership is not probed again.
    /// 2. One plan reads every chained record's fields in `old` *and* every
    ///    key's first-round probe here — per-disk-maximum rounds across
    ///    both disk ranges, not a sum over keys. Each record is thus read
    ///    through `old`'s layout and written through this one's, whichever
    ///    the two are.
    /// 3. Keys are placed first-fit in scan order, each seeing its
    ///    predecessors' staged fields. A key already stored here (deleted
    ///    and re-inserted during the rebuild, or copied by a step that a
    ///    crash cut after its commit) is skipped by the insertion's own
    ///    duplicate check.
    /// 4. The staged blocks commit as one [`META_MIGRATE_BATCH`] intent —
    ///    or, when two full buckets stage more than the ring holds, as
    ///    several in scan order, each atomic, so that no step ever bypasses
    ///    the journal.
    ///
    /// Returns how many keys were copied, and the error that stopped the
    /// step early if one did (what was staged before it is committed).
    pub(crate) fn migrate_from(
        &mut self,
        disks: &mut DiskArray,
        old: &DynamicDict,
        buckets: Range<usize>,
    ) -> (usize, Result<(), DictError>) {
        let records = old.scan_records(disks, buckets);
        if records.is_empty() {
            return (0, Ok(()));
        }
        let mut all: Vec<BlockAddr> = Vec::new();
        let mut fetched = Vec::with_capacity(records.len());
        for (key, located) in &records {
            let at = all.len();
            if let Located::Chain(chain) = located {
                all.extend_from_slice(&chain.addrs);
            }
            let chain = at..all.len();
            fetched.push((chain, self.probe(*key, &mut all)));
        }
        let room = self.intent_keys(disks);
        let mut ex = BatchExecutor::new(disks);
        ex.prefetch(&all);
        // One `Ok` per key copied; a commit that loses one says so there.
        let mut copied = Vec::with_capacity(records.len());
        let mut staged = std::mem::take(&mut self.staged);
        let mut outcome = Ok(());
        let mut scratch = Vec::new();
        for ((key, located), (chain, probe)) in records.into_iter().zip(fetched) {
            let own = chain.end..chain.end + probe.len();
            let satellite = match located {
                Located::Inline(satellite) => Some(satellite),
                Located::Chain(record) => {
                    let (blocks, _) = Self::staged_probe(&mut ex, &all[chain]);
                    old.decode_deeper(&record, &blocks, &mut scratch)
                }
            };
            let Some(satellite) = satellite else {
                continue; // damaged in `old`: reads as a miss there too
            };
            if staged.keys.len() == room {
                if let Some(e) = self.commit_staged(&mut ex, META_MIGRATE_BATCH, &mut staged, &mut copied) {
                    outcome = Err(e);
                    break;
                }
            }
            let index = copied.len();
            let res = self.check_insertable(&satellite);
            match res.and_then(|()| self.insert_staged(&mut ex, &mut staged, index, key, &satellite, &probe, &all[own])) {
                Ok(()) => {
                    copied.push(Ok(()));
                    self.copies += 1;
                }
                Err(DictError::DuplicateKey(_)) => {}
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        if let Some(e) = self.commit_staged(&mut ex, META_MIGRATE_BATCH, &mut staged, &mut copied) {
            outcome = Err(e);
        }
        self.staged = staged;
        (copied.iter().filter(|r| r.is_ok()).count(), outcome)
    }

    /// Test hook: the membership dictionary (disks `0..d` of the structure).
    #[cfg(test)]
    pub(crate) fn membership(&self) -> &BasicDict {
        &self.membership
    }

    /// Test hook: slots per membership bucket — the most records one
    /// scanned bucket can hand a migration step.
    #[cfg(test)]
    pub(crate) fn bucket_slots(&self) -> usize {
        self.membership.config().bucket_slots
    }

    /// Test hook: mark every candidate field of `key` occupied on every
    /// level, so inserting `key` fails with
    /// [`DictError::LevelsExhausted`] (the deterministic stand-in for a
    /// sampled expander missing its unique-neighbor parameters) while
    /// other keys insert normally. Chained layouts only: inline records
    /// have no fields to exhaust.
    #[cfg(test)]
    pub(crate) fn exhaust_key_fields(&self, disks: &mut DiskArray, key: u64) {
        assert!(!self.is_inline(), "inline records have no fields to exhaust");
        let mut field = vec![0 as Word; self.enc.field_words()];
        field[0] = 1; // occupied bit; no chain ever links through it
        for level in 0..self.levels.len() {
            for pos in positions(&self.level_fields(level, key)) {
                self.levels[level].fields.write_field(disks, pos, &field);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::PdmConfig;

    fn setup(capacity: usize, sigma: usize, eps: f64) -> (DiskArray, DynamicDict) {
        let d = 20;
        let mut disks = DiskArray::new(PdmConfig::new(2 * d, 64), 0);
        let mut alloc = DiskAllocator::new(2 * d);
        let params = DictParams::new(capacity, 1 << 30, sigma)
            .with_degree(d)
            .with_epsilon(eps)
            .with_seed(0xD1C7);
        let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).unwrap();
        (disks, dict)
    }

    fn keys(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(11) % (1 << 30))
            .collect()
    }

    /// Record width of the chained shape: at `B = 64` a bucket of 6-word
    /// slots outgrows its block at every capacity these tests use, so the
    /// records take Theorem 7's chains.
    const CHAINED: usize = 4;

    /// `setup` at `CHAINED` words per record, asserted chained.
    fn setup_chained(capacity: usize) -> (DiskArray, DynamicDict) {
        let (disks, dict) = setup(capacity, CHAINED, 0.5);
        assert!(!dict.is_inline() && dict.num_levels() > 1, "{capacity} keys of {CHAINED} words must chain");
        (disks, dict)
    }

    /// A `sigma`-word record of `key`.
    fn sat(key: u64, sigma: usize) -> Vec<Word> {
        (0..sigma as u64).map(|i| key ^ (i << 40)).collect()
    }

    #[test]
    fn the_layout_is_a_function_of_record_width_capacity_and_block() {
        // 15 slots of [flags, key, σ] at N = 64; 21 at N = 4096.
        for (capacity, sigma, block, inline) in
            [(64, 2, 64, true), (64, 3, 64, false), (4096, 1, 64, true), (4096, 2, 64, false), (4096, 4, 128, true)]
        {
            let params = DictParams::new(capacity, 1 << 30, sigma).with_degree(20).with_epsilon(0.5);
            assert_eq!(DynamicDict::records_inline(&params, block), inline, "N = {capacity}, σ = {sigma}, B = {block}");
            let mut disks = DiskArray::new(PdmConfig::new(40, block), 0);
            let dict = DynamicDict::create(&mut disks, &mut DiskAllocator::new(40), 0, params).unwrap();
            assert_eq!(dict.is_inline(), inline);
            assert_eq!(dict.num_levels() == 0, inline);
            assert_eq!(dict.level_population().len(), dict.num_levels().max(1));
            // An inline membership is probed on all 40 disks (on 0..20 when
            // each stripe is one bucket); a chained one on disks 0..20, its
            // levels on the others.
            let probed: std::collections::BTreeSet<usize> =
                keys(500).into_iter().flat_map(|k| dict.membership.probe_addrs(k)).map(|a| a.disk).collect();
            let width = if inline && dict.membership_buckets() > 20 { 40 } else { 20 };
            assert_eq!(probed, (0..width).collect(), "N = {capacity}, σ = {sigma}");
            assert_eq!(dict.membership.regions().len(), if inline { 2 } else { 1 });
        }
    }

    #[test]
    fn inline_records_cost_one_round_to_read_and_two_to_write() {
        let (mut disks, mut dict) = setup(500, 1, 0.5);
        assert!(dict.is_inline());
        for k in keys(500) {
            let cost = dict.insert(&mut disks, k, &sat(k, 1)).unwrap();
            assert_eq!((cost.parallel_ios, cost.block_writes), (2, 1), "key {k}");
        }
        for k in keys(500) {
            let out = dict.lookup(&mut disks, k);
            assert_eq!(out.satellite, Some(sat(k, 1)));
            assert_eq!((out.cost.parallel_ios, out.cost.block_reads), (1, 20), "key {k}");
            // One block from each stripe's pair of disks {i, i + 20}.
            let disks_read: Vec<usize> = dict.membership.probe_addrs(k).iter().map(|a| a.disk).collect();
            assert!(disks_read.iter().enumerate().all(|(i, &disk)| disk == i || disk == i + 20), "key {k}: {disks_read:?}");
        }
        assert_eq!(dict.level_population(), [500]);
        assert_eq!(dict.space_rows(), [("membership".to_string(), dict.membership_buckets())]);
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let (mut disks, mut dict) = setup(300, 2, 0.5);
        for (i, k) in keys(300).into_iter().enumerate() {
            dict.insert(&mut disks, k, &[k, i as u64]).unwrap();
        }
        assert_eq!(dict.len(), 300);
        for (i, k) in keys(300).into_iter().enumerate() {
            let out = dict.lookup(&mut disks, k);
            assert_eq!(out.satellite, Some(vec![k, i as u64]), "key {k}");
        }
    }

    #[test]
    fn unsuccessful_search_is_one_io() {
        let (mut disks, mut dict) = setup(100, 1, 0.5);
        for k in keys(100) {
            dict.insert(&mut disks, k, &[k]).unwrap();
        }
        let present: std::collections::HashSet<u64> = keys(100).into_iter().collect();
        for probe in 0..500u64 {
            if !present.contains(&probe) {
                let out = dict.lookup(&mut disks, probe);
                assert!(!out.found());
                assert_eq!(
                    out.cost.parallel_ios, 1,
                    "unsuccessful search must be 1 I/O"
                );
            }
        }
    }

    #[test]
    fn average_lookup_within_one_plus_eps() {
        let eps = 0.5;
        let (mut disks, mut dict) = setup(500, 1, eps);
        for k in keys(500) {
            dict.insert(&mut disks, k, &[k]).unwrap();
        }
        let mut total = 0u64;
        for k in keys(500) {
            total += dict.lookup(&mut disks, k).cost.parallel_ios;
        }
        let avg = total as f64 / 500.0;
        assert!(
            avg <= 1.0 + eps,
            "average successful lookup {avg} exceeds 1 + ɛ = {}",
            1.0 + eps
        );
    }

    #[test]
    fn average_insert_within_two_plus_eps() {
        let eps = 0.5;
        let (mut disks, mut dict) = setup_chained(500);
        let mut total = 0u64;
        let mut worst = 0u64;
        for k in keys(500) {
            let c = dict.insert(&mut disks, k, &sat(k, CHAINED)).unwrap();
            total += c.parallel_ios;
            worst = worst.max(c.parallel_ios);
        }
        let avg = total as f64 / 500.0;
        assert!(
            avg <= 2.0 + eps,
            "average insert {avg} exceeds 2 + ɛ = {}",
            2.0 + eps
        );
        assert!(
            worst <= dict.num_levels() as u64 + 1,
            "worst insert {worst} exceeds l + 1"
        );
    }

    #[test]
    fn most_keys_land_on_level_one() {
        let (mut disks, mut dict) = setup_chained(400);
        for k in keys(400) {
            dict.insert(&mut disks, k, &[0; CHAINED]).unwrap();
        }
        let pop = dict.level_population();
        assert!(
            pop[0] as f64 >= 0.9 * 400.0,
            "level-1 population {} too small: {pop:?}",
            pop[0]
        );
    }

    #[test]
    fn delete_then_miss_then_reinsert() {
        let (mut disks, mut dict) = setup(50, 1, 0.5);
        dict.insert(&mut disks, 42, &[1]).unwrap();
        let (was, cost) = dict.delete(&mut disks, 42).unwrap();
        assert!(was);
        assert_eq!(cost.parallel_ios, 2);
        assert!(!dict.lookup(&mut disks, 42).found());
        // Inline, the reinsert reuses the tombstoned slot.
        dict.insert(&mut disks, 42, &[2]).unwrap();
        assert_eq!(dict.lookup(&mut disks, 42).satellite, Some(vec![2]));
    }

    #[test]
    fn duplicate_rejected() {
        let (mut disks, mut dict) = setup(50, 1, 0.5);
        dict.insert(&mut disks, 7, &[1]).unwrap();
        assert!(matches!(
            dict.insert(&mut disks, 7, &[2]),
            Err(DictError::DuplicateKey(7))
        ));
        assert_eq!(dict.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let (mut disks, mut dict) = setup(3, 0, 0.5);
        for k in [1u64, 2, 3] {
            dict.insert(&mut disks, k, &[]).unwrap();
        }
        assert!(matches!(
            dict.insert(&mut disks, 4, &[]),
            Err(DictError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn degree_condition_enforced() {
        // ɛ = 0.25 needs d > 6(1 + 4) = 30.
        let d = 16;
        let mut disks = DiskArray::new(PdmConfig::new(2 * d, 64), 0);
        let mut alloc = DiskAllocator::new(2 * d);
        let params = DictParams::new(100, 1 << 30, 1)
            .with_degree(d)
            .with_epsilon(0.25);
        let err = DynamicDict::create(&mut disks, &mut alloc, 0, params).unwrap_err();
        assert!(err.to_string().contains("6(1 + 1/ɛ)"), "{err}");
    }

    #[test]
    fn scan_enumerates_live_keys() {
        let (mut disks, mut dict) = setup(120, 1, 0.5);
        let ks = keys(120);
        for k in &ks {
            dict.insert(&mut disks, *k, &[*k]).unwrap();
        }
        dict.delete(&mut disks, ks[0]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for b in (0..dict.membership_buckets()).step_by(3) {
            let end = (b + 3).min(dict.membership_buckets());
            for (k, ..) in dict.scan_records(&mut disks, b..end) {
                assert!(seen.insert(k));
            }
        }
        assert_eq!(seen.len(), 119);
        assert!(!seen.contains(&ks[0]));
    }

    #[test]
    fn insert_batch_stops_at_first_budget_error() {
        let (mut disks, mut dict) = setup(4, 1, 0.5);
        let ks = keys(6);
        let entries: Vec<(u64, Vec<Word>)> = ks.iter().map(|&k| (k, vec![k])).collect();
        let (res, _) = dict.insert_batch(&mut disks, &entries);
        assert_eq!(res.len(), 5, "batch must stop at the first budget error");
        assert!(res[..4].iter().all(Result::is_ok));
        assert!(matches!(res[4], Err(DictError::CapacityExhausted { .. })));
        assert_eq!(dict.len(), 4);
        // The unprocessed suffix was never committed.
        assert!(!dict.lookup(&mut disks, ks[5]).found());
    }

    #[test]
    fn aborted_staged_insert_leaves_nothing_dirty() {
        // A key whose membership buckets are all full fails plan_insert
        // *after* its retrieval fields have been chosen; the staged path
        // must abort without leaving those field blocks in the batch's
        // dirty set, or commit would flush occupied slots with no owning
        // membership record.
        let (mut disks, mut dict) = setup(100, 1, 0.5);
        let victim = 0x5EED_u64;
        dict.membership
            .saturate_probe_buckets(&mut disks, victim, 1 << 40);
        let mut addrs = Vec::new();
        let probe = dict.probe(victim, &mut addrs);
        let mut ex = BatchExecutor::new(&mut disks);
        let mut staged = Staged::default();
        let res = dict.insert_staged(&mut ex, &mut staged, 0, victim, &[7], &probe, &addrs);
        assert!(matches!(res, Err(DictError::BucketOverflow { .. })));
        assert_eq!(ex.staged_writes(), 0, "aborted insert staged writes");
        assert!(staged.keys.is_empty() && staged.blocks.is_empty());
        drop(ex);
        assert_eq!(dict.len(), 0);
        assert!(!dict.lookup(&mut disks, victim).found());
    }

    #[test]
    fn dead_field_disk_degrades_to_misses_never_garbage() {
        let (mut disks, mut dict) = setup_chained(200);
        let ks = keys(200);
        for k in &ks {
            dict.insert(&mut disks, *k, &sat(*k, CHAINED)).unwrap();
        }
        disks.enable_integrity();
        // Kill one retrieval disk (fields live on disks d..2d).
        disks.set_fault_plan(pdm::FaultPlan::new().dead_disk(23));
        let mut exact = 0;
        let mut missed = 0;
        for k in &ks {
            let out = dict.lookup(&mut disks, *k);
            match out.satellite {
                Some(s) => {
                    assert_eq!(s, sat(*k, CHAINED), "degraded read must never invent data");
                    exact += 1;
                }
                None => {
                    assert!(!out.is_exact(), "a silent miss must carry Degraded");
                    missed += 1;
                }
            }
        }
        // Chains avoiding stripe 3 still decode; chains through it miss.
        assert!(exact > 0, "some chains avoid the dead disk");
        assert!(missed > 0, "some chains run through the dead disk");
    }

    #[test]
    fn insert_routes_around_a_dead_field_disk() {
        let (mut disks, mut dict) = setup_chained(150);
        disks.enable_integrity();
        disks.set_fault_plan(pdm::FaultPlan::new().dead_disk(25));
        let ks = keys(150);
        for k in &ks {
            // d = 20 healthy-stripe candidates minus one dead still leaves
            // ≥ m = ⌈2d/3⌉ free fields, so every insert routes around.
            dict.insert(&mut disks, *k, &sat(*k, CHAINED)).unwrap();
        }
        for k in &ks {
            let out = dict.lookup(&mut disks, *k);
            assert_eq!(out.satellite, Some(sat(*k, CHAINED)), "key {k}");
            assert!(!out.is_exact(), "probe touches the dead disk");
        }
        // Replace the disk: nothing was stored on it, so every lookup
        // returns to exact with no repair needed.
        disks.clear_fault_plan();
        for k in &ks {
            let out = dict.lookup(&mut disks, *k);
            assert_eq!(out.satellite, Some(sat(*k, CHAINED)));
            assert!(out.is_exact());
        }
    }

    #[test]
    fn dead_membership_disk_fails_inserts_typed() {
        let (mut disks, mut dict) = setup(100, 1, 0.5);
        disks.enable_integrity();
        disks.set_fault_plan(pdm::FaultPlan::new().dead_disk(0));
        let mut io_errors = 0;
        for k in keys(100) {
            match dict.insert(&mut disks, k, &[k]) {
                Ok(_) => {}
                Err(DictError::Io { kind, disk, .. }) => {
                    assert_eq!(kind, pdm::IoFaultKind::DiskDead);
                    assert_eq!(disk, 0);
                    io_errors += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(io_errors > 0, "keys probing disk 0 must fail typed");
    }

    /// The disk holding `key`'s record, from the blocks its probe reads.
    fn record_disk(dict: &DynamicDict, disks: &mut DiskArray, key: u64) -> usize {
        let blocks = disks.read(&dict.membership.probe_addrs(key), pdm::ReadOptions::default()).blocks;
        dict.membership.tombstone_word(key, &blocks).expect("a stored key").0.disk
    }

    /// The delete-side twin: with a membership disk unreadable, a stored
    /// key's bucket may be the one that read as zeros, so "not found" must
    /// fail typed — on both the journaled and the unjournaled path —
    /// and `Ok(false)` is reserved for probes that read clean. The disk
    /// killed holds a stored key's record; exactly the keys whose records
    /// it holds fail.
    #[test]
    fn dead_membership_disk_fails_deletes_typed() {
        for journaled in [false, true] {
            let (mut disks, mut dict) = if journaled {
                setup_journaled(100, 1)
            } else {
                setup(100, 1, 0.5)
            };
            let ks = keys(100);
            for k in &ks {
                dict.insert(&mut disks, *k, &[*k]).unwrap();
            }
            let dead = record_disk(&dict, &mut disks, ks[0]);
            let on_dead: Vec<u64> = ks.iter().copied().filter(|&k| record_disk(&dict, &mut disks, k) == dead).collect();
            assert!(on_dead.len() < ks.len(), "other disks hold records too");
            disks.enable_integrity();
            disks.set_fault_plan(pdm::FaultPlan::new().dead_disk(dead));
            let (mut gone, mut typed) = (Vec::new(), Vec::new());
            for &k in &ks {
                match dict.delete(&mut disks, k) {
                    Ok((was, _)) => {
                        assert!(was, "stored key {k} reported absent off a dead disk");
                        gone.push(k);
                    }
                    Err(DictError::Io { kind, disk, .. }) => {
                        assert_eq!((kind, disk), (pdm::IoFaultKind::DiskDead, dead));
                        typed.push(k);
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            assert_eq!(typed, on_dead, "journaled = {journaled}: the records on disk {dead} fail typed");
            assert_eq!(dict.len(), typed.len(), "journaled = {journaled}");
            // An absent key probing the dead disk is just as unknowable…
            let absent = (1u64 << 29..)
                .find(|&k| dict.membership.probe_addrs(k).iter().any(|a| a.disk == dead))
                .unwrap();
            assert!(matches!(dict.delete(&mut disks, absent), Err(DictError::Io { .. })));
            // …and certifiably absent once every probe reads clean again.
            disks.clear_fault_plan();
            assert!(!dict.delete(&mut disks, absent).unwrap().0);
            for k in gone {
                assert!(!dict.lookup(&mut disks, k).found(), "deleted key {k} came back");
            }
        }
    }

    /// The write-side twin: a tombstone write that tears is written once
    /// more by the commit's retry, and one tear heals — the delete is
    /// acknowledged and stays done after a recovery. A tombstone write that
    /// keeps tearing did not provably land — the record may still be on
    /// disk — so the delete fails typed, `len()` keeps counting the key, and
    /// the intent is truncated: no recovery replays a delete the caller was
    /// told failed, and the key reads back exact or not at all.
    #[test]
    fn torn_tombstone_write_fails_deletes_typed() {
        for journaled in [false, true] {
            let (mut disks0, mut dict0) = if journaled {
                setup_journaled(100, 1)
            } else {
                setup(100, 1, 0.5)
            };
            let ks = keys(100);
            for k in &ks {
                dict0.insert(&mut disks0, *k, &[*k]).unwrap();
            }
            disks0.enable_integrity();
            let victim = ks[7];
            let probe = dict0.membership.probe_addrs(victim);
            let blocks = disks0.read(&probe, pdm::ReadOptions::default()).blocks;
            let disk = dict0.membership.tombstone_word(victim, &blocks).unwrap().0.disk;
            drop(blocks);
            // `healed`: one tear, on the tombstone's first write or on its
            // disk's second (an inline tombstone goes in place, its disk's
            // only write, so that tear never fires). Otherwise the retry's
            // write tears too.
            for (first, tears, healed) in [(0, 1, true), (1, 1, true), (0, 4, false)] {
                let (mut disks, mut dict) = (disks0.clone(), dict0.clone());
                let plan = (first..first + tears).fold(pdm::FaultPlan::new(), |p, nth| p.torn_write(disk, nth));
                disks.set_fault_plan(plan);
                let Err(e) = dict.delete(&mut disks, victim) else {
                    assert!(healed, "journaled = {journaled}: a tombstone that kept tearing was acked");
                    assert!(!dict.lookup(&mut disks, victim).found() && dict.len() == 99);
                    disks.clear_fault_plan();
                    let report = disks.recover();
                    dict.apply_replay(&report);
                    assert!(!dict.lookup(&mut disks, victim).found() && dict.len() == 99);
                    continue;
                };
                assert!(!healed, "journaled = {journaled}: one tear failed the delete: {e}");
                assert!(
                    matches!(e, DictError::Io { kind: IoFaultKind::TornWrite, disk: at, .. } if at == disk),
                    "journaled = {journaled}: {e}"
                );
                assert_eq!(dict.len(), 100, "a failed delete is not counted");
                disks.clear_fault_plan();
                let report = disks.recover();
                assert!(report.replayed.is_empty(), "the failed delete replayed: {report:?}");
                assert_eq!(dict.apply_replay(&report), 0);
                if let Some(got) = dict.lookup(&mut disks, victim).satellite {
                    assert_eq!(got, vec![victim]);
                }
            }
        }
    }

    /// A batch's damaged keys are re-read once, together: 16 keys under a
    /// one-read transient window on a membership disk — every chained key
    /// probes it, and an inline key whenever its stripe-1 bucket is even
    /// (the odd ones lie on disk 21) — are answered
    /// exactly, for the fault-free cost and one re-read plan, not a
    /// sequential lookup a key.
    #[test]
    fn a_batch_retries_its_damaged_keys_once_together() {
        for sigma in [1, CHAINED] {
            let (mut disks, mut dict) = setup(100, sigma, 0.5);
            let ks = keys(100);
            for k in &ks {
                dict.insert(&mut disks, *k, &sat(*k, sigma)).unwrap();
            }
            let batch = &ks[..16];
            let want: Vec<Option<Vec<Word>>> = batch.iter().map(|&k| Some(sat(k, sigma))).collect();
            disks.enable_integrity();
            let (found, clean) = dict.lookup_batch(&mut disks, batch);
            assert_eq!(found, want);
            disks.set_fault_plan(pdm::FaultPlan::new().transient_read(1, 0, 1));
            let (found, cost) = dict.lookup_batch(&mut disks, batch);
            assert_eq!(found, want, "σ = {sigma}");
            assert!(
                clean.parallel_ios < cost.parallel_ios && cost.parallel_ios <= 2 * clean.parallel_ios,
                "σ = {sigma}: {} parallel I/Os under the window, {} without",
                cost.parallel_ios,
                clean.parallel_ios
            );
        }
    }

    #[test]
    fn transient_read_window_is_absorbed_by_the_retry() {
        // Inline records, then chains: disk 1 holds membership buckets in
        // both layouts, disk 21 level-1 fields in the chained one.
        for (sigma, disk) in [(1, 1), (CHAINED, 1), (CHAINED, 21)] {
            let (mut disks, mut dict) = setup(100, sigma, 0.5);
            let ks = keys(100);
            for k in &ks {
                dict.insert(&mut disks, *k, &sat(*k, sigma)).unwrap();
            }
            disks.enable_integrity();
            // Installing a plan zeroes the access clocks, so a 1-batch
            // window at index 0 hits each lookup's first probe; the in-op
            // retry lands past the window and must return the exact record.
            for (i, k) in ks.iter().enumerate() {
                disks.set_fault_plan(pdm::FaultPlan::new().transient_read(disk, 0, 1));
                let out = dict.lookup(&mut disks, *k);
                assert_eq!(out.satellite, Some(sat(*k, sigma)), "σ = {sigma}: key {i}");
                assert!(out.is_exact(), "σ = {sigma}: retry absorbed the window on disk {disk} for key {i}");
                disks.clear_fault_plan();
            }
        }
    }

    fn setup_journaled(capacity: usize, sigma: usize) -> (DiskArray, DynamicDict) {
        setup_ring(capacity, sigma, 2)
    }

    /// [`setup_journaled`] with a ring of `rows` rows.
    fn setup_ring(capacity: usize, sigma: usize, rows: usize) -> (DiskArray, DynamicDict) {
        let d = 20;
        let mut disks = DiskArray::new(PdmConfig::new(2 * d, 64), 0);
        let mut alloc = DiskAllocator::new(2 * d);
        let params = DictParams::new(capacity, 1 << 30, sigma)
            .with_degree(d)
            .with_epsilon(0.5)
            .with_seed(0xD1C7)
            .with_journal(rows);
        let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).unwrap();
        assert!(disks.journal_enabled());
        (disks, dict)
    }

    /// Exhaustive crash matrix over a journaled insert: for every
    /// physical-write index `k`, kill the batch after `k` writes, run
    /// recovery against a pre-crash metadata snapshot, and check the op
    /// is all-or-nothing — the key reads back fully or not at all, the
    /// counters match, and every previously acked key survives. Chained,
    /// so that the insert is an intent over its `m` fields and its bucket
    /// (inline it is one block, written in place: see
    /// `an_in_place_update_is_atomic_under_any_crash_point`).
    #[test]
    fn journaled_insert_is_atomic_under_any_crash_point() {
        let (mut disks0, mut dict0) = setup_journaled(64, CHAINED);
        assert!(!dict0.is_inline());
        let pre: Vec<u64> = (0..8u64).map(|i| i * 7 + 3).collect();
        for &k in &pre {
            dict0.insert(&mut disks0, k, &sat(k, CHAINED)).unwrap();
        }
        let victim = 0xFACE_u64;
        let mut completed = false;
        for k in 0..60u64 {
            let mut disks = disks0.clone();
            let mut dict = dict0.clone();
            disks.set_fault_plan(pdm::FaultPlan::new().crash_after(k));
            let _ = dict.insert(&mut disks, victim, &sat(victim, CHAINED));
            let fired = disks.crash_fired();
            disks.clear_fault_plan();

            // "Restart": recover the disks, reconcile a pre-crash snapshot.
            let mut rec = dict0.clone();
            let report = disks.recover();
            rec.apply_replay(&report);
            disks.journal_checkpoint(&rec.checkpoint_section());

            let out = rec.lookup(&mut disks, victim);
            if out.found() {
                assert_eq!(out.satellite, Some(sat(victim, CHAINED)), "crash at {k}");
                assert_eq!(rec.len(), dict0.len() + 1, "crash at {k}");
            } else {
                assert_eq!(rec.len(), dict0.len(), "crash at {k}");
            }
            for &p in &pre {
                assert_eq!(
                    rec.lookup(&mut disks, p).satellite,
                    Some(sat(p, CHAINED)),
                    "acked key {p} lost at crash point {k}"
                );
            }
            // A second recovery finds nothing left to do.
            assert!(disks.recover().is_clean(), "crash at {k}");
            if !fired {
                assert!(out.found(), "no crash fired at {k} but key missing");
                completed = true;
                break;
            }
        }
        assert!(completed, "crash matrix never reached the uncrashed end");
    }

    /// A chained delete's tombstone is an intent, replayed or rolled back
    /// whole, with `len()` to match (inline, the one block goes in place:
    /// see `an_in_place_update_is_atomic_under_any_crash_point`).
    #[test]
    fn journaled_delete_is_atomic_and_replayable() {
        let (mut disks0, mut dict0) = setup_journaled(32, CHAINED);
        assert!(!dict0.is_inline());
        for k in [5u64, 9, 13] {
            dict0.insert(&mut disks0, k, &sat(k, CHAINED)).unwrap();
        }
        let mut completed = false;
        for k in 0..40u64 {
            let mut disks = disks0.clone();
            let mut dict = dict0.clone();
            disks.set_fault_plan(pdm::FaultPlan::new().crash_after(k));
            let _ = dict.delete(&mut disks, 9);
            let fired = disks.crash_fired();
            disks.clear_fault_plan();

            let mut rec = dict0.clone();
            let report = disks.recover();
            rec.apply_replay(&report);
            disks.journal_checkpoint(&rec.checkpoint_section());

            let found = rec.lookup(&mut disks, 9).found();
            if found {
                assert_eq!(rec.len(), 3, "crash at {k}");
            } else {
                assert_eq!(rec.len(), 2, "tombstone replayed but len stale at {k}");
            }
            for p in [5u64, 13] {
                assert!(rec.lookup(&mut disks, p).found(), "key {p} at crash {k}");
            }
            if !fired {
                assert!(!found, "uncrashed delete left the key at {k}");
                completed = true;
                break;
            }
        }
        assert!(completed);
    }

    /// A journaled `delete_batch` is one intent: cut at any crash point it
    /// tombstones every key of the batch or none (a key listed twice, an
    /// absent one and a stored one that stays), and the replay lands on the
    /// exact `len()`. Recovering twice changes nothing. Twenty tombstones
    /// make the intent two ring slots, so the matrix cuts inside it too
    /// (the inline preload went in place and left no intent for the
    /// batch's group commit to truncate first).
    #[test]
    fn journaled_delete_batch_is_all_or_nothing_under_any_crash_point() {
        let (mut disks0, mut dict0) = setup_journaled(64, 1);
        let stored = keys(40);
        for &k in &stored {
            dict0.insert(&mut disks0, k, &[k]).unwrap();
        }
        let doomed: Vec<u64> = stored.iter().step_by(2).copied().chain([stored[0], 1 << 29]).collect();
        let distinct = stored.len().div_ceil(2);
        let mut outcomes = [0; 2];
        for k in 0u64.. {
            let (mut disks, mut dict) = (disks0.clone(), dict0.clone());
            disks.set_fault_plan(pdm::FaultPlan::new().crash_after(k));
            let (res, _) = dict.delete_batch(&mut disks, &doomed);
            let fired = disks.crash_fired();
            disks.clear_fault_plan();

            let mut rec = dict0.clone();
            let report = disks.recover();
            rec.apply_replay(&report);
            disks.journal_checkpoint(&rec.checkpoint_section());
            assert_eq!(rec.apply_replay(&disks.recover()), 0, "crash at {k}: recovering twice");

            let gone = doomed[..distinct].iter().filter(|&&key| !rec.lookup(&mut disks, key).found()).count();
            assert!(gone == 0 || gone == distinct, "crash at {k} split the batch: {gone} of {distinct} gone");
            assert_eq!(rec.len(), stored.len() - gone, "crash at {k}");
            for &key in stored.iter().skip(1).step_by(2) {
                assert_eq!(rec.lookup(&mut disks, key).satellite, Some(vec![key]), "key {key} at crash {k}");
            }
            outcomes[usize::from(gone > 0)] += 1;
            if !fired {
                let want: Vec<bool> = (0..doomed.len()).map(|i| i < distinct).collect();
                assert_eq!(res.into_iter().collect::<Result<Vec<_>, _>>().unwrap(), want);
                assert_eq!((gone, dict.len()), (distinct, rec.len()));
                break;
            }
        }
        assert!(outcomes.iter().all(|&n| n > 1), "rolled back / rolled forward: {outcomes:?}");
    }

    /// No batch bypasses the ring: tombstones of more keys than one intent
    /// holds commit as several, in order — and a ring written before
    /// [`META_TOMBSTONES`], one [`META_DELETE`] intent per key, still replays.
    #[test]
    fn a_large_delete_batch_commits_in_ring_sized_intents_and_old_rings_replay() {
        let (mut disks, mut dict) = setup_ring(2048, 1, 1);
        let stored = keys(1400);
        let entries: Vec<(u64, Vec<Word>)> = stored.iter().map(|&k| (k, vec![k])).collect();
        assert!(dict.insert_batch(&mut disks, &entries).0.iter().all(Result::is_ok));
        let room = disks.journal_intent_capacity(8) / 4;
        assert!((256..1400).contains(&room), "a 1-row ring holds {room} tombstones to an intent");
        let before = disks.last_journal_seq();
        let (res, _) = dict.delete_batch(&mut disks, &stored);
        assert!(res.iter().all(|r| matches!(r, Ok(true))));
        assert_eq!(disks.journal_bypassed(), 0);
        assert_eq!(disks.last_journal_seq() - before, 1400u64.div_ceil(room as u64));
        assert_eq!(dict.len(), 0);

        // The old format: `[tag, META_DELETE]`, the tombstone written whole.
        let (mut disks, mut dict) = setup_journaled(32, 1);
        for k in [5u64, 9, 13] {
            dict.insert(&mut disks, k, &[k]).unwrap();
        }
        disks.journal_checkpoint(&dict.checkpoint_section());
        let snapshot = dict.clone();
        let addrs = dict.membership.probe_addrs(9);
        let blocks = disks.read(&addrs, pdm::ReadOptions::default()).blocks;
        let patch = dict.membership.plan_delete(9, &blocks).unwrap();
        drop(blocks);
        let writes: Vec<(BlockAddr, &[Word])> = patch.writes().collect();
        disks.journaled_write_batch_checked(&writes, &[dict.meta_tag(), META_DELETE]);
        let mut rec = snapshot;
        let report = disks.recover();
        assert_eq!(rec.apply_replay(&report), 1, "{report:?}");
        assert_eq!(rec.len(), 2);
        assert!(!rec.lookup(&mut disks, 9).found());
        assert!(rec.lookup(&mut disks, 5).found() && rec.lookup(&mut disks, 13).found());
    }

    /// A ring written before single-key inserts were the batch of one holds
    /// `[tag, META_INSERT, level]` intents: one still replays, and counts
    /// its key once in `len`, `insertions` and its level's population.
    #[test]
    fn an_old_rings_single_key_insert_intent_replays() {
        for sigma in [1, CHAINED] {
            let (mut disks, mut dict) = setup_journaled(32, sigma);
            for k in [5u64, 9] {
                dict.insert(&mut disks, k, &sat(k, sigma)).unwrap();
            }
            disks.journal_checkpoint(&dict.checkpoint_section());
            // The blocks an insert of 13 changes, as its twin wrote them.
            let (mut twin_disks, mut twin) = (disks.clone(), dict.clone());
            twin.insert(&mut twin_disks, 13, &sat(13, sigma)).unwrap();
            let level = (0..).find(|&l| twin.level_population()[l] > dict.level_population()[l]).unwrap();
            let (before, after) = (data_image(&disks), data_image(&twin_disks));
            let rows = disks.journal_region().unwrap().rows;
            let mut changed = Vec::new();
            for (disk, (old, new)) in before.iter().zip(&after).enumerate() {
                for (block, (old, new)) in old.iter().zip(new).enumerate() {
                    if old != new {
                        changed.push((BlockAddr::new(disk, rows + block), &new[..]));
                    }
                }
            }
            assert_eq!(changed.len(), 1 + dict.chain_blocks(), "σ = {sigma}: the bucket and the chain's fields");
            disks.journaled_write_batch_checked(&changed, &[dict.meta_tag(), META_INSERT, level as Word]);
            let mut rec = dict.clone();
            let report = disks.recover();
            assert_eq!(rec.apply_replay(&report), 1, "σ = {sigma}: {report:?}");
            assert_eq!((rec.len(), rec.insertions()), (3, 3), "σ = {sigma}");
            assert_eq!(rec.level_population(), twin.level_population(), "σ = {sigma}");
            assert_eq!(rec.lookup(&mut disks, 13).satellite, Some(sat(13, sigma)), "σ = {sigma}");
            assert_eq!(rec.apply_replay(&disks.recover()), 0, "σ = {sigma}: recovering twice");
        }
    }

    #[test]
    fn journaled_insert_batch_commits_atomically_with_batch_meta() {
        let (mut disks0, mut dict0) = setup_journaled(64, 1);
        dict0.insert(&mut disks0, 1000, &[1000]).unwrap();
        let entries: Vec<(u64, Vec<Word>)> = (1..=5u64).map(|k| (k, vec![k])).collect();
        // Crash after the journal append but before all in-place writes
        // land: the whole batch must replay.
        let mut seen_all_or_nothing = true;
        for k in 0..80u64 {
            let mut disks = disks0.clone();
            let mut dict = dict0.clone();
            disks.set_fault_plan(pdm::FaultPlan::new().crash_after(k));
            let _ = dict.insert_batch(&mut disks, &entries);
            let fired = disks.crash_fired();
            disks.clear_fault_plan();

            let mut rec = dict0.clone();
            let report = disks.recover();
            rec.apply_replay(&report);
            disks.journal_checkpoint(&rec.checkpoint_section());

            let found: Vec<bool> = entries
                .iter()
                .map(|(key, _)| rec.lookup(&mut disks, *key).found())
                .collect();
            let all = found.iter().all(|&f| f);
            let none = found.iter().all(|&f| !f);
            seen_all_or_nothing &= all || none;
            if all {
                assert_eq!(rec.len(), dict0.len() + entries.len(), "crash at {k}");
            }
            if none {
                assert_eq!(rec.len(), dict0.len(), "crash at {k}");
            }
            assert!(rec.lookup(&mut disks, 1000).found(), "crash at {k}");
            if !fired {
                assert!(all, "uncrashed batch must commit");
                break;
            }
        }
        assert!(seen_all_or_nothing, "a crash point split the batch");
    }

    /// Every block outside the journal ring (which `setup_journaled` lays
    /// out first: `rows` blocks at the head of every disk).
    fn data_image(disks: &DiskArray) -> Vec<Vec<Box<[Word]>>> {
        let rows = disks.journal_region().map_or(0, |r| r.rows);
        let mut image = disks.snapshot();
        for disk in &mut image {
            disk.drain(..rows);
        }
        image
    }

    /// Crash coverage for delta replay: two un-truncated intents patch the
    /// *same* blocks — two inserts sharing their field blocks (at this size
    /// a level's stripe is one block) or, inline, a membership disk's
    /// bucket rows, then an insert and the delete of the same keys in their
    /// buckets. Each operation is a batch of two keys: inline, one key's
    /// update is one block, written in place with no intent. For every
    /// crash point of the second operation, the machine reboots from the
    /// image alone, recovers, and recovers again: image and `len()` equal
    /// the uncrashed twin's when the intent's head landed, and the
    /// untouched predecessor's when not.
    #[test]
    fn two_live_intents_over_one_block_recover_to_the_twin_or_roll_back() {
        for sigma in [1, CHAINED] {
            two_live_intents_recover(sigma);
        }
    }

    fn two_live_intents_recover(sigma: usize) {
        let (mut disks1, mut dict1) = setup_journaled(64, sigma);
        for k in 0..5u64 {
            dict1.insert(&mut disks1, k * 7 + 3, &sat(k, sigma)).unwrap();
        }
        let params = dict1.params;
        let region = disks1.journal_region().unwrap();
        disks1.journal_truncate();
        // The first of the pair stays un-truncated under the second.
        let seq = disks1.last_journal_seq();
        let first = [(0xA11CE, sat(1, sigma)), (0xC0FFEE, sat(3, sigma))];
        assert!(dict1.insert_batch(&mut disks1, &first).0.iter().all(Result::is_ok));
        assert_eq!(disks1.last_journal_seq(), seq + 1, "σ = {sigma}: the first batch is an intent");
        type Second = fn(&mut DynamicDict, &mut DiskArray);
        let seconds: [(&str, Second); 2] = [
            ("insert sharing blocks", |dict, disks| {
                let sigma = dict.params.satellite_words;
                let _ = dict.insert_batch(disks, &[(0xB0B, sat(2, sigma)), (0xD00D, sat(4, sigma))]);
            }),
            ("delete in the same buckets", |dict, disks| {
                let _ = dict.delete_batch(disks, &[0xA11CE, 0xC0FFEE]);
            }),
        ];
        for (what, second) in seconds {
            let (mut twin_disks, mut twin) = (disks1.clone(), dict1.clone());
            let writes_before = twin_disks.stats().block_writes;
            second(&mut twin, &mut twin_disks);
            let writes = twin_disks.stats().block_writes - writes_before;
            assert_eq!(twin_disks.last_journal_seq(), disks1.last_journal_seq() + 1);
            let mut rolled_forward = 0;
            for k in 0..=writes {
                let (mut disks, mut dict) = (disks1.clone(), dict1.clone());
                disks.set_fault_plan(pdm::FaultPlan::new().crash_after(k));
                second(&mut dict, &mut disks);
                assert_eq!(disks.crash_fired(), k < writes, "σ = {sigma}, {what}: crash at {k}");
                disks.clear_fault_plan();
                drop(dict);
                let mut alloc = DiskAllocator::new(disks.disks());
                let (reopened, report) =
                    DynamicDict::reopen(&mut disks, &mut alloc, 0, params, region).unwrap();
                assert_eq!((report.stalled, report.mismatched), (0, 0), "σ = {sigma}, {what}: crash at {k}");
                // Both intents replay, or only the first.
                let forward = report.replayed.len() == 2;
                assert!(forward || report.replayed.len() == 1, "σ = {sigma}, {what}: crash at {k}: {report:?}");
                rolled_forward += usize::from(forward);
                let (want_disks, want) = if forward { (&twin_disks, &twin) } else { (&disks1, &dict1) };
                assert_eq!(reopened.len(), want.len(), "σ = {sigma}, {what}: crash at {k}");
                assert_eq!(data_image(&disks), data_image(want_disks), "σ = {sigma}, {what}: crash at {k}");
                assert!(disks.recover().is_clean(), "σ = {sigma}, {what}: crash at {k}");
                assert_eq!(data_image(&disks), data_image(want_disks), "σ = {sigma}, {what}: recovered twice");
            }
            assert!(rolled_forward > 1 && rolled_forward <= writes as usize, "σ = {sigma}, {what}");
        }
    }

    /// The hazard of writing in place under a journal: a live batch intent
    /// over bucket `X` holds the words of a key's slot there, and a later
    /// one-block tombstone in `X` goes in place. Were the intent still live
    /// when the machine stops, before any later superblock, a reopen would
    /// patch the slot's words back over the tombstone and the key would
    /// return. The in-place write truncates every live intent first, so the
    /// key stays deleted, and `len()` counts what the image holds.
    #[test]
    fn an_in_place_tombstone_is_not_undone_by_an_older_intent() {
        let (mut disks, mut dict) = setup_journaled(64, 1);
        assert!(dict.is_inline());
        let entries: Vec<(u64, Vec<Word>)> = keys(6).into_iter().map(|k| (k, vec![k])).collect();
        assert!(dict.insert_batch(&mut disks, &entries).0.iter().all(Result::is_ok));
        let victim = entries[2].0;
        let probe = disks.read(&dict.membership.probe_addrs(victim), pdm::ReadOptions::default()).blocks;
        let (at, _) = dict.membership.tombstone_word(victim, &probe).unwrap();
        drop(probe);
        let region = disks.journal_region().unwrap();
        // The batch's intent names the victim's bucket and is still live.
        let mut image = disks.clone();
        image.reopen_journal(region);
        let live = image.recover();
        assert!(live.replayed.iter().any(|intent| intent.targets.contains(&at)), "{live:?}");
        let writes = disks.stats().block_writes;
        assert!(dict.delete(&mut disks, victim).unwrap().0);
        assert_eq!(disks.stats().block_writes - writes, 2, "the superblock, then the bucket in place");
        // The machine stops here: only the image survives.
        let mut alloc = DiskAllocator::new(disks.disks());
        let (reopened, report) = DynamicDict::reopen(&mut disks, &mut alloc, 0, dict.params, region).unwrap();
        assert!(report.replayed.is_empty() && (report.stalled, report.mismatched) == (0, 0), "{report:?}");
        assert!(!reopened.lookup(&mut disks, victim).found(), "the tombstone was undone");
        assert_eq!(reopened.len(), entries.len() - 1);
        for (k, s) in entries.iter().filter(|(k, _)| *k != victim) {
            assert_eq!(reopened.lookup(&mut disks, *k).satellite.as_ref(), Some(s), "key {k}");
        }
    }

    /// At `B = 64` an insert's intent is a continuation and a head: two
    /// ring slots where whole images took 16. A crash between the two
    /// leaves a continuation without its head, and the insert rolls back.
    #[test]
    fn an_inserts_intent_is_two_slots_and_a_crash_between_them_rolls_back() {
        let (mut disks0, mut dict0) = setup_journaled(64, CHAINED);
        assert!(!dict0.is_inline());
        for k in 0..8u64 {
            dict0.insert(&mut disks0, k * 7 + 3, &sat(k, CHAINED)).unwrap();
        }
        disks0.journal_truncate();
        let (mut disks, mut dict) = (disks0.clone(), dict0.clone());
        let cost = dict.insert(&mut disks, 0xFACE, &sat(1, CHAINED)).unwrap();
        let m = dict.enc.fields_per_key as u64;
        assert_eq!(cost.block_writes, 2 + m + 1, "2 ring slots, m fields, the bucket");
        let (mut disks, mut dict) = (disks0.clone(), dict0.clone());
        disks.set_fault_plan(pdm::FaultPlan::new().crash_after(1));
        let _ = dict.insert(&mut disks, 0xFACE, &sat(1, CHAINED));
        disks.clear_fault_plan();
        let region = disks.journal_region().unwrap();
        disks.reopen_journal(region);
        let report = disks.recover();
        assert!(report.replayed.is_empty() && report.discarded == 0, "{report:?}");
        assert_eq!(data_image(&disks), data_image(&disks0));
        assert!(!dict0.lookup(&mut disks, 0xFACE).found());
    }

    /// No user batch bypasses the ring: a batch of more keys than one
    /// intent holds commits as several, in order.
    #[test]
    fn a_large_insert_batch_commits_in_ring_sized_intents() {
        let (mut disks, mut dict) = setup_ring(300, CHAINED, 4);
        let room = dict.intent_keys(&disks);
        assert!((64..256).contains(&room), "a 4-row ring holds {room} keys to an intent");
        let entries: Vec<(u64, Vec<Word>)> = keys(256).into_iter().map(|k| (k, sat(k, CHAINED))).collect();
        let (results, _) = dict.insert_batch(&mut disks, &entries);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(disks.journal_bypassed(), 0);
        assert_eq!(disks.last_journal_seq(), 256u64.div_ceil(room as u64));
        assert_eq!(dict.len(), 256);
        for (k, s) in &entries {
            assert_eq!(dict.lookup(&mut disks, *k).satellite.as_ref(), Some(s));
        }
    }

    /// A batch split over several intents on a one-row ring truncates the
    /// ring inside the call. Cut anywhere, it keeps a prefix of whole
    /// intents: recovering the pre-call process state over the crashed
    /// image takes the counters the truncation checkpointed plus the
    /// replayed deltas, and `len()` is exactly the keys that read back.
    #[test]
    fn a_split_insert_batch_keeps_a_prefix_under_any_crash_point() {
        let (mut disks0, mut dict0) = setup_ring(128, CHAINED, 1);
        dict0.insert(&mut disks0, 1 << 29, &sat(9, CHAINED)).unwrap();
        let room = dict0.intent_keys(&disks0);
        let entries: Vec<(u64, Vec<Word>)> =
            keys(3 * room + 2).into_iter().map(|k| (k, sat(k, CHAINED))).collect();
        let mut prefixes = std::collections::BTreeSet::new();
        for k in (0..).step_by(5) {
            let (mut disks, mut dict) = (disks0.clone(), dict0.clone());
            disks.set_fault_plan(pdm::FaultPlan::new().crash_after(k));
            let _ = dict.insert_batch(&mut disks, &entries);
            let fired = disks.crash_fired();
            assert_eq!(disks.journal_bypassed(), 0);
            disks.clear_fault_plan();
            let region = disks.journal_region().unwrap();
            disks.reopen_journal(region);

            let mut rec = dict0.clone();
            let report = disks.recover();
            rec.adopt_section(disks.journal_meta());
            rec.apply_replay(&report);
            disks.journal_checkpoint(&rec.checkpoint_section());

            let found: Vec<bool> =
                entries.iter().map(|(key, _)| rec.lookup(&mut disks, *key).found()).collect();
            let kept = found.iter().take_while(|&&f| f).count();
            assert!(found[kept..].iter().all(|&f| !f), "crash at {k}: not a prefix");
            assert!(kept % room == 0 || kept == entries.len(), "crash at {k}: a torn intent");
            assert_eq!(rec.len(), 1 + kept, "crash at {k}");
            assert!(rec.lookup(&mut disks, 1 << 29).found());
            prefixes.insert(kept);
            if !fired {
                assert_eq!(kept, entries.len());
                break;
            }
        }
        assert_eq!(prefixes.len(), 5, "every intent boundary was cut: {prefixes:?}");
    }

    #[test]
    fn reopen_restores_counters_and_replays_in_flight_intents() {
        let (mut disks, mut dict) = setup_journaled(64, 1);
        let ks = keys(20);
        for k in &ks {
            dict.insert(&mut disks, *k, &[*k]).unwrap();
        }
        let params = dict.params;
        let expect_len = dict.len();
        let region = disks.journal_region().unwrap();
        // "Kill the process" between ops: the in-memory instance is
        // dropped with up to GROUP_COMMIT_EVERY intents not yet covered
        // by a persisted truncation, so the on-disk checkpoint counters
        // run behind — reopen must replay the ring on top of them.
        drop(dict);
        let mut alloc = DiskAllocator::new(disks.disks());
        let (mut reopened, report) =
            DynamicDict::reopen(&mut disks, &mut alloc, 0, params, region).unwrap();
        assert!(report.scanned_slots > 0);
        assert_eq!(reopened.len(), expect_len, "counters restored");
        for k in &ks {
            assert_eq!(
                reopened.lookup(&mut disks, *k).satellite,
                Some(vec![*k]),
                "key {k} after reopen"
            );
        }
        // Truncation persisted: nothing replayable remains.
        assert!(disks.recover().is_clean());
        // And the reopened instance keeps working.
        reopened.insert(&mut disks, 0x7777, &[1]).unwrap();
        assert!(reopened.lookup(&mut disks, 0x7777).found());
    }

    /// Inline, the capacity budget is the live keys: tombstone batches
    /// give their slots back, and a reopen reads the budget from the
    /// checkpoint's `len` word with the `insertions` word where it was. The
    /// image reopened here is the one a build that charged every insertion
    /// wrote (its hash was recorded there; the write path did not change),
    /// but for the ring's format stamp, 4 there and 5 here (a stripe of one
    /// bucket is laid out alike spread or not): 64 insertions at capacity
    /// 64, half of them deleted. Reopened, it
    /// takes inserts until 64 keys are live again, and refuses the next.
    #[test]
    fn an_inline_reopen_budgets_live_keys_and_takes_inserts_up_to_capacity() {
        let cap = 64;
        let (mut disks, mut dict) = setup_journaled(cap, 1);
        assert!(dict.is_inline());
        assert_eq!(dict.membership_buckets(), 20, "one bucket a stripe");
        let ks = keys(2 * cap);
        let entries: Vec<(u64, Vec<Word>)> = ks.iter().map(|&k| (k, vec![k])).collect();
        assert!(dict.insert_batch(&mut disks, &entries[..cap]).0.iter().all(Result::is_ok));
        for chunk in ks[..cap / 2].chunks(8) {
            assert!(dict.delete_batch(&mut disks, chunk).0.iter().all(|r| r == &Ok(true)));
        }
        assert_eq!((dict.len(), dict.insertions(), dict.budget_used()), (32, 64, 32));
        let mut image = 0xCBF2_9CE4_8422_2325u64;
        for w in disks.snapshot().iter().flatten().flat_map(|block| block.iter()) {
            image = (image ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(image, 0xBBCA_A742_F6D3_34BE, "not the image recorded where every insertion was charged");
        let (params, region) = (dict.params, disks.journal_region().unwrap());
        drop(dict);
        let mut alloc = DiskAllocator::new(disks.disks());
        let (mut reopened, report) = DynamicDict::reopen(&mut disks, &mut alloc, 0, params, region).unwrap();
        assert_eq!((report.stalled, report.mismatched), (0, 0));
        assert_eq!((reopened.len(), reopened.insertions(), reopened.budget_used()), (32, 64, 32));
        for (k, s) in &entries[cap..cap + cap / 2] {
            reopened.insert(&mut disks, *k, s).unwrap();
        }
        assert_eq!(reopened.budget_used(), cap);
        let (k, s) = &entries[cap + cap / 2];
        assert_eq!(reopened.insert(&mut disks, *k, s), Err(DictError::CapacityExhausted { capacity: cap }));
        for (i, (k, s)) in entries.iter().enumerate() {
            let live = (cap / 2..cap + cap / 2).contains(&i);
            assert_eq!(reopened.lookup(&mut disks, *k).satellite.as_ref(), live.then_some(s), "key {k}");
        }
    }

    /// Stamp the superblock of a journaled shard of `params` on `B`-word
    /// blocks with format `version`, then reopen it.
    fn reopen_stamped(params: DictParams, block_words: usize, version: Word) {
        let mut disks = DiskArray::new(PdmConfig::new(2 * params.degree, block_words), 0);
        let dict = DynamicDict::create(&mut disks, &mut DiskAllocator::new(2 * params.degree), 0, params).unwrap();
        let region = disks.journal_region().unwrap();
        let superblock = region.slot_addr(0, disks.disks());
        let mut block = disks.peek(superblock);
        assert_eq!(block[1], 5, "the stamp this build writes");
        block[1] = version;
        disks.poke(superblock, &block);
        let mut alloc = DiskAllocator::new(disks.disks());
        let _ = DynamicDict::reopen(&mut disks, &mut alloc, 0, dict.params, region);
    }

    /// The ring's superblock carries the one format stamp a shard has. A
    /// shard written before the chain fields took their exact width
    /// (journal version 2) laid its field arrays out twice as wide: it is
    /// refused by name, never decoded under the wrong width.
    #[test]
    #[should_panic(expected = "format version 2, this build reads version 5")]
    fn reopen_refuses_a_shard_stamped_with_the_wider_field_format() {
        let (_, dict) = setup_chained(64);
        reopen_stamped(dict.params.with_journal(2), 64, 2);
    }

    /// A shard written before records moved into their membership slots
    /// (journal version 3) chained every record, the served 24-byte ones
    /// (σ = 2 words at `B = 128`) included: it is refused by name, never
    /// decoded as if its buckets held the records.
    #[test]
    #[should_panic(expected = "format version 3, this build reads version 5")]
    fn reopen_refuses_a_shard_stamped_before_records_moved_inline() {
        let params = DictParams::new(1 << 14, 1 << 30, 2).with_degree(20).with_epsilon(0.5).with_journal(2);
        assert!(DynamicDict::records_inline(&params, 128));
        reopen_stamped(params, 128, 3);
    }

    /// A shard written before an inline membership spread its stripes over
    /// both halves of the structure (journal version 4) kept bucket `j` of
    /// stripe `i` on disk `i`, at block `j`: it is refused by name, never
    /// read at the spread addresses.
    #[test]
    #[should_panic(expected = "format version 4, this build reads version 5")]
    fn reopen_refuses_a_shard_stamped_before_the_membership_spread() {
        let params = DictParams::new(1 << 14, 1 << 30, 2).with_degree(20).with_epsilon(0.5).with_journal(2);
        assert!(DynamicDict::records_inline(&params, 128));
        reopen_stamped(params, 128, 4);
    }

    /// A chained structure lays out what it did before inline ones spread:
    /// the membership on disks `0..d`, addressed as a `BasicDict` of `d`
    /// disks addresses it, and after 300 insertions the image (disk lengths
    /// and words) hashes to the value that build wrote.
    #[test]
    fn a_chained_layout_is_the_narrow_one() {
        let (mut disks, mut dict) = setup_chained(300);
        assert_eq!(dict.membership.regions().len(), 1);
        let mut twin_disks = DiskArray::new(PdmConfig::new(40, 64), 0);
        let twin = BasicDict::create(&mut twin_disks, &mut DiskAllocator::new(40), 0, *dict.membership.config()).unwrap();
        for k in keys(300) {
            assert_eq!(dict.membership.probe_addrs(k), twin.probe_addrs(k), "key {k}");
            dict.insert(&mut disks, k, &sat(k, CHAINED)).unwrap();
        }
        let mut image = 0xCBF2_9CE4_8422_2325u64;
        for disk in disks.snapshot() {
            for w in std::iter::once(disk.len() as Word).chain(disk.iter().flat_map(|block| block.iter().copied())) {
                image = (image ^ w).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        assert_eq!(image, 0xF3C8_A4F6_9D2C_ED71, "not the image the narrow layout wrote");
    }

    #[test]
    fn satellite_width_checked() {
        let (mut disks, mut dict) = setup(10, 2, 0.5);
        assert!(matches!(
            dict.insert(&mut disks, 1, &[1]),
            Err(DictError::SatelliteWidth {
                expected: 2,
                got: 1
            })
        ));
    }
}

//! Global rebuilding: the fully dynamic, unbounded-capacity dictionary.
//!
//! The Section 4 preamble: "the dictionary problem is a decomposable
//! search problem, so we can apply standard, worst-case efficient global
//! rebuilding techniques (see \[Overmars–van Leeuwen\]) to get fully dynamic
//! dictionaries, without an upper bound on the size of the key set, and
//! with support for deletions. ... The global rebuilding technique needed
//! keeps two data structures active at any time, which can be queried in
//! parallel. ... The amount of space used and the number of disks increase
//! by a constant factor compared to the basic structure."
//!
//! [`Dictionary`] owns a disk array of `4d` disks: two side-by-side slots
//! of `2d` disks, each able to hold one [`DynamicDict`]. When the active
//! structure's capacity budget ([`DynamicDict::budget_used`]) reaches 3/4
//! of its capacity (or its live keys fall below 1/8 of it), a replacement
//! of capacity `2·live` starts in the other slot. With records inline the
//! budget is the live keys — a deletion tombstones the slot and a later
//! insertion reuses it — so a steady live set opens no window; chained, it
//! is every insertion, since deleted keys keep their fields. Every
//! subsequent operation migrates a few membership buckets' worth of keys,
//! so the rebuild finishes long before the new structure can fill and no
//! single operation ever pays more than a constant number of extra I/Os —
//! the worst-case spreading the paper gets from Overmars–van Leeuwen.
//! Migrated keys are *copied*, not moved — consistent with the paper's
//! "no piece of data is ever moved" discipline. Each structure's layout
//! follows from its own capacity ([`DynamicDict::records_inline`]), and a
//! step reads every record through the old structure's layout and writes
//! it through the replacement's: a rebuild whose capacity grows a bucket
//! past its block moves the records out of their slots into chains, and a
//! shrink moves them back.
//!
//! ## A rebuild window at full bandwidth
//!
//! The two structures occupy disjoint disks, so whatever an operation
//! needs from both it fetches in **one** parallel I/O:
//!
//! * a lookup reads both first-round probes (membership + level-1 fields,
//!   `4d` blocks; `d` fewer for each structure whose records are inline)
//!   at once and decodes the replacement first — any key on level 1 or in
//!   its membership slot in either structure, and any miss, costs exactly
//!   1 I/O;
//! * an insert shares that round between the old structure's duplicate
//!   check and the replacement's first-fit read;
//! * a delete reads both membership probes in one round and tombstones a
//!   key living in both structures with one journal intent.
//!
//! ## A window's updates are one plan
//!
//! Updates arrive in batches (`insert_batch`, `delete_batch`; a single
//! `insert` or `delete` is the batch of one, as a `lookup` is). A batch is
//! one plan over both structures and one intent, then **one** migration
//! step (`DynamicDict::migrate_from`). Pacing stays per operation —
//! `MIGRATE_BUCKETS_PER_OP` buckets for each update applied, so a window
//! closes after the same operations however they are grouped — but a step
//! is taken as many buckets at a time as keep a plan within
//! `MIGRATE_BLOCKS_PER_PLAN` blocks of memory
//! (`DynamicDict::migration_buckets`): one read for the buckets, one plan over every scanned
//! key's record in the old structure and first-round probe in the
//! replacement (per-disk-maximum rounds, not a sum over keys), first-fit
//! placement in scan order, one journal intent. An update's reply is its
//! own: a failed step leaves its error on the dictionary and the cursor
//! where it was, and the next update takes it again.
//!
//! ## Swap → checkpoint → discard
//!
//! When the last bucket has been migrated the replacement becomes the
//! active structure, and the abandoned slot is handed back, in this order:
//!
//! 1. **swap** — in memory only;
//! 2. **checkpoint** — the journal is truncated, so no replayable intent
//!    names a block of the abandoned slot (a replay after the discard
//!    would write stale images back into it) or carries the tag a later
//!    structure in the same slot will reuse;
//! 3. **discard** — the slot's blocks are given back
//!    ([`DiskArray::discard_tail`]: uncharged, the slot's disks end at the
//!    journal ring again) and the allocator's bump pointers for them fall
//!    back to the same place, so the next replacement is laid out over the
//!    same blocks, grown again from zero as on first layout.
//!
//! Storage is therefore the ring plus one slot between windows and the
//! ring plus two during one, whatever the number of rebuilds: the
//! constant factor the paper promises, paid only while a window is open.
//! A crash before the checkpoint lands skips the discard (the dead
//! machine's image still holds both structures and every intent needed to
//! roll the interrupted step back or forward); nothing can crash between
//! the two, because the discard is no write the crash model counts (on a
//! file, a kill inside it leaves files longer than their meta, which a
//! reopen trims).

use crate::config::DictParams;
use crate::dynamic::{outcome, DynamicDict};
use crate::layout::{export_space, DiskAllocator, SpaceRow};
use crate::traits::{Dict, DictError, LookupOutcome, OpRecorder};
use pdm::metrics::{Counter, Gauge, Histogram, IoMetricsSink, MetricsRegistry};
use pdm::{DiskArray, IoStats, OpCost, PdmConfig, ScrubReport, Word};
use std::sync::Arc;

/// Buckets migrated per operation during a rebuild. Each bucket holds
/// `Θ(log n)` keys, so this finishes a rebuild after `O(v / RATE)` =
/// `O(n / log n)` operations — far fewer than the `n/2` inserts needed to
/// fill the replacement.
const MIGRATE_BUCKETS_PER_OP: usize = 2;

/// Blocks one planned batch of a migration step may hold in memory:
/// ≈ 0.9 MiB at `B = 128`, what a window's own insert batch holds. A bound
/// on memory, not a setting — what a shard worker's arena has once held it
/// keeps for good. A plan holds what its executor holds per key: ≈ 15 keys'
/// rounds of 60 blocks where reads are copied out (4 buckets at a load of
/// 3.75), ≈ 60 keys' 15 staged blocks where the backend is memory (16
/// buckets, for a quarter of the plans' scans, intents and superblocks).
const MIGRATE_BLOCKS_PER_PLAN: usize = 900;

/// A fully dynamic dictionary with no capacity bound and deletions,
/// built from [`DynamicDict`] via incremental global rebuilding.
///
/// ```
/// use pdm_dict::{DictParams, Dictionary};
///
/// let params = DictParams::new(256, 1 << 40, 2)
///     .with_degree(20)
///     .with_epsilon(0.5)
///     .with_seed(7);
/// let mut dict = Dictionary::new(params, 128)?;
/// dict.insert(42, &[1, 2])?;
/// assert_eq!(dict.lookup(42).satellite, Some(vec![1, 2]));
/// assert_eq!(dict.lookup(43).cost.parallel_ios, 1); // miss: exactly 1 I/O
/// let (was_present, _) = dict.delete(42)?;
/// assert!(was_present);
/// # Ok::<(), pdm_dict::DictError>(())
/// ```
///
/// `Clone` deep-copies the owned disk array — crash tests clone the
/// whole dictionary as a metadata snapshot and then swap the crashed
/// disk image in via [`Dict::disks_mut`].
#[derive(Debug, Clone)]
pub struct Dictionary {
    disks: DiskArray,
    alloc: DiskAllocator,
    template: DictParams,
    active: DynamicDict,
    building: Option<Building>,
    /// Ledger rows of each slot's latest tenant; a discarded slot's read 0,
    /// keeping their labels for the gauges, until the next one is laid out.
    slot_rows: [Vec<SpaceRow>; 2],
    min_capacity: usize,
    rebuilds: usize,
    /// See [`Dictionary::last_step_error`].
    step_error: Option<DictError>,
    metrics: Option<RebuildMetrics>,
}

/// Pre-resolved metric handles for the rebuild wrapper: the shared per-op
/// recorder plus rebuild-pacing instruments.
#[derive(Debug, Clone)]
struct RebuildMetrics {
    recorder: OpRecorder,
    /// Counter of completed rebuilds (`dict_rebuilds_total`).
    rebuilds: Arc<Counter>,
    /// Histogram of keys migrated per operation (`dict_migrated_keys_per_op`)
    /// — the pacing knob `MIGRATE_BUCKETS_PER_OP` controls. The paper's
    /// worst-case spreading argument is exactly that this stays `O(log n)`.
    migrated_per_op: Arc<Histogram>,
    /// Histogram of the parallel I/Os one migration step costs
    /// (`dict_migration_step_rounds`), the final step's checkpoint
    /// included: what an operation inside a window pays on top of itself.
    step_rounds: Arc<Histogram>,
    /// Counter of migration steps (or rebuild starts) that failed
    /// (`dict_migration_step_errors_total`).
    step_errors: Arc<Counter>,
    /// Counter of the extent handed back, in blocks, when a rebuild
    /// abandons its old slot (`dict_rebuild_reclaimed_blocks_total`).
    reclaimed: Arc<Counter>,
    /// 1 while a rebuild is in flight (`dict_rebuild_active`).
    active: Arc<Gauge>,
}

#[derive(Debug, Clone)]
struct Building {
    /// The replacement. Its [`DynamicDict::copies`] counts the keys
    /// currently present in BOTH structures (copied, old not yet
    /// abandoned) — needed for exact `len()` accounting.
    dict: DynamicDict,
    /// Next membership bucket of the old structure to migrate.
    cursor: usize,
}

impl Dictionary {
    /// Create a dictionary with `block_words`-word blocks. `params`
    /// supplies the universe, satellite width, degree, ɛ and the *initial*
    /// capacity (the structure grows past it by rebuilding).
    ///
    /// # Errors
    /// Returns [`DictError::UnsupportedParams`] when
    /// `params.capacity < DictParams::MIN_REBUILD_CAPACITY`: below that
    /// floor the replacement structure built mid-rebuild is too small to
    /// absorb the keys still migrating plus concurrent traffic, and inserts
    /// fail mid-rebuild with a confusing `CapacityExhausted` (the known
    /// floor from the batch-engine work). Rejecting the parameters up front
    /// turns that latent failure into an immediate, actionable error.
    pub fn new(params: DictParams, block_words: usize) -> Result<Self, DictError> {
        params.validate_rebuild_capacity()?;
        let d = params.degree;
        let cfg = PdmConfig::new(4 * d, block_words);
        let mut disks = DiskArray::new(cfg, 0);
        let mut alloc = DiskAllocator::new(4 * d);
        let active = DynamicDict::create(&mut disks, &mut alloc, 0, params)?;
        Ok(Dictionary {
            disks,
            alloc,
            template: params,
            slot_rows: [active.space_rows(), Vec::new()],
            active,
            building: None,
            min_capacity: params.capacity,
            rebuilds: 0,
            step_error: None,
            metrics: None,
        })
    }

    /// Live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.building {
            // During a rebuild every live key is in active ∪ building and
            // exactly the copies are in both (inclusion–exclusion).
            Some(b) => self.active.len() + b.dict.len() - b.dict.copies(),
            None => self.active.len(),
        }
    }

    /// Whether empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether an incremental rebuild is in flight.
    #[must_use]
    pub fn is_rebuilding(&self) -> bool {
        self.building.is_some()
    }

    /// Completed rebuilds.
    #[must_use]
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Current capacity of the active structure.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.active.capacity()
    }

    /// Global I/O counters of the owned disk array.
    #[must_use]
    pub fn io_stats(&self) -> IoStats {
        self.disks.stats()
    }

    /// Access the owned disk array (diagnostics).
    #[must_use]
    pub fn disks(&self) -> &DiskArray {
        &self.disks
    }

    /// Lookup, as the batch of one ([`Self::lookup_batch`]). `O(1)` I/Os
    /// worst case: during a rebuild both structures' first-round probes are
    /// read in one parallel I/O, so a miss or a level-1 key of either
    /// structure costs exactly 1.
    pub fn lookup(&mut self, key: u64) -> LookupOutcome {
        let mut answer = None;
        let cost = self.lookup_with(&[key], |_, satellite, degraded| answer = Some((satellite, degraded)));
        let (satellite, degraded) = answer.expect("one answer per key");
        outcome(satellite, cost, degraded)
    }

    /// Batched lookup. During a rebuild one plan covers every key's
    /// first-round probe in **both** structures (they share no disk, so the
    /// plan's rounds are the larger of the two, not their sum) and is
    /// decoded replacement-first — it holds the newest version of every key
    /// it holds at all; a second plan covers the keys stored on a deeper
    /// level of whichever structure holds them (`DynamicDict::lookup_in`).
    pub fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let mut results = vec![None; keys.len()];
        let cost = self.lookup_with(keys, |i, satellite, _| results[i] = satellite);
        (results, cost)
    }

    /// [`DynamicDict::lookup_in`] over the live structures: a degraded miss
    /// in the replacement cannot prove absence (a key inserted mid-rebuild
    /// lives only there), so its damage taints what the old one answers.
    fn lookup_with(&mut self, keys: &[u64], answer: impl FnMut(usize, Option<Vec<Word>>, bool)) -> OpCost {
        let scope = self.disks.begin_op();
        let (both, one);
        let dicts: &[&DynamicDict] = match &self.building {
            Some(b) => {
                both = [&b.dict, &self.active];
                &both
            }
            None => {
                one = [&self.active];
                &one
            }
        };
        DynamicDict::lookup_in(&mut self.disks, dicts, keys, answer);
        self.disks.end_op(scope)
    }

    /// Batched insert. Outside a rebuild window the whole remaining batch
    /// goes to the active structure as one [`DynamicDict::insert_batch`];
    /// once that runs out of budget the replacement is started, and inside
    /// a window the remaining batch goes to the replacement as one plan
    /// beside the old structure's duplicate check, followed by **one**
    /// migration step for the keys it stored.
    ///
    /// Correctness of the re-route relies on [`DynamicDict::insert_batch`]
    /// **stopping at the first budget error**: the failed key and its
    /// successors are guaranteed uncommitted, so offering them to the
    /// replacement can never re-insert a key the batch already stored
    /// (which would surface as a spurious [`DictError::DuplicateKey`]).
    pub fn insert_batch<S: AsRef<[Word]>>(&mut self, entries: &[(u64, S)]) -> (Vec<Result<(), DictError>>, OpCost) {
        let scope = self.disks.begin_op();
        let mut results: Vec<Result<(), DictError>> = Vec::with_capacity(entries.len());
        while results.len() < entries.len() {
            let rest = &entries[results.len()..];
            if let Some(b) = &mut self.building {
                // No more keys than operations the window has left: their
                // step closes it, before the replacement can fill.
                let left = self.active.membership_buckets() - b.cursor;
                let rest = &rest[..rest.len().min(left.div_ceil(MIGRATE_BUCKETS_PER_OP))];
                let (res, _) = b.dict.insert_batch_beside(&mut self.disks, rest, Some(&self.active));
                let stored = res.iter().filter(|r| r.is_ok()).count();
                results.extend(res);
                self.after_update(stored);
                continue;
            }
            let (mut res, _) = self.active.insert_batch_beside(&mut self.disks, rest, None);
            // Out of budget: the batch stopped there without committing
            // that key or any successor, so they all go to a replacement.
            let spent = matches!(
                res.last(),
                Some(Err(DictError::CapacityExhausted { .. } | DictError::LevelsExhausted { .. }))
            );
            res.truncate(res.len() - usize::from(spent));
            let started =
                if spent && res.is_empty() { self.start_rebuild() } else { self.maybe_start_rebuild() };
            results.extend(res);
            match started {
                Err(e) if results.len() < entries.len() => results.push(Err(e)),
                Err(e) => self.step_failed(e),
                Ok(()) => {}
            }
        }
        (results, self.disks.end_op(scope))
    }

    /// Insert, as the batch of one ([`Self::insert_batch`]). Averages
    /// `2 + ɛ` I/Os outside rebuild windows; `O(1)` worst case always
    /// (insert + bounded migration work).
    pub fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
        let (mut results, cost) = self.insert_batch(&[(key, satellite)]);
        results.pop().expect("one result per entry").map(|()| cost)
    }

    /// Delete, as the batch of one ([`Self::delete_batch`]). Returns whether
    /// the key was present; fails typed off an unreadable probe or a
    /// tombstone write that did not land.
    pub fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
        let (mut results, cost) = self.delete_batch(&[key]);
        results.pop().expect("one result per key").map(|was| (was, cost))
    }

    /// Batched delete ([`DynamicDict::delete_batch`]): one plan reads
    /// every key's membership probe — inside a window in **both**
    /// structures — one intent tombstones the batch wherever its keys
    /// live, and **one** migration step follows for the keys answered.
    pub fn delete_batch(&mut self, keys: &[u64]) -> (Vec<Result<bool, DictError>>, OpCost) {
        let scope = self.disks.begin_op();
        let results = match &mut self.building {
            Some(b) => DynamicDict::tombstone_batch(&mut self.disks, &mut [&mut b.dict, &mut self.active], keys),
            None => DynamicDict::tombstone_batch(&mut self.disks, &mut [&mut self.active], keys),
        };
        self.after_update(results.iter().filter(|r| r.is_ok()).count());
        (results, self.disks.end_op(scope))
    }

    /// What `ops` applied operations owe the rebuild: inside a window one
    /// migration step for all of them, then the check whether one must
    /// open. The updates are journaled and counted and their replies are
    /// their own, so an error here (a level exhausted for some other key, a
    /// damaged source bucket) stays on the dictionary, with the cursor.
    fn after_update(&mut self, ops: usize) {
        if let Err(e) = self.advance_rebuild(ops).and_then(|()| self.maybe_start_rebuild()) {
            self.step_failed(e);
        }
    }

    /// A migration step or the start of a rebuild failed with `e`.
    fn step_failed(&mut self, e: DictError) {
        if let Some(m) = &self.metrics {
            m.step_errors.inc();
        }
        self.step_error = Some(e);
    }

    /// The error of the latest migration step (or start of a rebuild) that
    /// failed, until one succeeds.
    #[must_use]
    pub fn last_step_error(&self) -> Option<&DictError> {
        self.step_error.as_ref()
    }

    fn maybe_start_rebuild(&mut self) -> Result<(), DictError> {
        if self.building.is_some() {
            return Ok(());
        }
        let live = self.active.len();
        let cap = self.active.capacity();
        // Grow when the capacity budget approaches capacity: live keys when
        // records are inline, every insertion when deletions leave fields
        // behind (chained). Shrink when mostly empty.
        let grow = 4 * self.active.budget_used() >= 3 * cap;
        let shrink = cap > self.min_capacity && 8 * live < cap;
        if !(grow || shrink) {
            return Ok(());
        }
        self.start_rebuild()
    }

    /// First disk of the slot the *next* replacement is built in. Slots
    /// alternate: slot parity = rebuild count.
    fn replacement_slot(&self) -> usize {
        if self.rebuilds.is_multiple_of(2) {
            2 * self.template.degree
        } else {
            0
        }
    }

    fn start_rebuild(&mut self) -> Result<(), DictError> {
        debug_assert!(self.building.is_none());
        let live = self.active.len();
        let new_cap = (2 * live).max(self.min_capacity);
        let params = DictParams {
            capacity: new_cap,
            ..self.template
        };
        // The replacement goes to whichever half the active structure
        // does not occupy.
        let first_disk = self.replacement_slot();
        let dict = DynamicDict::create(&mut self.disks, &mut self.alloc, first_disk, params)?;
        // Levels only the slot's last tenant had keep their labels, at 0: a
        // gauge exported once must not keep its old value.
        let slot = &mut self.slot_rows[usize::from(first_disk != 0)];
        let old = std::mem::replace(slot, dict.space_rows());
        slot.extend(old.into_iter().skip(slot.len()).map(|(label, _)| (label, 0)));
        self.building = Some(Building { dict, cursor: 0 });
        Ok(())
    }

    /// The migration step `ops` operations owe: copy the next
    /// `MIGRATE_BUCKETS_PER_OP × ops` buckets of the old structure into the
    /// replacement, [`MIGRATE_BLOCKS_PER_PLAN`] blocks to a planned batch,
    /// and finish the rebuild when that was the last of them.
    fn advance_rebuild(&mut self, ops: usize) -> Result<(), DictError> {
        let Some(mut b) = self.building.take_if(|_| ops > 0) else {
            return Ok(());
        };
        let scope = self.disks.begin_op();
        let total = self.active.membership_buckets();
        let end = (b.cursor + MIGRATE_BUCKETS_PER_OP * ops).min(total);
        let (mut copied, mut outcome) = (0, Ok(()));
        while b.cursor < end && outcome.is_ok() {
            let plan = b.dict.migration_buckets(&self.disks, &self.active, MIGRATE_BLOCKS_PER_PLAN);
            let upto = (b.cursor + plan).min(end);
            let (n, res) = b.dict.migrate_from(&mut self.disks, &self.active, b.cursor..upto);
            (copied, outcome) = (copied + n, res);
            if outcome.is_ok() {
                // A plan cut short by an error is taken again from the same
                // buckets: what it did copy is skipped as already present.
                b.cursor = upto;
            }
        }
        let finished = b.cursor >= total;
        if finished {
            self.finish_rebuild(b.dict);
        } else {
            self.building = Some(b);
        }
        if outcome.is_ok() {
            self.step_error = None;
        }
        if let Some(m) = &self.metrics {
            for _ in 0..ops {
                m.migrated_per_op.observe((copied / ops) as u64);
            }
            m.step_rounds
                .observe(self.disks.end_op(scope).parallel_ios);
            if finished {
                m.rebuilds.inc();
            }
            m.active.set(i64::from(!finished));
        }
        outcome
    }

    /// Swap → checkpoint → discard (see the module docs for why in this
    /// order): `replacement` becomes the active structure and the slot of
    /// the one it replaces is handed back.
    fn finish_rebuild(&mut self, mut replacement: DynamicDict) {
        let slot_disks = 2 * self.template.degree;
        let old_slot = slot_disks - self.replacement_slot();
        replacement.set_copies(0);
        self.active = replacement;
        self.rebuilds += 1;
        // Truncates, and drops the abandoned structure's section from the
        // checkpoint: its tag returns with the slot's next tenant.
        Dict::checkpoint(self);
        if self.disks.crash_fired() {
            // The checkpoint may not have landed, and the surviving image
            // must keep both structures for the interrupted step's
            // recovery. The dying process goes on as if nothing were
            // reclaimable.
            return;
        }
        let ring_end = self
            .disks
            .journal_region()
            .map_or(0, |r| r.first_block + r.rows);
        let reclaimed = self.disks.discard_tail(old_slot, slot_disks, ring_end);
        self.alloc.release_tail(old_slot, slot_disks, ring_end);
        for row in &mut self.slot_rows[usize::from(old_slot != 0)] {
            row.1 = 0;
        }
        if let Some(m) = &self.metrics {
            m.reclaimed.add(reclaimed);
        }
    }

    /// Space of the live structure(s), in words.
    #[must_use]
    pub fn live_space_words(&self) -> usize {
        let mut s = self.active.space_words(&self.disks);
        if let Some(b) = &self.building {
            s += b.dict.space_words(&self.disks);
        }
        s
    }
}

impl Dict for Dictionary {
    fn kind(&self) -> &'static str {
        "rebuild"
    }

    fn len(&self) -> usize {
        Dictionary::len(self)
    }

    fn capacity(&self) -> usize {
        Dictionary::capacity(self)
    }

    fn universe(&self) -> u64 {
        self.template.universe
    }

    fn lookup(&mut self, key: u64) -> LookupOutcome {
        let out = Dictionary::lookup(self, key);
        if let Some(m) = &self.metrics {
            m.recorder.record_lookup(&out);
        }
        out
    }

    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
        let result = Dictionary::insert(self, key, satellite);
        if let Some(m) = &self.metrics {
            m.recorder.record_insert(&result);
        }
        result
    }

    fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
        let result = Dictionary::delete(self, key);
        if let Some(m) = &self.metrics {
            m.recorder.record_delete(&result);
        }
        result
    }

    fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let out = Dictionary::lookup_batch(self, keys);
        OpRecorder::record_lookup_batch(self.metrics.as_ref().map(|m| &m.recorder), keys.len(), out)
    }

    fn insert_batch(&mut self, entries: &[(u64, Vec<Word>)]) -> (Vec<Result<(), DictError>>, OpCost) {
        let out = Dictionary::insert_batch(self, entries);
        OpRecorder::record_insert_batch(self.metrics.as_ref().map(|m| &m.recorder), entries.len(), out)
    }

    fn delete_batch(&mut self, keys: &[u64]) -> (Vec<Result<bool, DictError>>, OpCost) {
        let out = Dictionary::delete_batch(self, keys);
        OpRecorder::record_delete_batch(self.metrics.as_ref().map(|m| &m.recorder), keys.len(), out)
    }

    fn scrub(&mut self) -> ScrubReport {
        // Both slots live on the one owned array, so the disk-level walk
        // covers the active structure and any in-flight replacement.
        let report = self.disks.scrub_verify();
        if let Some(m) = &self.metrics {
            m.recorder.record_scrub(&report);
        }
        report
    }

    fn recover(&mut self) -> pdm::RecoveryReport {
        let report = self.disks.recover();
        // Each structure takes the persisted checkpoint's counters when
        // they are newer than its own (a truncation inside the interrupted
        // operation froze them past what this process state knew), then
        // the deltas of the replayed intents carrying its tag, then its
        // image's count; the keys both images hold are the replacement's
        // copies (a failed commit may have landed in one structure only).
        let mut counted = Vec::with_capacity(2);
        for dict in std::iter::once(&mut self.active)
            .chain(self.building.as_mut().map(|b| &mut b.dict))
        {
            dict.adopt_section(self.disks.journal_meta());
            dict.apply_replay(&report);
            counted.push(dict.recount(&mut self.disks));
        }
        if let (Some(b), [Some(old), Some(new)]) = (&mut self.building, &mut counted[..]) {
            old.sort_unstable();
            b.dict.set_copies(new.iter().filter(|k| old.binary_search(k).is_ok()).count());
        }
        self.checkpoint();
        report
    }

    fn checkpoint(&mut self) -> bool {
        if !self.disks.journal_enabled() {
            return false;
        }
        // The checkpoint holds one section per live structure.
        let mut meta = self.active.checkpoint_section();
        if let Some(b) = &self.building {
            meta.extend(b.dict.checkpoint_section());
        }
        self.disks.journal_checkpoint(&meta);
        true
    }

    fn set_metrics(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        match registry {
            Some(registry) => {
                self.disks.set_io_sink(Some(Arc::new(IoMetricsSink::new(
                    &registry,
                    self.disks.disks(),
                ))));
                self.metrics = Some(RebuildMetrics {
                    recorder: OpRecorder::new(registry.clone(), "rebuild"),
                    rebuilds: registry.counter("dict_rebuilds_total", &[("dict", "rebuild")]),
                    migrated_per_op: registry
                        .histogram("dict_migrated_keys_per_op", &[("dict", "rebuild")]),
                    step_rounds: registry
                        .histogram("dict_migration_step_rounds", &[("dict", "rebuild")]),
                    step_errors: registry
                        .counter("dict_migration_step_errors_total", &[("dict", "rebuild")]),
                    reclaimed: registry
                        .counter("dict_rebuild_reclaimed_blocks_total", &[("dict", "rebuild")]),
                    active: registry.gauge("dict_rebuild_active", &[("dict", "rebuild")]),
                });
            }
            None => {
                self.disks.set_io_sink(None);
                self.metrics = None;
            }
        }
    }

    fn refresh_gauges(&mut self) {
        let Some(m) = &self.metrics else { return };
        m.recorder
            .set_shape("rebuild", Dictionary::len(self), Dictionary::capacity(self));
        m.active.set(i64::from(self.is_rebuilding()));
        m.recorder
            .registry
            .gauge("dict_levels", &[("dict", "rebuild")])
            .set(self.active.num_levels() as i64);
        let rows = self.slot_rows.iter().flatten().cloned();
        export_space(&m.recorder.registry, "rebuild", &self.disks, rows);
    }

    fn disks(&self) -> Option<&DiskArray> {
        Some(&self.disks)
    }

    fn disks_mut(&mut self) -> Option<&mut DiskArray> {
        Some(&mut self.disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(capacity: usize, sigma: usize) -> DictParams {
        DictParams::new(capacity, 1 << 40, sigma)
            .with_degree(20)
            .with_epsilon(0.5)
            .with_seed(0xFEED)
    }

    /// Record width whose structures chain at every capacity here (`B =
    /// 64`); one word and two below 256 keys store records inline.
    const CHAINED: usize = 4;

    /// A `sigma`-word record of `key`.
    fn sat(key: u64, sigma: usize) -> Vec<Word> {
        (0..sigma as u64).map(|i| key ^ (i << 40)).collect()
    }

    /// Both layouts under one `Dictionary`: records of two words are
    /// stored inline while a bucket of 4-word slots fits a 64-word block
    /// (capacity below 256), and chained past it. Growing past the
    /// boundary migrates every record from its slot into chains; shrinking
    /// back migrates them from chains into slots. Every key stays readable
    /// at every step, and each structure's layout is what its capacity says.
    #[test]
    fn grows_from_inline_to_chained_and_back_on_shrink() {
        let mut dict = Dictionary::new(params(64, 2).with_journal(2), 64).unwrap();
        assert!(dict.active.is_inline());
        let layout = |dict: &Dictionary| {
            let params = DictParams { capacity: dict.capacity(), ..dict.template };
            assert_eq!(dict.active.is_inline(), DynamicDict::records_inline(&params, 64));
            dict.active.is_inline()
        };
        let mut k = 0u64;
        while layout(&dict) || dict.is_rebuilding() {
            assert!(k < 1_000, "never grew chained in {k} inserts");
            dict.insert(k, &sat(k, 2)).unwrap();
            k += 1;
            if k.is_multiple_of(37) {
                for probe in 0..k {
                    assert_eq!(dict.lookup(probe).satellite, Some(sat(probe, 2)), "key {probe} at {k}");
                }
            }
        }
        assert!(dict.capacity() >= 256 && !dict.active.is_inline(), "grew to {}", dict.capacity());
        for probe in 0..k {
            assert_eq!(dict.lookup(probe).satellite, Some(sat(probe, 2)), "key {probe} once chained");
        }
        // Shrink: delete all but a few, then let the window close.
        let keep = 10;
        for doomed in keep..k {
            assert!(dict.delete(doomed).unwrap().0, "delete of {doomed}");
            layout(&dict);
        }
        let mut fresh = 1 << 20;
        while !dict.active.is_inline() || dict.is_rebuilding() {
            dict.insert(fresh, &sat(fresh, 2)).unwrap();
            fresh += 1;
            assert!(fresh < (1 << 20) + 1000, "never shrank back inline");
        }
        layout(&dict);
        assert_eq!(dict.len(), keep as usize + (fresh - (1 << 20)) as usize);
        for probe in (0..keep).chain(1 << 20..fresh) {
            assert_eq!(dict.lookup(probe).satellite, Some(sat(probe, 2)), "key {probe} back inline");
        }
        for gone in keep..k {
            assert!(!dict.lookup(gone).found(), "deleted key {gone} came back");
        }
        assert_eq!(dict.disks.journal_bypassed(), 0);
        let report = Dict::recover(&mut dict);
        assert_eq!((report.stalled, report.mismatched), (0, 0));
        assert_eq!(dict.len(), keep as usize + (fresh - (1 << 20)) as usize);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut dict = Dictionary::new(params(64, 1), 64).unwrap();
        for k in 0..1000u64 {
            dict.insert(k * 3 + 1, &[k]).unwrap();
        }
        assert_eq!(dict.len(), 1000);
        assert!(dict.capacity() >= 1000);
        assert!(dict.rebuilds() >= 1, "must have rebuilt at least once");
        for k in 0..1000u64 {
            assert_eq!(dict.lookup(k * 3 + 1).satellite, Some(vec![k]), "key {k}");
        }
    }

    #[test]
    fn lookups_work_mid_rebuild() {
        let mut dict = Dictionary::new(params(64, 1), 64).unwrap();
        let mut checked_mid_rebuild = false;
        for k in 0..500u64 {
            dict.insert(k, &[k]).unwrap();
            if dict.is_rebuilding() && !checked_mid_rebuild {
                checked_mid_rebuild = true;
                for probe in 0..=k {
                    assert_eq!(
                        dict.lookup(probe).satellite,
                        Some(vec![probe]),
                        "mid-rebuild lookup of {probe}"
                    );
                }
            }
        }
        assert!(checked_mid_rebuild, "test never observed a rebuild window");
    }

    #[test]
    fn deletes_survive_rebuilds() {
        let mut dict = Dictionary::new(params(64, 1), 64).unwrap();
        for k in 0..600u64 {
            dict.insert(k, &[k]).unwrap();
            if k % 3 == 0 {
                let (was, _) = dict.delete(k).unwrap();
                assert!(was, "delete of fresh key {k}");
            }
        }
        for k in 0..600u64 {
            let found = dict.lookup(k).found();
            assert_eq!(found, k % 3 != 0, "key {k}");
        }
        assert_eq!(dict.len(), 400);
    }

    #[test]
    fn delete_then_reinsert_during_rebuilds() {
        let mut dict = Dictionary::new(params(32, 1), 64).unwrap();
        for round in 0..5u64 {
            for k in 0..200u64 {
                let _ = dict.delete(k);
                dict.insert(k, &[round]).unwrap();
            }
        }
        for k in 0..200u64 {
            assert_eq!(dict.lookup(k).satellite, Some(vec![4]), "key {k}");
        }
    }

    #[test]
    fn duplicate_rejected_across_structures() {
        let mut dict = Dictionary::new(params(64, 0), 64).unwrap();
        for k in 0..100u64 {
            dict.insert(k, &[]).unwrap();
        }
        for k in 0..100u64 {
            assert!(
                matches!(dict.insert(k, &[]), Err(DictError::DuplicateKey(_))),
                "duplicate {k} accepted"
            );
        }
        assert_eq!(dict.len(), 100);
    }

    /// The most one operation may cost (no journal): its own first-fit
    /// insert — the shared first round, one read per deeper level, one
    /// write — plus a migration step. A step scans `MIGRATE_BUCKETS_PER_OP`
    /// buckets in one round and hands on at most `k` keys, one per bucket
    /// slot; its read plan and its commit touch each disk at most once per
    /// key, and each key may probe every deeper level once on its own
    /// (inline records have no level past their bucket: count one).
    fn op_cost_bound(dict: &Dictionary) -> u64 {
        let mut levels = dict.active.num_levels().max(1);
        if let Some(b) = &dict.building {
            levels = levels.max(b.dict.num_levels());
        }
        let k = MIGRATE_BUCKETS_PER_OP * dict.active.bucket_slots();
        let own = 1 + (levels - 1) + 1;
        let step = 1 + k + k * (levels - 1) + k;
        (own + step) as u64
    }

    #[test]
    fn worst_case_op_cost_is_bounded() {
        for sigma in [1, CHAINED] {
            worst_case_op_cost_is_bounded_at(sigma);
        }
    }

    fn worst_case_op_cost_is_bounded_at(sigma: usize) {
        let mut dict = Dictionary::new(params(64, sigma), 64).unwrap();
        let mut window_lookups = 0;
        for k in 0..2000u64 {
            let before = op_cost_bound(&dict);
            let c = dict.insert(k, &sat(k, sigma)).unwrap();
            let bound = before.max(op_cost_bound(&dict));
            assert!(
                c.parallel_ios <= bound,
                "σ = {sigma}: insert {k} cost {} parallel I/Os, bound {bound}",
                c.parallel_ios
            );
            // Inside a window a lookup reads both structures' first rounds
            // at once: exactly 1 round unless the record sits on a deeper
            // level, and at most as many 2-round lookups as such records.
            if k % 64 == 63 {
                if let Some(b) = &dict.building {
                    let deeper: usize = dict.active.level_population()[1..]
                        .iter()
                        .chain(&b.dict.level_population()[1..])
                        .sum();
                    let mut two_round = 0;
                    for probe in 0..=k + 5 {
                        let out = dict.lookup(probe);
                        assert_eq!(out.found(), probe <= k, "mid-rebuild lookup of {probe}");
                        match out.cost.parallel_ios {
                            1 => {}
                            2 => two_round += 1,
                            c => panic!("window lookup of {probe} cost {c} rounds"),
                        }
                        assert!(out.found() || out.cost.parallel_ios == 1, "a miss is 1 round");
                    }
                    assert!(
                        two_round <= deeper,
                        "{two_round} two-round lookups but only {deeper} records past level 1"
                    );
                    window_lookups += 1;
                }
            }
        }
        assert!(window_lookups > 0, "test never looked up inside a window");
        // And lookups stay constant even at 2000 keys.
        let mut lookup_worst = 0;
        for k in 0..2000u64 {
            lookup_worst = lookup_worst.max(dict.lookup(k).cost.parallel_ios);
        }
        assert!(lookup_worst <= 2, "lookup worst {lookup_worst}");
    }

    fn total_blocks(dict: &Dictionary) -> usize {
        (0..dict.disks.disks()).map(|d| dict.disks.blocks_on(d)).sum()
    }

    /// The paper's constant-factor space: with the abandoned slot handed
    /// back at every swap, storage stays within the ring plus two slots
    /// however many rebuilds a steady live set crosses — and no commit,
    /// however large its step, slips past the journal. Chained, so that a
    /// steady live set crosses rebuilds at all.
    #[test]
    fn storage_stays_constant_across_rebuild_cycles() {
        let mut dict = Dictionary::new(params(64, CHAINED).with_journal(2), 64).unwrap();
        let live = 40u64;
        for k in 0..live {
            dict.insert(k, &sat(k, CHAINED)).unwrap();
        }
        let mut next = live;
        let mut after_two = 0;
        while dict.rebuilds() < 42 {
            assert!(next < 100 * live, "42 rebuilds not crossed in {} insert/delete pairs", next - live);
            // Steady state: one in, one out. Deleted keys keep their fields,
            // so the insertion budget alone keeps forcing rebuilds.
            dict.insert(next, &sat(next, CHAINED)).unwrap();
            assert!(dict.delete(next - live).unwrap().0);
            next += 1;
            if dict.rebuilds() == 2 && after_two == 0 {
                after_two = total_blocks(&dict);
            }
        }
        assert_eq!(dict.len(), live as usize);
        let now = total_blocks(&dict);
        assert!(
            4 * now <= 5 * after_two,
            "storage grew from {after_two} blocks after 2 rebuilds to {now} after {}",
            dict.rebuilds()
        );
        assert_eq!(dict.disks.journal_bypassed(), 0);
        for k in next - live..next {
            assert_eq!(dict.lookup(k).satellite, Some(sat(k, CHAINED)), "key {k}");
        }
        assert!(!dict.lookup(next - live - 1).found());
    }

    /// Inline, a deletion gives its slot back, so the budget is the live
    /// keys: a steady live set below 3/4 of capacity (47 of 64 at its
    /// peak) churns for 10 × capacity operations and opens no window.
    #[test]
    fn steady_inline_churn_below_three_quarters_opens_no_window() {
        let cap = 64;
        let mut dict = Dictionary::new(params(cap, 1).with_journal(2), 64).unwrap();
        assert!(dict.active.is_inline());
        let live = 3 * cap as u64 / 4 - 2;
        for k in 0..live {
            dict.insert(k, &[k]).unwrap();
        }
        for next in live..live + 5 * cap as u64 {
            dict.insert(next, &[next]).unwrap();
            assert!(dict.delete(next - live).unwrap().0);
            assert!(!dict.is_rebuilding() && dict.rebuilds() == 0, "a window opened at key {next}");
        }
        assert_eq!((dict.len(), dict.capacity()), (live as usize, cap));
        assert_eq!(dict.active.budget_used(), dict.len());
        let end = live + 5 * cap as u64;
        for k in 0..end {
            assert_eq!(dict.lookup(k).found(), k >= end - live, "key {k}");
        }
    }

    /// Swap → checkpoint → discard: once a rebuild has finished, the
    /// abandoned slot's disks end at the ring and the ring holds no intent
    /// that could write past it — or be mistaken for one of the slot's next
    /// tenant, which will carry the same tag.
    #[test]
    fn finished_rebuild_leaves_no_intent_over_the_discarded_slot() {
        let mut dict = Dictionary::new(params(64, 1).with_journal(2), 64).unwrap();
        let mut k = 0u64;
        while dict.rebuilds() == 0 {
            assert!(k < 1_000, "no rebuild finished in {k} inserts");
            dict.insert(k, &[k]).unwrap();
            k += 1;
        }
        assert!(!dict.is_rebuilding(), "stopped on the operation that swapped");
        // Rebuild 1 built in the upper slot; the lower one was abandoned.
        let d = dict.template.degree;
        let ring_end = dict.disks.journal_region().map_or(0, |r| r.first_block + r.rows);
        for disk in 0..2 * d {
            assert_eq!(dict.alloc.used_blocks(disk), ring_end, "disk {disk} not released");
            assert_eq!(dict.disks.blocks_on(disk), ring_end, "disk {disk} kept its blocks");
        }
        // A reboot right now finds nothing to replay.
        let mut image = dict.disks.clone();
        let region = image.journal_region().unwrap();
        image.reopen_journal(region);
        let report = image.recover();
        assert!(report.replayed.is_empty(), "live intents after the swap: {report:?}");
        *dict.disks_mut().unwrap() = image;
        let _ = Dict::recover(&mut dict);
        assert_eq!(dict.len(), k as usize);
        for key in 0..k {
            assert_eq!(dict.lookup(key).satellite, Some(vec![key]), "key {key}");
        }
        // The next rebuild regrows the released blocks and reuses the old tag
        // (growth opens the windows: inline, a steady live set opens none).
        let first_tag = dict.active.meta_tag();
        while dict.rebuilds() < 3 {
            assert!(k < 1_000, "rebuild 3 not finished in {k} inserts");
            dict.insert(k, &[k]).unwrap();
            k += 1;
        }
        assert!(!dict.is_rebuilding(), "stopped on the operation that swapped");
        assert_eq!(dict.active.meta_tag(), first_tag, "the slot's tag recycles");
        // Between windows storage is exactly the ring plus the active slot,
        // whatever the number of rebuilds; the discarded slot's rows read 0.
        let active: usize = dict.active.space_rows().iter().map(|(_, blocks)| blocks).sum();
        let slots: usize = dict.slot_rows.iter().flatten().map(|(_, blocks)| blocks).sum();
        assert_eq!(slots, active);
        assert_eq!(total_blocks(&dict), 4 * d * ring_end + active);
    }

    #[test]
    fn batch_budget_error_does_not_double_insert_successors() {
        // A key whose retrieval fields are exhausted (the deterministic
        // stand-in for a sampled-expander local failure) makes the active
        // structure fail with LevelsExhausted mid-batch. The batch stops
        // there, so the wrapper re-routes the failed key and its
        // successors through the rebuild path; none of them were
        // committed by the batch, so none may come back as a spurious
        // DuplicateKey or end up stored twice.
        let mut dict = Dictionary::new(params(64, CHAINED), 64).unwrap();
        let victim = 1_000u64;
        dict.active.exhaust_key_fields(&mut dict.disks, victim);
        for k in 0..10u64 {
            dict.insert(k, &sat(k, CHAINED)).unwrap();
        }
        assert!(!dict.is_rebuilding());
        let mut batch: Vec<(u64, Vec<Word>)> = vec![(victim, sat(victim, CHAINED))];
        batch.extend((2_000..2_020u64).map(|k| (k, sat(k, CHAINED))));
        let (res, _) = dict.insert_batch(&batch);
        assert_eq!(res.len(), batch.len());
        for (i, r) in res.iter().enumerate() {
            assert!(r.is_ok(), "fresh key {} rejected: {r:?}", batch[i].0);
        }
        assert!(dict.rebuilds() > 0 || dict.is_rebuilding(), "victim must have forced a rebuild");
        assert_eq!(dict.len(), 10 + batch.len());
        for (k, sat) in &batch {
            assert_eq!(dict.lookup(*k).satellite, Some(sat.clone()), "key {k}");
        }
        for k in 0..10u64 {
            assert_eq!(dict.lookup(k).satellite, Some(sat(k, CHAINED)), "pre-key {k}");
        }
    }

    /// An applied update is answered with its own result. A migration step
    /// that fails (here: a replacement level exhausted for some *other*
    /// key) used to turn the insert that carried it — stored, journaled,
    /// counted — into an `Err` the client retries into `DuplicateKey`. The
    /// step's error stays on the dictionary, the cursor where it was, and
    /// the rebuild finishes once the obstacle is gone.
    #[test]
    fn a_failed_migration_step_is_not_the_carrying_updates_error() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut dict = Dictionary::new(params(64, CHAINED), 64).unwrap();
        Dict::set_metrics(&mut dict, Some(registry.clone()));
        let mut n = 0u64;
        while !dict.is_rebuilding() {
            assert!(n < 1_000, "no window opened in {n} inserts");
            dict.insert(n, &sat(n, CHAINED)).unwrap();
            n += 1;
        }
        // A key the steps have not reached: it cannot be placed anywhere
        // in the replacement, so the step that scans its bucket fails.
        let b = dict.building.as_ref().unwrap();
        let victim = (0..n).rev().find(|&k| !b.dict.lookup(&mut dict.disks.clone(), k).found()).unwrap();
        b.dict.exhaust_key_fields(&mut dict.disks, victim);
        let errors = registry.counter("dict_migration_step_errors_total", &[("dict", "rebuild")]);
        let stuck = |dict: &Dictionary| matches!(dict.last_step_error(), Some(DictError::LevelsExhausted { key }) if *key == victim);
        let mut carried = Vec::new();
        while carried.len() < 40 {
            Dict::insert(&mut dict, n, &sat(n, CHAINED)).unwrap_or_else(|e| panic!("insert of {n} answered the step's error: {e}"));
            assert_eq!(dict.lookup(n).satellite, Some(sat(n, CHAINED)));
            if stuck(&dict) {
                carried.push(n);
            }
            n += 1;
        }
        assert_eq!(errors.get(), carried.len() as u64, "one count per failed step");
        assert!(dict.is_rebuilding(), "the window closed over a key it could not copy");
        assert_eq!(dict.len(), n as usize);
        // A delete carries the step just as well, and removes the obstacle.
        assert_eq!(dict.delete(victim).map(|(was, _)| was), Ok(true));
        while dict.rebuilds() == 0 {
            assert!(n < 10_000, "the window never closed ({n} keys inserted)");
            dict.insert(n, &sat(n, CHAINED)).unwrap();
            n += 1;
        }
        assert_eq!(dict.last_step_error(), None);
        assert_eq!(dict.len(), n as usize - 1);
        for k in (0..n).filter(|&k| k != victim) {
            assert_eq!(dict.lookup(k).satellite, Some(sat(k, CHAINED)), "key {k}");
        }
    }

    /// A sub-plan is sized by the blocks its executor holds. On a resident
    /// array those are the blocks the step stages (`pdm`'s executor tests),
    /// all dirty going into its commit and at most `m + 1` a key — so the
    /// bound buys `3d / (m + 1)` = four times the buckets it buys where every
    /// round is copied out and held (here: under an empty fault plan, which
    /// ends the views), for the same I/O, because the plan's size follows
    /// the medium, not the hazard.
    #[test]
    fn a_migration_plan_is_sized_by_the_blocks_its_executor_holds() {
        use pdm::metrics::{IoEvent, IoEventSink};
        #[derive(Default)]
        struct MostDirty(std::sync::atomic::AtomicU64);
        impl IoEventSink for MostDirty {
            fn on_io(&self, event: IoEvent<'_>) {
                if let IoEvent::BatchCommitted { dirty_blocks } = event {
                    self.0.fetch_max(dirty_blocks, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        // Two-word records chain from 256 keys up (a bucket of 4-word slots
        // outgrows the 64-word block).
        let mut dict = Dictionary::new(params(1024, 2), 64).unwrap();
        let mut n = 0u64;
        while !dict.is_rebuilding() {
            assert!(n < 10_000, "no window opened in {n} inserts");
            dict.insert(n, &sat(n, 2)).unwrap();
            n += 1;
        }
        let b = dict.building.take().unwrap();
        assert!(!b.dict.is_inline() && !dict.active.is_inline());
        let (d, m) = (20, 14); // m = ⌈2d/3⌉
        let plan = b.dict.migration_buckets(&dict.disks, &dict.active, MIGRATE_BLOCKS_PER_PLAN);
        let load = dict.active.len() as f64 / dict.active.membership_buckets() as f64;
        assert!(plan >= 8 && plan as f64 * load * (m + 1) as f64 <= MIGRATE_BLOCKS_PER_PLAN as f64, "{plan} at {load}");
        // One plan: keys copied, cost, most blocks dirty at a commit.
        let step = |copied: bool, buckets: usize| {
            let (mut disks, mut new, dirty) = (dict.disks.clone(), b.dict.clone(), Arc::new(MostDirty::default()));
            disks.set_io_sink(Some(dirty.clone()));
            if copied {
                disks.set_fault_plan(pdm::FaultPlan::new());
            }
            let scope = disks.begin_op();
            let (keys, outcome) = new.migrate_from(&mut disks, &dict.active, b.cursor..b.cursor + buckets);
            outcome.unwrap();
            (keys, disks.end_op(scope), dirty.0.load(std::sync::atomic::Ordering::Relaxed) as usize)
        };
        let (keys, cost, held) = step(false, plan);
        assert!(held <= keys * (m + 1), "{held} blocks held for {keys} keys");
        assert!(held <= MIGRATE_BLOCKS_PER_PLAN * 5 / 4, "{held} blocks held: bucket loads vary, not by this much");
        assert_eq!(step(true, plan), (keys, cost, held), "a hazard changed the plan");
        // The plan a copying executor gets for the same bound — a quarter of
        // the buckets and of the keys — holds every block it read after the
        // scan's: no fewer.
        let quarter = plan * (m + 1) / (3 * d);
        let (quarter_keys, quarter_cost, _) = step(true, quarter);
        let held_copied = quarter_cost.block_reads as usize - quarter;
        assert!(held <= held_copied, "{held} blocks for {keys} keys against {held_copied} for {quarter_keys}");
    }

    /// The window delete reads both structures' membership probes; while
    /// either stays unreadable, a key it does not show may still be there,
    /// so the delete fails typed instead of answering "absent" — and does
    /// not tombstone the one copy it can see.
    #[test]
    fn window_delete_fails_typed_off_an_unreadable_probe() {
        let mut dict = Dictionary::new(params(64, 1).with_journal(2), 64).unwrap();
        let mut n = 0u64;
        while !dict.is_rebuilding() {
            assert!(n < 1_000, "no window opened in {n} inserts");
            dict.insert(n, &[n]).unwrap();
            n += 1;
        }
        dict.disks.enable_integrity();
        // Disk 0: a membership disk of the old (active) structure.
        dict.disks.set_fault_plan(pdm::FaultPlan::new().dead_disk(0));
        let (mut gone, mut typed) = (Vec::new(), Vec::new());
        for k in 0..n {
            if !dict.is_rebuilding() {
                break; // the old structure, and what died with disk 0, is gone
            }
            match dict.delete(k) {
                Ok((was, _)) => {
                    assert!(was, "stored key {k} reported absent off a dead disk");
                    gone.push(k);
                }
                Err(DictError::Io { kind, disk, .. }) => {
                    assert_eq!((kind, disk), (pdm::IoFaultKind::DiskDead, 0));
                    typed.push(k);
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(!typed.is_empty(), "every probe of the old structure touches disk 0");
        dict.disks.clear_fault_plan();
        for k in gone {
            assert!(!dict.lookup(k).found(), "deleted key {k} came back");
        }
    }

    /// Inside a window too, a batch's damaged keys are re-read once,
    /// together: 16 keys under a one-read transient window on a membership
    /// disk of the old structure — every key probes it — are answered
    /// exactly, for the fault-free cost and one re-read plan.
    #[test]
    fn a_window_batch_retries_its_damaged_keys_once_together() {
        for sigma in [1, CHAINED] {
            let mut dict = Dictionary::new(params(64, sigma), 64).unwrap();
            let mut n = 0u64;
            while !dict.is_rebuilding() {
                assert!(n < 1_000, "σ = {sigma}: no window opened in {n} inserts");
                dict.insert(n, &sat(n, sigma)).unwrap();
                n += 1;
            }
            let batch: Vec<u64> = (0..16).collect();
            let want: Vec<Option<Vec<Word>>> = batch.iter().map(|&k| Some(sat(k, sigma))).collect();
            dict.disks.enable_integrity();
            let (found, clean) = dict.lookup_batch(&batch);
            assert_eq!(found, want);
            dict.disks.set_fault_plan(pdm::FaultPlan::new().transient_read(1, 0, 1));
            let (found, cost) = dict.lookup_batch(&batch);
            assert_eq!(found, want, "σ = {sigma}");
            assert!(
                clean.parallel_ios < cost.parallel_ios && cost.parallel_ios <= 2 * clean.parallel_ios,
                "σ = {sigma}: {} parallel I/Os under the window, {} without",
                cost.parallel_ios,
                clean.parallel_ios
            );
        }
    }

    /// The write-side twin: inside a window one intent tombstones a key in
    /// both structures, and a key only in the old one is one block, written
    /// in place. One torn write is healed by the commit's retry. If a
    /// tombstone write keeps tearing, the record it was meant to kill may
    /// still be on disk: the delete fails typed, `len()` does not move — a
    /// recovery's recount meets the torn bucket and leaves it — and an
    /// intent is truncated so it can never replay.
    #[test]
    fn window_delete_fails_typed_on_a_torn_tombstone() {
        let mut dict0 = Dictionary::new(params(64, 1).with_journal(2), 64).unwrap();
        let mut n = 0u64;
        while !dict0.is_rebuilding() {
            assert!(n < 1_000, "no window opened in {n} inserts");
            dict0.insert(n, &[n]).unwrap();
            n += 1;
        }
        let holds = |dict: &Dictionary, k: u64| {
            let b = dict.building.as_ref().unwrap();
            let mut disks = dict.disks.clone();
            (b.dict.lookup(&mut disks, k).found(), dict.active.lookup(&mut disks, k).found())
        };
        // Into the window until a step has copied something.
        while !(0..n).any(|k| holds(&dict0, k) == (true, true)) {
            dict0.insert(n, &[n]).unwrap();
            n += 1;
        }
        dict0.disks.enable_integrity();
        let len = dict0.len();
        // A key still only in the old structure, and one already copied.
        for in_both in [false, true] {
            let victim = (0..n).find(|&k| holds(&dict0, k) == (in_both, true)).expect("no such key");
            let addrs = dict0.active.membership().probe_addrs(victim);
            let mut image = dict0.disks.clone();
            let blocks = image.read(&addrs, pdm::ReadOptions::default()).blocks;
            let disk = dict0.active.membership().tombstone_word(victim, &blocks).unwrap().0.disk;
            // `healed`: one tear, on the intent's ring slot or on the
            // tombstone (its disk's first write when it goes in place).
            // Otherwise the retry's write tears too.
            for (first, tears, healed) in [(0, 1, true), (1, 1, true), (0, 4, false)] {
                let mut dict = dict0.clone();
                let plan = (first..first + tears).fold(pdm::FaultPlan::new(), |p, nth| p.torn_write(disk, nth));
                dict.disks.set_fault_plan(plan);
                let Err(e) = dict.delete(victim) else {
                    assert!(healed, "in both = {in_both}: a tombstone that kept tearing was acked");
                    assert!(!dict.lookup(victim).found() && dict.len() == len - 1);
                    continue;
                };
                assert!(!healed, "in both = {in_both}: one tear failed the delete: {e}");
                assert!(
                    matches!(e, DictError::Io { kind: pdm::IoFaultKind::TornWrite, disk: at, .. } if at == disk),
                    "{e}"
                );
                assert_eq!(dict.len(), len, "a failed delete is not counted");
                dict.disks.clear_fault_plan();
                let report = Dict::recover(&mut dict);
                assert!(report.replayed.is_empty(), "the failed delete replayed: {report:?}");
                // A torn write lands the block's first half: the tombstone
                // may be on the medium though the delete failed. Recovery
                // counts what the images hold, so `len()` is what lookups
                // answer — unless the bucket reads damaged, when it stands.
                let out = dict.lookup(victim);
                if let Some(got) = &out.satellite {
                    assert_eq!(got, &vec![victim]);
                }
                let gone = !out.found() && out.is_exact();
                assert_eq!(dict.len(), len - usize::from(gone), "in both = {in_both}: gone = {gone}");
            }
        }
    }

    #[test]
    fn shrinks_after_mass_deletion() {
        let mut dict = Dictionary::new(params(64, 0), 64).unwrap();
        for k in 0..800u64 {
            dict.insert(k, &[]).unwrap();
        }
        let big_cap = dict.capacity();
        for k in 0..795u64 {
            dict.delete(k).unwrap();
        }
        // Trigger further ops to let the shrink rebuild complete.
        for k in 10_000..10_050u64 {
            dict.insert(k, &[]).unwrap();
        }
        assert!(
            dict.capacity() < big_cap,
            "capacity {} did not shrink from {big_cap}",
            dict.capacity()
        );
        assert_eq!(dict.len(), 5 + 50);
        for k in 795..800u64 {
            assert!(dict.lookup(k).found());
        }
    }

    #[test]
    fn empty_dictionary_behaves() {
        let mut dict = Dictionary::new(params(16, 2), 64).unwrap();
        assert!(dict.is_empty());
        assert!(!dict.lookup(5).found());
        let (was, _) = dict.delete(5).unwrap();
        assert!(!was);
    }
}

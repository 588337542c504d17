//! Adapters presenting the externally-disked front-ends through the unified
//! [`Dict`] trait.
//!
//! `BasicDict`, `DynamicDict`, `OneProbeStatic`, and `WideDict` take their
//! [`DiskArray`] as an explicit argument on every call — the right shape for
//! composition (the rebuild wrapper runs two structures on one array), but
//! not object-safe. [`DictHandle`] pairs one such structure with an owned
//! array and implements [`Dict`] once, generically, over the small
//! [`RawDict`] vocabulary each front-end supplies. Metrics recording lives
//! here too, so every front-end is instrumented by the same code path.

use crate::basic::BasicDict;
use crate::dynamic::DynamicDict;
use crate::layout::{export_space, DiskAllocator, SpaceRow};
use crate::one_probe::OneProbeStatic;
use crate::traits::{Dict, DictError, LookupOutcome, OpRecorder};
use crate::wide::WideDict;
use expander::NeighborFn;
use pdm::metrics::{IoMetricsSink, MetricsRegistry};
use pdm::{DiskArray, OpCost, PdmConfig, ScrubReport, Word};
use std::sync::Arc;

/// The per-front-end vocabulary [`DictHandle`] adapts to [`Dict`].
///
/// Mirrors the front-ends' inherent methods with the [`DiskArray`] passed
/// explicitly; the handle owns the array and threads it through. Batch
/// methods default to sequential loops so front-ends without a native batch
/// engine (currently `WideDict`) participate unchanged.
pub trait RawDict {
    /// Stable front-end tag; see [`Dict::kind`].
    fn raw_kind(&self) -> &'static str;

    /// Keys stored.
    fn raw_len(&self) -> usize;

    /// Maximum keys (built key-set size for static structures).
    fn raw_capacity(&self) -> usize;

    /// Key universe size; see [`Dict::universe`].
    fn raw_universe(&self) -> u64 {
        u64::MAX
    }

    /// Look up `key` on `disks`.
    fn raw_lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome;

    /// Insert `key` on `disks`.
    ///
    /// # Errors
    /// See [`DictError`].
    fn raw_insert(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
        satellite: &[Word],
    ) -> Result<OpCost, DictError>;

    /// Delete `key` on `disks`.
    ///
    /// # Errors
    /// Static structures report [`DictError::UnsupportedParams`].
    fn raw_delete(&mut self, disks: &mut DiskArray, key: u64)
        -> Result<(bool, OpCost), DictError>;

    /// Batched lookup; defaults to a sequential loop.
    fn raw_lookup_batch(
        &self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Option<Vec<Word>>>, OpCost) {
        crate::traits::lookup_each(keys, |key| self.raw_lookup(disks, key))
    }

    /// Batched insert; defaults to a sequential loop.
    fn raw_insert_batch(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(u64, Vec<Word>)],
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        crate::traits::insert_each(entries, |key, satellite| self.raw_insert(disks, key, satellite))
    }

    /// Batched delete; defaults to a sequential loop.
    fn raw_delete_batch(
        &mut self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Result<bool, DictError>>, OpCost) {
        crate::traits::delete_each(keys, |key| self.raw_delete(disks, key))
    }

    /// Report front-end-specific shape gauges as `(name, value)` pairs
    /// (e.g. `BasicDict`'s `max_bucket_load`, the quantity Lemma 3 bounds).
    /// Reads must be free (peeks), not charged I/O.
    fn raw_gauges(&self, disks: &DiskArray, out: &mut Vec<(&'static str, u64)>) {
        let _ = (disks, out);
    }

    /// The front-end's rows of [`crate::layout::space_ledger`], if any.
    fn raw_space_rows(&self) -> Vec<SpaceRow> {
        Vec::new()
    }

    /// Verify-and-repair pass; defaults to the disk-level checksum scan.
    /// Front-ends with field-level redundancy (one-probe case (b))
    /// override this to additionally rewrite damaged fields from the
    /// surviving replicas.
    fn raw_scrub(&self, disks: &mut DiskArray) -> ScrubReport {
        disks.scrub_verify()
    }

    /// Reconcile in-memory counters with a journal recovery replay
    /// ([`DiskArray::recover`]) and the metadata checkpoint the journal
    /// holds ([`DiskArray::journal_meta`]). Default: nothing to reconcile —
    /// front-ends whose counters a replayed intent changes (the dynamic
    /// dictionary) override this: the checkpoint's counters where they are
    /// newer than the instance's own (a truncation inside the interrupted
    /// operation — a batch committed as several intents — froze them past
    /// what this process state knew), then the replayed deltas, then what
    /// the image says of updates written in place with no intent.
    fn raw_recover_reconcile(&mut self, disks: &mut DiskArray, report: &pdm::RecoveryReport) {
        let _ = (disks, report);
    }

    /// The metadata checkpoint to persist when truncating the journal
    /// after recovery; empty when the front-end keeps no replay-sensitive
    /// counters.
    fn raw_checkpoint_meta(&self) -> Vec<Word> {
        Vec::new()
    }
}

impl RawDict for BasicDict {
    fn raw_kind(&self) -> &'static str {
        "basic"
    }
    fn raw_len(&self) -> usize {
        self.len()
    }
    fn raw_capacity(&self) -> usize {
        self.config().capacity
    }
    fn raw_lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        self.lookup(disks, key)
    }
    fn raw_insert(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
        satellite: &[Word],
    ) -> Result<OpCost, DictError> {
        self.insert(disks, key, satellite)
    }
    fn raw_delete(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
    ) -> Result<(bool, OpCost), DictError> {
        Ok(self.delete(disks, key))
    }
    fn raw_lookup_batch(
        &self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Option<Vec<Word>>>, OpCost) {
        self.lookup_batch(disks, keys)
    }
    fn raw_insert_batch(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(u64, Vec<Word>)],
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        self.insert_batch(disks, entries)
    }
    fn raw_gauges(&self, disks: &DiskArray, out: &mut Vec<(&'static str, u64)>) {
        out.push(("max_bucket_load", self.max_load_peek(disks) as u64));
        out.push(("buckets", self.buckets() as u64));
    }
}

impl RawDict for DynamicDict {
    fn raw_kind(&self) -> &'static str {
        "dynamic"
    }
    fn raw_len(&self) -> usize {
        self.len()
    }
    fn raw_capacity(&self) -> usize {
        self.capacity()
    }
    fn raw_universe(&self) -> u64 {
        self.params().universe
    }
    fn raw_lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        self.lookup(disks, key)
    }
    fn raw_insert(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
        satellite: &[Word],
    ) -> Result<OpCost, DictError> {
        self.insert(disks, key, satellite)
    }
    fn raw_delete(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
    ) -> Result<(bool, OpCost), DictError> {
        self.delete(disks, key)
    }
    fn raw_lookup_batch(
        &self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Option<Vec<Word>>>, OpCost) {
        self.lookup_batch(disks, keys)
    }
    /// One answer per entry, as a sequential loop gives them:
    /// [`DynamicDict::insert_batch`] stops at a budget error (so that the
    /// rebuilding wrapper can re-route the rest), and the entries after it
    /// go in one by one.
    fn raw_insert_batch(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(u64, Vec<Word>)],
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        let (mut results, cost) = self.insert_batch(disks, entries);
        if results.len() == entries.len() {
            return (results, cost);
        }
        let rest = &entries[results.len()..];
        let (more, more_cost) =
            crate::traits::insert_each(rest, |key, satellite| self.insert(disks, key, satellite));
        results.extend(more);
        (results, cost.plus(more_cost))
    }
    fn raw_delete_batch(
        &mut self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Result<bool, DictError>>, OpCost) {
        self.delete_batch(disks, keys)
    }
    fn raw_gauges(&self, _disks: &DiskArray, out: &mut Vec<(&'static str, u64)>) {
        out.push(("levels", self.num_levels() as u64));
        // Every insertion since layout: the capacity budget when records
        // are chained; inline the budget is the live keys (`len`).
        out.push(("insertions", self.insertions() as u64));
    }
    fn raw_space_rows(&self) -> Vec<SpaceRow> {
        self.space_rows()
    }
    fn raw_recover_reconcile(&mut self, disks: &mut DiskArray, report: &pdm::RecoveryReport) {
        self.adopt_section(disks.journal_meta());
        self.apply_replay(report);
        self.recount(disks);
    }
    fn raw_checkpoint_meta(&self) -> Vec<Word> {
        self.checkpoint_section()
    }
}

impl<G: NeighborFn> RawDict for OneProbeStatic<G> {
    fn raw_kind(&self) -> &'static str {
        "one_probe"
    }
    fn raw_len(&self) -> usize {
        self.len()
    }
    fn raw_capacity(&self) -> usize {
        self.len()
    }
    fn raw_lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        self.lookup(disks, key)
    }
    fn raw_insert(
        &mut self,
        _disks: &mut DiskArray,
        _key: u64,
        _satellite: &[Word],
    ) -> Result<OpCost, DictError> {
        Err(DictError::UnsupportedParams(
            "OneProbeStatic is a static structure; rebuild it to change the key set".to_string(),
        ))
    }
    fn raw_delete(
        &mut self,
        _disks: &mut DiskArray,
        _key: u64,
    ) -> Result<(bool, OpCost), DictError> {
        Err(DictError::UnsupportedParams(
            "OneProbeStatic is a static structure; rebuild it to change the key set".to_string(),
        ))
    }
    fn raw_lookup_batch(
        &self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Option<Vec<Word>>>, OpCost) {
        self.lookup_batch(disks, keys)
    }
    fn raw_scrub(&self, disks: &mut DiskArray) -> ScrubReport {
        self.scrub(disks)
    }
    /// `build_attempts`: the graphs drawn before one expanded, that one
    /// included — 1 unless the configured seed's failed.
    fn raw_gauges(&self, _disks: &DiskArray, out: &mut Vec<(&'static str, u64)>) {
        out.push(("build_attempts", u64::from(self.attempt()) + 1));
    }
}

impl RawDict for WideDict {
    fn raw_kind(&self) -> &'static str {
        "wide"
    }
    fn raw_len(&self) -> usize {
        self.len()
    }
    fn raw_capacity(&self) -> usize {
        self.capacity()
    }
    fn raw_lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        self.lookup(disks, key)
    }
    fn raw_insert(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
        satellite: &[Word],
    ) -> Result<OpCost, DictError> {
        self.insert(disks, key, satellite)
    }
    fn raw_delete(
        &mut self,
        disks: &mut DiskArray,
        key: u64,
    ) -> Result<(bool, OpCost), DictError> {
        Ok(self.delete(disks, key))
    }
    fn raw_gauges(&self, _disks: &DiskArray, out: &mut Vec<(&'static str, u64)>) {
        out.push(("bandwidth_words", self.bandwidth_words() as u64));
    }
}

/// A front-end paired with its owned [`DiskArray`], presenting [`Dict`].
///
/// ```
/// use pdm::{DiskArray, PdmConfig};
/// use pdm_dict::basic::BasicDictConfig;
/// use pdm_dict::layout::DiskAllocator;
/// use pdm_dict::{BasicDict, Dict, DictHandle};
///
/// let mut disks = DiskArray::new(PdmConfig::new(8, 32), 64);
/// let mut alloc = DiskAllocator::new(disks.disks());
/// let cfg = BasicDictConfig::log_load(128, 1 << 20, 8, 1, 42);
/// let dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
/// let mut handle = DictHandle::new(dict, disks);
/// let dyn_dict: &mut dyn Dict = &mut handle;
/// dyn_dict.insert(7, &[99]).unwrap();
/// assert_eq!(dyn_dict.lookup(7).satellite, Some(vec![99]));
/// ```
#[derive(Debug)]
pub struct DictHandle<T: RawDict> {
    dict: T,
    disks: DiskArray,
    metrics: Option<OpRecorder>,
}

/// [`BasicDict`] behind the unified trait.
pub type BasicHandle = DictHandle<BasicDict>;
/// [`DynamicDict`] behind the unified trait.
pub type DynamicHandle = DictHandle<DynamicDict>;
/// [`OneProbeStatic`] behind the unified trait.
pub type OneProbeHandle = DictHandle<OneProbeStatic>;
/// [`WideDict`] behind the unified trait.
pub type WideHandle = DictHandle<WideDict>;

impl DictHandle<DynamicDict> {
    /// A Theorem 7 dictionary on a fresh in-memory array of its own: `2d`
    /// disks of `block_words`-word blocks, laid out from disk 0 — the twin
    /// of [`Dictionary::new`](crate::Dictionary::new) without the rebuilding.
    ///
    /// # Errors
    /// Whatever [`DynamicDict::create`] reports for `params`.
    pub fn in_memory(params: crate::DictParams, block_words: usize) -> Result<Self, DictError> {
        let nd = 2 * params.degree;
        let mut disks = DiskArray::new(PdmConfig::new(nd, block_words), 0);
        let dict = DynamicDict::create(&mut disks, &mut DiskAllocator::new(nd), 0, params)?;
        Ok(DictHandle::new(dict, disks))
    }
}

impl<T: RawDict> DictHandle<T> {
    /// Pair `dict` with the `disks` it was created on.
    #[must_use]
    pub fn new(dict: T, disks: DiskArray) -> Self {
        DictHandle {
            dict,
            disks,
            metrics: None,
        }
    }

    /// The wrapped front-end.
    #[must_use]
    pub fn dict(&self) -> &T {
        &self.dict
    }

    /// Mutable access to the wrapped front-end (crash tests restore a
    /// metadata snapshot through it).
    pub fn dict_mut(&mut self) -> &mut T {
        &mut self.dict
    }

    /// The owned disk array.
    #[must_use]
    pub fn disk_array(&self) -> &DiskArray {
        &self.disks
    }

    /// Split back into the front-end and its array.
    #[must_use]
    pub fn into_parts(self) -> (T, DiskArray) {
        (self.dict, self.disks)
    }
}

impl<T: RawDict> Dict for DictHandle<T> {
    fn kind(&self) -> &'static str {
        self.dict.raw_kind()
    }

    fn len(&self) -> usize {
        self.dict.raw_len()
    }

    fn capacity(&self) -> usize {
        self.dict.raw_capacity()
    }

    fn universe(&self) -> u64 {
        self.dict.raw_universe()
    }

    fn lookup(&mut self, key: u64) -> LookupOutcome {
        let out = self.dict.raw_lookup(&mut self.disks, key);
        if let Some(m) = &self.metrics {
            m.record_lookup(&out);
        }
        out
    }

    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
        let result = self.dict.raw_insert(&mut self.disks, key, satellite);
        if let Some(m) = &self.metrics {
            m.record_insert(&result);
        }
        result
    }

    fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
        let result = self.dict.raw_delete(&mut self.disks, key);
        if let Some(m) = &self.metrics {
            m.record_delete(&result);
        }
        result
    }

    fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let out = self.dict.raw_lookup_batch(&mut self.disks, keys);
        OpRecorder::record_lookup_batch(self.metrics.as_ref(), keys.len(), out)
    }

    fn insert_batch(&mut self, entries: &[(u64, Vec<Word>)]) -> (Vec<Result<(), DictError>>, OpCost) {
        let out = self.dict.raw_insert_batch(&mut self.disks, entries);
        OpRecorder::record_insert_batch(self.metrics.as_ref(), entries.len(), out)
    }

    fn delete_batch(&mut self, keys: &[u64]) -> (Vec<Result<bool, DictError>>, OpCost) {
        let out = self.dict.raw_delete_batch(&mut self.disks, keys);
        OpRecorder::record_delete_batch(self.metrics.as_ref(), keys.len(), out)
    }

    fn scrub(&mut self) -> ScrubReport {
        let report = self.dict.raw_scrub(&mut self.disks);
        if let Some(m) = &self.metrics {
            m.record_scrub(&report);
        }
        report
    }

    fn recover(&mut self) -> pdm::RecoveryReport {
        let report = self.disks.recover();
        self.dict.raw_recover_reconcile(&mut self.disks, &report);
        // Truncate: with counters reconciled, nothing in the ring needs
        // to survive another crash-before-next-op.
        self.checkpoint();
        report
    }

    fn checkpoint(&mut self) -> bool {
        if !self.disks.journal_enabled() {
            return false;
        }
        let meta = self.dict.raw_checkpoint_meta();
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
                self.metrics = Some(OpRecorder::new(registry, self.dict.raw_kind()));
            }
            None => {
                self.disks.set_io_sink(None);
                self.metrics = None;
            }
        }
    }

    fn refresh_gauges(&mut self) {
        let Some(m) = &self.metrics else { return };
        let kind = self.dict.raw_kind();
        m.set_shape(kind, self.dict.raw_len(), self.dict.raw_capacity());
        let mut extra = Vec::new();
        self.dict.raw_gauges(&self.disks, &mut extra);
        for (name, value) in extra {
            m.registry
                .gauge(&format!("dict_{name}"), &[("dict", kind)])
                .set(value as i64);
        }
        let rows = self.dict.raw_space_rows();
        if !rows.is_empty() {
            export_space(&m.registry, kind, &self.disks, rows);
        }
    }

    fn disks(&self) -> Option<&DiskArray> {
        Some(&self.disks)
    }

    fn disks_mut(&mut self) -> Option<&mut DiskArray> {
        Some(&mut self.disks)
    }
}

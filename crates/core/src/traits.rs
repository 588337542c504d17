//! Common result and error types for the dictionaries, and the unified
//! object-safe [`Dict`] trait every front-end implements.

use pdm::metrics::{Counter, Histogram, MetricsRegistry};
use pdm::{DiskArray, IoFaultKind, OpCost, ScrubReport, Word};
use std::sync::Arc;

/// Whether a lookup's answer came from fully healthy reads or had to
/// tolerate damage (erasure-decoded fields, sanitized blocks, a retried
/// transient error). A `Degraded` answer is still *correct* when present
/// — the redundancy covered the damage — but signals that a scrub or
/// disk replacement is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Provenance {
    /// Every block backing the answer read cleanly.
    #[default]
    Exact,
    /// At least one backing block was damaged; the answer was produced
    /// from surviving redundancy (or is a conservative miss).
    Degraded,
}

/// Result of a lookup: the satellite data if the key was present, plus the
/// exact parallel-I/O cost of the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupOutcome {
    /// Satellite words, or `None` for an unsuccessful search.
    pub satellite: Option<Vec<Word>>,
    /// I/O cost of this lookup.
    pub cost: OpCost,
    /// Whether the answer was produced from fully healthy reads.
    pub provenance: Provenance,
}

impl LookupOutcome {
    /// An outcome backed by fully healthy reads ([`Provenance::Exact`]).
    #[must_use]
    pub fn new(satellite: Option<Vec<Word>>, cost: OpCost) -> Self {
        LookupOutcome {
            satellite,
            cost,
            provenance: Provenance::Exact,
        }
    }

    /// An outcome that tolerated damage ([`Provenance::Degraded`]).
    #[must_use]
    pub fn degraded(satellite: Option<Vec<Word>>, cost: OpCost) -> Self {
        LookupOutcome {
            satellite,
            cost,
            provenance: Provenance::Degraded,
        }
    }

    /// Whether the key was found.
    #[must_use]
    pub fn found(&self) -> bool {
        self.satellite.is_some()
    }

    /// Whether the answer was backed by fully healthy reads.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.provenance == Provenance::Exact
    }
}

/// Errors the dictionaries can report.
///
/// The deterministic guarantees of the paper are conditional on the
/// expander having its stated parameters; with a sampled graph the
/// failure probability is tiny but nonzero, and surfaces as
/// [`DictError::BucketOverflow`] / [`DictError::LevelsExhausted`] /
/// [`DictError::ExpansionFailure`] rather than silent data loss.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DictError {
    /// The structure reached its fixed capacity `N`.
    CapacityExhausted {
        /// The capacity that was reached.
        capacity: usize,
    },
    /// The key is already present (the paper's structures store a key
    /// set; updates of satellite data go through delete + insert).
    DuplicateKey(u64),
    /// Section 4.1: all `d` candidate buckets of the key are full — the
    /// expander missed its load-balancing parameters.
    BucketOverflow {
        /// The key being inserted.
        key: u64,
    },
    /// Section 4.3: no level offered `2d/3` free fields — the expander
    /// missed its unique-neighbor parameters.
    LevelsExhausted {
        /// The key being inserted.
        key: u64,
    },
    /// Static construction failed to assign fields (peeling got stuck).
    ExpansionFailure(String),
    /// The requested parameters violate a theorem's side condition
    /// (e.g. too few disks: the paper requires `D = Ω(log u)`).
    UnsupportedParams(String),
    /// Satellite data of the wrong width for this dictionary instance.
    SatelliteWidth {
        /// Words expected per record.
        expected: usize,
        /// Words supplied.
        got: usize,
    },
    /// A disk-level fault prevented the operation from completing reliably
    /// (dead disk, transient read error that outlived the retry, checksum
    /// mismatch, torn write). Reads that can be answered from redundancy
    /// do **not** raise this — they return a
    /// [`Provenance::Degraded`] outcome instead; `Io` means the
    /// operation's effect could not be guaranteed.
    ///
    /// Stability contract: both this enum and [`pdm::IoFaultKind`] are
    /// `#[non_exhaustive]`. Callers must classify via
    /// [`kind`](DictError::kind) / [`ErrorKind::Io`] (or a wildcard arm)
    /// rather than exhaustively destructuring, so new fault kinds and new
    /// payload fields are not breaking changes.
    Io {
        /// What went wrong at the disk layer.
        kind: IoFaultKind,
        /// Disk on which the fault fired.
        disk: usize,
        /// Block index on that disk.
        addr: usize,
    },
}

/// Coarse classification of a [`DictError`], for callers that react to the
/// *category* of a failure (retry, rebuild, reject) rather than its payload.
/// Match on this instead of destructuring the `#[non_exhaustive]` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The structure reached its fixed capacity.
    CapacityExhausted,
    /// The key is already present.
    DuplicateKey,
    /// An expander-based placement ran out of room (§4.1 buckets).
    BucketOverflow,
    /// An expander-based placement ran out of levels (§4.3).
    LevelsExhausted,
    /// A static construction failed to assign fields.
    ExpansionFailure,
    /// The requested parameters violate a theorem's side condition.
    UnsupportedParams,
    /// Satellite data had the wrong width.
    SatelliteWidth,
    /// A disk-level fault prevented the operation from completing.
    Io,
}

impl DictError {
    /// The coarse [`ErrorKind`] of this error.
    #[must_use]
    pub fn kind(&self) -> ErrorKind {
        match self {
            DictError::CapacityExhausted { .. } => ErrorKind::CapacityExhausted,
            DictError::DuplicateKey(_) => ErrorKind::DuplicateKey,
            DictError::BucketOverflow { .. } => ErrorKind::BucketOverflow,
            DictError::LevelsExhausted { .. } => ErrorKind::LevelsExhausted,
            DictError::ExpansionFailure(_) => ErrorKind::ExpansionFailure,
            DictError::UnsupportedParams(_) => ErrorKind::UnsupportedParams,
            DictError::SatelliteWidth { .. } => ErrorKind::SatelliteWidth,
            DictError::Io { .. } => ErrorKind::Io,
        }
    }

    /// True for the family of expander-parameter misses the paper's
    /// guarantees are conditional on ([`ErrorKind::BucketOverflow`],
    /// [`ErrorKind::LevelsExhausted`], [`ErrorKind::ExpansionFailure`]):
    /// with a sampled graph these have tiny but nonzero probability, and the
    /// standard reaction is to rebuild with a fresh seed.
    #[must_use]
    pub fn is_expansion_failure(&self) -> bool {
        matches!(
            self.kind(),
            ErrorKind::BucketOverflow | ErrorKind::LevelsExhausted | ErrorKind::ExpansionFailure
        )
    }
}

impl std::fmt::Display for DictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DictError::CapacityExhausted { capacity } => {
                write!(f, "dictionary capacity {capacity} exhausted")
            }
            DictError::DuplicateKey(k) => write!(f, "key {k} already present"),
            DictError::BucketOverflow { key } => {
                write!(
                    f,
                    "all candidate buckets full for key {key} (expansion failure)"
                )
            }
            DictError::LevelsExhausted { key } => {
                write!(
                    f,
                    "no level had enough free fields for key {key} (expansion failure)"
                )
            }
            DictError::ExpansionFailure(msg) => write!(f, "expansion failure: {msg}"),
            DictError::UnsupportedParams(msg) => write!(f, "unsupported parameters: {msg}"),
            DictError::SatelliteWidth { expected, got } => {
                write!(
                    f,
                    "satellite width mismatch: expected {expected} words, got {got}"
                )
            }
            DictError::Io { kind, disk, addr } => {
                write!(f, "i/o fault ({kind}) on disk {disk} block {addr}")
            }
        }
    }
}

impl std::error::Error for DictError {}

/// A storage-backend configuration failure (e.g. [`pdm::FileBackend`]
/// rejecting a block-size change on reopen or a missing disk file)
/// surfaces as a typed [`DictError::Io`] — never a panic. The backend
/// error carries no block address, so `addr` is 0.
impl From<pdm::BackendError> for DictError {
    fn from(e: pdm::BackendError) -> Self {
        DictError::Io {
            kind: e.kind,
            disk: e.disk,
            addr: 0,
        }
    }
}

/// The unified, object-safe dictionary interface.
///
/// All five front-ends — `BasicDict`, `DynamicDict`, `OneProbeStatic`,
/// `Dictionary`, `WideDict` — are usable through
/// `&mut dyn Dict` (the externally-disked structures via the
/// [`DictHandle`](crate::DictHandle) adapter that pairs them with their
/// [`DiskArray`]). Generic infrastructure — the differential test harness,
/// the workload-replay bench, metrics recording — drives every front-end
/// through this trait instead of five copies of the loop.
///
/// Static structures (`OneProbeStatic`) return
/// [`ErrorKind::UnsupportedParams`] from [`insert`](Dict::insert) and
/// [`delete`](Dict::delete).
pub trait Dict {
    /// Stable tag naming the front-end (`"basic"`, `"dynamic"`,
    /// `"one_probe"`, `"rebuild"`, `"wide"`); used as the
    /// `dict` label on every exported metric.
    fn kind(&self) -> &'static str;

    /// Number of keys currently stored.
    fn len(&self) -> usize;

    /// True if no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of keys this instance can hold (for static
    /// structures, the size of the built key set).
    fn capacity(&self) -> usize;

    /// Size of the key universe: the keys this instance accepts are those
    /// below it. A key past it is a caller contract violation the expanders
    /// panic on, so the serving engine refuses it before it reaches a
    /// shard. `u64::MAX`, the default, accepts every key, as an expander
    /// over a universe of that size does.
    fn universe(&self) -> u64 {
        u64::MAX
    }

    /// Look up `key`.
    fn lookup(&mut self, key: u64) -> LookupOutcome;

    /// Insert `key` with `satellite` payload.
    ///
    /// # Errors
    /// See [`DictError`]; static structures report
    /// [`DictError::UnsupportedParams`].
    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError>;

    /// Delete `key`, returning whether it was present.
    ///
    /// # Errors
    /// Static structures report [`DictError::UnsupportedParams`].
    fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError>;

    /// Batched lookup. The default loops over [`lookup`](Dict::lookup);
    /// front-ends with a round-sharing batch engine override it — and
    /// answer a single-key call as the batch of one (Theorem 7's
    /// dictionary and the rebuilding wrapper do, for all three operations).
    fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        lookup_each(keys, |key| self.lookup(key))
    }

    /// Batched insert: exactly one result per entry, in entry order. The
    /// default loops over [`insert`](Dict::insert).
    fn insert_batch(&mut self, entries: &[(u64, Vec<Word>)]) -> (Vec<Result<(), DictError>>, OpCost) {
        insert_each(entries, |key, satellite| self.insert(key, satellite))
    }

    /// Batched delete with per-key results, in key order. The default loops
    /// over [`delete`](Dict::delete); front-ends and wrappers with a batch
    /// engine override it.
    fn delete_batch(&mut self, keys: &[u64]) -> (Vec<Result<bool, DictError>>, OpCost) {
        delete_each(keys, |key| self.delete(key))
    }

    /// Install (or with `None` remove) a metrics registry. Implementations
    /// tag per-op cost histograms with their [`kind`](Dict::kind) and hook
    /// the underlying disk arrays (see [`pdm::metrics`]).
    fn set_metrics(&mut self, registry: Option<Arc<MetricsRegistry>>);

    /// Refresh structure-shape gauges (`dict_len`, `dict_capacity`, plus
    /// front-end specifics such as `dict_max_bucket_load`) in the installed
    /// registry. No-op without a registry.
    fn refresh_gauges(&mut self) {}

    /// The underlying disk array — the differential harness uses it as a
    /// byte-identity witness, the serving engine to certify a window's reads
    /// and to see a crash point fire. Every front-end in this workspace has
    /// one; `None` (the default) is for an implementation without storage,
    /// such as a test double.
    fn disks(&self) -> Option<&DiskArray> {
        None
    }

    /// Mutable access to the underlying disk array, for failure injection
    /// and durability barriers. `None` as for [`disks`](Dict::disks).
    fn disks_mut(&mut self) -> Option<&mut DiskArray> {
        None
    }

    /// Crash recovery: scan the write-ahead intent journal
    /// ([`pdm::journal`]), replay every intact in-flight intent, roll
    /// back torn ones, reconcile in-memory counters with the replay, and
    /// truncate. Idempotent — recovering a clean structure is a no-op
    /// scan. The default replays at the disk layer only; front-ends with
    /// replay-sensitive counters (the dynamic dictionary and its
    /// wrappers) override it to also reconcile and checkpoint. Returns
    /// an empty report when there is no accessible disk array or no
    /// journal is enabled.
    fn recover(&mut self) -> pdm::RecoveryReport {
        self.disks_mut()
            .map(DiskArray::recover)
            .unwrap_or_default()
    }

    /// Checkpoint the write-ahead intent journal ([`pdm::journal`]):
    /// persist the front-end's replay-sensitive counters and truncate the
    /// ring, so a crash immediately after this point replays nothing.
    /// Returns `true` when a journal was actually checkpointed, `false`
    /// when the front-end has no journal enabled (the default). The
    /// serving engine calls this on graceful shutdown, after draining its
    /// queues, so a served image is always recoverable.
    fn checkpoint(&mut self) -> bool {
        false
    }

    /// Walk the structure's blocks, verify checksums, and rewrite every
    /// repairable block from surviving redundancy. The default delegates to
    /// [`DiskArray::scrub_verify`] (detection only — counts damage and
    /// refreshes transient state); front-ends with field-level redundancy
    /// (`OneProbeStatic` case (b)) override it with real repair. Returns an
    /// empty report when there is no accessible disk array.
    fn scrub(&mut self) -> ScrubReport {
        self.disks_mut()
            .map(DiskArray::scrub_verify)
            .unwrap_or_default()
    }
}

/// `keys` through `lookup` one at a time: the satellites and the summed cost.
pub(crate) fn lookup_each(
    keys: &[u64],
    mut lookup: impl FnMut(u64) -> LookupOutcome,
) -> (Vec<Option<Vec<Word>>>, OpCost) {
    let mut cost = OpCost::default();
    let results = keys.iter().map(|&key| {
        let out = lookup(key);
        cost = cost.plus(out.cost);
        out.satellite
    });
    (results.collect(), cost)
}

/// `entries` through `insert` one at a time: the per-entry results and the
/// summed cost of those that succeeded.
pub(crate) fn insert_each(
    entries: &[(u64, Vec<Word>)],
    mut insert: impl FnMut(u64, &[Word]) -> Result<OpCost, DictError>,
) -> (Vec<Result<(), DictError>>, OpCost) {
    let mut cost = OpCost::default();
    let results = entries
        .iter()
        .map(|(key, satellite)| insert(*key, satellite).map(|c| cost = cost.plus(c)));
    (results.collect(), cost)
}

/// `keys` through `delete` one at a time: the per-key answers and the summed
/// cost of those that succeeded.
pub(crate) fn delete_each(
    keys: &[u64],
    mut delete: impl FnMut(u64) -> Result<(bool, OpCost), DictError>,
) -> (Vec<Result<bool, DictError>>, OpCost) {
    let mut cost = OpCost::default();
    let results = keys.iter().map(|&key| {
        delete(key).map(|(was, c)| {
            cost = cost.plus(c);
            was
        })
    });
    (results.collect(), cost)
}

/// Per-front-end metric recording, shared by every [`Dict`] implementation.
///
/// All registry handles are resolved at installation time, so recording an
/// operation is one histogram observe plus one counter increment.
#[derive(Clone)]
pub(crate) struct OpRecorder {
    pub(crate) registry: Arc<MetricsRegistry>,
    lookup_ios: Arc<Histogram>,
    insert_ios: Arc<Histogram>,
    delete_ios: Arc<Histogram>,
    /// Per batched call, by op (lookup, insert, delete): rounds, keys.
    batch_ios: [Arc<Histogram>; 3],
    batch_keys: [Arc<Histogram>; 3],
    lookup_hit: Arc<Counter>,
    lookup_miss: Arc<Counter>,
    insert_ok: Arc<Counter>,
    insert_err: Arc<Counter>,
    delete_hit: Arc<Counter>,
    delete_miss: Arc<Counter>,
    lookup_degraded: Arc<Counter>,
    scrub_ios: Arc<Histogram>,
    scrub_blocks: Arc<Counter>,
    scrub_failures: Arc<Counter>,
    scrub_repaired_blocks: Arc<Counter>,
    scrub_repaired_fields: Arc<Counter>,
    scrub_unrepairable: Arc<Counter>,
}

impl std::fmt::Debug for OpRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpRecorder").finish_non_exhaustive()
    }
}

/// Histogram of parallel I/Os per sequential op, labels `dict`, `op`.
pub const DICT_OP_PARALLEL_IOS: &str = "dict_op_parallel_ios";
/// Histogram of parallel I/Os per batch call, labels `dict`, `op`.
pub const DICT_BATCH_PARALLEL_IOS: &str = "dict_batch_parallel_ios";
/// Histogram of keys per batch call, labels `dict`, `op`.
pub const DICT_BATCH_KEYS: &str = "dict_batch_keys";
/// Counter of operations, labels `dict`, `op`, `outcome`.
pub const DICT_OPS_TOTAL: &str = "dict_ops_total";
/// Counter of lookups answered with [`Provenance::Degraded`], label `dict`.
pub const DICT_DEGRADED_LOOKUPS_TOTAL: &str = "dict_degraded_lookups_total";
/// Counter of scrub statistics, labels `dict`, `stat` (one of
/// `blocks_scanned`, `checksum_failures`, `repaired_blocks`,
/// `repaired_fields`, `unrepairable_keys`).
pub const DICT_SCRUB_TOTAL: &str = "dict_scrub_total";
/// Histogram of parallel I/Os per scrub pass, label `dict`.
pub const DICT_SCRUB_PARALLEL_IOS: &str = "dict_scrub_parallel_ios";

impl OpRecorder {
    pub(crate) fn new(registry: Arc<MetricsRegistry>, dict: &'static str) -> Self {
        let hist = |op: &str| registry.histogram(DICT_OP_PARALLEL_IOS, &[("dict", dict), ("op", op)]);
        let bhist =
            |op: &str| registry.histogram(DICT_BATCH_PARALLEL_IOS, &[("dict", dict), ("op", op)]);
        let keys = |op: &str| registry.histogram(DICT_BATCH_KEYS, &[("dict", dict), ("op", op)]);
        let ops = |op: &str, outcome: &str| {
            registry.counter(
                DICT_OPS_TOTAL,
                &[("dict", dict), ("op", op), ("outcome", outcome)],
            )
        };
        let scrub = |stat: &str| registry.counter(DICT_SCRUB_TOTAL, &[("dict", dict), ("stat", stat)]);
        OpRecorder {
            lookup_ios: hist("lookup"),
            insert_ios: hist("insert"),
            delete_ios: hist("delete"),
            batch_ios: ["lookup", "insert", "delete"].map(bhist),
            batch_keys: ["lookup", "insert", "delete"].map(keys),
            lookup_hit: ops("lookup", "hit"),
            lookup_miss: ops("lookup", "miss"),
            insert_ok: ops("insert", "ok"),
            insert_err: ops("insert", "err"),
            delete_hit: ops("delete", "hit"),
            delete_miss: ops("delete", "miss"),
            lookup_degraded: registry.counter(DICT_DEGRADED_LOOKUPS_TOTAL, &[("dict", dict)]),
            scrub_ios: registry.histogram(DICT_SCRUB_PARALLEL_IOS, &[("dict", dict)]),
            scrub_blocks: scrub("blocks_scanned"),
            scrub_failures: scrub("checksum_failures"),
            scrub_repaired_blocks: scrub("repaired_blocks"),
            scrub_repaired_fields: scrub("repaired_fields"),
            scrub_unrepairable: scrub("unrepairable_keys"),
            registry,
        }
    }

    pub(crate) fn record_lookup(&self, out: &LookupOutcome) {
        self.lookup_ios.observe(out.cost.parallel_ios);
        if out.found() {
            self.lookup_hit.inc();
        } else {
            self.lookup_miss.inc();
        }
        if !out.is_exact() {
            self.lookup_degraded.inc();
        }
    }

    pub(crate) fn record_scrub(&self, report: &ScrubReport) {
        self.scrub_ios.observe(report.cost.parallel_ios);
        self.scrub_blocks.add(report.blocks_scanned);
        self.scrub_failures.add(report.checksum_failures);
        self.scrub_repaired_blocks.add(report.repaired_blocks);
        self.scrub_repaired_fields.add(report.repaired_fields);
        self.scrub_unrepairable.add(report.unrepairable_keys);
    }

    pub(crate) fn record_insert(&self, result: &Result<OpCost, DictError>) {
        match result {
            Ok(cost) => {
                self.insert_ios.observe(cost.parallel_ios);
                self.insert_ok.inc();
            }
            Err(_) => self.insert_err.inc(),
        }
    }

    pub(crate) fn record_delete(&self, result: &Result<(bool, OpCost), DictError>) {
        if let Ok((found, cost)) = result {
            self.delete_ios.observe(cost.parallel_ios);
            if *found {
                self.delete_hit.inc();
            } else {
                self.delete_miss.inc();
            }
        }
    }

    /// Record a batched call of `keys` keys on `this`, if any, and hand its
    /// output on; `op` indexes lookup, insert, delete.
    fn record_batch<R>(this: Option<&Self>, op: usize, keys: usize, out: (R, OpCost)) -> (R, OpCost) {
        if let Some(m) = this {
            m.batch_ios[op].observe(out.1.parallel_ios);
            m.batch_keys[op].observe(keys as u64);
        }
        out
    }

    pub(crate) fn record_lookup_batch<R>(this: Option<&Self>, keys: usize, out: (R, OpCost)) -> (R, OpCost) {
        Self::record_batch(this, 0, keys, out)
    }

    pub(crate) fn record_insert_batch<R>(this: Option<&Self>, keys: usize, out: (R, OpCost)) -> (R, OpCost) {
        Self::record_batch(this, 1, keys, out)
    }

    pub(crate) fn record_delete_batch<R>(this: Option<&Self>, keys: usize, out: (R, OpCost)) -> (R, OpCost) {
        Self::record_batch(this, 2, keys, out)
    }

    /// Set the shared shape gauges every front-end exports.
    pub(crate) fn set_shape(&self, dict: &'static str, len: usize, capacity: usize) {
        self.registry
            .gauge("dict_len", &[("dict", dict)])
            .set(len as i64);
        self.registry
            .gauge("dict_capacity", &[("dict", dict)])
            .set(capacity as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_found() {
        let hit = LookupOutcome::new(Some(vec![1, 2]), OpCost::default());
        let miss = LookupOutcome::new(None, OpCost::default());
        assert!(hit.found());
        assert!(!miss.found());
        assert!(hit.is_exact());
        assert_eq!(hit.provenance, Provenance::Exact);
    }

    #[test]
    fn degraded_outcome_keeps_satellite_but_flags_provenance() {
        let out = LookupOutcome::degraded(Some(vec![9]), OpCost::default());
        assert!(out.found());
        assert!(!out.is_exact());
        assert_eq!(out.provenance, Provenance::Degraded);
        assert_eq!(Provenance::default(), Provenance::Exact);
    }

    #[test]
    fn errors_display() {
        assert!(DictError::DuplicateKey(7).to_string().contains('7'));
        assert!(DictError::BucketOverflow { key: 3 }
            .to_string()
            .contains("expansion"));
        assert!(DictError::SatelliteWidth {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("expected 2"));
    }

    #[test]
    fn error_kinds() {
        assert_eq!(
            DictError::CapacityExhausted { capacity: 8 }.kind(),
            ErrorKind::CapacityExhausted
        );
        assert_eq!(DictError::DuplicateKey(1).kind(), ErrorKind::DuplicateKey);
        assert_eq!(
            DictError::BucketOverflow { key: 1 }.kind(),
            ErrorKind::BucketOverflow
        );
        assert_eq!(
            DictError::LevelsExhausted { key: 1 }.kind(),
            ErrorKind::LevelsExhausted
        );
        assert_eq!(
            DictError::ExpansionFailure("x".into()).kind(),
            ErrorKind::ExpansionFailure
        );
        assert_eq!(
            DictError::UnsupportedParams("x".into()).kind(),
            ErrorKind::UnsupportedParams
        );
        assert_eq!(
            DictError::SatelliteWidth {
                expected: 1,
                got: 2
            }
            .kind(),
            ErrorKind::SatelliteWidth
        );
        assert_eq!(
            DictError::Io {
                kind: IoFaultKind::DiskDead,
                disk: 3,
                addr: 7
            }
            .kind(),
            ErrorKind::Io
        );
    }

    #[test]
    fn io_error_displays_fault_location() {
        let err = DictError::Io {
            kind: IoFaultKind::ChecksumMismatch,
            disk: 2,
            addr: 11,
        };
        let msg = err.to_string();
        assert!(msg.contains("disk 2"), "{msg}");
        assert!(msg.contains("block 11"), "{msg}");
        assert!(!err.is_expansion_failure());
    }

    #[test]
    fn backend_errors_convert_to_typed_io_errors() {
        // Missing disk file at reopen: typed, never a panic.
        let dir = std::env::temp_dir().join(format!("pdm-dict-be-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let _fb =
                pdm::FileBackend::create(&dir, 2, 4, 2, pdm::FileBackendOptions::default())
                    .unwrap();
        }
        std::fs::remove_file(dir.join("disk-0.bin")).unwrap();
        let err: DictError = pdm::FileBackend::open(&dir, pdm::FileBackendOptions::default())
            .unwrap_err()
            .into();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert!(matches!(
            err,
            DictError::Io {
                kind: IoFaultKind::Misconfigured,
                disk: 0,
                addr: 0
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_size_change_on_reopen_is_a_typed_io_error() {
        let dir = std::env::temp_dir().join(format!("pdm-dict-bs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let _fb =
                pdm::FileBackend::create(&dir, 2, 4, 4, pdm::FileBackendOptions::default())
                    .unwrap();
        }
        // The directory was written under B = 4; reopening it with a
        // B = 8 config must fail with a typed geometry error.
        let fb = pdm::FileBackend::open(&dir, pdm::FileBackendOptions::default()).unwrap();
        let err: DictError =
            pdm::DiskArray::with_backend(pdm::PdmConfig::new(2, 8), Box::new(fb))
                .unwrap_err()
                .into();
        assert!(matches!(
            err,
            DictError::Io {
                kind: IoFaultKind::Misconfigured,
                ..
            }
        ));
        assert!(err.to_string().contains("i/o fault (misconfigured)"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expansion_failure_classification() {
        assert!(DictError::BucketOverflow { key: 1 }.is_expansion_failure());
        assert!(DictError::LevelsExhausted { key: 1 }.is_expansion_failure());
        assert!(DictError::ExpansionFailure("x".into()).is_expansion_failure());
        assert!(!DictError::CapacityExhausted { capacity: 8 }.is_expansion_failure());
        assert!(!DictError::DuplicateKey(1).is_expansion_failure());
        assert!(!DictError::UnsupportedParams("x".into()).is_expansion_failure());
    }
}

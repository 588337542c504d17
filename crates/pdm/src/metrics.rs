//! Observability: I/O event hooks, counters/gauges/histograms, and exports.
//!
//! The paper's guarantees are statements about *distributions* — Lemma 3
//! bounds the maximum bucket load, Theorem 6 promises every lookup finishes
//! in **one** parallel I/O, Theorem 7 bounds amortized update cost — so the
//! monotone totals in [`crate::stats::IoStats`] cannot confirm them. This
//! module adds the missing layer:
//!
//! * [`IoEvent`] / [`IoEventSink`] — a hook seam the [`crate::disk::DiskArray`]
//!   and [`crate::batch::BatchExecutor`] fire on every batched read/write,
//!   scheduled round, cache hit/miss, and commit. The default is **no sink
//!   at all** (an `Option` that is `None`), so un-instrumented runs pay a
//!   single branch per batch and zero allocation.
//! * [`Counter`], [`Gauge`], [`Histogram`] — lock-free atomic instruments.
//!   Histograms use log₂ buckets, the right shape for cost tails: the
//!   interesting questions are "is p99 exactly 1?" and "how heavy is the
//!   tail?", not fine-grained linear resolution.
//! * [`MetricsRegistry`] — a name+label keyed registry with Prometheus-style
//!   text export ([`MetricsRegistry::to_prometheus`]) and a JSON snapshot
//!   export ([`MetricsRegistry::to_json`]). Handles are `Arc`s: callers
//!   resolve once and update on the hot path without touching the registry
//!   lock.
//! * [`IoMetricsSink`] — a ready-made [`IoEventSink`] that routes every
//!   event into a registry through pre-resolved handles (per-disk block
//!   counters for the imbalance metric, round-width and batch-size
//!   histograms, cache hit/miss counters).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ histogram buckets: bucket `0` holds the value `0`, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`, up to `u64::MAX` in bucket 64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// One I/O event fired by the disk array or the batch engine.
///
/// Events borrow scratch state from the emitter (`per_disk` points at the
/// cost-accounting scratch buffer), so sinks must copy anything they keep.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum IoEvent<'a> {
    /// A batched read was charged: `per_disk[d]` blocks touched on disk `d`,
    /// `blocks` in total, costing `parallel_ios` parallel I/Os.
    BatchRead {
        /// Blocks touched per disk (length = `D`).
        per_disk: &'a [usize],
        /// Total blocks read in the batch.
        blocks: u64,
        /// Model cost charged for the batch.
        parallel_ios: u64,
    },
    /// A batched write was charged; fields as in [`IoEvent::BatchRead`].
    BatchWrite {
        /// Blocks touched per disk (length = `D`).
        per_disk: &'a [usize],
        /// Total blocks written in the batch.
        blocks: u64,
        /// Model cost charged for the batch.
        parallel_ios: u64,
    },
    /// The batch engine recorded `rounds` scheduled parallel rounds.
    RoundsScheduled {
        /// Number of rounds just recorded.
        rounds: u64,
    },
    /// One scheduled parallel round moved `blocks` blocks (its *width*).
    RoundScheduled {
        /// Blocks moved in this round across all disks.
        blocks: u64,
    },
    /// `blocks` requested blocks were served from the executor's read cache.
    CacheHit {
        /// Number of requests satisfied without touching a disk.
        blocks: u64,
    },
    /// `blocks` distinct blocks had to be fetched from the disks.
    CacheMiss {
        /// Number of distinct blocks fetched.
        blocks: u64,
    },
    /// The executor committed its staged writes in one batch.
    BatchCommitted {
        /// Number of dirty blocks flushed.
        dirty_blocks: u64,
    },
    /// One intent entry was appended to the write-ahead journal.
    JournalAppend {
        /// Journal slots (blocks) the entry occupied: payload images plus
        /// descriptor block(s).
        blocks: u64,
        /// In-place blocks the entry protects.
        targets: u64,
    },
    /// A [`recover`](crate::DiskArray::recover) pass finished.
    Recovery {
        /// Intact intents replayed (idempotent redo).
        replayed: u64,
        /// Partial / stale intents discarded (rolled back).
        discarded: u64,
        /// In-place blocks rewritten by the replay.
        blocks_rewritten: u64,
    },
}

/// A sink for [`IoEvent`]s.
///
/// Implementations must be cheap and non-blocking: events fire on the I/O
/// hot path. [`IoMetricsSink`] is the standard implementation; [`NoopSink`]
/// exists for tests that want a sink installed but no recording.
pub trait IoEventSink: Send + Sync {
    /// Observe one event.
    fn on_io(&self, event: IoEvent<'_>);
}

/// An [`IoEventSink`] that ignores every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl IoEventSink for NoopSink {
    fn on_io(&self, _event: IoEvent<'_>) {}
}

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Create a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Create a gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the gauge.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket index for `value`: `0 → 0`, otherwise `⌊log₂ value⌋ + 1`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log₂-bucketed histogram of `u64` observations.
///
/// Updates are lock-free atomic adds. Bucket `0` holds the exact value `0`
/// and bucket `1` the exact value `1`, so the low end of a parallel-I/O cost
/// distribution — the part the paper makes exact claims about — is recorded
/// without rounding: a lookup histogram whose p99 reports `1` really did
/// satisfy 99% of lookups in at most one parallel I/O.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Create an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Capture a consistent-enough point-in-time copy. (Individual loads are
    /// relaxed; the simulator is effectively single-writer per histogram.)
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with summary queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative), length
    /// [`HISTOGRAM_BUCKETS`].
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 if empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// True if nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observed value (0.0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, reported as the **inclusive upper bound** of
    /// the bucket holding that rank. `q` is in `[0, 1]`. Because buckets `0`
    /// and `1` are exact, `percentile(0.99) == 1` proves at least 99% of
    /// observations were `≤ 1`. Returns 0 for an empty snapshot.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the observed maximum (the top bucket's
                // nominal bound can be far above it).
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another snapshot into this one (bucket-wise sum, max of maxes).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Key of a metric: name plus sorted label pairs.
type MetricKey = (String, Vec<(String, String)>);

fn key_of(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

/// A registry of named, labeled metrics.
///
/// `counter` / `gauge` / `histogram` get-or-create an instrument and return
/// an `Arc` handle; hot paths keep the handle and never re-enter the
/// registry. Exports walk the registry under its lock.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
}

fn lock_map<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panic while holding the lock cannot leave a metric map in a broken
    // state (all updates are single inserts), so poisoning is ignorable.
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl MetricsRegistry {
    /// Create an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name{labels}`.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        lock_map(&self.counters)
            .entry(key_of(name, labels))
            .or_default()
            .clone()
    }

    /// File the existing counter `handle` under `name{labels}`, in place of
    /// whatever was there. An owner that counts whether or not a registry is
    /// watching keeps its own cells and has them adopted: the export then
    /// reads the very atomics the owner's snapshot reads, including
    /// everything counted before the registry arrived.
    pub fn adopt_counter(&self, name: &str, labels: &[(&str, &str)], handle: &Arc<Counter>) {
        lock_map(&self.counters).insert(key_of(name, labels), Arc::clone(handle));
    }

    /// Get or create the gauge `name{labels}`.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        lock_map(&self.gauges)
            .entry(key_of(name, labels))
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name{labels}`.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        lock_map(&self.histograms)
            .entry(key_of(name, labels))
            .or_default()
            .clone()
    }

    /// Snapshot every metric, sorted by name then labels.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock_map(&self.counters)
            .iter()
            .map(|((name, labels), c)| MetricValue {
                name: name.clone(),
                labels: labels.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = lock_map(&self.gauges)
            .iter()
            .map(|((name, labels), g)| GaugeValue {
                name: name.clone(),
                labels: labels.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = lock_map(&self.histograms)
            .iter()
            .map(|((name, labels), h)| HistogramValue {
                name: name.clone(),
                labels: labels.clone(),
                snapshot: h.snapshot(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Render every metric in the Prometheus text exposition format.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Render every metric as a JSON document (see
    /// [`MetricsSnapshot::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// One exported counter sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Counter value.
    pub value: u64,
}

/// One exported gauge sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeValue {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Gauge value.
    pub value: i64,
}

/// One exported histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramValue {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The histogram's data.
    pub snapshot: HistogramSnapshot,
}

/// A full point-in-time export of a [`MetricsRegistry`]. This structure (not
/// any ad-hoc counter) is what tests and the workload-replay bench read:
/// the JSON artifact is rendered from exactly this data.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name then labels.
    pub counters: Vec<MetricValue>,
    /// All gauges, sorted by name then labels.
    pub gauges: Vec<GaugeValue>,
    /// All histograms, sorted by name then labels.
    pub histograms: Vec<HistogramValue>,
}

fn label_match(labels: &[(String, String)], want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|&(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
}

impl MetricsSnapshot {
    /// Find a counter by name and a (subset of) labels.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && label_match(&c.labels, labels))
            .map(|c| c.value)
    }

    /// Sum of every counter named `name` whose labels include `labels` —
    /// the aggregation across the label dimensions left unspecified (e.g.
    /// total ops across `outcome`s, total blocks across `disk`s). `None`
    /// if nothing matches.
    #[must_use]
    pub fn counter_sum(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let mut found = false;
        let mut sum = 0;
        for c in &self.counters {
            if c.name == name && label_match(&c.labels, labels) {
                found = true;
                sum += c.value;
            }
        }
        found.then_some(sum)
    }

    /// Find a gauge by name and a (subset of) labels.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && label_match(&g.labels, labels))
            .map(|g| g.value)
    }

    /// Find a histogram by name and a (subset of) labels.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && label_match(&h.labels, labels))
            .map(|h| &h.snapshot)
    }

    /// Disk imbalance over the counters named `name` that carry a `disk`
    /// label: `max / mean` of the per-disk values. `None` if there are no
    /// such counters or all are zero. A perfectly striped workload reports
    /// 1.0; the paper's deterministic balancing keeps this near 1.
    #[must_use]
    pub fn imbalance(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let per_disk: Vec<u64> = self
            .counters
            .iter()
            .filter(|c| {
                c.name == name
                    && label_match(&c.labels, labels)
                    && c.labels.iter().any(|(k, _)| k == "disk")
            })
            .map(|c| c.value)
            .collect();
        let total: u64 = per_disk.iter().sum();
        if per_disk.is_empty() || total == 0 {
            return None;
        }
        let mean = total as f64 / per_disk.len() as f64;
        let max = *per_disk.iter().max().expect("non-empty") as f64;
        Some(max / mean)
    }

    /// Render in the Prometheus text exposition format: counters and gauges
    /// as single samples, histograms as cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(out, "{} {}", prom_series(&c.name, &c.labels, &[]), c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "{} {}", prom_series(&g.name, &g.labels, &[]), g.value);
        }
        for h in &self.histograms {
            let mut cum = 0u64;
            for (i, &b) in h.snapshot.buckets.iter().enumerate() {
                cum += b;
                if b == 0 && i != 0 {
                    continue; // keep the export readable: skip interior empties
                }
                let le = if i >= 64 {
                    "+Inf".to_string()
                } else {
                    bucket_upper_bound(i).to_string()
                };
                let series = prom_series(
                    &format!("{}_bucket", h.name),
                    &h.labels,
                    &[("le", le.as_str())],
                );
                let _ = writeln!(out, "{series} {cum}");
            }
            let series = prom_series(
                &format!("{}_bucket", h.name),
                &h.labels,
                &[("le", "+Inf")],
            );
            let _ = writeln!(out, "{series} {}", h.snapshot.count);
            let _ = writeln!(
                out,
                "{} {}",
                prom_series(&format!("{}_sum", h.name), &h.labels, &[]),
                h.snapshot.sum
            );
            let _ = writeln!(
                out,
                "{} {}",
                prom_series(&format!("{}_count", h.name), &h.labels, &[]),
                h.snapshot.count
            );
        }
        out
    }

    /// Render as a JSON document:
    ///
    /// ```json
    /// {"counters": [{"name": "...", "labels": {...}, "value": 0}],
    ///  "gauges":   [{"name": "...", "labels": {...}, "value": 0}],
    ///  "histograms": [{"name": "...", "labels": {...}, "count": 0, "sum": 0,
    ///                  "max": 0, "mean": 0.0, "p50": 0, "p99": 0,
    ///                  "buckets": [{"le": 1, "count": 3}]}]}
    /// ```
    ///
    /// Hand-rolled so the `pdm` crate stays dependency-free; names and label
    /// values are escaped per JSON string rules.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                json_str(&c.name),
                json_labels(&c.labels),
                c.value
            );
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        for (i, g) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                json_str(&g.name),
                json_labels(&g.labels),
                g.value
            );
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let s = &h.snapshot;
            let _ = write!(
                out,
                "{sep}    {{\"name\": {}, \"labels\": {}, \"count\": {}, \"sum\": {}, \
                 \"max\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                json_str(&h.name),
                json_labels(&h.labels),
                s.count,
                s.sum,
                s.max,
                json_f64(s.mean()),
                s.percentile(0.50),
                s.percentile(0.99),
            );
            let mut first = true;
            for (bi, &b) in s.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"le\": {}, \"count\": {b}}}",
                    bucket_upper_bound(bi)
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_str(k), json_str(v));
    }
    out.push('}');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn prom_series(name: &str, labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
    }
    out.push('}');
    out
}

/// Metric name for total parallel I/Os, labeled `op ∈ {read, write}`.
pub const PARALLEL_IOS_TOTAL: &str = "pdm_parallel_ios_total";
/// Metric name for per-disk block counts, labeled `disk`, `op`.
pub const DISK_BLOCKS_TOTAL: &str = "pdm_disk_blocks_total";
/// Histogram of blocks per charged batch, labeled `op`.
pub const BATCH_BLOCKS: &str = "pdm_batch_blocks";
/// Counter of scheduled parallel rounds.
pub const ROUNDS_TOTAL: &str = "pdm_rounds_total";
/// Histogram of scheduled round widths (blocks moved per round).
pub const ROUND_WIDTH: &str = "pdm_round_width";
/// Counter of read-cache events, labeled `event ∈ {hit, miss}`.
pub const CACHE_EVENTS_TOTAL: &str = "pdm_cache_events_total";
/// Histogram of dirty blocks flushed per executor commit.
pub const COMMIT_DIRTY_BLOCKS: &str = "pdm_commit_dirty_blocks";
/// Counter of journal activity, labeled `stat ∈ {appends, slot_blocks,
/// target_blocks}`.
pub const JOURNAL_TOTAL: &str = "pdm_journal_total";
/// Counter of recovery activity, labeled `stat ∈ {runs, replayed,
/// discarded, blocks_rewritten}`.
pub const RECOVERY_TOTAL: &str = "pdm_recovery_total";
/// Histogram of in-place blocks rewritten per recovery pass.
pub const RECOVERY_BLOCKS: &str = "pdm_recovery_blocks";

/// The standard [`IoEventSink`]: routes events into a [`MetricsRegistry`].
///
/// All registry handles are resolved once at construction (including one
/// block counter per disk per direction), so observing an event is a handful
/// of relaxed atomic adds — no locks, no allocation, no formatting. This is
/// what keeps instrumented throughput within a few percent of the
/// uninstrumented baseline.
#[derive(Debug)]
pub struct IoMetricsSink {
    parallel_ios_read: Arc<Counter>,
    parallel_ios_write: Arc<Counter>,
    disk_blocks_read: Vec<Arc<Counter>>,
    disk_blocks_write: Vec<Arc<Counter>>,
    batch_blocks_read: Arc<Histogram>,
    batch_blocks_write: Arc<Histogram>,
    rounds: Arc<Counter>,
    round_width: Arc<Histogram>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    commit_dirty: Arc<Histogram>,
    journal_appends: Arc<Counter>,
    journal_slot_blocks: Arc<Counter>,
    journal_target_blocks: Arc<Counter>,
    recovery_runs: Arc<Counter>,
    recovery_replayed: Arc<Counter>,
    recovery_discarded: Arc<Counter>,
    recovery_rewritten: Arc<Counter>,
    recovery_blocks: Arc<Histogram>,
}

impl IoMetricsSink {
    /// Build a sink over `registry` for a `disks`-disk array.
    #[must_use]
    pub fn new(registry: &MetricsRegistry, disks: usize) -> Self {
        let per_disk = |op: &str| -> Vec<Arc<Counter>> {
            (0..disks)
                .map(|d| {
                    let d = d.to_string();
                    registry.counter(DISK_BLOCKS_TOTAL, &[("disk", d.as_str()), ("op", op)])
                })
                .collect()
        };
        IoMetricsSink {
            parallel_ios_read: registry.counter(PARALLEL_IOS_TOTAL, &[("op", "read")]),
            parallel_ios_write: registry.counter(PARALLEL_IOS_TOTAL, &[("op", "write")]),
            disk_blocks_read: per_disk("read"),
            disk_blocks_write: per_disk("write"),
            batch_blocks_read: registry.histogram(BATCH_BLOCKS, &[("op", "read")]),
            batch_blocks_write: registry.histogram(BATCH_BLOCKS, &[("op", "write")]),
            rounds: registry.counter(ROUNDS_TOTAL, &[]),
            round_width: registry.histogram(ROUND_WIDTH, &[]),
            cache_hits: registry.counter(CACHE_EVENTS_TOTAL, &[("event", "hit")]),
            cache_misses: registry.counter(CACHE_EVENTS_TOTAL, &[("event", "miss")]),
            commit_dirty: registry.histogram(COMMIT_DIRTY_BLOCKS, &[]),
            journal_appends: registry.counter(JOURNAL_TOTAL, &[("stat", "appends")]),
            journal_slot_blocks: registry.counter(JOURNAL_TOTAL, &[("stat", "slot_blocks")]),
            journal_target_blocks: registry.counter(JOURNAL_TOTAL, &[("stat", "target_blocks")]),
            recovery_runs: registry.counter(RECOVERY_TOTAL, &[("stat", "runs")]),
            recovery_replayed: registry.counter(RECOVERY_TOTAL, &[("stat", "replayed")]),
            recovery_discarded: registry.counter(RECOVERY_TOTAL, &[("stat", "discarded")]),
            recovery_rewritten: registry.counter(RECOVERY_TOTAL, &[("stat", "blocks_rewritten")]),
            recovery_blocks: registry.histogram(RECOVERY_BLOCKS, &[]),
        }
    }

    fn per_disk(counters: &[Arc<Counter>], per_disk: &[usize]) {
        for (c, &n) in counters.iter().zip(per_disk) {
            if n > 0 {
                c.add(n as u64);
            }
        }
    }
}

impl IoEventSink for IoMetricsSink {
    fn on_io(&self, event: IoEvent<'_>) {
        match event {
            IoEvent::BatchRead {
                per_disk,
                blocks,
                parallel_ios,
            } => {
                self.parallel_ios_read.add(parallel_ios);
                Self::per_disk(&self.disk_blocks_read, per_disk);
                self.batch_blocks_read.observe(blocks);
            }
            IoEvent::BatchWrite {
                per_disk,
                blocks,
                parallel_ios,
            } => {
                self.parallel_ios_write.add(parallel_ios);
                Self::per_disk(&self.disk_blocks_write, per_disk);
                self.batch_blocks_write.observe(blocks);
            }
            IoEvent::RoundsScheduled { rounds } => self.rounds.add(rounds),
            IoEvent::RoundScheduled { blocks } => self.round_width.observe(blocks),
            IoEvent::CacheHit { blocks } => self.cache_hits.add(blocks),
            IoEvent::CacheMiss { blocks } => self.cache_misses.add(blocks),
            IoEvent::BatchCommitted { dirty_blocks } => self.commit_dirty.observe(dirty_blocks),
            IoEvent::JournalAppend { blocks, targets } => {
                self.journal_appends.inc();
                self.journal_slot_blocks.add(blocks);
                self.journal_target_blocks.add(targets);
            }
            IoEvent::Recovery {
                replayed,
                discarded,
                blocks_rewritten,
            } => {
                self.recovery_runs.inc();
                self.recovery_replayed.add(replayed);
                self.recovery_discarded.add(discarded);
                self.recovery_rewritten.add(blocks_rewritten);
                self.recovery_blocks.observe(blocks_rewritten);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_low_and_log2_high() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 4, 5, 127, 128, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_records_count_sum_max_and_percentiles() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(1);
        }
        h.observe(6);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 99 + 6);
        assert_eq!(s.max, 6);
        assert_eq!(s.percentile(0.50), 1);
        assert_eq!(s.percentile(0.99), 1, "99 of 100 observations are 1");
        assert_eq!(s.percentile(1.0), 6, "max is capped at the true maximum");
        assert!((s.mean() - 1.05).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(1);
        a.observe(3);
        b.observe(3);
        b.observe(200);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 1 + 3 + 3 + 200);
        assert_eq!(m.max, 200);
        assert_eq!(m.buckets[bucket_index(3)], 2);
        assert_eq!(m.buckets[bucket_index(200)], 1);
        // Merging an empty snapshot is the identity.
        let before = m.clone();
        m.merge(&HistogramSnapshot::empty());
        assert_eq!(m, before);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("x_total", &[("op", "read")]);
        let c2 = reg.counter("x_total", &[("op", "read")]);
        c1.add(2);
        c2.inc();
        assert_eq!(c1.get(), 3);
        // Label order must not matter.
        let h1 = reg.histogram("h", &[("a", "1"), ("b", "2")]);
        let h2 = reg.histogram("h", &[("b", "2"), ("a", "1")]);
        h1.observe(5);
        assert_eq!(h2.snapshot().count, 1);
        // An adopted counter brings what it counted before it was filed,
        // and later resolutions of the name hand out that same cell.
        let own = Arc::new(Counter::new());
        own.add(7);
        reg.adopt_counter("x_total", &[("op", "read")], &own);
        reg.counter("x_total", &[("op", "read")]).inc();
        assert_eq!(own.get(), 8);
        assert_eq!(reg.snapshot().counter("x_total", &[("op", "read")]), Some(8));
    }

    #[test]
    fn snapshot_lookup_and_imbalance() {
        let reg = MetricsRegistry::new();
        reg.counter(DISK_BLOCKS_TOTAL, &[("disk", "0"), ("op", "read")])
            .add(30);
        reg.counter(DISK_BLOCKS_TOTAL, &[("disk", "1"), ("op", "read")])
            .add(10);
        reg.gauge("g", &[]).set(-4);
        let s = reg.snapshot();
        assert_eq!(
            s.counter(DISK_BLOCKS_TOTAL, &[("disk", "0")]),
            Some(30)
        );
        assert_eq!(s.gauge("g", &[]), Some(-4));
        // max 30 / mean 20 = 1.5
        let imb = s.imbalance(DISK_BLOCKS_TOTAL, &[("op", "read")]).unwrap();
        assert!((imb - 1.5).abs() < 1e-9);
        assert_eq!(s.imbalance("absent", &[]), None);
    }

    #[test]
    fn prometheus_export_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", &[("op", "read")]).add(7);
        let h = reg.histogram("cost", &[]);
        h.observe(1);
        h.observe(1);
        h.observe(5);
        let text = reg.to_prometheus();
        assert!(text.contains("c_total{op=\"read\"} 7"));
        assert!(text.contains("cost_bucket{le=\"1\"} 2"));
        assert!(text.contains("cost_bucket{le=\"7\"} 3"));
        assert!(text.contains("cost_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("cost_sum 7"));
        assert!(text.contains("cost_count 3"));
    }

    #[test]
    fn json_export_shape_and_escaping() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", &[("tag", "a\"b")]).inc();
        let h = reg.histogram("cost", &[("dict", "basic")]);
        h.observe(0);
        h.observe(1);
        let json = reg.to_json();
        assert!(json.contains("\"name\": \"c_total\""));
        assert!(json.contains("\\\"")); // the quote in the label value is escaped
        assert!(json.contains("\"p99\": 1"));
        assert!(json.contains("{\"le\": 0, \"count\": 1}"));
        assert!(json.contains("{\"le\": 1, \"count\": 1}"));
    }

    #[test]
    fn io_metrics_sink_routes_events() {
        let reg = MetricsRegistry::new();
        let sink = IoMetricsSink::new(&reg, 2);
        sink.on_io(IoEvent::BatchRead {
            per_disk: &[2, 1],
            blocks: 3,
            parallel_ios: 2,
        });
        sink.on_io(IoEvent::BatchWrite {
            per_disk: &[0, 1],
            blocks: 1,
            parallel_ios: 1,
        });
        sink.on_io(IoEvent::RoundsScheduled { rounds: 2 });
        sink.on_io(IoEvent::RoundScheduled { blocks: 2 });
        sink.on_io(IoEvent::RoundScheduled { blocks: 1 });
        sink.on_io(IoEvent::CacheHit { blocks: 4 });
        sink.on_io(IoEvent::CacheMiss { blocks: 1 });
        sink.on_io(IoEvent::BatchCommitted { dirty_blocks: 1 });
        let s = reg.snapshot();
        assert_eq!(s.counter(PARALLEL_IOS_TOTAL, &[("op", "read")]), Some(2));
        assert_eq!(s.counter(PARALLEL_IOS_TOTAL, &[("op", "write")]), Some(1));
        assert_eq!(
            s.counter(DISK_BLOCKS_TOTAL, &[("disk", "0"), ("op", "read")]),
            Some(2)
        );
        assert_eq!(
            s.counter(DISK_BLOCKS_TOTAL, &[("disk", "1"), ("op", "write")]),
            Some(1)
        );
        assert_eq!(s.counter(CACHE_EVENTS_TOTAL, &[("event", "hit")]), Some(4));
        assert_eq!(s.counter(ROUNDS_TOTAL, &[]), Some(2));
        assert_eq!(s.histogram(ROUND_WIDTH, &[]).unwrap().count, 2);
        assert_eq!(s.histogram(COMMIT_DIRTY_BLOCKS, &[]).unwrap().max, 1);
    }

    #[test]
    fn io_metrics_sink_routes_journal_and_recovery_events() {
        let reg = MetricsRegistry::new();
        let sink = IoMetricsSink::new(&reg, 2);
        sink.on_io(IoEvent::JournalAppend {
            blocks: 4,
            targets: 3,
        });
        sink.on_io(IoEvent::JournalAppend {
            blocks: 2,
            targets: 1,
        });
        sink.on_io(IoEvent::Recovery {
            replayed: 1,
            discarded: 2,
            blocks_rewritten: 3,
        });
        let s = reg.snapshot();
        assert_eq!(s.counter(JOURNAL_TOTAL, &[("stat", "appends")]), Some(2));
        assert_eq!(s.counter(JOURNAL_TOTAL, &[("stat", "slot_blocks")]), Some(6));
        assert_eq!(
            s.counter(JOURNAL_TOTAL, &[("stat", "target_blocks")]),
            Some(4)
        );
        assert_eq!(s.counter(RECOVERY_TOTAL, &[("stat", "runs")]), Some(1));
        assert_eq!(s.counter(RECOVERY_TOTAL, &[("stat", "replayed")]), Some(1));
        assert_eq!(s.counter(RECOVERY_TOTAL, &[("stat", "discarded")]), Some(2));
        assert_eq!(
            s.counter(RECOVERY_TOTAL, &[("stat", "blocks_rewritten")]),
            Some(3)
        );
        assert_eq!(s.histogram(RECOVERY_BLOCKS, &[]).unwrap().max, 3);
    }
}

//! The shard-parallel serving engine: per-shard worker threads that
//! coalesce queued requests into batched dictionary calls.
//!
//! ## Why coalescing is the whole point
//!
//! One parallel I/O round touches up to `D` disks; a single lookup needs
//! one or two blocks of it. Serving one operation per lock acquisition
//! therefore wastes almost the entire round under concurrency. Here,
//! requests that arrive
//! while a worker is busy accumulate in its shard queue; the worker
//! drains them all in one wakeup and serves them as **one**
//! `lookup_batch` / `insert_batch` / `delete_batch`, whose planner packs block requests
//! into shared rounds ([`pdm::BatchPlan`]). The busier the server, the
//! larger the window — batching improves *under* load instead of
//! degrading, which is exactly the behaviour the paper's worst-case
//! bounds make safe to rely on.
//!
//! ## Ordering contract
//!
//! Requests of one drained window execute inserts → deletes → lookups,
//! each kind as **one** batched dictionary call in submission order
//! (`insert_batch`, `delete_batch`, `lookup_batch`: a key deleted twice in
//! a window answers `true`, then `false`); windows execute in FIFO order
//! per shard. A client that waits for each
//! reply before submitting the next operation (the sync [`DictClient`]
//! calls) therefore observes program order. Operations pipelined through
//! [`DictClient::submit`] without waiting may be reordered *within* a
//! window — and, when the hot-key cache is enabled, a pipelined lookup
//! may additionally be answered at submission time ahead of the client's
//! own queued mutations (see [`EngineConfig::cache`]) — so pipelined
//! operations must not be order-dependent (same as issuing them from
//! different connections).
//!
//! [`DictClient`]: crate::client::DictClient
//! [`DictClient::submit`]: crate::client::DictClient::submit

use crate::client::DictClient;
use crate::queue::{BoundedQueue, OneShot, PushRefused};
use crate::ServeError;
use expander::mix::mix64;
use pdm::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use pdm::Word;
use pdm_cache::{CacheAnswer, CacheConfig, CacheCounters, HotCache};
use pdm_dict::Dict;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One dictionary operation as submitted by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Look up a key.
    Lookup(u64),
    /// Insert a key with satellite words.
    Insert(u64, Vec<Word>),
    /// Delete a key.
    Delete(u64),
}

impl Op {
    /// The key this operation addresses (routing input).
    #[must_use]
    pub fn key(&self) -> u64 {
        match *self {
            Op::Lookup(k) | Op::Insert(k, _) | Op::Delete(k) => k,
        }
    }

}

/// A successful operation's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Lookup answer: the satellite words, or `None` on a miss.
    Lookup(Option<Vec<Word>>),
    /// The insert was applied and acknowledged.
    Inserted,
    /// The delete was applied; `true` if the key had been present.
    Deleted(bool),
}

/// What a request resolves to.
pub type OpResult = Result<Reply, ServeError>;

/// An admitted request: the operation, its deadline, and the slot the
/// submitting client blocks on.
#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) op: Op,
    pub(crate) deadline: Instant,
    pub(crate) submitted: Instant,
    pub(crate) slot: Arc<OneShot<OpResult>>,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Admission bound per shard queue; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_bound: usize,
    /// Maximum requests coalesced into one execution window.
    pub max_coalesce: usize,
    /// Default deadline for sync client calls.
    pub deadline: Duration,
    /// Seed of the key → shard route (any fixed value works; it only
    /// needs to spread keys evenly).
    pub route_seed: u64,
    /// Make every *acknowledged* mutating window durable on the shard's
    /// storage backend before its replies are released, using the
    /// pipelined barrier ([`pdm::DiskArray::flush_begin`] /
    /// [`pdm::DiskArray::flush_join`]): window `N`'s barrier is started
    /// when `N` finishes executing and joined only after window `N+1`'s
    /// dictionary calls have been issued, so the device-level syncs
    /// overlap the next window's reads instead of serializing with them.
    /// Off by default — the in-memory backend needs no barrier, and
    /// checkpoint-at-shutdown already covers the graceful path.
    pub durable_acks: bool,
    /// Per-shard hot-key cache ([`pdm_cache::HotCache`]). `Some` puts a
    /// frequency-gated, byte-budgeted cache in front of every shard:
    /// lookups probe it at **submission** time, and a resident key is
    /// answered immediately — no queue wait, no batch window, no I/O
    /// round. Workers invalidate mutated keys *before* their window's
    /// replies are released (so an acked mutation is never shadowed by a
    /// stale entry) and fill the cache from executed lookup windows —
    /// misses negatively only when the window's reads were certifiably
    /// clean (see [`pdm::DiskArray::degraded_reads`]). Off by default.
    ///
    /// Ordering note: a submit-time hit bypasses the shard queue, so it
    /// answers ahead of everything still queued — including **this
    /// client's own earlier pipelined mutations**. That is a real
    /// weakening for pipelined [`DictClient::submit`] traffic: the FIFO
    /// shard queue used to give even pipelined clients per-key program
    /// order (a mutate-then-lookup of one key always saw the mutation),
    /// but with the cache on, the lookup can be answered from a resident
    /// entry before the queued mutation executes and invalidates it. A
    /// client that waits for each reply before submitting the next
    /// operation still observes program order, because a mutation's
    /// invalidation precedes its ack; pipelined same-key sequences must
    /// be order-independent with the cache enabled, as cross-connection
    /// sequences always had to be.
    pub cache: Option<CacheConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_bound: 256,
            max_coalesce: 64,
            deadline: Duration::from_secs(2),
            route_seed: 0x5EED_CAFE,
            durable_acks: false,
            cache: None,
        }
    }
}

impl EngineConfig {
    /// Set the per-shard admission bound.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[must_use]
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        assert!(bound > 0, "queue bound must be positive");
        self.queue_bound = bound;
        self
    }

    /// Set the coalescing window cap.
    ///
    /// # Panics
    /// Panics if `max == 0`.
    #[must_use]
    pub fn with_max_coalesce(mut self, max: usize) -> Self {
        assert!(max > 0, "coalescing window must be positive");
        self.max_coalesce = max;
        self
    }

    /// Set the default per-request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Set the routing seed.
    #[must_use]
    pub fn with_route_seed(mut self, seed: u64) -> Self {
        self.route_seed = seed;
        self
    }

    /// Toggle pipelined fsync-before-ack for mutating windows (see
    /// [`EngineConfig::durable_acks`]).
    #[must_use]
    pub fn with_durable_acks(mut self, durable: bool) -> Self {
        self.durable_acks = durable;
        self
    }

    /// Put a hot-key cache in front of every shard (see
    /// [`EngineConfig::cache`]). Each shard gets its own cache under
    /// `cfg` (budget and sketch are per shard).
    #[must_use]
    pub fn with_cache(mut self, cfg: CacheConfig) -> Self {
        self.cache = Some(cfg);
        self
    }
}

/// Monotone engine counters: always on, and the only place an event is
/// counted. Each is a [`Counter`] the engine owns; the ones with a `serve_*`
/// family are adopted by the registry [`ServeEngine::with_metrics`] is given
/// ([`MetricsRegistry::adopt_counter`]), so [`ServeEngine::stats`] and the
/// export read the same atomics. Indexed cells follow [`OPS`] / [`REASONS`].
#[derive(Debug, Default)]
pub(crate) struct Cells {
    /// Requests admitted — into a queue, or answered at submission.
    submitted: Counter,
    /// [`SERVE_OPS_TOTAL`], `outcome = "ok"`, per op.
    ops_ok: [Arc<Counter>; 3],
    /// [`SERVE_OPS_TOTAL`], `outcome = "err"`, per op.
    ops_err: [Arc<Counter>; 3],
    /// [`SERVE_REJECTED_TOTAL`], per reason.
    rejected: [Arc<Counter>; 3],
    /// [`SERVE_DISCONNECTED_TOTAL`].
    disconnected: Arc<Counter>,
    /// [`SERVE_ROUNDS_TOTAL`]: batched dictionary calls executed (a
    /// window's `lookup_batch`, `insert_batch` and `delete_batch` each
    /// count 1).
    exec_calls: Arc<Counter>,
    /// Operations served through those calls.
    exec_ops: Counter,
    /// Parallel I/O rounds charged by those calls (per-shard sums; the
    /// shards' disk groups are independent, so across shards these
    /// overlap in time).
    parallel_ios: Counter,
}

impl Cells {
    fn adopt_into(&self, registry: &MetricsRegistry) {
        for (i, op) in OPS.into_iter().enumerate() {
            registry.adopt_counter(SERVE_OPS_TOTAL, &[("op", op), ("outcome", "ok")], &self.ops_ok[i]);
            registry.adopt_counter(SERVE_OPS_TOTAL, &[("op", op), ("outcome", "err")], &self.ops_err[i]);
        }
        for (i, reason) in REASONS.into_iter().enumerate() {
            registry.adopt_counter(SERVE_REJECTED_TOTAL, &[("reason", reason)], &self.rejected[i]);
        }
        registry.adopt_counter(SERVE_DISCONNECTED_TOTAL, &[], &self.disconnected);
        registry.adopt_counter(SERVE_ROUNDS_TOTAL, &[], &self.exec_calls);
    }
}

/// A point-in-time copy of the engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests admitted: into a shard queue, or — a lookup the hot-key
    /// cache answered at submission — acknowledged without entering one.
    pub submitted: u64,
    /// Requests acknowledged with a successful reply.
    pub acked: u64,
    /// Requests that executed and returned a dictionary error.
    pub dict_errors: u64,
    /// Admissions refused with [`ServeError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Admitted requests answered [`ServeError::TimedOut`].
    pub rejected_timedout: u64,
    /// Admissions refused with [`ServeError::ShuttingDown`].
    pub rejected_shutdown: u64,
    /// Requests answered [`ServeError::Disconnected`] (crash).
    pub disconnected: u64,
    /// Batched dictionary calls executed.
    pub exec_calls: u64,
    /// Operations served through those calls.
    pub exec_ops: u64,
    /// Parallel I/O rounds charged by those calls.
    pub parallel_ios: u64,
    /// Lookups answered from the hot-key cache without entering a queue
    /// (0 when no cache is configured).
    pub cache_hits: u64,
    /// Lookups answered from a negative cache entry (certified-absent
    /// keys; these cost 0 I/Os).
    pub cache_negative_hits: u64,
}

impl EngineStats {
    /// Mean operations per executed dictionary call — the coalescing
    /// factor the engine achieved. A window makes at most three calls, one
    /// per kind of operation it holds.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.exec_calls == 0 {
            0.0
        } else {
            self.exec_ops as f64 / self.exec_calls as f64
        }
    }

    /// Parallel I/O rounds per served operation.
    #[must_use]
    pub fn ios_per_op(&self) -> f64 {
        if self.exec_ops == 0 {
            0.0
        } else {
            self.parallel_ios as f64 / self.exec_ops as f64
        }
    }

    /// Parallel I/O rounds per *acknowledged* operation, cache hits
    /// included — the number the hot-key tier drives below 1 on skewed
    /// streams ([`ios_per_op`](EngineStats::ios_per_op) only counts
    /// operations that reached a dictionary).
    #[must_use]
    pub fn ios_per_acked_op(&self) -> f64 {
        if self.acked == 0 {
            0.0
        } else {
            self.parallel_ios as f64 / self.acked as f64
        }
    }
}

/// Pre-resolved registry handles for what the serving layer records only
/// when a registry is installed: gauges, histograms and the shard caches'
/// event counts (the `serve_*` counters are the engine's own cells, adopted).
#[derive(Debug)]
pub struct ServeMetrics {
    queue_depth: Vec<Arc<Gauge>>,
    batch_keys: [Arc<Histogram>; 3],
    batch_ios: [Arc<Histogram>; 3],
    latency_us: [Arc<Histogram>; 3],
    /// Cache events, `pdm_cache`'s family with `dict = "serve"`, in
    /// [`CACHE_EVENTS`]' order.
    cache_events: [Arc<Counter>; 7],
    /// Per-lookup parallel I/Os in **centi-I/Os** (×100, so the
    /// integer histogram resolves fractional amortized costs: a cache
    /// hit observes 0, a window of 8 lookups sharing 2 rounds observes
    /// 25 each). `p99 < 30` ⇔ "p99 lookup cost < 0.3 I/Os".
    lookup_centi_ios: Arc<Histogram>,
}

/// Gauge of queued requests per shard, label `shard`.
pub const SERVE_QUEUE_DEPTH: &str = "serve_queue_depth";
/// Histogram of coalesced keys per executed batch, label `op`.
pub const SERVE_BATCH_KEYS: &str = "serve_batch_keys";
/// Histogram of parallel I/Os per executed batch, label `op`.
pub const SERVE_BATCH_PARALLEL_IOS: &str = "serve_batch_parallel_ios";
/// Histogram of request latency (submit → reply) in microseconds, label `op`.
pub const SERVE_LATENCY_US: &str = "serve_latency_us";
/// Counter of served operations, labels `op`, `outcome` (`ok` / `err`).
pub const SERVE_OPS_TOTAL: &str = "serve_ops_total";
/// Counter of admission rejections, label `reason`
/// (`overloaded` / `timedout` / `shutdown`).
pub const SERVE_REJECTED_TOTAL: &str = "serve_rejected_total";
/// Counter of requests dropped by a crash, no label.
pub const SERVE_DISCONNECTED_TOTAL: &str = "serve_disconnected_total";
/// Counter of batched dictionary calls executed (at most three per coalesced
/// window, one per kind of operation it holds), no label.
pub const SERVE_ROUNDS_TOTAL: &str = "serve_rounds_total";
/// Histogram of per-lookup parallel I/Os in centi-I/Os (×100; cache
/// hits observe 0, executed lookups observe their window-amortized
/// cost), no label.
pub const SERVE_LOOKUP_CENTI_IOS: &str = "serve_lookup_centi_ios";

const OPS: [&str; 3] = ["lookup", "insert", "delete"];
const REASONS: [&str; 3] = ["overloaded", "timedout", "shutdown"];
const OVERLOADED: usize = 0;
const TIMEDOUT: usize = 1;
const SHUTDOWN: usize = 2;
/// The `event` label of a [`CacheCounters`] field, and the field.
type CacheEvent = (&'static str, fn(&CacheCounters) -> u64);
const CACHE_EVENTS: [CacheEvent; 7] = [
    ("hit", |c| c.hits),
    ("negative_hit", |c| c.negative_hits),
    ("miss", |c| c.misses),
    ("admit", |c| c.admitted),
    ("reject", |c| c.rejected),
    ("evict", |c| c.evicted),
    ("invalidate", |c| c.invalidated),
];

impl ServeMetrics {
    fn new(registry: &MetricsRegistry, shards: usize) -> Self {
        let hist = |name: &'static str| OPS.map(|op| registry.histogram(name, &[("op", op)]));
        ServeMetrics {
            queue_depth: (0..shards)
                .map(|s| registry.gauge(SERVE_QUEUE_DEPTH, &[("shard", &s.to_string())]))
                .collect(),
            batch_keys: hist(SERVE_BATCH_KEYS),
            batch_ios: hist(SERVE_BATCH_PARALLEL_IOS),
            latency_us: hist(SERVE_LATENCY_US),
            cache_events: CACHE_EVENTS.map(|(event, _)| {
                registry.counter(
                    pdm_cache::CACHE_EVENTS_TOTAL,
                    &[("dict", "serve"), ("event", event)],
                )
            }),
            lookup_centi_ios: registry.histogram(SERVE_LOOKUP_CENTI_IOS, &[]),
        }
    }

    /// Push the delta between `now` and the already-exported `synced`
    /// snapshot into the cache-event counters.
    fn sync_cache(&self, synced: &mut CacheCounters, now: CacheCounters) {
        for (handle, (_, count)) in self.cache_events.iter().zip(CACHE_EVENTS) {
            handle.add(count(&now) - count(synced));
        }
        *synced = now;
    }

    fn op_index(op: &Op) -> usize {
        match op {
            Op::Lookup(..) => 0,
            Op::Insert(..) => 1,
            Op::Delete(..) => 2,
        }
    }
}

/// Everything the client handles and workers share.
pub(crate) struct Shared {
    pub(crate) queues: Vec<Arc<BoundedQueue<Request>>>,
    /// Per-shard key universe ([`Dict::universe`]), read once at start.
    pub(crate) universes: Vec<u64>,
    /// Per-shard flag: the shard's worker observed a crash and stopped
    /// acknowledging (its closed queue means [`ServeError::Disconnected`],
    /// not [`ServeError::ShuttingDown`]).
    pub(crate) crashed: Vec<AtomicBool>,
    pub(crate) cfg: EngineConfig,
    pub(crate) stats: Cells,
    pub(crate) metrics: Option<Arc<ServeMetrics>>,
    /// One hot-key cache per shard when [`EngineConfig::cache`] is set.
    /// Client threads probe under the mutex at submission; the shard
    /// worker is the only filler/invalidator.
    pub(crate) caches: Option<Vec<Mutex<HotCache>>>,
}

impl Shared {
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        (mix64(self.cfg.route_seed ^ key) % self.queues.len() as u64) as usize
    }

    /// Admission control: route, refuse a key outside the shard's
    /// universe (the dictionary would panic on it and leave the reply slot
    /// empty), probe the shard's cache (lookups only — a resident key is
    /// answered right here, consuming no queue slot and no I/O round),
    /// then check the bound and enqueue. Refusals are immediate and typed;
    /// nothing blocks.
    pub(crate) fn submit(
        &self,
        op: Op,
        deadline: Duration,
    ) -> Result<Arc<OneShot<OpResult>>, ServeError> {
        let key = op.key();
        let shard = self.shard_of(key);
        let universe = self.universes[shard];
        if key >= universe && universe != u64::MAX {
            return Err(ServeError::Dict(pdm_dict::DictError::UnsupportedParams(format!(
                "key {key} outside the universe of size {universe}"
            ))));
        }
        if let (Op::Lookup(key), Some(caches)) = (&op, &self.caches) {
            // Skip the fast path once the shard stopped serving: a
            // crashed or closing shard must answer Disconnected /
            // ShuttingDown, not a cached value (the queue push below
            // produces the typed refusal).
            if !self.crashed[shard].load(Ordering::Acquire) && !self.queues[shard].is_closed() {
                let answer = caches[shard].lock().expect("cache lock").probe(*key);
                let reply = match answer {
                    CacheAnswer::Hit(v) => Some(Some(v)),
                    CacheAnswer::NegativeHit => Some(None),
                    CacheAnswer::Miss => None,
                };
                if let Some(satellite) = reply {
                    self.stats.submitted.inc();
                    self.stats.ops_ok[0].inc();
                    if let Some(m) = &self.metrics {
                        m.latency_us[0].observe(0);
                        m.lookup_centi_ios.observe(0);
                    }
                    let slot = Arc::new(OneShot::new());
                    slot.put(Ok(Reply::Lookup(satellite)));
                    return Ok(slot);
                }
            }
        }
        let slot = Arc::new(OneShot::new());
        let now = Instant::now();
        let request = Request {
            op,
            deadline: now + deadline,
            submitted: now,
            slot: Arc::clone(&slot),
        };
        match self.queues[shard].push(request) {
            Ok(depth) => {
                self.stats.submitted.inc();
                if let Some(m) = &self.metrics {
                    m.queue_depth[shard].set(depth as i64);
                }
                Ok(slot)
            }
            Err((PushRefused::Full, _)) => {
                self.stats.rejected[OVERLOADED].inc();
                Err(ServeError::Overloaded {
                    shard,
                    depth: self.queues[shard].bound(),
                })
            }
            Err((PushRefused::Closed, _)) => {
                if self.crashed[shard].load(Ordering::Acquire) {
                    self.stats.disconnected.inc();
                    Err(ServeError::Disconnected)
                } else {
                    self.stats.rejected[SHUTDOWN].inc();
                    Err(ServeError::ShuttingDown)
                }
            }
        }
    }
}

/// The engine: `S` shard dictionaries, each owned by one worker thread,
/// fed by bounded queues, coalescing concurrent requests into batched
/// calls.
///
/// ```
/// use pdm_dict::{DictParams, Dictionary, Dict};
/// use pdm_server::{EngineConfig, ServeEngine};
///
/// let shards: Vec<Box<dyn Dict + Send>> = (0..2)
///     .map(|i| {
///         let params = DictParams::new(64, 1 << 40, 1)
///             .with_degree(16)
///             .with_epsilon(1.0)
///             .with_seed(7 + i);
///         Box::new(Dictionary::new(params, 128).unwrap()) as Box<dyn Dict + Send>
///     })
///     .collect();
/// let engine = ServeEngine::new(shards, EngineConfig::default());
/// let client = engine.client();
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let client = client.clone();
///         s.spawn(move || {
///             for i in 0..50 {
///                 client.insert(t * 1000 + i, &[t]).unwrap();
///             }
///         });
///     }
/// });
/// assert_eq!(client.lookup(2025).unwrap(), Some(vec![2]));
/// let shards = engine.shutdown();
/// assert_eq!(shards.iter().map(|d| d.len()).sum::<usize>(), 200);
/// ```
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<Box<dyn Dict + Send>>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("shards", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Spawn one worker thread per shard dictionary.
    ///
    /// Shard dictionaries are independent — in a deployment each owns
    /// its own disk group, so per-shard batches overlap in time.
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    #[must_use]
    pub fn new(shards: Vec<Box<dyn Dict + Send>>, cfg: EngineConfig) -> Self {
        Self::with_metrics(shards, cfg, None)
    }

    /// Like [`new`](Self::new), additionally exporting `serve_*` metrics
    /// to `registry`: it adopts the engine's own counters, and the engine
    /// records the histograms and gauges that exist only there. (Shard
    /// dictionaries keep their own `dict_*` recording; install it via
    /// [`pdm_dict::Dict::set_metrics`] before handing them over.)
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    #[must_use]
    pub fn with_metrics(
        shards: Vec<Box<dyn Dict + Send>>,
        cfg: EngineConfig,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let stats = Cells::default();
        let metrics = registry.map(|r| {
            stats.adopt_into(&r);
            Arc::new(ServeMetrics::new(&r, shards.len()))
        });
        let shared = Arc::new(Shared {
            queues: (0..shards.len())
                .map(|_| Arc::new(BoundedQueue::new(cfg.queue_bound)))
                .collect(),
            universes: shards.iter().map(|d| d.universe()).collect(),
            crashed: (0..shards.len()).map(|_| AtomicBool::new(false)).collect(),
            stats,
            metrics,
            caches: cfg
                .cache
                .map(|c| (0..shards.len()).map(|_| Mutex::new(HotCache::new(c))).collect()),
            cfg,
        });
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(id, dict)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pdm-serve-{id}"))
                    .spawn(move || run_shard(id, dict, &shared))
                    .expect("spawn shard worker")
            })
            .collect();
        ServeEngine { shared, workers }
    }

    /// A cloneable, thread-safe client handle.
    #[must_use]
    pub fn client(&self) -> DictClient {
        DictClient::new(Arc::clone(&self.shared))
    }

    /// Number of shards (= worker threads).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shared.queues.len()
    }

    /// Snapshot the engine counters (the cache fields are the shard
    /// caches' own [`CacheCounters`]: a probe is only ever made at
    /// submission, so every hit they count was answered there).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let s = &self.shared.stats;
        let sum = |cells: &[Arc<Counter>; 3]| cells.iter().map(|c| c.get()).sum();
        let cache = self.cache_counters().unwrap_or_default();
        EngineStats {
            submitted: s.submitted.get(),
            acked: sum(&s.ops_ok),
            dict_errors: sum(&s.ops_err),
            rejected_overloaded: s.rejected[OVERLOADED].get(),
            rejected_timedout: s.rejected[TIMEDOUT].get(),
            rejected_shutdown: s.rejected[SHUTDOWN].get(),
            disconnected: s.disconnected.get(),
            exec_calls: s.exec_calls.get(),
            exec_ops: s.exec_ops.get(),
            parallel_ios: s.parallel_ios.get(),
            cache_hits: cache.hits,
            cache_negative_hits: cache.negative_hits,
        }
    }

    /// Aggregate event counters of the per-shard hot-key caches; `None`
    /// when no cache is configured.
    #[must_use]
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        let caches = self.shared.caches.as_ref()?;
        let mut total = CacheCounters::default();
        for cache in caches {
            let c = cache.lock().expect("cache lock").counters();
            total.hits += c.hits;
            total.negative_hits += c.negative_hits;
            total.misses += c.misses;
            total.admitted += c.admitted;
            total.rejected += c.rejected;
            total.evicted += c.evicted;
            total.invalidated += c.invalidated;
        }
        Some(total)
    }

    /// Whether any shard worker stopped after observing a crash point.
    #[must_use]
    pub fn crash_observed(&self) -> bool {
        self.shared.crashed.iter().any(|c| c.load(Ordering::Acquire))
    }

    /// Graceful shutdown: close every queue (new submissions get
    /// [`ServeError::ShuttingDown`]), let the workers drain and execute
    /// everything already admitted, checkpoint each shard's journal
    /// ([`pdm_dict::Dict::checkpoint`]), and hand the shard
    /// dictionaries back. After this, the on-disk image is
    /// [`pdm_dict::Dict::recover`]-consistent with every acknowledged
    /// write applied.
    #[must_use]
    pub fn shutdown(self) -> Vec<Box<dyn Dict + Send>> {
        for q in &self.shared.queues {
            q.close();
        }
        self.workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect()
    }
}

/// A mutating window parked behind its in-flight durability barrier:
/// the ticket plus the staged replies it will release once joined.
type ParkedWindow = (pdm::FlushTicket, Vec<Request>, Vec<Option<OpResult>>);

/// The per-shard worker loop. Returns the dictionary on exit so
/// [`ServeEngine::shutdown`] can hand it back.
fn run_shard(id: usize, mut dict: Box<dyn Dict + Send>, shared: &Shared) -> Box<dyn Dict + Send> {
    let queue = &shared.queues[id];
    let stats = &shared.stats;
    let metrics = shared.metrics.as_deref();
    let cache = shared.caches.as_ref().map(|c| &c[id]);
    // Cache counter values already exported to the registry (deltas only).
    let mut cache_synced = CacheCounters::default();
    // With `durable_acks`, a mutating window whose durability barrier is
    // still in flight parks here (ticket + staged replies) while the next
    // window's dictionary calls overlap the syncs; it settles as soon as
    // the barrier joins.
    let mut pending: Option<ParkedWindow> = None;
    while let Some(batch) = queue.drain(shared.cfg.max_coalesce) {
        if batch.is_empty() {
            settle_pending(&mut pending, &mut dict, stats, metrics);
            continue;
        }
        if let Some(m) = metrics {
            m.queue_depth[id].set(queue.depth() as i64);
        }
        // Stage every reply, settle only after the crash check: a killed
        // process acknowledges nothing, so neither may a crashed window.
        let mut replies: Vec<Option<OpResult>> = (0..batch.len()).map(|_| None).collect();
        let now = Instant::now();

        // Partition the live requests by kind; expired ones answer
        // TimedOut without executing (admission promised a deadline).
        let mut lookups: Vec<usize> = Vec::new();
        let mut inserts: Vec<usize> = Vec::new();
        let mut deletes: Vec<usize> = Vec::new();
        for (i, request) in batch.iter().enumerate() {
            if request.deadline < now {
                replies[i] = Some(Err(ServeError::TimedOut));
                continue;
            }
            match request.op {
                Op::Lookup(..) => lookups.push(i),
                Op::Insert(..) => inserts.push(i),
                Op::Delete(..) => deletes.push(i),
            }
        }

        let record = |cost: pdm::OpCost, n: usize, op_idx: usize| {
            stats.exec_calls.inc();
            stats.exec_ops.add(n as u64);
            stats.parallel_ios.add(cost.parallel_ios);
            if let Some(m) = metrics {
                m.batch_keys[op_idx].observe(n as u64);
                m.batch_ios[op_idx].observe(cost.parallel_ios);
            }
        };

        // Inserts first, then deletes, then lookups, each kind one
        // coalesced batch — see the module-level ordering contract.
        if !inserts.is_empty() {
            let entries: Vec<(u64, Vec<Word>)> = inserts
                .iter()
                .map(|&i| match &batch[i].op {
                    Op::Insert(k, sat) => (*k, sat.clone()),
                    _ => unreachable!("partitioned as insert"),
                })
                .collect();
            let (results, cost) = dict.insert_batch(&entries);
            record(cost, inserts.len(), 1);
            for (&i, r) in inserts.iter().zip(results) {
                replies[i] = Some(r.map(|()| Reply::Inserted).map_err(ServeError::Dict));
            }
        }
        if !deletes.is_empty() {
            let keys: Vec<u64> = deletes.iter().map(|&i| batch[i].op.key()).collect();
            let (results, cost) = dict.delete_batch(&keys);
            record(cost, deletes.len(), 2);
            for (&i, r) in deletes.iter().zip(results) {
                replies[i] = Some(r.map(Reply::Deleted).map_err(ServeError::Dict));
            }
        }
        // Invalidate mutated keys before anything is acknowledged.
        // Attempted mutations count too: an `Io`-failed insert may have
        // had a partial physical effect, and invalidating is always
        // sound. This is the engine half of the "no stale hit shadows an
        // acked mutation" contract (the settle below releases replies
        // only after this ran).
        if let Some(cache) = cache {
            if !inserts.is_empty() || !deletes.is_empty() {
                let mut c = cache.lock().expect("cache lock");
                for &i in inserts.iter().chain(deletes.iter()) {
                    c.invalidate(batch[i].op.key());
                }
            }
        }
        let mut lookup_clean = false;
        if !lookups.is_empty() {
            let keys: Vec<u64> = lookups
                .iter()
                .map(|&i| match batch[i].op {
                    Op::Lookup(k) => k,
                    _ => unreachable!("partitioned as lookup"),
                })
                .collect();
            // Certify the batch at the disk layer: if no read came back
            // degraded, every miss in it is a proven absence (safe to
            // cache negatively).
            let before = dict.disks().map(pdm::DiskArray::degraded_reads);
            let (results, cost) = dict.lookup_batch(&keys);
            lookup_clean = matches!(
                (before, dict.disks().map(pdm::DiskArray::degraded_reads)),
                (Some(a), Some(b)) if a == b
            );
            record(cost, lookups.len(), 0);
            if let Some(m) = metrics {
                // Window-amortized per-lookup cost in centi-I/Os; cache
                // hits observed 0 at submission, so the histogram is the
                // full per-op distribution the p99 gate reads.
                let centi = cost.parallel_ios * 100 / lookups.len() as u64;
                for _ in 0..lookups.len() {
                    m.lookup_centi_ios.observe(centi);
                }
            }
            for (&i, satellite) in lookups.iter().zip(results) {
                replies[i] = Some(Ok(Reply::Lookup(satellite)));
            }
        }

        // Crash fidelity: if the shard's crash point fired inside this
        // window, the "process" died mid-write — acknowledge nothing,
        // disconnect everyone still queued, and stop serving. (Writes
        // after the crash point were physically dropped by the fault
        // layer; recovery decides their fate from the journal alone.)
        if dict.disks().is_some_and(pdm::DiskArray::crash_fired) {
            // A killed process acknowledges nothing — not even the
            // previous window, whose replies it never got to send.
            if let Some((_, pbatch, _)) = pending.take() {
                settle_disconnect(&pbatch, stats);
            }
            // Its in-memory cache dies with it: the replacement shard must
            // start cold so nothing written after the crash point can be
            // shadowed by a pre-crash entry.
            if let Some(cache) = cache {
                let mut c = cache.lock().expect("cache lock");
                c.clear();
                if let Some(m) = metrics {
                    m.sync_cache(&mut cache_synced, c.counters());
                }
            }
            shared.crashed[id].store(true, Ordering::Release);
            queue.close();
            drain_disconnect(queue, stats);
            settle_disconnect(&batch, stats);
            return dict;
        }
        // This window's dictionary calls are issued: the previous
        // window's barrier has had a full window of reads to overlap
        // with. Join and release it before settling the current window.
        settle_pending(&mut pending, &mut dict, stats, metrics);

        // Fill the shard cache from this window's executed lookups: the
        // reads ran after this window's mutations, so they are the
        // freshest answers. Misses become negative entries only when the
        // whole batch read cleanly. Then export counter deltas.
        if let Some(cache) = cache {
            let mut c = cache.lock().expect("cache lock");
            for &i in &lookups {
                if let Some(Ok(Reply::Lookup(satellite))) = &replies[i] {
                    c.fill(batch[i].op.key(), satellite.as_deref(), lookup_clean);
                }
            }
            if let Some(m) = metrics {
                m.sync_cache(&mut cache_synced, c.counters());
            }
        }

        // Durable acks: start the barrier for this window's writes now,
        // and park the staged replies while the next window overlaps the
        // syncs — unless the queue is idle, in which case nothing would
        // overlap (and a lone synchronous client is *waiting* on these
        // replies before it submits again), so join immediately.
        let mutated = inserts.iter().any(|&i| replies[i].as_ref().is_some_and(Result::is_ok))
            || deletes.iter().any(|&i| replies[i].as_ref().is_some_and(Result::is_ok));
        if shared.cfg.durable_acks && mutated {
            if let Some(disks) = dict.disks_mut() {
                let ticket = disks.flush_begin();
                if queue.depth() == 0 {
                    disks.flush_join(ticket);
                    settle_window(&batch, replies, stats, metrics);
                } else {
                    pending = Some((ticket, batch, replies));
                }
                continue;
            }
        }
        settle_window(&batch, replies, stats, metrics);
    }
    // Graceful exit: the queue was closed and drained dry. Release any
    // parked window, then make the image durable before handing the
    // shard back.
    settle_pending(&mut pending, &mut dict, stats, metrics);
    if let (Some(cache), Some(m)) = (cache, metrics) {
        // Submit-side probe events since the last window would otherwise
        // be lost from the registry.
        m.sync_cache(&mut cache_synced, cache.lock().expect("cache lock").counters());
    }
    dict.checkpoint();
    dict
}

/// Join a parked window's durability barrier and release its replies.
fn settle_pending(
    pending: &mut Option<ParkedWindow>,
    dict: &mut Box<dyn Dict + Send>,
    stats: &Cells,
    metrics: Option<&ServeMetrics>,
) {
    if let Some((ticket, batch, replies)) = pending.take() {
        if let Some(disks) = dict.disks_mut() {
            disks.flush_join(ticket);
        }
        settle_window(&batch, replies, stats, metrics);
    }
}

/// Settle: every request of the window gets exactly one reply. A request
/// the shard's batch call left unanswered (a `Dict` breaking "one result
/// per entry") is answered with a typed error, counted as a dictionary
/// error, rather than taking the shard's worker down.
fn settle_window(
    batch: &[Request],
    replies: Vec<Option<OpResult>>,
    stats: &Cells,
    metrics: Option<&ServeMetrics>,
) {
    let done = Instant::now();
    for (request, reply) in batch.iter().zip(replies) {
        let reply = reply.unwrap_or_else(|| {
            Err(ServeError::Protocol("the shard's batch call gave this request no answer".into()))
        });
        let op_idx = ServeMetrics::op_index(&request.op);
        match &reply {
            Ok(_) => stats.ops_ok[op_idx].inc(),
            Err(ServeError::TimedOut) => stats.rejected[TIMEDOUT].inc(),
            Err(_) => stats.ops_err[op_idx].inc(),
        }
        if let Some(m) = metrics {
            let us = done.duration_since(request.submitted).as_micros() as u64;
            m.latency_us[op_idx].observe(us);
        }
        request.slot.put(reply);
    }
}

/// Disconnect everything still queued after a crash (never silently
/// dropped; clients get a typed error).
fn drain_disconnect(queue: &BoundedQueue<Request>, stats: &Cells) {
    while let Some(rest) = queue.drain(usize::MAX) {
        settle_disconnect(&rest, stats);
        if rest.is_empty() {
            break;
        }
    }
}

fn settle_disconnect(batch: &[Request], stats: &Cells) {
    for request in batch {
        stats.disconnected.inc();
        request.slot.put(Err(ServeError::Disconnected));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_dict::{DictError, DictParams, Dictionary, LookupOutcome};
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Condvar, Mutex};

    /// A HashMap-backed dictionary whose every operation blocks while the
    /// shared gate is closed — tests use it to pile requests into a shard
    /// queue deterministically while the worker sits mid-execution.
    struct GateDict {
        map: HashMap<u64, Vec<Word>>,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    fn gate() -> Arc<(Mutex<bool>, Condvar)> {
        Arc::new((Mutex::new(false), Condvar::new()))
    }

    fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    impl GateDict {
        fn boxed(gate: &Arc<(Mutex<bool>, Condvar)>) -> Box<dyn Dict + Send> {
            Box::new(GateDict {
                map: HashMap::new(),
                gate: Arc::clone(gate),
            })
        }

        fn wait_open(&self) {
            let mut is_open = self.gate.0.lock().unwrap();
            while !*is_open {
                is_open = self.gate.1.wait(is_open).unwrap();
            }
        }
    }

    impl Dict for GateDict {
        fn kind(&self) -> &'static str {
            "gate"
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn capacity(&self) -> usize {
            usize::MAX
        }
        fn lookup(&mut self, key: u64) -> LookupOutcome {
            self.wait_open();
            LookupOutcome::new(self.map.get(&key).cloned(), pdm::OpCost::default())
        }
        fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<pdm::OpCost, DictError> {
            self.wait_open();
            if self.map.contains_key(&key) {
                return Err(DictError::DuplicateKey(key));
            }
            self.map.insert(key, satellite.to_vec());
            Ok(pdm::OpCost::default())
        }
        fn delete(&mut self, key: u64) -> Result<(bool, pdm::OpCost), DictError> {
            self.wait_open();
            Ok((self.map.remove(&key).is_some(), pdm::OpCost::default()))
        }
        fn set_metrics(&mut self, _registry: Option<Arc<MetricsRegistry>>) {}
    }

    /// Park the single worker inside an execution (so the queue is free
    /// to fill): submit one op and give the worker a moment to drain it.
    fn park_worker(client: &DictClient) -> crate::client::Pending {
        let pending = client.submit(Op::Lookup(u64::MAX)).expect("admit parker");
        std::thread::sleep(Duration::from_millis(50));
        pending
    }

    /// HashMap-backed dictionary that counts how many lookups actually
    /// execute — the cache tier is supposed to keep hot keys from ever
    /// reaching it.
    struct CountingDict {
        map: HashMap<u64, Vec<Word>>,
        executed_lookups: Arc<AtomicU64>,
    }

    impl Dict for CountingDict {
        fn kind(&self) -> &'static str {
            "counting"
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn capacity(&self) -> usize {
            usize::MAX
        }
        fn lookup(&mut self, key: u64) -> LookupOutcome {
            self.executed_lookups.fetch_add(1, Ordering::SeqCst);
            LookupOutcome::new(self.map.get(&key).cloned(), pdm::OpCost::default())
        }
        fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<pdm::OpCost, DictError> {
            if self.map.contains_key(&key) {
                return Err(DictError::DuplicateKey(key));
            }
            self.map.insert(key, satellite.to_vec());
            Ok(pdm::OpCost::default())
        }
        fn delete(&mut self, key: u64) -> Result<(bool, pdm::OpCost), DictError> {
            Ok((self.map.remove(&key).is_some(), pdm::OpCost::default()))
        }
        fn set_metrics(&mut self, _registry: Option<Arc<MetricsRegistry>>) {}
    }

    #[test]
    fn cache_tier_answers_hot_lookups_without_execution() {
        let executed = Arc::new(AtomicU64::new(0));
        let engine = ServeEngine::new(
            vec![Box::new(CountingDict {
                map: HashMap::new(),
                executed_lookups: Arc::clone(&executed),
            })],
            EngineConfig::default().with_cache(pdm_cache::CacheConfig::default()),
        );
        let client = engine.client();
        let lookup = |key: u64| match client.submit(Op::Lookup(key)).unwrap().wait().unwrap() {
            Reply::Lookup(satellite) => satellite,
            other => panic!("unexpected reply {other:?}"),
        };

        client
            .submit(Op::Insert(7, vec![7; 4]))
            .unwrap()
            .wait()
            .unwrap();

        // The cache has room, so the first lookup executes and fills it;
        // the second is answered from the cache without the dictionary
        // ever seeing it.
        assert_eq!(lookup(7).as_deref(), Some(&[7u64; 4][..]));
        let before = executed.load(Ordering::SeqCst);
        assert_eq!(lookup(7).as_deref(), Some(&[7u64; 4][..]));
        assert_eq!(
            executed.load(Ordering::SeqCst),
            before,
            "cache hit consumed no dictionary execution"
        );

        // A mutation invalidates before it is acknowledged: the next
        // lookup goes back to the dictionary and observes the delete.
        match client.submit(Op::Delete(7)).unwrap().wait().unwrap() {
            Reply::Deleted(true) => {}
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(lookup(7), None, "no stale hit after delete");
        assert!(executed.load(Ordering::SeqCst) > before);

        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.acked, 5);
        drop(engine.shutdown());
    }

    #[test]
    fn overload_rejects_with_typed_backpressure() {
        let g = gate();
        let engine = ServeEngine::new(
            vec![GateDict::boxed(&g)],
            EngineConfig::default().with_queue_bound(2),
        );
        let client = engine.client();
        let parker = park_worker(&client);

        // The worker is mid-execution; the queue (bound 2) now fills.
        let mut pendings = Vec::new();
        let mut refusals = 0;
        for key in 0..4 {
            match client.submit(Op::Lookup(key)) {
                Ok(p) => pendings.push(p),
                Err(ServeError::Overloaded { shard, depth }) => {
                    assert_eq!(shard, 0);
                    assert_eq!(depth, 2);
                    refusals += 1;
                }
                Err(other) => panic!("unexpected refusal {other:?}"),
            }
        }
        assert_eq!(pendings.len(), 2, "exactly the bound is admitted");
        assert_eq!(refusals, 2);

        // Backpressure lost nothing that was admitted.
        open(&g);
        assert!(parker.wait().is_ok());
        for p in pendings {
            assert!(p.wait().is_ok());
        }
        let stats = engine.stats();
        assert_eq!(stats.rejected_overloaded, 2);
        assert_eq!(stats.acked, 3);
        drop(engine.shutdown());
    }

    #[test]
    fn queued_requests_coalesce_into_batched_calls() {
        let g = gate();
        let engine = ServeEngine::new(vec![GateDict::boxed(&g)], EngineConfig::default());
        let client = engine.client();
        let parker = park_worker(&client);

        // Eight lookups and four inserts pile up behind the parked
        // worker; they must come out as ONE window of two batched calls.
        let mut pendings: Vec<_> = (0..8)
            .map(|key| client.submit(Op::Lookup(key)).unwrap())
            .collect();
        for key in 0..4 {
            pendings.push(client.submit(Op::Insert(100 + key, vec![key])).unwrap());
        }
        open(&g);
        assert!(parker.wait().is_ok());
        for p in pendings {
            assert!(p.wait().is_ok());
        }

        let stats = engine.stats();
        assert_eq!(stats.exec_ops, 13, "parker + 8 lookups + 4 inserts");
        assert!(
            stats.exec_calls <= 3,
            "one parker call + one lookup_batch + one insert_batch, got {}",
            stats.exec_calls
        );
        assert!(stats.mean_batch() > 4.0, "mean {}", stats.mean_batch());
        drop(engine.shutdown());
    }

    #[test]
    fn expired_deadline_answers_timed_out_without_executing() {
        let g = gate();
        let engine = ServeEngine::new(vec![GateDict::boxed(&g)], EngineConfig::default());
        let client = engine.client();
        let parker = park_worker(&client);

        let doomed = client
            .submit_with_deadline(Op::Insert(7, vec![1]), Duration::from_millis(1))
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        open(&g);
        assert!(parker.wait().is_ok());
        assert_eq!(doomed.wait(), Err(ServeError::TimedOut));

        // The insert was NOT applied — a timed-out request has no effect.
        assert_eq!(client.lookup(7).unwrap(), None);
        assert_eq!(engine.stats().rejected_timedout, 1);
        drop(engine.shutdown());
    }

    #[test]
    fn shutdown_drains_admitted_requests_then_refuses() {
        let g = gate();
        let engine = ServeEngine::new(vec![GateDict::boxed(&g)], EngineConfig::default());
        let client = engine.client();
        let parker = park_worker(&client);
        let admitted: Vec<_> = (0..5)
            .map(|key| client.submit(Op::Insert(key, vec![key])).unwrap())
            .collect();

        let closer = std::thread::spawn(move || engine.shutdown());
        // Wait until the close is visible, then confirm typed refusal.
        let refusal = loop {
            match client.submit(Op::Lookup(999)) {
                Err(e) => break e,
                Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        assert_eq!(refusal, ServeError::ShuttingDown);

        open(&g);
        let shards = closer.join().unwrap();
        assert!(parker.wait().is_ok());
        for p in admitted {
            assert!(p.wait().is_ok(), "admitted before shutdown ⇒ served");
        }
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 5, "all five inserts applied");
    }

    #[test]
    fn routing_spreads_keys_and_is_stable() {
        let g = gate();
        open(&g);
        let engine = ServeEngine::new(
            vec![GateDict::boxed(&g), GateDict::boxed(&g), GateDict::boxed(&g)],
            EngineConfig::default(),
        );
        let client = engine.client();
        for key in 0..300 {
            client.insert(key, &[key]).unwrap();
        }
        let shards = engine.shutdown();
        let sizes: Vec<usize> = shards.iter().map(|d| d.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 300);
        for (i, &n) in sizes.iter().enumerate() {
            assert!(n > 50, "shard {i} got {n} of 300 keys — routing is skewed");
        }
    }

    /// A mixed run with rejections and the cache on: every family renders,
    /// and every exported `serve_*` counter is the number
    /// [`ServeEngine::stats`] reports — they are the same cells.
    #[test]
    fn metrics_registry_sees_serving_families() {
        let g = gate();
        let registry = Arc::new(MetricsRegistry::new());
        let engine = ServeEngine::with_metrics(
            vec![GateDict::boxed(&g)],
            EngineConfig::default()
                .with_queue_bound(2)
                .with_cache(pdm_cache::CacheConfig::default()),
            Some(Arc::clone(&registry)),
        );
        let client = engine.client();
        // Behind a parked worker: one request left to expire, one to fill
        // the queue, two refused.
        let parker = park_worker(&client);
        let doomed = client
            .submit_with_deadline(Op::Insert(9, vec![9]), Duration::from_millis(1))
            .unwrap();
        let queued = client.submit(Op::Insert(1, vec![10])).unwrap();
        for key in 2..4 {
            assert!(matches!(
                client.submit(Op::Lookup(key)),
                Err(ServeError::Overloaded { .. })
            ));
        }
        std::thread::sleep(Duration::from_millis(30));
        open(&g);
        assert!(parker.wait().is_ok());
        assert_eq!(doomed.wait(), Err(ServeError::TimedOut));
        assert_eq!(queued.wait(), Ok(Reply::Inserted));
        assert_eq!(
            client.insert(1, &[11]),
            Err(ServeError::Dict(DictError::DuplicateKey(1)))
        );
        assert_eq!(client.lookup(1).unwrap(), Some(vec![10]));
        assert_eq!(client.lookup(1).unwrap(), Some(vec![10]), "from the cache");
        assert!(client.delete(1).unwrap());
        assert_eq!(client.lookup(1).unwrap(), None);

        let stats = engine.stats();
        drop(engine.shutdown());
        let snap = registry.snapshot();
        let text = snap.to_prometheus();
        for family in [
            SERVE_OPS_TOTAL,
            SERVE_BATCH_KEYS,
            SERVE_LATENCY_US,
            SERVE_ROUNDS_TOTAL,
            SERVE_QUEUE_DEPTH,
        ] {
            assert!(text.contains(family), "{family} missing from export");
        }
        let exported = |name: &str, labels: &[(&str, &str)]| snap.counter_sum(name, labels).unwrap_or(0);
        let cache_event =
            |event| exported(pdm_cache::CACHE_EVENTS_TOTAL, &[("dict", "serve"), ("event", event)]);
        let seen = EngineStats {
            acked: exported(SERVE_OPS_TOTAL, &[("outcome", "ok")]),
            dict_errors: exported(SERVE_OPS_TOTAL, &[("outcome", "err")]),
            rejected_overloaded: exported(SERVE_REJECTED_TOTAL, &[("reason", "overloaded")]),
            rejected_timedout: exported(SERVE_REJECTED_TOTAL, &[("reason", "timedout")]),
            rejected_shutdown: exported(SERVE_REJECTED_TOTAL, &[("reason", "shutdown")]),
            disconnected: exported(SERVE_DISCONNECTED_TOTAL, &[]),
            exec_calls: exported(SERVE_ROUNDS_TOTAL, &[]),
            cache_hits: cache_event("hit"),
            cache_negative_hits: cache_event("negative_hit"),
            // No family of their own.
            submitted: stats.submitted,
            exec_ops: stats.exec_ops,
            parallel_ios: stats.parallel_ios,
        };
        assert_eq!(seen, stats);
        assert_eq!(
            (stats.acked, stats.dict_errors, stats.rejected_overloaded, stats.rejected_timedout),
            (6, 1, 2, 1)
        );
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.submitted, stats.acked + stats.dict_errors + stats.rejected_timedout);
    }

    #[test]
    fn dict_errors_pass_through_typed() {
        let g = gate();
        open(&g);
        let engine = ServeEngine::new(vec![GateDict::boxed(&g)], EngineConfig::default());
        let client = engine.client();
        client.insert(5, &[1]).unwrap();
        assert_eq!(
            client.insert(5, &[2]),
            Err(ServeError::Dict(DictError::DuplicateKey(5)))
        );
        assert_eq!(engine.stats().dict_errors, 1);
        drop(engine.shutdown());
    }

    /// A shard whose `insert_batch` answers no entry: the insert is
    /// answered typed and counted as a dictionary error, and the worker
    /// lives on to serve the next request.
    #[test]
    fn a_batch_call_answering_short_is_a_typed_error_not_a_dead_worker() {
        struct Mute;
        impl Dict for Mute {
            fn kind(&self) -> &'static str {
                "mute"
            }
            fn len(&self) -> usize {
                0
            }
            fn capacity(&self) -> usize {
                usize::MAX
            }
            fn lookup(&mut self, _key: u64) -> LookupOutcome {
                LookupOutcome::new(None, pdm::OpCost::default())
            }
            fn insert(&mut self, _key: u64, _satellite: &[Word]) -> Result<pdm::OpCost, DictError> {
                Ok(pdm::OpCost::default())
            }
            fn delete(&mut self, _key: u64) -> Result<(bool, pdm::OpCost), DictError> {
                Ok((false, pdm::OpCost::default()))
            }
            fn insert_batch(&mut self, _entries: &[(u64, Vec<Word>)]) -> (Vec<Result<(), DictError>>, pdm::OpCost) {
                (Vec::new(), pdm::OpCost::default())
            }
            fn set_metrics(&mut self, _registry: Option<Arc<MetricsRegistry>>) {}
        }
        let engine = ServeEngine::new(vec![Box::new(Mute)], EngineConfig::default());
        let client = engine.client();
        assert!(matches!(client.insert(1, &[1]), Err(ServeError::Protocol(_))));
        assert_eq!(client.lookup(1), Ok(None));
        let stats = engine.stats();
        assert_eq!((stats.dict_errors, stats.acked), (1, 1));
        drop(engine.shutdown());
    }

    /// `durable_acks` with a lone synchronous client: every window finds
    /// the queue idle, so the barrier joins immediately — the replies a
    /// sync client is blocked on are never parked behind a drain that
    /// can only progress once it gets them (the deadlock the
    /// queue-depth check exists to prevent).
    #[test]
    fn durable_acks_sync_client_never_deadlocks() {
        let params = DictParams::new(64, 1 << 40, 1)
            .with_degree(16)
            .with_epsilon(1.0)
            .with_seed(12);
        let dict = Dictionary::new(params, 128).unwrap();
        let engine = ServeEngine::new(
            vec![Box::new(dict) as Box<dyn Dict + Send>],
            EngineConfig::default().with_durable_acks(true),
        );
        let client = engine.client();
        for key in 0..8u64 {
            assert_eq!(client.insert(key, &[key]), Ok(()));
        }
        assert_eq!(client.lookup(3), Ok(Some(vec![3])));
        assert_eq!(client.delete(3), Ok(true));
        assert_eq!(client.lookup(3), Ok(None));
        let stats = engine.stats();
        assert_eq!(stats.acked, 11);
        drop(engine.shutdown());
    }

    /// `durable_acks` under concurrent load: windows whose barrier is
    /// parked while the next window executes must still release exactly
    /// one reply per request, and a window parked when the queue closes
    /// settles on the graceful-exit path.
    #[test]
    fn durable_acks_pipelined_windows_ack_everything() {
        let params = DictParams::new(256, 1 << 40, 1)
            .with_degree(16)
            .with_epsilon(1.0)
            .with_seed(13);
        let dict = Dictionary::new(params, 128).unwrap();
        let engine = ServeEngine::new(
            vec![Box::new(dict) as Box<dyn Dict + Send>],
            EngineConfig::default()
                .with_durable_acks(true)
                .with_max_coalesce(4)
                .with_queue_bound(1024)
                .with_deadline(Duration::from_secs(60)),
        );
        let client = engine.client();
        // Burst-submit so the worker routinely finds the queue non-empty
        // at barrier time and parks windows behind in-flight syncs.
        let mut pendings = Vec::new();
        for key in 0..120u64 {
            pendings.push(client.submit(Op::Insert(key, vec![key])).expect("admit"));
        }
        for p in pendings {
            assert_eq!(p.wait(), Ok(Reply::Inserted));
        }
        let mut dicts = engine.shutdown();
        assert_eq!(dicts.len(), 1);
        let shard = &mut dicts[0];
        assert_eq!(shard.len(), 120);
        for key in 0..120u64 {
            assert_eq!(shard.lookup(key).satellite, Some(vec![key]));
        }
    }

    /// A crash point firing mid-service must disconnect (not ack) the
    /// window and everything behind it — the engine-level half of the
    /// "every acked write is durable" contract.
    #[test]
    fn crash_point_disconnects_instead_of_acking() {
        let params = DictParams::new(64, 1 << 40, 1)
            .with_degree(16)
            .with_epsilon(1.0)
            .with_seed(11);
        let mut dict = Dictionary::new(params, 128).unwrap();
        dict.disks_mut()
            .unwrap()
            .set_fault_plan(pdm::FaultPlan::new().crash_after(0));
        let engine = ServeEngine::new(
            vec![Box::new(dict) as Box<dyn Dict + Send>],
            EngineConfig::default(),
        );
        let client = engine.client();

        // The very first physical write hits the crash point.
        assert_eq!(client.insert(1, &[1]), Err(ServeError::Disconnected));
        assert!(engine.crash_observed());
        // The shard stopped serving; later submissions are refused as
        // disconnected too, never silently dropped or falsely acked.
        assert_eq!(client.lookup(1), Err(ServeError::Disconnected));
        let stats = engine.stats();
        assert!(stats.disconnected >= 2, "got {}", stats.disconnected);
        assert_eq!(stats.acked, 0);
        drop(engine.shutdown());
    }
}

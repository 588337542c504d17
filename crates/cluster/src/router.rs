//! The client-side cluster router: quorum writes, failover reads, the
//! owner of every node's trust, and the journaled re-replication driver.
//!
//! ## Durability invariant
//!
//! A write is acknowledged iff it was applied on **every replica the
//! router currently trusts** (map-up and not suspect) — at least
//! [`RouterConfig::write_quorum`] of them. Each node's trust is one
//! state, advanced only by [`crate::trust::step`]: the moment a write
//! proceeds without a routed replica, or the node's failure or missed-probe
//! streak reaches its limit, or [`fail_node`](ClusterRouter::fail_node)
//! names it, the node is *suspect* — it may have missed an acknowledged
//! write, so it gets no traffic at all and is no re-replication source,
//! whatever answers at its address. The only edge back is the re-image of
//! [`restore_node`](ClusterRouter::restore_node). Together: every
//! acknowledged write lives on every replica that can ever serve a read,
//! so killing any single node (with `k ≥ 2`) loses nothing acknowledged.
//!
//! ## Epoch discipline
//!
//! Requests carry the router's map epoch; a node that has seen a newer
//! epoch refuses with [`ServeError::StaleEpoch`], and the router
//! re-reads its map and retries. Combined with the per-shard fence
//! (ops share it, migration takes it exclusively), a write either
//! lands before a shard's image is frozen for re-replication (and so
//! travels inside the image) or routes under the new epoch to the new
//! replica set — never in between. This router assumes it is the only
//! epoch driver of its cluster.

use crate::health::{dial, RetryPolicy};
use crate::map::{ClusterConfig, ClusterMap, MapDelta};
use crate::trust::{Cause, Event, Transition, Trust, TrustCell};
use pdm::metrics::{Counter, MetricsRegistry};
use pdm::Word;
use pdm_cache::{CacheAnswer, CacheConfig, CacheCounters, HotCache};
use pdm_server::protocol::{WireRequest, WireResponse};
use pdm_server::{Op, Reply, ServeError, TcpClient};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Duration;

/// Upper bound on threads driving independent shard re-replications in
/// parallel (see [`ClusterRouter::fail_node`]): every move in a map
/// delta touches a distinct shard, and the per-shard fences already
/// serialize each migration against that shard's operations, so the
/// moves are independent — the pool just bounds connection fan-out.
const MIGRATION_THREADS: usize = 4;

/// Router tuning.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Retry schedule per node per request.
    pub retry: RetryPolicy,
    /// Consecutive failed requests (connects included) that suspect a node.
    pub breaker_threshold: u32,
    /// Bound on each TCP connection attempt.
    pub connect_timeout: Duration,
    /// Per-request response deadline (a dead peer surfaces as
    /// [`ServeError::TimedOut`], never a hang).
    pub request_deadline: Duration,
    /// Minimum trusted-replica acks for a write to be acknowledged.
    pub write_quorum: usize,
    /// Optional client-side read-through cache (`None` disables it).
    ///
    /// Hits skip the network entirely. Soundness rests on three rules:
    /// entries are tagged with the map epoch they were filled under and
    /// the **whole cache is dropped the moment the router observes a
    /// newer epoch** (a failover or restore changed who holds the data,
    /// so nothing cached before the transition may be served after it);
    /// every *attempted* write — acked or refused — invalidates its
    /// key before the caller sees the outcome; and a routed read may
    /// fill the cache only if **no invalidation happened while it was
    /// on the wire** (a monotonic invalidation generation is
    /// snapshotted at probe time and re-checked at fill time, so a
    /// read that raced a concurrent write can never re-install the
    /// pre-write value it fetched). Misses are never cached here: the
    /// wire reply carries no degraded-read provenance, so the router
    /// has no absence certificate (see `pdm-cache`).
    pub read_cache: Option<CacheConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            connect_timeout: Duration::from_millis(500),
            request_deadline: Duration::from_secs(5),
            write_quorum: 1,
            read_cache: None,
        }
    }
}

/// Cluster-level operation errors. Transport-level details stay inside
/// (the node's trust consumed them); these are the outcomes a caller acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Fewer trusted replicas acked than the write quorum requires.
    /// The write is **not** acknowledged (it may be partially applied;
    /// retrying is safe — a replica that did apply the insert answers
    /// the retry with a duplicate-key refusal, which the router counts
    /// as that replica's ack).
    NoQuorum {
        /// The shard addressed.
        shard: u32,
        /// Trusted replicas that acked.
        acked: usize,
        /// The configured quorum.
        needed: usize,
    },
    /// No trusted replica could serve the read.
    AllReplicasDown {
        /// The shard addressed.
        shard: u32,
    },
    /// A server-side typed error (dictionary errors pass through here).
    Serve(ServeError),
    /// Re-replication failed (source export or target install).
    Replication {
        /// The shard being re-replicated.
        shard: u32,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoQuorum {
                shard,
                acked,
                needed,
            } => write!(
                f,
                "shard {shard}: {acked} trusted replicas acked, quorum needs {needed}"
            ),
            ClusterError::AllReplicasDown { shard } => {
                write!(f, "shard {shard}: no trusted replica reachable")
            }
            ClusterError::Serve(e) => write!(f, "server error: {e}"),
            ClusterError::Replication { shard, detail } => {
                write!(f, "re-replication of shard {shard} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for ClusterError {
    fn from(e: ServeError) -> Self {
        ClusterError::Serve(e)
    }
}

/// Counters the chaos drills and benches read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Writes acknowledged under the durability invariant.
    pub writes_acked: u64,
    /// Writes refused (no quorum or typed server error).
    pub writes_refused: u64,
    /// Reads answered by the primary replica.
    pub reads_primary: u64,
    /// Reads answered by a non-primary replica after failover.
    pub reads_failover: u64,
    /// Reads answered from the client-side read cache (no network).
    pub reads_cached: u64,
    /// Transport-level failures absorbed (each failed connect or request).
    pub transport_failures: u64,
    /// `Trusted → Suspect` transitions, whatever the [`Cause`]: the sum
    /// of the `cluster_router_suspect_transitions{cause}` rows.
    pub suspects_latched: u64,
    /// Of them, the [`Cause::Probe`] row: raised **proactively** by the
    /// heartbeater, before any client write failed into the node.
    pub heartbeat_detections: u64,
    /// Worst heartbeat detection latency observed, in milliseconds:
    /// first missed probe → suspect. Zero until a detection fires.
    pub detection_latency_ms_max: u64,
}

/// The cells behind [`RouterStats`]: the only place an event is counted.
/// The counters are the router's own; [`ClusterRouter::set_metrics`] has a
/// registry adopt them, so the export reads the same atomics.
#[derive(Default)]
struct StatCells {
    writes_acked: Arc<Counter>,
    writes_refused: Arc<Counter>,
    reads_primary: Arc<Counter>,
    reads_failover: Arc<Counter>,
    reads_cached: Arc<Counter>,
    transport_failures: Arc<Counter>,
    /// `Trusted → Suspect` transitions, one cell per [`Cause`].
    suspected: [Arc<Counter>; Cause::ALL.len()],
    /// A maximum, not a count: in no registry.
    detection_latency_ms_max: AtomicU64,
}

/// What the router holds per node: its trust, read lock-free, and the
/// dialing state behind a lock of its own.
struct NodeSlot {
    trust: TrustCell,
    link: Mutex<Link>,
}

struct Link {
    addr: SocketAddr,
    conn: Option<TcpClient>,
}

/// The report of one [`fail_node`](ClusterRouter::fail_node) /
/// [`restore_node`](ClusterRouter::restore_node) transition.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// The map transition driven.
    pub delta: MapDelta,
    /// Shards successfully re-replicated to their new replica.
    pub replicated: Vec<u32>,
    /// Shards whose re-replication failed, with details.
    pub failed: Vec<(u32, String)>,
}

/// The client-side read cache plus the map epoch its entries were
/// filled under (see [`RouterConfig::read_cache`] for the soundness
/// rules).
struct ReadCache {
    epoch: u64,
    /// Monotonic invalidation generation: bumped by every attempted
    /// write's invalidation and every epoch clear. A cache-missing
    /// lookup snapshots it before routing the read; the fill is refused
    /// if it moved meanwhile, because the fetched value may predate a
    /// write that already invalidated the key.
    inval_gen: u64,
    cache: HotCache,
}

/// The outcome of a read-cache probe: a hit to serve without touching
/// the network, or a miss carrying the invalidation-generation snapshot
/// the routed read must present back to
/// [`fill_cached`](ClusterRouter::fill_cached).
enum CacheProbe {
    /// Cached answer (`Some(sat)` present, `None` absent).
    Hit(Option<Vec<Word>>),
    /// Not cached; `gen` gates the eventual fill.
    Miss { gen: u64 },
}

/// The client-side router over a set of cluster nodes.
pub struct ClusterRouter {
    cluster: ClusterConfig,
    cfg: RouterConfig,
    map: Mutex<ClusterMap>,
    read_cache: Option<Mutex<ReadCache>>,
    nodes: Vec<NodeSlot>,
    /// Per-shard fence: ops take it shared, migration exclusively.
    fences: Vec<RwLock<()>>,
    /// Serializes map transitions (fail/restore/repair).
    admin: Mutex<()>,
    stats: StatCells,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ClusterRouter {
    /// A router over nodes at `addrs` with capacity `weights`
    /// (`weights[i]` belongs to `addrs[i]`), building the epoch-0 map.
    ///
    /// # Panics
    /// Panics on the [`ClusterMap::build`] parameter violations, on
    /// `addrs.len() != weights.len()`, or a zero write quorum.
    #[must_use]
    pub fn new(
        cluster: ClusterConfig,
        addrs: &[SocketAddr],
        weights: &[u32],
        cfg: RouterConfig,
    ) -> Self {
        assert_eq!(addrs.len(), weights.len());
        assert!(cfg.write_quorum >= 1, "write quorum must be at least 1");
        let map = ClusterMap::build(cluster, weights);
        let nodes = addrs
            .iter()
            .map(|&addr| NodeSlot {
                trust: TrustCell::new(),
                link: Mutex::new(Link { addr, conn: None }),
            })
            .collect();
        let fences = (0..cluster.shards).map(|_| RwLock::new(())).collect();
        let read_cache = cfg.read_cache.map(|c| {
            Mutex::new(ReadCache {
                epoch: map.epoch(),
                inval_gen: 0,
                cache: HotCache::new(c),
            })
        });
        ClusterRouter {
            cluster,
            cfg,
            map: Mutex::new(map),
            read_cache,
            nodes,
            fences,
            admin: Mutex::new(()),
            stats: StatCells::default(),
        }
    }

    /// Export this router's counters through `registry` (names prefixed
    /// `cluster_router_`): the registry adopts the cells
    /// [`stats`](Self::stats) reads, so a Prometheus / JSON snapshot agrees
    /// with it whenever this is called — counts made before included.
    pub fn set_metrics(&self, registry: &MetricsRegistry) {
        let s = &self.stats;
        registry.adopt_counter("cluster_router_writes_acked", &[], &s.writes_acked);
        registry.adopt_counter("cluster_router_writes_refused", &[], &s.writes_refused);
        registry.adopt_counter("cluster_router_reads", &[("path", "primary")], &s.reads_primary);
        registry.adopt_counter("cluster_router_reads", &[("path", "failover")], &s.reads_failover);
        registry.adopt_counter("cluster_router_reads", &[("path", "cached")], &s.reads_cached);
        registry.adopt_counter("cluster_router_transport_failures", &[], &s.transport_failures);
        for ((_, cause), cell) in Cause::ALL.iter().zip(&s.suspected) {
            registry.adopt_counter("cluster_router_suspect_transitions", &[("cause", cause)], cell);
        }
        // The `probe` row under the name dashboards already read.
        registry.adopt_counter("cluster_router_heartbeat_detections", &[], &s.suspected[Cause::Probe as usize]);
    }

    /// The shared cluster config.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The router's current map epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        lock(&self.map).epoch()
    }

    /// A snapshot of the current cluster map.
    #[must_use]
    pub fn map_snapshot(&self) -> ClusterMap {
        lock(&self.map).clone()
    }

    /// Whether `node` is suspect: it serves no reads and counts toward no
    /// write quorum until [`restore_node`](Self::restore_node) re-images it.
    #[must_use]
    pub fn node_suspect(&self, node: usize) -> bool {
        matches!(self.nodes[node].trust.load(), Trust::Suspect { .. })
    }

    /// Point `node` at a new address (a restarted process rarely comes
    /// back on the same port). Drops any cached connection. Callers
    /// restoring a node should prefer
    /// [`restore_node`](Self::restore_node), which folds the re-address
    /// in.
    pub fn set_node_addr(&self, node: usize, addr: SocketAddr) {
        let mut link = lock(&self.nodes[node].link);
        link.addr = addr;
        link.conn = None;
    }

    /// The address the router currently dials for `node`.
    #[must_use]
    pub fn node_addr(&self, node: usize) -> SocketAddr {
        lock(&self.nodes[node].link).addr
    }

    /// Number of nodes this router was built over.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            writes_acked: self.stats.writes_acked.get(),
            writes_refused: self.stats.writes_refused.get(),
            reads_primary: self.stats.reads_primary.get(),
            reads_failover: self.stats.reads_failover.get(),
            reads_cached: self.stats.reads_cached.get(),
            transport_failures: self.stats.transport_failures.get(),
            suspects_latched: self.stats.suspected.iter().map(|cell| cell.get()).sum(),
            heartbeat_detections: self.stats.suspected[Cause::Probe as usize].get(),
            detection_latency_ms_max: self.stats.detection_latency_ms_max.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------- ops

    /// Insert `key` with satellite words; acknowledged under the
    /// durability invariant.
    ///
    /// Inserts are **idempotent**: a replica's duplicate-key refusal
    /// certifies the key is already durably present there and counts as
    /// that replica's ack, so retrying after a [`ClusterError::NoQuorum`]
    /// (or re-inserting an existing key) acknowledges cleanly. The
    /// stored satellite is whatever the first successful insert wrote —
    /// a duplicate ack does not overwrite it.
    ///
    /// # Errors
    /// [`ClusterError::NoQuorum`] when too few trusted replicas acked;
    /// [`ClusterError::Serve`] for typed server refusals.
    pub fn insert(&self, key: u64, satellite: &[Word]) -> Result<(), ClusterError> {
        match self.write(key, Op::Insert(key, satellite.to_vec()))? {
            Reply::Inserted => Ok(()),
            other => Err(ClusterError::Serve(ServeError::Protocol(format!(
                "insert answered {other:?}"
            )))),
        }
    }

    /// Delete `key`; returns whether it had been present. Acknowledged
    /// under the durability invariant.
    ///
    /// # Errors
    /// As [`insert`](Self::insert).
    pub fn delete(&self, key: u64) -> Result<bool, ClusterError> {
        match self.write(key, Op::Delete(key))? {
            Reply::Deleted(was) => Ok(was),
            other => Err(ClusterError::Serve(ServeError::Protocol(format!(
                "delete answered {other:?}"
            )))),
        }
    }

    /// Look up `key`: primary replica first, automatic failover to the
    /// remaining replicas (degraded but exact — every trusted replica
    /// holds every acknowledged write).
    ///
    /// # Errors
    /// [`ClusterError::AllReplicasDown`] when no trusted replica
    /// answers; [`ClusterError::Serve`] for typed server errors.
    pub fn lookup(&self, key: u64) -> Result<Option<Vec<Word>>, ClusterError> {
        let fill_gen = match self.probe_cached(key) {
            CacheProbe::Hit(hit) => {
                self.stats.reads_cached.inc();
                return Ok(hit);
            }
            CacheProbe::Miss { gen } => gen,
        };
        let shard = self.cluster.shard_of(key);
        let fence = self.fences[shard as usize]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let mut refreshes = 0;
        'epoch: loop {
            let (epoch, replicas) = self.route(shard);
            for (i, &node) in replicas.iter().enumerate() {
                let req = WireRequest::ShardOp {
                    shard,
                    epoch,
                    op: Op::Lookup(key),
                };
                match self.request_on_node(node, &req) {
                    Some(WireResponse::Reply(Reply::Lookup(sat))) => {
                        if i == 0 {
                            self.stats.reads_primary.inc();
                        } else {
                            self.stats.reads_failover.inc();
                        }
                        self.fill_cached(key, sat.as_deref(), epoch, fill_gen);
                        return Ok(sat);
                    }
                    Some(WireResponse::Err(ServeError::StaleEpoch { .. })) if refreshes < 3 => {
                        refreshes += 1;
                        continue 'epoch;
                    }
                    // No response, or a replica the node does not (yet)
                    // host: fail over.
                    None | Some(WireResponse::Err(ServeError::WrongShard { .. })) => {}
                    Some(WireResponse::Err(e)) => return Err(ClusterError::Serve(e)),
                    Some(other) => {
                        return Err(ClusterError::Serve(ServeError::Protocol(format!(
                            "lookup answered {other:?}"
                        ))))
                    }
                }
            }
            drop(fence);
            return Err(ClusterError::AllReplicasDown { shard });
        }
    }

    /// Consult the read cache. A hit is served without touching the
    /// network; a miss carries the invalidation-generation snapshot
    /// gating the eventual fill. Observing a map epoch newer than the
    /// cache's tag drops every entry first — a failover or restore
    /// changed who holds the data, so nothing cached before the
    /// transition survives it. With the cache disabled the probe is a
    /// plain miss (the fill is a no-op, so the token is moot).
    fn probe_cached(&self, key: u64) -> CacheProbe {
        let Some(rc) = &self.read_cache else {
            return CacheProbe::Miss { gen: 0 };
        };
        let current = self.epoch();
        let mut rc = lock(rc);
        if rc.epoch != current {
            rc.cache.clear();
            rc.epoch = current;
            rc.inval_gen += 1;
        }
        match rc.cache.probe(key) {
            CacheAnswer::Hit(sat) => CacheProbe::Hit(Some(sat)),
            CacheAnswer::NegativeHit => CacheProbe::Hit(None),
            CacheAnswer::Miss => CacheProbe::Miss { gen: rc.inval_gen },
        }
    }

    /// Offer a routed lookup's answer to the read cache, tagged with the
    /// `epoch` it was routed under and the invalidation generation `gen`
    /// its probe snapshotted. Refused unless that epoch is still the one
    /// the cache is synced to (epochs are monotone, so a stale tag can
    /// never come back) **and** no invalidation ran since the probe — a
    /// concurrent write may have applied on the replicas and invalidated
    /// the key while this read was on the wire, in which case the value
    /// it fetched predates the write and caching it would serve the
    /// stale answer until the next write or epoch bump. Misses pass
    /// `certified_absent = false`: the wire reply carries no provenance,
    /// so absence is never cached at this tier.
    fn fill_cached(&self, key: u64, satellite: Option<&[Word]>, epoch: u64, gen: u64) {
        let Some(rc) = &self.read_cache else { return };
        if self.epoch() != epoch {
            return;
        }
        let mut rc = lock(rc);
        if rc.epoch == epoch && rc.inval_gen == gen {
            rc.cache.fill(key, satellite, false);
        }
    }

    /// Drop whatever the read cache holds for `key` — called for every
    /// *attempted* write before its outcome reaches the caller (a
    /// refused write may still have applied on some replica). Bumps the
    /// invalidation generation so every read that left for the network
    /// before this point is refused its fill (see
    /// [`fill_cached`](Self::fill_cached)) — the bump is unconditional
    /// because the attempted write, not the entry's residency, is what
    /// makes in-flight reads untrustworthy.
    fn invalidate_cached(&self, key: u64) {
        if let Some(rc) = &self.read_cache {
            let mut rc = lock(rc);
            rc.inval_gen += 1;
            rc.cache.invalidate(key);
        }
    }

    /// Read-cache counter snapshot, `None` when the cache is disabled.
    #[must_use]
    pub fn read_cache_counters(&self) -> Option<CacheCounters> {
        self.read_cache.as_ref().map(|rc| lock(rc).cache.counters())
    }

    /// The mutating-op common path (see the module docs for the
    /// durability invariant): route the op, then drop the key from the
    /// read cache before the caller sees any outcome — acked or refused,
    /// the write may have physically applied somewhere.
    fn write(&self, key: u64, op: Op) -> Result<Reply, ClusterError> {
        let result = self.write_routed(key, op);
        self.invalidate_cached(key);
        result
    }

    fn write_routed(&self, key: u64, op: Op) -> Result<Reply, ClusterError> {
        let shard = self.cluster.shard_of(key);
        let fence = self.fences[shard as usize]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let mut refreshes = 0;
        let reply = 'epoch: loop {
            let (epoch, replicas) = self.route(shard);
            let mut acked = 0usize;
            let mut reply: Option<Reply> = None;
            for &node in &replicas {
                let req = WireRequest::ShardOp {
                    shard,
                    epoch,
                    op: op.clone(),
                };
                match self.request_on_node(node, &req) {
                    Some(WireResponse::Reply(r)) => {
                        acked += 1;
                        reply.get_or_insert(r);
                    }
                    // A duplicate-key refusal certifies the key is
                    // already durably present on this replica — the
                    // ack of an idempotent insert (a caller retry
                    // after NoQuorum, a transport or stale-epoch
                    // retry, or a plain re-insert).
                    Some(WireResponse::Err(ServeError::Dict(pdm_dict::DictError::DuplicateKey(_))))
                        if matches!(op, Op::Insert(..)) =>
                    {
                        acked += 1;
                        reply.get_or_insert(Reply::Inserted);
                    }
                    Some(WireResponse::Err(ServeError::StaleEpoch { .. })) if refreshes < 3 => {
                        refreshes += 1;
                        continue 'epoch;
                    }
                    // A replica the node does not (yet) host — the
                    // re-replication window. Not an ack, but not
                    // fatal either: the shard fence guarantees the
                    // pending image (frozen only after this write
                    // applied on the survivors) carries the write
                    // to it, so the quorum check decides.
                    Some(WireResponse::Err(ServeError::WrongShard { .. })) => {}
                    Some(WireResponse::Err(e)) => {
                        self.stats.writes_refused.inc();
                        return Err(ClusterError::Serve(e));
                    }
                    Some(other) => {
                        self.stats.writes_refused.inc();
                        return Err(ClusterError::Serve(ServeError::Protocol(format!(
                            "write answered {other:?}"
                        ))));
                    }
                    // The write proceeds without this routed replica: it
                    // is missing acknowledged writes from here on, so it
                    // leaves the read/ack sets until re-imaged (the
                    // durability invariant).
                    None => {
                        self.observe(node, Event::WriteSkipped);
                    }
                }
            }
            if acked < self.cfg.write_quorum {
                self.stats.writes_refused.inc();
                drop(fence);
                return Err(ClusterError::NoQuorum {
                    shard,
                    acked,
                    needed: self.cfg.write_quorum,
                });
            }
            break reply.expect("acked >= 1 implies a reply");
        };
        self.stats.writes_acked.inc();
        Ok(reply)
    }

    /// Map snapshot for one shard: (epoch, trusted replicas — map-up
    /// and not suspect — in failover order). Trust is read lock-free, so
    /// nothing but the map lock is held here.
    fn route(&self, shard: u32) -> (u64, Vec<usize>) {
        let map = lock(&self.map);
        let trusted = |&n: &usize| map.nodes()[n].up && !self.node_suspect(n);
        (map.epoch(), map.replicas(shard).iter().copied().filter(trusted).collect())
    }

    /// The map-up nodes that are suspect, or (`suspect = false`) trusted.
    fn up_nodes(&self, suspect: bool) -> Vec<usize> {
        let map = lock(&self.map);
        (0..self.nodes.len()).filter(|&n| map.nodes()[n].up && self.node_suspect(n) == suspect).collect()
    }

    /// Feed `event` to `node`'s trust — the router's every trust change —
    /// and count the `Trusted → Suspect` edge. Whether this call took it.
    fn observe(&self, node: usize, event: Event) -> bool {
        match self.nodes[node].trust.apply(event) {
            Some(Transition::Suspected(cause)) => {
                self.stats.suspected[cause as usize].inc();
                true
            }
            Some(Transition::Reimaged) | None => false,
        }
    }

    /// Report one heartbeat probe of `node` (see `crate::heartbeat`):
    /// answered, or (`missed_for`) the latest of a streak of misses that
    /// began that long ago. `suspect_after` consecutive misses suspect the
    /// node — *before* any client write has to fail into it. Returns whether
    /// this report did: `missed_for` is then the detection's latency.
    pub fn report_probe(&self, node: usize, suspect_after: u32, missed_for: Option<Duration>) -> bool {
        let event = missed_for.map_or(Event::ProbeOk, |_| Event::ProbeMissed(suspect_after));
        let detected = self.observe(node, event);
        if let (true, Some(streak)) = (detected, missed_for) {
            let ms = u64::try_from(streak.as_millis()).unwrap_or(u64::MAX);
            self.stats.detection_latency_ms_max.fetch_max(ms, Ordering::Relaxed);
        }
        detected
    }

    /// One request against one node with retries, trust accounting, and
    /// lazy (re)connection: the response that crossed the wire (possibly a
    /// typed server error), or `None` — the node is suspect, which gets no
    /// attempt at all, or its retries are exhausted.
    ///
    /// The node's link lock is held only to take or return the cached
    /// connection — never across connects, request deadlines, or backoff
    /// sleeps — so a slow node delays only its own request series, not
    /// every concurrent router op that targets it.
    fn request_on_node(&self, node: usize, req: &WireRequest) -> Option<WireResponse> {
        for attempt in 0..self.cfg.retry.attempts {
            if attempt > 0 {
                std::thread::sleep(self.cfg.retry.delay(attempt));
            }
            if self.node_suspect(node) {
                return None;
            }
            // Lease the cached connection under a brief lock.
            let (addr, leased) = {
                let mut link = lock(&self.nodes[node].link);
                (link.addr, link.conn.take())
            };
            let conn = leased
                .filter(|c| !c.is_poisoned())
                .or_else(|| dial(addr, self.cfg.connect_timeout, self.cfg.request_deadline));
            // Transport-level failure — no connection, or a request that
            // timed out (→ poisoned) or broke the stream: the connection is
            // dropped and the next attempt reconnects.
            let Some((conn, resp)) = conn.and_then(|mut c| c.request(req).ok().map(|resp| (c, resp))) else {
                self.note_transport_failure(node);
                continue;
            };
            self.observe(node, Event::RequestOk);
            // Return the lease — unless the node was re-addressed meanwhile
            // or a concurrent series already parked a connection.
            let mut link = lock(&self.nodes[node].link);
            if link.addr == addr && link.conn.is_none() {
                link.conn = Some(conn);
            }
            return Some(resp);
        }
        None
    }

    /// A node that crosses the failure threshold here may already have
    /// missed writes it was routed for: suspect until re-imaged.
    fn note_transport_failure(&self, node: usize) {
        self.observe(node, Event::RequestFailed(self.cfg.breaker_threshold));
        self.stats.transport_failures.inc();
    }

    // ------------------------------------------------- map transitions

    /// Declare `node` dead: suspect it, bump the map epoch
    /// (moving only the dead node's replicas — the Lemma 3 bounded
    /// movement), broadcast the new epoch, and re-replicate every moved
    /// shard from its surviving primary onto its new replica.
    ///
    /// # Errors
    /// Never fails as a whole; per-shard re-replication failures are
    /// reported in [`ReplicationReport::failed`].
    #[allow(clippy::missing_panics_doc)] // map invariants, not runtime conditions
    pub fn fail_node(&self, node: usize) -> Result<ReplicationReport, ClusterError> {
        let _admin = lock(&self.admin);
        // Suspect before map-down: no request may route to the node
        // between the two.
        self.observe(node, Event::AdminFail);
        lock(&self.nodes[node].link).conn = None;
        let delta = lock(&self.map).mark_down(node);
        self.broadcast_epoch(delta.epoch);
        self.drive_moves(delta)
    }

    /// Bring a restarted (empty) `node` back at `addr`: re-point the
    /// router at the reborn process (folding in
    /// [`set_node_addr`](Self::set_node_addr), which callers used to
    /// have to remember separately), bump the epoch, hand the node back
    /// only its fair share of replica slots, re-replicate them onto it
    /// from their current primaries, and re-trust it with clean streaks.
    ///
    /// Re-trusting before the images install is safe: until a
    /// shard's image lands, the node answers its operations with
    /// `WrongShard`, which reads fail over past and writes skip — and
    /// the shard fence guarantees any write skipped this way is frozen
    /// into the image that follows it.
    ///
    /// # Errors
    /// As [`fail_node`](Self::fail_node).
    pub fn restore_node(
        &self,
        node: usize,
        addr: SocketAddr,
    ) -> Result<ReplicationReport, ClusterError> {
        self.set_node_addr(node, addr);
        self.restore_node_in_place(node)
    }

    /// [`restore_node`](Self::restore_node) for a node that came back
    /// on its **existing** address (a healed partition rather than a
    /// restarted process).
    ///
    /// # Errors
    /// As [`fail_node`](Self::fail_node).
    #[allow(clippy::missing_panics_doc)]
    pub fn restore_node_in_place(&self, node: usize) -> Result<ReplicationReport, ClusterError> {
        let _admin = lock(&self.admin);
        let delta = lock(&self.map).mark_up(node);
        lock(&self.nodes[node].link).conn = None;
        self.observe(node, Event::Reimaged);
        self.broadcast_epoch(delta.epoch);
        self.drive_moves(delta)
    }

    /// Declare dead every map-up suspect — whatever suspected it, however
    /// long ago — and drive the repairs. One report per node declared dead.
    ///
    /// # Errors
    /// Per-shard failures are inside the reports; the call itself does
    /// not fail.
    pub fn repair(&self) -> Result<Vec<ReplicationReport>, ClusterError> {
        self.up_nodes(true).into_iter().map(|n| self.fail_node(n)).collect()
    }

    /// Best-effort epoch broadcast to every up, trusted node (a node that
    /// misses it — a suspect always does — learns the epoch piggybacked
    /// on the next request).
    fn broadcast_epoch(&self, epoch: u64) {
        for node in self.up_nodes(false) {
            let _ = self.request_on_node(node, &WireRequest::EpochSet { epoch });
        }
    }

    /// Drive every move of a map delta. Each move targets a distinct
    /// shard (a delta moves at most one replica per shard) and
    /// [`re_replicate`](Self::re_replicate) runs under that shard's
    /// exclusive fence, so the moves are independent: they run on a
    /// small thread pool ([`MIGRATION_THREADS`]) instead of serially.
    /// The report lists shards in ascending order regardless of
    /// completion order.
    fn drive_moves(&self, delta: MapDelta) -> Result<ReplicationReport, ClusterError> {
        let results: Mutex<Vec<(u32, Result<(), ClusterError>)>> =
            Mutex::new(Vec::with_capacity(delta.moves.len()));
        let next = AtomicUsize::new(0);
        let workers = MIGRATION_THREADS.min(delta.moves.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(mv) = delta.moves.get(i) else { break };
                    let outcome = self.re_replicate(mv.shard, mv.to);
                    lock(&results).push((mv.shard, outcome));
                });
            }
        });
        let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        results.sort_by_key(|&(shard, _)| shard);
        let mut replicated = Vec::new();
        let mut failed = Vec::new();
        for (shard, outcome) in results {
            match outcome {
                Ok(()) => replicated.push(shard),
                Err(e) => failed.push((shard, e.to_string())),
            }
        }
        Ok(ReplicationReport {
            delta,
            replicated,
            failed,
        })
    }

    /// Copy `shard`'s frozen image from its first trusted replica (a
    /// data holder — new replicas are appended behind the survivors,
    /// and a suspect holder may be missing acknowledged writes, so it
    /// is never a source) onto `target`, under the shard's exclusive
    /// fence.
    fn re_replicate(&self, shard: u32, target: usize) -> Result<(), ClusterError> {
        let _fence = self.fences[shard as usize]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let source = {
            let map = lock(&self.map);
            map.replicas(shard)
                .iter()
                .copied()
                .find(|&n| n != target && !self.node_suspect(n))
        };
        let Some(source) = source else {
            return Err(ClusterError::Replication {
                shard,
                detail: "no trusted surviving data holder \
                         (k = 1 cannot re-replicate; suspect replicas are not trusted sources)"
                    .into(),
            });
        };
        let fail = |detail: String| ClusterError::Replication { shard, detail };

        // Pull the frozen image from the source, chunk by chunk.
        let mut image = Vec::new();
        let mut chunk = 0u32;
        loop {
            let req = WireRequest::MigrateExport { shard, chunk };
            let Some(resp) = self.request_on_node(source, &req) else {
                return Err(fail(format!("source node {source} unreachable")));
            };
            match resp {
                WireResponse::ExportChunk {
                    total,
                    chunk: c,
                    bytes,
                } => {
                    if c != chunk {
                        return Err(fail(format!("export answered chunk {c}, wanted {chunk}")));
                    }
                    image.extend_from_slice(&bytes);
                    chunk += 1;
                    if chunk == total {
                        break;
                    }
                }
                WireResponse::Err(e) => return Err(fail(format!("export: {e}"))),
                other => return Err(fail(format!("export answered {other:?}"))),
            }
        }

        // Push it into the target.
        let total = crate::image::chunks_of(image.len());
        for c in 0..total {
            let req = WireRequest::MigrateInstall {
                shard,
                total,
                chunk: c,
                bytes: crate::image::chunk_slice(&image, c).to_vec(),
            };
            let Some(resp) = self.request_on_node(target, &req) else {
                return Err(fail(format!("target node {target} unreachable")));
            };
            match resp {
                WireResponse::InstallOk { installed } => {
                    if (c + 1 == total) != installed {
                        return Err(fail(format!(
                            "install chunk {c}/{total} answered installed={installed}"
                        )));
                    }
                }
                WireResponse::Err(e) => return Err(fail(format!("install: {e}"))),
                other => return Err(fail(format!("install answered {other:?}"))),
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("epoch", &self.epoch())
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Series of `RequestFailed` race a `restore_node_in_place`. Trust is
    /// one word advanced by compare-and-swap, so the re-image falls
    /// somewhere in the failures' sequence and the node ends one of two
    /// ways: suspect again (a second `Trusted → Suspect` edge, by the
    /// request path), or trusted through that one re-image, carrying only
    /// the failures that followed it. It is never trusted any other way —
    /// no reset of a failure count can race a latch being cleared, because
    /// there are not two things to race. The failing thread's length sweeps
    /// from nothing to well past the restore, so both ends are reached.
    #[test]
    fn failures_racing_a_restore_end_reimaged_or_suspect() {
        const LIMIT: u32 = 2;
        let cfg = RouterConfig {
            retry: RetryPolicy::none(),
            breaker_threshold: LIMIT,
            ..RouterConfig::default()
        };
        // Closed localhost ports: every connect is refused at once.
        let addrs: Vec<SocketAddr> = (1..=3).map(|port| SocketAddr::from(([127, 0, 0, 1], port))).collect();
        for round in 0..48u32 {
            let router = ClusterRouter::new(ClusterConfig::default(), &addrs, &[1, 1, 1], cfg);
            router.fail_node(1).expect("fail_node reports per shard");
            assert_eq!(router.nodes[1].trust.load(), Trust::Suspect { cause: Cause::Admin });
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..round * round * 8 {
                        router.note_transport_failure(1);
                    }
                });
                scope.spawn(|| {
                    start.wait();
                    router.restore_node_in_place(1).expect("restore reports per shard");
                });
            });
            // The counters are the router's; the neighbours, never
            // re-imaged, account for at most one edge each (the dead
            // addresses fail the restore's broadcast and exports too).
            let neighbours = [0, 2].iter().filter(|&&n| router.node_suspect(n)).count() as u64;
            let edges = router.stats().suspects_latched - neighbours;
            match router.nodes[1].trust.load() {
                Trust::Suspect { cause } => {
                    assert_eq!((cause, edges), (Cause::Request, 2), "round {round}");
                }
                Trust::Trusted { request_failures, probe_misses } => {
                    assert_eq!(edges, 1, "round {round}: trusted, yet suspected after its re-image");
                    assert!(u32::from(request_failures) < LIMIT && probe_misses == 0, "round {round}");
                }
            }
        }
    }

    /// A router whose read cache admits on first fill; the addresses are
    /// never dialed (these tests drive the cache helpers directly).
    fn cached_router() -> ClusterRouter {
        let cfg = RouterConfig {
            read_cache: Some(CacheConfig::default().with_admit_threshold(1)),
            ..RouterConfig::default()
        };
        let addrs: Vec<SocketAddr> = vec![
            "127.0.0.1:1".parse().unwrap(),
            "127.0.0.1:2".parse().unwrap(),
        ];
        ClusterRouter::new(ClusterConfig::default(), &addrs, &[1, 1], cfg)
    }

    /// The fill/invalidate race: a lookup misses the cache and routes to
    /// the replicas; while it is on the wire a write applies and
    /// invalidates the key; the value the lookup fetched (pre-write)
    /// must not enter the cache, or every later lookup — including the
    /// writer's own — would serve it under an unchanged epoch.
    #[test]
    fn racing_fill_after_invalidation_is_refused() {
        let router = cached_router();
        let epoch = router.epoch();

        // Reader probes: miss, snapshotting the invalidation generation.
        let CacheProbe::Miss { gen } = router.probe_cached(7) else {
            panic!("empty cache must miss");
        };
        // A concurrent write lands on the replicas in the window.
        router.invalidate_cached(7);
        // The reader returns with the pre-write value: refused.
        router.fill_cached(7, Some(&[0xDEAD]), epoch, gen);
        assert!(
            matches!(router.probe_cached(7), CacheProbe::Miss { .. }),
            "stale pre-write value must not become a cache hit"
        );

        // Without a racing invalidation the same sequence fills fine.
        let CacheProbe::Miss { gen } = router.probe_cached(7) else {
            panic!("refused fill must leave the key non-resident");
        };
        router.fill_cached(7, Some(&[0xBEEF]), epoch, gen);
        match router.probe_cached(7) {
            CacheProbe::Hit(Some(sat)) => assert_eq!(sat, vec![0xBEEF]),
            _ => panic!("un-raced fill must become a hit"),
        }
    }

    /// The generation bump is keyed to the *attempted* write, not to the
    /// key's residency: invalidating a key that was never cached still
    /// refuses every in-flight fill (of any key) snapshotted before it.
    #[test]
    fn invalidation_of_absent_key_still_fences_fills() {
        let router = cached_router();
        let epoch = router.epoch();
        let CacheProbe::Miss { gen } = router.probe_cached(1) else {
            panic!("empty cache must miss");
        };
        router.invalidate_cached(2);
        router.fill_cached(1, Some(&[11]), epoch, gen);
        assert!(
            matches!(router.probe_cached(1), CacheProbe::Miss { .. }),
            "per-cache generation is conservative across keys"
        );
    }
}

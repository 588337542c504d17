//! Proactive failure detection: a heartbeater thread per router.
//!
//! PR 8's router distrusts a node only *reactively* — after a client
//! write fails into its breaker. The [`Heartbeater`] closes that gap:
//! a background thread pings every map-up, not-yet-suspect node's
//! existing health opcode (`Ping`) on a configurable interval, feeding
//! the outcomes to the deterministic
//! [`crate::health::FailureDetector`]. When a node
//! crosses the consecutive-miss threshold, the heartbeater latches the
//! router's sticky suspect via
//! [`ClusterRouter::suspect_node`] — **before** any client write had to
//! fail — and, if configured, triggers
//! [`ClusterRouter::repair`] immediately instead of waiting for
//! breaker thresholds on the request path.
//!
//! Detection latency (first missed probe → suspect latch) is bounded by
//! `suspect_after × (interval + probe_timeout)`; with the default
//! `probe_timeout ≤ interval / 3` and `suspect_after = 2` it stays
//! under three probe intervals, the bound the `netchaos` bench gates.
//!
//! The heartbeater owns its probe connections (one cached
//! [`TcpClient`] per node, separate from the router's request-path
//! slots) so probe traffic never competes for a node's connection
//! lease, and a wedged probe can only stall the heartbeat thread, not
//! client requests. Probes are wall-clock scheduled, so drills that
//! must replay bit-identically (two runs, equal [`RouterStats`]) run
//! without a heartbeater; the detector itself stays deterministic in
//! its probe outcomes.
//!
//! [`RouterStats`]: crate::router::RouterStats

use crate::health::{FailureDetector, Liveness};
use crate::router::ClusterRouter;
use pdm::metrics::{Counter, Histogram, MetricsRegistry};
use pdm_server::TcpClient;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the heartbeat thread sleeps per wait slice, so stop
/// requests are honored promptly even with long probe intervals.
const STOP_POLL: Duration = Duration::from_millis(20);

/// Heartbeater tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Probe period: every node is pinged once per interval.
    pub interval: Duration,
    /// Per-probe bound (connect + request). A probe that outlives it is
    /// a miss. Keep it at or below `interval / 3` so detection stays
    /// within the three-interval bound (see the [module docs](self)).
    pub probe_timeout: Duration,
    /// Consecutive missed probes before a node is suspected.
    pub suspect_after: u32,
    /// Drive [`ClusterRouter::repair`] as soon as a detection latches a
    /// suspect (re-replicating its shards onto survivors), instead of
    /// leaving the repair to an operator.
    pub auto_repair: bool,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(150),
            suspect_after: 2,
            auto_repair: false,
        }
    }
}

/// Counters the heartbeater maintains (drill- and bench-readable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeartbeatStats {
    /// Probes answered in time.
    pub probes_ok: u64,
    /// Probes missed (connect failure, timeout, or typed error).
    pub probes_missed: u64,
    /// Alive → suspected detections fired.
    pub detections: u64,
    /// Latency of the most recent detection, in milliseconds (first
    /// missed probe → suspect latch). Zero until a detection fires.
    pub last_detection_latency_ms: u64,
}

/// The cells behind [`HeartbeatStats`]: the only place an event is counted
/// (`probes_missed` is the one a registry adopts).
#[derive(Default)]
struct HbCells {
    probes_ok: Counter,
    probes_missed: Arc<Counter>,
    detections: Counter,
    /// A last value, not a count.
    last_detection_latency_ms: AtomicU64,
}

/// Registry-only instruments: recorded when a registry is installed.
struct HbMetrics {
    probe_rtt_us: Arc<Histogram>,
    detection_latency_ms: Arc<Histogram>,
}

/// The background probe thread (see the [module docs](self)). Stops on
/// [`stop`](Heartbeater::stop) or drop.
pub struct Heartbeater {
    stop: Arc<AtomicBool>,
    cells: Arc<HbCells>,
    handle: Option<JoinHandle<()>>,
}

impl Heartbeater {
    /// Start probing every node of `router` per `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.suspect_after == 0` or the probe thread cannot be
    /// spawned.
    #[must_use]
    pub fn start(router: Arc<ClusterRouter>, cfg: HeartbeatConfig) -> Self {
        Self::start_inner(router, cfg, None)
    }

    /// Like [`start`](Self::start), additionally exporting a probe RTT
    /// histogram (`cluster_heartbeat_probe_rtt_us`), a missed-probe
    /// counter (`cluster_heartbeat_probes_missed`) and a
    /// detection-latency histogram
    /// (`cluster_heartbeat_detection_latency_ms`) through `registry`.
    /// Pair it with [`ClusterRouter::set_metrics`] on the same registry
    /// so suspect transitions land there too.
    ///
    /// # Panics
    /// As [`start`](Self::start).
    #[must_use]
    pub fn start_with_metrics(
        router: Arc<ClusterRouter>,
        cfg: HeartbeatConfig,
        registry: &MetricsRegistry,
    ) -> Self {
        Self::start_inner(router, cfg, Some(registry))
    }

    fn start_inner(
        router: Arc<ClusterRouter>,
        cfg: HeartbeatConfig,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        assert!(cfg.suspect_after >= 1, "suspect_after must be at least 1");
        let stop = Arc::new(AtomicBool::new(false));
        let cells = Arc::new(HbCells::default());
        let metrics = registry.map(|r| {
            r.adopt_counter("cluster_heartbeat_probes_missed", &[], &cells.probes_missed);
            HbMetrics {
                probe_rtt_us: r.histogram("cluster_heartbeat_probe_rtt_us", &[]),
                detection_latency_ms: r.histogram("cluster_heartbeat_detection_latency_ms", &[]),
            }
        });
        let handle = {
            let stop = Arc::clone(&stop);
            let cells = Arc::clone(&cells);
            std::thread::Builder::new()
                .name("pdm-heartbeat".into())
                .spawn(move || heartbeat_loop(&router, cfg, &stop, &cells, metrics.as_ref()))
                .expect("spawn heartbeat thread")
        };
        Heartbeater {
            stop,
            cells,
            handle: Some(handle),
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> HeartbeatStats {
        HeartbeatStats {
            probes_ok: self.cells.probes_ok.get(),
            probes_missed: self.cells.probes_missed.get(),
            detections: self.cells.detections.get(),
            last_detection_latency_ms: self.cells.last_detection_latency_ms.load(Ordering::Relaxed),
        }
    }

    /// Stop the probe thread, join it, and return the final counter
    /// snapshot (nothing moves after the join, so the numbers are safe
    /// to compare against other sinks).
    pub fn stop(mut self) -> HeartbeatStats {
        self.stop_inner();
        self.stats()
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeater {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for Heartbeater {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeater")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

fn heartbeat_loop(
    router: &ClusterRouter,
    cfg: HeartbeatConfig,
    stop: &AtomicBool,
    cells: &HbCells,
    metrics: Option<&HbMetrics>,
) {
    let n = router.node_count();
    let mut detector = FailureDetector::new(n, cfg.suspect_after);
    let mut conns: Vec<Option<TcpClient>> = (0..n).map(|_| None).collect();
    let mut first_miss: Vec<Option<Instant>> = vec![None; n];
    while !stop.load(Ordering::Acquire) {
        let tick = Instant::now();
        let map = router.map_snapshot();
        for node in 0..n {
            if stop.load(Ordering::Acquire) {
                return;
            }
            if !map.nodes()[node].up {
                continue;
            }
            if router.node_suspect(node) {
                // Latched by the request path or an admin transition;
                // nothing for a probe to add.
                continue;
            }
            if detector.liveness(node) == Liveness::Suspected {
                // The router restored (re-imaged) the node since our
                // detection — re-arm with a clean slate.
                detector.clear(node);
                first_miss[node] = None;
            }
            let t0 = Instant::now();
            if probe(&mut conns[node], router, node, cfg.probe_timeout) {
                cells.probes_ok.inc();
                if let Some(m) = metrics {
                    let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                    m.probe_rtt_us.observe(us);
                }
                detector.record_success(node);
                first_miss[node] = None;
            } else {
                cells.probes_missed.inc();
                conns[node] = None;
                let since = *first_miss[node].get_or_insert(t0);
                if detector.record_miss(node) {
                    router.suspect_node(node);
                    let latency =
                        u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX);
                    router.note_detection(latency);
                    cells.detections.inc();
                    cells
                        .last_detection_latency_ms
                        .store(latency, Ordering::Relaxed);
                    if let Some(m) = metrics {
                        m.detection_latency_ms.observe(latency);
                    }
                    if cfg.auto_repair {
                        let _ = router.repair();
                    }
                }
            }
        }
        // Sleep out the remainder of the interval in stop-aware slices.
        while tick.elapsed() < cfg.interval {
            if stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(STOP_POLL.min(cfg.interval.saturating_sub(tick.elapsed())));
        }
    }
}

/// One ping against `node`'s health opcode within `timeout`, reusing a
/// cached connection when one is alive.
fn probe(
    conn: &mut Option<TcpClient>,
    router: &ClusterRouter,
    node: usize,
    timeout: Duration,
) -> bool {
    if conn.as_ref().is_some_and(TcpClient::is_poisoned) {
        *conn = None;
    }
    let client = match conn {
        Some(c) => c,
        None => {
            let fresh = TcpClient::connect_timeout(router.node_addr(node), timeout)
                .and_then(|mut c| {
                    c.set_deadline(Some(timeout))?;
                    Ok(c)
                });
            match fresh {
                Ok(c) => conn.insert(c),
                Err(_) => return false,
            }
        }
    };
    client.ping().is_ok()
}

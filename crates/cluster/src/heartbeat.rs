//! Proactive failure detection: a heartbeater thread per router.
//!
//! The request path distrusts a node only *reactively* — after a client
//! request fails into it. The [`Heartbeater`] closes that gap: a background
//! thread pings every map-up, not-yet-suspect node's health opcode (`Ping`)
//! on a configurable interval and reports each outcome to the router
//! ([`ClusterRouter::report_probe`]), which owns the node's trust. On the
//! [`suspect_after`](HeartbeatConfig::suspect_after)-th consecutive miss
//! the node is suspect — **before** any client write had to fail — and, if
//! configured, [`ClusterRouter::repair`] runs at once.
//!
//! Detection latency (first missed probe → suspect) is bounded by
//! `suspect_after × (interval + probe_timeout)`; with the default
//! `probe_timeout ≤ interval / 3` and `suspect_after = 2` it stays
//! under three probe intervals, the bound the `netchaos` bench gates.
//!
//! The heartbeater owns its probe connections (one cached
//! [`TcpClient`] per node, separate from the router's request-path
//! slots) so probe traffic never competes for a node's connection
//! lease, and a wedged probe can only stall the heartbeat thread, not
//! client requests. Time lives here, in the prober — when a probe is a
//! miss, how long a streak has run; the trust machine only counts — so
//! drills that must replay bit-identically (two runs, equal
//! [`RouterStats`]) run without a heartbeater.
//!
//! [`RouterStats`]: crate::router::RouterStats

use crate::health::dial;
use crate::router::ClusterRouter;
use pdm::metrics::{Counter, Histogram, MetricsRegistry};
use pdm_server::TcpClient;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Counters only the heartbeater knows; a detection is the router's to
/// count (`RouterStats::heartbeat_detections`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeartbeatStats {
    /// Probes answered in time.
    pub probes_ok: u64,
    /// Probes missed (connect failure, timeout, or typed error).
    pub probes_missed: u64,
}

/// The cells behind [`HeartbeatStats`]: the only place an event is counted
/// (`probes_missed` is the one a registry adopts).
#[derive(Default)]
struct HbCells {
    probes_ok: Counter,
    probes_missed: Arc<Counter>,
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
    /// Pair it with [`ClusterRouter::set_metrics`] on the same registry:
    /// the detections themselves are counted there.
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
                // Whoever suspected it, a probe has nothing to add — and
                // cannot re-trust it. Once re-imaged its streak is new.
                first_miss[node] = None;
                continue;
            }
            let t0 = Instant::now();
            if probe(&mut conns[node], router, node, cfg.probe_timeout) {
                cells.probes_ok.inc();
                if let Some(m) = metrics {
                    let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                    m.probe_rtt_us.observe(us);
                }
                router.report_probe(node, cfg.suspect_after, None);
                first_miss[node] = None;
            } else {
                cells.probes_missed.inc();
                conns[node] = None;
                let streak = first_miss[node].get_or_insert(t0).elapsed();
                if router.report_probe(node, cfg.suspect_after, Some(streak)) {
                    if let Some(m) = metrics {
                        let ms = u64::try_from(streak.as_millis()).unwrap_or(u64::MAX);
                        m.detection_latency_ms.observe(ms);
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
fn probe(conn: &mut Option<TcpClient>, router: &ClusterRouter, node: usize, timeout: Duration) -> bool {
    if conn.as_ref().is_none_or(TcpClient::is_poisoned) {
        *conn = dial(router.node_addr(node), timeout, timeout);
    }
    conn.as_mut().is_some_and(|client| client.ping().is_ok())
}

//! Network-chaos bench: the partition-tolerance claims as regenerable,
//! gated numbers, driven through the deterministic fault proxy
//! (`pdm_server::netfault`).
//!
//! Four phases, four gates:
//!
//! * **minority partition** — zero writes acknowledged below
//!   `write_quorum` while a replica sits behind the partition;
//! * **partition + heal** — zero acked writes lost across a
//!   partition-then-heal cycle, and the epoch fence refuses a
//!   stale-epoch client (the split-brain guard);
//! * **heartbeat detection** — the proactive failure detector latches a
//!   partitioned node within three probe intervals, with zero client
//!   transport failures;
//! * **deterministic replay** — the whole flaky-link drill
//!   (`NetFaultPlan::random(seed, ..)`) replays bit-identically: two
//!   fresh runs produce equal per-op outcomes, equal `RouterStats`, and
//!   byte-identical final shard images.
//!
//! Smoke: `cargo run -p bench --release --bin netchaos -- --smoke`

use expander::mix::mix64;
use pdm_cluster::{
    ClusterConfig, ClusterMap, ClusterNode, ClusterRouter, HeartbeatConfig, Heartbeater,
    NodeConfig, RetryPolicy, RouterConfig, RouterStats,
};
use pdm_server::protocol::{WireRequest, WireResponse};
use pdm_server::{ChaosNet, NetFaultPlan, Op, ServeError, TcpClient};
use serde::Serialize;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed bench seed: the replay gate is about two runs of the *same*
/// seed, not about seed rotation (the test suite rotates).
const SEED: u64 = 0x000C_4A05_EED0_0901;

#[derive(Serialize)]
struct Report {
    smoke: bool,
    seed: u64,
    // Minority partition.
    minority_writes_attempted: u64,
    /// Gate: writes acked while a routed replica sat behind the
    /// partition and quorum was unreachable. Must be zero.
    minority_writes_acked_below_quorum: u64,
    majority_writes_acked: u64,
    // Partition + heal.
    partition_acked_writes: u64,
    /// Gate: acked writes unreadable after heal + repair. Must be zero.
    acked_lost_after_heal: u64,
    /// Gate: a client routing under the pre-repair epoch is refused
    /// with `StaleEpoch`.
    stale_epoch_fenced: bool,
    // Heartbeat detection.
    heartbeat_interval_ms: u64,
    detection_latency_ms: u64,
    /// Gate: detection within three probe intervals.
    detection_bound_ms: u64,
    /// Gate: zero — detection is proactive, so no client request ever
    /// paid for the dark node.
    client_transport_failures_at_detection: u64,
    // Deterministic replay.
    replay_runs: u64,
    /// Gate: identical outcomes, stats, and images across the runs.
    replay_deterministic: bool,
    replay_transport_failures: u64,
    replay_writes_acked: u64,
}

fn start_cluster(cfg: ClusterConfig, weights: &[u32]) -> (Vec<ClusterNode>, Vec<SocketAddr>) {
    let map = ClusterMap::build(cfg, weights);
    let nodes: Vec<ClusterNode> = (0..weights.len())
        .map(|n| {
            ClusterNode::start("127.0.0.1:0", cfg, &map.shards_on(n), NodeConfig::default())
                .expect("node start")
        })
        .collect();
    let addrs = nodes.iter().map(ClusterNode::local_addr).collect();
    (nodes, addrs)
}

fn pull_image(addr: SocketAddr, shard: u32) -> Vec<u8> {
    let mut client = TcpClient::connect(addr).expect("connect for export");
    let mut image = Vec::new();
    let mut chunk = 0u32;
    loop {
        match client
            .request(&WireRequest::MigrateExport { shard, chunk })
            .expect("export request")
        {
            WireResponse::ExportChunk {
                total,
                chunk: got,
                bytes,
            } => {
                assert_eq!(got, chunk);
                image.extend_from_slice(&bytes);
                chunk += 1;
                if chunk == total {
                    return image;
                }
            }
            other => panic!("export answered {other:?}"),
        }
    }
}

/// Minority partition under `write_quorum = k`: count any ack for a
/// shard with a replica behind the partition (the gate), while
/// majority-side shards keep acking.
fn minority_phase(smoke: bool) -> (u64, u64, u64) {
    const NODES: usize = 4;
    const DARK: usize = 3;
    let per_class = if smoke { 24 } else { 60 };

    let cfg = ClusterConfig {
        shards: 16,
        replication: 2,
        shard_capacity: 512,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (nodes, addrs) = start_cluster(cfg, &weights);
    let chaos = ChaosNet::start(NetFaultPlan::new(), &addrs).expect("chaos start");
    let router = ClusterRouter::new(
        cfg,
        &chaos.addrs(),
        &weights,
        RouterConfig {
            retry: RetryPolicy::none(),
            breaker_threshold: 2,
            connect_timeout: Duration::from_secs(1),
            request_deadline: Duration::from_millis(250),
            write_quorum: 2,
            read_cache: None,
        },
    );

    let map = router.map_snapshot();
    let majority: Vec<usize> = (0..NODES).filter(|&n| n != DARK).collect();
    let mut majority_keys = Vec::new();
    let mut minority_keys = Vec::new();
    for i in 0..8000u64 {
        let key = mix64(SEED ^ i) % (1 << 21);
        if map.replicas(cfg.shard_of(key)).contains(&DARK) {
            if minority_keys.len() < per_class {
                minority_keys.push(key);
            }
        } else if majority_keys.len() < per_class {
            majority_keys.push(key);
        }
        if majority_keys.len() == per_class && minority_keys.len() == per_class {
            break;
        }
    }

    chaos.partition(&[&majority, &[DARK]]);
    let mut majority_acked = 0u64;
    for &key in &majority_keys {
        if router.insert(key, &[mix64(key)]).is_ok() {
            majority_acked += 1;
        }
    }
    let mut below_quorum_acks = 0u64;
    for &key in &minority_keys {
        if router.insert(key, &[mix64(key)]).is_ok() {
            below_quorum_acks += 1;
        }
    }

    chaos.shutdown();
    for node in nodes {
        node.shutdown();
    }
    (
        (majority_keys.len() + minority_keys.len()) as u64,
        below_quorum_acks,
        majority_acked,
    )
}

/// Partition one node away, write through the hole, heal, repair, audit
/// every ack, and probe the epoch fence with a stale client.
fn heal_phase(smoke: bool) -> (u64, u64, bool) {
    const NODES: usize = 3;
    const DARK: usize = 2;
    let writes = if smoke { 150u64 } else { 400 };

    let cfg = ClusterConfig {
        shards: 8,
        replication: 2,
        shard_capacity: 1024,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (nodes, addrs) = start_cluster(cfg, &weights);
    let chaos = ChaosNet::start(NetFaultPlan::new(), &addrs).expect("chaos start");
    let router = ClusterRouter::new(
        cfg,
        &chaos.addrs(),
        &weights,
        RouterConfig {
            retry: RetryPolicy::none(),
            breaker_threshold: 2,
            connect_timeout: Duration::from_secs(1),
            request_deadline: Duration::from_millis(250),
            write_quorum: 1,
            read_cache: None,
        },
    );

    let mut acked = Vec::new();
    for i in 0..writes {
        let key = mix64(SEED ^ 0x11 ^ i) % (1 << 21);
        if router.insert(key, &[mix64(key)]).is_ok() {
            acked.push(key);
        }
    }
    chaos.partition(&[&[0, 1], &[DARK]]);
    for i in writes..2 * writes {
        let key = mix64(SEED ^ 0x11 ^ i) % (1 << 21);
        if router.insert(key, &[mix64(key)]).is_ok() {
            acked.push(key);
        }
    }
    chaos.heal();
    let reports = router.repair().expect("repair");
    for r in &reports {
        assert!(r.failed.is_empty(), "repair failures: {:?}", r.failed);
    }

    let mut lost = 0u64;
    for &key in &acked {
        match router.lookup(key) {
            Ok(Some(sat)) if sat == vec![mix64(key)] => {}
            other => {
                eprintln!("post-heal: acked key {key} answered {other:?}");
                lost += 1;
            }
        }
    }

    // The split-brain guard: a client that slept through the repair's
    // epoch bump must be refused.
    let map = router.map_snapshot();
    let shard = map.shards_on(0)[0];
    let mut stale = TcpClient::connect(addrs[0]).expect("stale client");
    let fenced = matches!(
        stale.request(&WireRequest::ShardOp {
            shard,
            epoch: 0,
            op: Op::Lookup(0),
        }),
        Ok(WireResponse::Err(ServeError::StaleEpoch { .. }))
    );

    chaos.shutdown();
    for node in nodes {
        node.shutdown();
    }
    (acked.len() as u64, lost, fenced)
}

/// Cut a node off with no client traffic running; the heartbeater must
/// latch it within three probe intervals, leaving the router's
/// transport-failure counter untouched.
fn heartbeat_phase() -> (u64, u64, u64, u64) {
    const NODES: usize = 3;
    const DARK: usize = 2;
    const INTERVAL: Duration = Duration::from_millis(200);

    let cfg = ClusterConfig {
        shards: 8,
        replication: 2,
        shard_capacity: 512,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (nodes, addrs) = start_cluster(cfg, &weights);
    let chaos = ChaosNet::start(NetFaultPlan::new(), &addrs).expect("chaos start");
    let router = Arc::new(ClusterRouter::new(
        cfg,
        &chaos.addrs(),
        &weights,
        RouterConfig::default(),
    ));
    let heartbeater = Heartbeater::start(
        Arc::clone(&router),
        HeartbeatConfig {
            interval: INTERVAL,
            probe_timeout: Duration::from_millis(60),
            suspect_after: 2,
            auto_repair: false,
        },
    );

    std::thread::sleep(INTERVAL);
    chaos.partition(&[&[0, 1], &[DARK]]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.node_suspect(DARK) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    heartbeater.stop();

    let stats = router.stats();
    let latency = if router.node_suspect(DARK) {
        stats.detection_latency_ms_max
    } else {
        u64::MAX // never detected: fails the gate loudly
    };
    chaos.shutdown();
    for node in nodes {
        node.shutdown();
    }
    (
        latency,
        3 * INTERVAL.as_millis() as u64,
        stats.transport_failures,
        INTERVAL.as_millis() as u64,
    )
}

struct ReplayRun {
    outcomes: Vec<String>,
    stats: RouterStats,
    images: Vec<(usize, u32, Vec<u8>)>,
}

/// One flaky-link run from the seeded plan: single-threaded traffic
/// (trust decisions read no clock), disarmed audit.
fn replay_run(keys: u64) -> ReplayRun {
    const NODES: usize = 3;

    let cfg = ClusterConfig {
        shards: 12,
        replication: 2,
        shard_capacity: 512,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (nodes, addrs) = start_cluster(cfg, &weights);
    let plan = NetFaultPlan::random(SEED, NODES, 8, 9);
    let chaos = ChaosNet::start(plan, &addrs).expect("chaos start");
    let router = ClusterRouter::new(
        cfg,
        &chaos.addrs(),
        &weights,
        RouterConfig {
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(1),
            },
            breaker_threshold: 2,
            connect_timeout: Duration::from_secs(1),
            request_deadline: Duration::from_millis(250),
            write_quorum: 2,
            read_cache: None,
        },
    );

    let mut outcomes = Vec::new();
    for i in 0..keys {
        let key = mix64(SEED ^ 0x22 ^ i) % (1 << 21);
        outcomes.push(format!("{:?}", router.insert(key, &[mix64(key)])));
        outcomes.push(format!("{:?}", router.lookup(key).map(|_| ())));
    }

    chaos.disarm();
    let map = router.map_snapshot();
    let images: Vec<(usize, u32, Vec<u8>)> = (0..NODES)
        .flat_map(|n| {
            map.shards_on(n)
                .into_iter()
                .map(move |s| (n, s))
                .collect::<Vec<_>>()
        })
        .map(|(n, s)| (n, s, pull_image(addrs[n], s)))
        .collect();

    let stats = router.stats();
    chaos.shutdown();
    for node in nodes {
        node.shutdown();
    }
    ReplayRun {
        outcomes,
        stats,
        images,
    }
}

fn main() -> std::process::ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let (minority_attempted, below_quorum, majority_acked) = minority_phase(smoke);
    let (partition_acked, lost, fenced) = heal_phase(smoke);
    let (latency_ms, bound_ms, transport_failures, interval_ms) = heartbeat_phase();
    let replay_keys = if smoke { 40 } else { 80 };
    let first = replay_run(replay_keys);
    let second = replay_run(replay_keys);
    let deterministic = first.outcomes == second.outcomes
        && first.stats == second.stats
        && first.images == second.images;

    let report = Report {
        smoke,
        seed: SEED,
        minority_writes_attempted: minority_attempted,
        minority_writes_acked_below_quorum: below_quorum,
        majority_writes_acked: majority_acked,
        partition_acked_writes: partition_acked,
        acked_lost_after_heal: lost,
        stale_epoch_fenced: fenced,
        heartbeat_interval_ms: interval_ms,
        detection_latency_ms: latency_ms,
        detection_bound_ms: bound_ms,
        client_transport_failures_at_detection: transport_failures,
        replay_runs: 2,
        replay_deterministic: deterministic,
        replay_transport_failures: first.stats.transport_failures,
        replay_writes_acked: first.stats.writes_acked,
    };

    let mut failures: Vec<String> = Vec::new();
    if report.minority_writes_acked_below_quorum > 0 {
        failures.push(format!(
            "{} writes acked below write_quorum from a minority partition",
            report.minority_writes_acked_below_quorum
        ));
    }
    if report.majority_writes_acked == 0 {
        failures.push("no majority-side write acked during the partition".into());
    }
    if report.acked_lost_after_heal > 0 {
        failures.push(format!(
            "{} acked writes unreadable after partition + heal",
            report.acked_lost_after_heal
        ));
    }
    if !report.stale_epoch_fenced {
        failures.push("stale-epoch client was not fenced after the repair".into());
    }
    if report.detection_latency_ms > report.detection_bound_ms {
        failures.push(format!(
            "heartbeat detection took {} ms, bound is {} ms (three intervals)",
            report.detection_latency_ms, report.detection_bound_ms
        ));
    }
    if report.client_transport_failures_at_detection > 0 {
        failures.push(format!(
            "{} client transport failures before detection — it was not proactive",
            report.client_transport_failures_at_detection
        ));
    }
    if !report.replay_deterministic {
        failures.push("flaky-link drill did not replay deterministically from its seed".into());
    }

    let accept = format!(
        "zero below-quorum acks in the minority partition, zero acked writes lost \
         across heal, stale epochs fenced, heartbeat detection in {} ms ≤ {} ms, and the \
         flaky-link drill replayed deterministically over {} runs",
        report.detection_latency_ms, report.detection_bound_ms, report.replay_runs
    );
    bench::finish("BENCH_netchaos", &report, &failures, &accept)
}

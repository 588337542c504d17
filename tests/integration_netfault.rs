//! Network-chaos drills (`pdm-server::netfault` + `pdm-cluster`): the
//! cluster tier behind a deterministic fault-injecting proxy.
//!
//! Four PR-level claims, each a drill:
//!
//! * **quorum discipline** — a minority-partitioned replica set never
//!   acknowledges a write below `write_quorum`;
//! * **partition tolerance** — a partitioned-then-healed cluster loses
//!   zero acknowledged writes, and the epoch fence refuses stale-epoch
//!   requests (the split-brain guard);
//! * **typed degradation** — traffic over a flaky link (seeded
//!   drop+delay plan) completes with typed errors only, and the whole
//!   drill replays deterministically from the seed;
//! * **proactive detection** — the heartbeater latches a partitioned
//!   node suspect within the gated bound, before any client write pays
//!   a timeout.
//!
//! Randomization follows the suite convention: deterministic by
//! default, `PROPTEST_SEED=<u64>` rotates the corpus (CI sets it per
//! run).

use expander::mix::mix64;
use pdm::metrics::MetricsRegistry;
use pdm_cluster::{
    ClusterConfig, ClusterError, ClusterMap, ClusterNode, ClusterRouter, HeartbeatConfig,
    Heartbeater, NodeConfig, RetryPolicy, RouterConfig, RouterStats,
};
use pdm_server::protocol::{WireRequest, WireResponse};
use pdm_server::{ChaosNet, NetFaultPlan, Op, Reply, ServeError, TcpClient};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn suite_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_0901)
}

/// Start one node per weight, each hosting the shards the epoch-0 map
/// assigns it.
fn start_cluster(cfg: ClusterConfig, weights: &[u32]) -> (Vec<Option<ClusterNode>>, Vec<SocketAddr>) {
    let map = ClusterMap::build(cfg, weights);
    let nodes: Vec<Option<ClusterNode>> = (0..weights.len())
        .map(|n| {
            Some(
                ClusterNode::start("127.0.0.1:0", cfg, &map.shards_on(n), NodeConfig::default())
                    .expect("node start"),
            )
        })
        .collect();
    let addrs = nodes
        .iter()
        .map(|n| n.as_ref().unwrap().local_addr())
        .collect();
    (nodes, addrs)
}

/// Pull a shard's frozen image straight off a node (the migration
/// export opcodes, driven by hand, bypassing the proxy).
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

/// One shard-addressed lookup straight at a node, bypassing the router
/// (and its trust filters) entirely.
fn direct_lookup(addr: SocketAddr, shard: u32, epoch: u64, key: u64) -> Option<Vec<u64>> {
    let mut client = TcpClient::connect(addr).expect("direct connect");
    match client
        .request(&WireRequest::ShardOp {
            shard,
            epoch,
            op: Op::Lookup(key),
        })
        .expect("direct lookup")
    {
        WireResponse::Reply(Reply::Lookup(sat)) => sat,
        other => panic!("direct lookup answered {other:?}"),
    }
}

/// A minority-partitioned replica set must never acknowledge below the
/// write quorum: with `write_quorum = k = 2`, any shard with a replica
/// behind the partition refuses with a typed [`ClusterError::NoQuorum`],
/// while shards fully on the majority side keep acknowledging. After
/// heal + repair, the refused keys insert cleanly and everything acked
/// reads back exactly.
///
/// The minority is one node of four: with `k = 2` every shard keeps a
/// majority-side replica, so the post-heal repair always has a trusted
/// re-replication source. (A split that swallows *both* replicas of a
/// shard leaves it unrecoverable by design — the router refuses to
/// re-image from an untrusted holder.)
#[test]
fn minority_partition_never_acks_below_write_quorum() {
    const NODES: usize = 4;
    const DARK: usize = 3;

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

    // Sort candidate keys into the two classes under the epoch-0 map:
    // shards untouched by the dark node keep full quorum, shards with a
    // replica on it cannot reach `write_quorum = k`.
    let map = router.map_snapshot();
    let majority: Vec<usize> = (0..NODES).filter(|&n| n != DARK).collect();
    let seed = suite_seed();
    let mut majority_keys = Vec::new();
    let mut minority_keys = Vec::new();
    for i in 0..4000u64 {
        let key = mix64(seed ^ i) % (1 << 21);
        let replicas = map.replicas(cfg.shard_of(key));
        if replicas.contains(&DARK) {
            if minority_keys.len() < 40 {
                minority_keys.push(key);
            }
        } else if majority_keys.len() < 40 {
            majority_keys.push(key);
        }
        if majority_keys.len() == 40 && minority_keys.len() == 40 {
            break;
        }
    }
    assert_eq!(majority_keys.len(), 40);
    assert_eq!(minority_keys.len(), 40);

    chaos.partition(&[&majority, &[DARK]]);

    let mut acked = Vec::new();
    for &key in &majority_keys {
        router
            .insert(key, &[mix64(key)])
            .unwrap_or_else(|e| panic!("majority-pair write {key} must ack in the partition: {e}"));
        acked.push(key);
    }
    for &key in &minority_keys {
        match router.insert(key, &[mix64(key)]) {
            Err(ClusterError::NoQuorum { acked, needed, .. }) => {
                assert!(acked < needed, "refusal must be below quorum");
            }
            other => panic!("minority-reaching write {key} must refuse with NoQuorum, got {other:?}"),
        }
    }
    let stats = router.stats();
    assert_eq!(stats.writes_acked, majority_keys.len() as u64);
    assert_eq!(stats.writes_refused, minority_keys.len() as u64);

    // Heal, repair (the bypassed dark replica was latched suspect), and
    // everything — including the formerly refused keys — serves
    // exactly.
    chaos.heal();
    let reports = router.repair().expect("repair");
    assert_eq!(reports.len(), 1, "repair must declare exactly the dark node");
    assert!(
        reports[0].failed.is_empty(),
        "repair failures: {:?}",
        reports[0].failed
    );
    for &key in &minority_keys {
        router
            .insert(key, &[mix64(key)])
            .unwrap_or_else(|e| panic!("post-heal insert of {key}: {e}"));
        acked.push(key);
    }
    for &key in &acked {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("post-heal lookup of {key}: {e}")),
            Some(vec![mix64(key)]),
            "acked write {key} lost across the partition"
        );
    }

    chaos.shutdown();
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// A partitioned-then-healed cluster loses zero acknowledged writes,
/// and converges by epoch fencing: after the repair's epoch bump, a
/// client still routing under the old epoch is refused with
/// [`ServeError::StaleEpoch`] — the split-brain guard that keeps a
/// stale map from ever reading a moved shard's leftovers.
#[test]
fn partition_heal_loses_nothing_and_fences_stale_epochs() {
    const NODES: usize = 3;
    const DARK: usize = 2;

    let cfg = ClusterConfig {
        shards: 8,
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
            write_quorum: 1,
            read_cache: None,
        },
    );

    let seed = suite_seed().wrapping_add(1);
    let mut acked = Vec::new();
    for i in 0..150u64 {
        let key = mix64(seed ^ i) % (1 << 21);
        if router.insert(key, &[mix64(key)]).is_ok() {
            acked.push(key);
        }
    }

    // Node 2 goes dark; with k = 2 every shard keeps a majority-side
    // replica, so quorum-1 writes keep acking — the first write routed
    // through the dark node pays one deadline, latches it, and the rest
    // flow.
    chaos.partition(&[&[0, 1], &[DARK]]);
    for i in 150..300u64 {
        let key = mix64(seed ^ i) % (1 << 21);
        router
            .insert(key, &[mix64(key)])
            .unwrap_or_else(|e| panic!("partitioned write {key} must still reach quorum: {e}"));
        acked.push(key);
    }
    assert!(
        router.node_suspect(DARK),
        "a write proceeded without the dark node; it must be latched"
    );

    // Heal the partition and repair: the dark node missed acked writes,
    // so it is re-replicated away from and stays untrusted.
    chaos.heal();
    let reports = router.repair().expect("repair");
    assert_eq!(reports.len(), 1, "repair must declare exactly the dark node");
    assert!(reports[0].failed.is_empty(), "failures: {:?}", reports[0].failed);
    assert_eq!(router.epoch(), 1);
    for &key in &acked {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("post-heal lookup of {key}: {e}")),
            Some(vec![mix64(key)]),
            "acked write {key} lost across partition + heal"
        );
    }

    // The split-brain guard, explicitly: a client that slept through
    // the epoch bump and still routes under epoch 0 is refused.
    let map = router.map_snapshot();
    let shard = map.shards_on(0)[0];
    let mut stale_client = TcpClient::connect(addrs[0]).expect("stale client connect");
    match stale_client
        .request(&WireRequest::ShardOp {
            shard,
            epoch: 0,
            op: Op::Lookup(acked[0]),
        })
        .expect("stale request crosses the wire")
    {
        WireResponse::Err(ServeError::StaleEpoch { .. }) => {}
        other => panic!("stale-epoch request must be fenced, got {other:?}"),
    }

    chaos.shutdown();
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// One full flaky-link run: fresh cluster, fresh proxy with the seeded
/// plan, a single-threaded op sequence, then a disarmed audit. Returns
/// everything a determinism comparison needs.
struct FlakyRun {
    outcomes: Vec<Result<(), ClusterError>>,
    stats: RouterStats,
    images: Vec<(usize, u32, Vec<u8>)>,
    /// Frames the proxy dropped, delayed, duplicated, reordered, truncated
    /// or black-holed ([`ChaosNet::stats`]): whether the plan bit.
    faulted_frames: u64,
}

fn run_flaky_drill(seed: u64) -> FlakyRun {
    const NODES: usize = 3;
    const KEYS: u64 = 80;

    let cfg = ClusterConfig {
        shards: 12,
        replication: 2,
        shard_capacity: 512,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (nodes, addrs) = start_cluster(cfg, &weights);
    let plan = NetFaultPlan::random(seed, NODES, 8, 9);
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
            // No clock anywhere in a trust decision: whether a request
            // is allowed is a function of the outcomes before it, so the
            // whole outcome sequence is a function of the plan.
            connect_timeout: Duration::from_secs(1),
            request_deadline: Duration::from_millis(250),
            write_quorum: 2,
            read_cache: None,
        },
    );

    // Single-threaded traffic: the per-connection frame clocks advance
    // in program order, so the plan's windows fire identically on every
    // run with this seed.
    let mut outcomes = Vec::new();
    let mut acked = Vec::new();
    for i in 0..KEYS {
        let key = mix64(seed ^ i) % (1 << 21);
        let wrote = router.insert(key, &[mix64(key)]);
        if wrote.is_ok() {
            acked.push(key);
        }
        outcomes.push(wrote);
        outcomes.push(router.lookup(key).map(|_| ()));
    }

    // Quiesce the plan and audit over a clean transport. With
    // `write_quorum = k`, an ack certifies the write on *every* mapped
    // replica — auditable straight off the primary, whatever the latch
    // state the chaos left behind.
    chaos.disarm();
    let map = router.map_snapshot();
    for &key in &acked {
        let shard = cfg.shard_of(key);
        let got = direct_lookup(addrs[map.primary(shard)], shard, map.epoch(), key);
        assert_eq!(
            got,
            Some(vec![mix64(key)]),
            "acked write {key} lost under the flaky link"
        );
    }
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
    let faulted_frames = chaos
        .stats()
        .iter()
        .map(|l| l.dropped + l.delayed + l.duplicated + l.reordered + l.truncated + l.blackholed)
        .sum();
    chaos.shutdown();
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    FlakyRun {
        outcomes,
        stats,
        images,
        faulted_frames,
    }
}

/// Plan seeds the flaky drill may draw before one bites.
const PLAN_DRAWS: u64 = 8;

/// Traffic over a flaky link (seeded drop+delay plan) completes with
/// typed errors only — the asserts inside the run — and the whole drill
/// replays deterministically: two fresh runs from the same
/// [`NetFaultPlan::random`] seed produce identical per-op outcomes,
/// identical [`RouterStats`], and byte-identical final shard images.
///
/// A random plan's windows can miss every frame the drill sends (the suite
/// seed 8 drew one), and a plan that faults nothing proves no replay. So
/// the plan seed is drawn until [`ChaosNet::stats`] shows a fault on
/// traffic: the suite seed's own first, then `mix64(seed ^ draw)` — a
/// function of the suite seed alone — and both runs use the one that bit.
#[test]
fn flaky_link_drill_replays_deterministically_from_the_seed() {
    let base = suite_seed().wrapping_add(2);
    let draws = (0..PLAN_DRAWS).map(|draw| if draw == 0 { base } else { mix64(base ^ draw) });
    let (seed, first) = draws
        .map(|seed| (seed, run_flaky_drill(seed)))
        .find(|(_, run)| run.faulted_frames > 0)
        .unwrap_or_else(|| panic!("no plan drawn from {base:#x} faulted traffic in {PLAN_DRAWS} draws"));
    let second = run_flaky_drill(seed);

    assert_eq!(
        first.outcomes, second.outcomes,
        "per-op outcomes diverged between identically seeded runs"
    );
    assert_eq!(
        first.stats, second.stats,
        "router stats diverged between identically seeded runs"
    );
    assert_eq!(first.images.len(), second.images.len());
    for ((n1, s1, img1), (n2, s2, img2)) in first.images.iter().zip(&second.images) {
        assert_eq!((n1, s1), (n2, s2));
        assert_eq!(
            img1, img2,
            "shard {s1} image on node {n1} diverged between identically seeded runs"
        );
    }
    assert!(
        second.faulted_frames > 0,
        "the replay of a plan that bit must fault traffic too (seed {seed:#x})"
    );
}

/// The heartbeater latches a partitioned node suspect within the gated
/// bound — proactively, before any client write pays a timeout — and
/// the router never acknowledges through the suspect: quorum writes
/// keep flowing over the survivors with zero transport failures.
#[test]
fn heartbeat_detects_partitioned_node_within_three_intervals() {
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
        RouterConfig {
            retry: RetryPolicy::none(),
            breaker_threshold: 2,
            connect_timeout: Duration::from_secs(1),
            request_deadline: Duration::from_secs(5),
            write_quorum: 1,
            read_cache: None,
        },
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

    // Let the heartbeater see a healthy cluster first, then cut one
    // node off. No client traffic runs — detection must be proactive.
    std::thread::sleep(INTERVAL);
    chaos.partition(&[&[0, 1], &[DARK]]);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !router.node_suspect(DARK) {
        assert!(
            Instant::now() < deadline,
            "heartbeat never latched the partitioned node"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let stats = router.stats();
    assert_eq!(stats.heartbeat_detections, 1, "exactly one proactive detection");
    assert!(
        stats.detection_latency_ms_max <= 3 * INTERVAL.as_millis() as u64,
        "detection took {} ms, bound is three intervals ({} ms)",
        stats.detection_latency_ms_max,
        3 * INTERVAL.as_millis()
    );
    assert_eq!(
        stats.transport_failures, 0,
        "proactive detection means no client request ever paid for the dark node"
    );

    // Client traffic arrives only now: every write acks over the
    // survivors (the suspect is out of the route set), still without a
    // single transport failure.
    let seed = suite_seed().wrapping_add(3);
    let mut acked = Vec::new();
    for i in 0..80u64 {
        let key = mix64(seed ^ i) % (1 << 21);
        router
            .insert(key, &[mix64(key)])
            .unwrap_or_else(|e| panic!("write {key} must ack past the suspect: {e}"));
        acked.push(key);
    }
    assert_eq!(
        router.stats().transport_failures,
        0,
        "no write may be routed into the suspected node"
    );
    assert!(router.node_suspect(DARK), "the latch holds under traffic");

    let hb = heartbeater.stop();
    assert!(hb.probes_missed >= 2, "suspicion took at least two misses");
    assert!(hb.probes_ok > 0, "the healthy warm-up answered probes");
    let stats = router.stats();
    assert_eq!(stats.heartbeat_detections, 1, "a suspect is not probed, so not detected twice");
    assert_eq!(stats.suspects_latched, 1, "and the traffic suspected nobody else");

    // Heal + repair + audit closes the loop.
    chaos.heal();
    let reports = router.repair().expect("repair");
    assert_eq!(reports.len(), 1);
    assert!(reports[0].failed.is_empty(), "failures: {:?}", reports[0].failed);
    for &key in &acked {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("post-repair lookup of {key}: {e}")),
            Some(vec![mix64(key)]),
            "acked write {key} lost across detection + repair"
        );
    }

    chaos.shutdown();
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// `fail_node` drives its map delta's moves on the migration thread
/// pool; every re-replicated shard must still land **byte-identical**
/// to its surviving primary's frozen image.
#[test]
fn concurrent_fail_node_moves_re_replicate_byte_identically() {
    const NODES: usize = 4;
    const VICTIM: usize = 1;

    let cfg = ClusterConfig {
        shards: 16,
        replication: 2,
        shard_capacity: 512,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (mut nodes, addrs) = start_cluster(cfg, &weights);
    let router = ClusterRouter::new(cfg, &addrs, &weights, RouterConfig::default());

    let seed = suite_seed().wrapping_add(4);
    let mut acked = Vec::new();
    for i in 0..400u64 {
        let key = mix64(seed ^ i) % (1 << 21);
        if router.insert(key, &[mix64(key)]).is_ok() {
            acked.push(key);
        }
    }

    nodes[VICTIM].take().unwrap().kill();
    let report = router.fail_node(VICTIM).expect("fail_node");
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert!(
        report.delta.moves.len() >= 2,
        "the drill needs multiple moves to exercise the pool, got {}",
        report.delta.moves.len()
    );

    let map = router.map_snapshot();
    for mv in &report.delta.moves {
        let primary = map.primary(mv.shard);
        assert_ne!(primary, mv.to, "a move's target trails its source in replica order");
        let primary_image = pull_image(addrs[primary], mv.shard);
        let moved_image = pull_image(addrs[mv.to], mv.shard);
        assert_eq!(
            primary_image, moved_image,
            "shard {} image diverges on its new replica",
            mv.shard
        );
        assert!(!primary_image.is_empty());
    }
    for &key in &acked {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("post-repair lookup of {key}: {e}")),
            Some(vec![mix64(key)]),
            "acked write {key} lost across the concurrent re-replication"
        );
    }

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// The router's stats and the heartbeater's probe counters are the cells
/// one [`MetricsRegistry`] adopts, so a Prometheus / JSON snapshot and the
/// in-process structs always agree — counter for counter, whenever the
/// registry arrived (here: after the first half of the traffic).
#[test]
fn router_stats_and_metrics_registry_agree() {
    const NODES: usize = 2;
    const VICTIM: usize = 1;

    let cfg = ClusterConfig {
        shards: 4,
        replication: 2,
        shard_capacity: 256,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (mut nodes, addrs) = start_cluster(cfg, &weights);
    let registry = MetricsRegistry::new();
    let router = Arc::new(ClusterRouter::new(
        cfg,
        &addrs,
        &weights,
        RouterConfig {
            retry: RetryPolicy::none(),
            breaker_threshold: 2,
            connect_timeout: Duration::from_millis(250),
            request_deadline: Duration::from_secs(5),
            write_quorum: 1,
            read_cache: Some(pdm_cache::CacheConfig::default()),
        },
    ));

    let seed = suite_seed().wrapping_add(5);
    let traffic = |range: std::ops::Range<u64>| {
        for i in range {
            let key = mix64(seed ^ i) % (1 << 21);
            let _ = router.insert(key, &[mix64(key)]);
            let _ = router.lookup(key);
            let _ = router.lookup(key);
        }
    };
    traffic(0..60);
    assert!(router.stats().writes_acked > 0, "counts must precede the registry");
    router.set_metrics(&registry);
    let heartbeater = Heartbeater::start_with_metrics(
        Arc::clone(&router),
        HeartbeatConfig {
            interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(30),
            suspect_after: 2,
            auto_repair: false,
        },
        &registry,
    );

    nodes[VICTIM].take().unwrap().kill();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !router.node_suspect(VICTIM) {
        assert!(Instant::now() < deadline, "heartbeat never latched the killed node");
        std::thread::sleep(Duration::from_millis(10));
    }
    traffic(60..120);
    // Quiesce the probe thread before comparing, so neither side moves
    // between the two reads.
    let hb = heartbeater.stop();

    let stats = router.stats();
    let counter = |name: &str, labels: &[(&str, &str)]| registry.counter(name, labels).get();
    assert_eq!(counter("cluster_router_writes_acked", &[]), stats.writes_acked);
    assert_eq!(counter("cluster_router_writes_refused", &[]), stats.writes_refused);
    assert_eq!(
        counter("cluster_router_reads", &[("path", "primary")]),
        stats.reads_primary
    );
    assert_eq!(
        counter("cluster_router_reads", &[("path", "failover")]),
        stats.reads_failover
    );
    assert_eq!(
        counter("cluster_router_reads", &[("path", "cached")]),
        stats.reads_cached
    );
    assert!(stats.reads_cached > 0, "repeat lookups must come from the read cache");
    assert_eq!(
        counter("cluster_router_transport_failures", &[]),
        stats.transport_failures
    );
    // One family, a row per cause: the struct's total is their sum, and
    // the heartbeat's detections are the `probe` row under its old name.
    assert_eq!(
        registry.snapshot().counter_sum("cluster_router_suspect_transitions", &[]),
        Some(stats.suspects_latched)
    );
    assert_eq!(
        counter("cluster_router_suspect_transitions", &[("cause", "probe")]),
        stats.heartbeat_detections
    );
    assert_eq!(
        counter("cluster_router_heartbeat_detections", &[]),
        stats.heartbeat_detections
    );
    assert_eq!(stats.heartbeat_detections, 1, "the heartbeat saw the kill first");
    assert_eq!(counter("cluster_heartbeat_probes_missed", &[]), hb.probes_missed);
    let rtt = registry.histogram("cluster_heartbeat_probe_rtt_us", &[]).snapshot();
    assert!(!rtt.is_empty(), "answered probes must land in the RTT histogram");
    let latency = registry
        .histogram("cluster_heartbeat_detection_latency_ms", &[])
        .snapshot();
    assert!(!latency.is_empty(), "the detection must land in the latency histogram");
    let rendered = registry.to_prometheus();
    assert!(
        rendered.contains("cluster_router_writes_acked"),
        "router counters must render in the Prometheus snapshot"
    );

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Two full `fail_node` / `restore_node` cycles race live writer
    /// threads: every in-flight op resolves to an ack or a typed error
    /// (the StaleEpoch map-refresh path under concurrent epoch bumps),
    /// zero acked writes are lost, and the epochs converge.
    #[test]
    fn fail_restore_cycles_race_live_traffic(case_seed in 0u64..1 << 32) {
        const NODES: usize = 4;
        const VICTIM: usize = 2;
        const WRITERS: u64 = 2;
        const KEYS_PER_WRITER: u64 = 160;

        let cfg = ClusterConfig {
            shards: 16,
            replication: 2,
            shard_capacity: 512,
            ..ClusterConfig::default()
        };
        let weights = [1u32; NODES];
        let (nodes, addrs) = start_cluster(cfg, &weights);
        let router = ClusterRouter::new(
            cfg,
            &addrs,
            &weights,
            RouterConfig {
                retry: RetryPolicy {
                    attempts: 2,
                    base_delay: Duration::from_millis(5),
                    max_delay: Duration::from_millis(20),
                },
                breaker_threshold: 2,
                connect_timeout: Duration::from_secs(1),
                request_deadline: Duration::from_secs(30),
                write_quorum: 1,
                read_cache: None,
            },
        );

        let seed = suite_seed() ^ case_seed;
        let acked: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let router = &router;
                let acked = &acked;
                s.spawn(move || {
                    for i in 0..KEYS_PER_WRITER {
                        let key = (mix64(seed ^ (t * KEYS_PER_WRITER + i)) % (1 << 19))
                            | (t << 19);
                        // An error here is a typed refusal (NoQuorum /
                        // Serve) — tolerated; only acks are audited.
                        if router.insert(key, &[mix64(key)]).is_ok() {
                            acked.lock().unwrap().push(key);
                        }
                    }
                });
            }
            // Two admin cycles mid-traffic: each bumps the epoch twice,
            // so writers keep tripping over StaleEpoch refusals and
            // refreshing their route. The scope joins everyone.
            let router = &router;
            let addrs = &addrs;
            s.spawn(move || {
                for _ in 0..2 {
                    let down = router.fail_node(VICTIM).expect("fail_node");
                    assert!(down.failed.is_empty(), "failures: {:?}", down.failed);
                    std::thread::sleep(Duration::from_millis(30));
                    let up = router
                        .restore_node(VICTIM, addrs[VICTIM])
                        .expect("restore_node");
                    assert!(up.failed.is_empty(), "failures: {:?}", up.failed);
                    std::thread::sleep(Duration::from_millis(30));
                }
            });
        });

        prop_assert_eq!(router.epoch(), 4, "two cycles, two bumps each");
        prop_assert!(
            !router.node_suspect(VICTIM),
            "the final restore must have cleared the latch"
        );
        let acked = acked.into_inner().unwrap();
        prop_assert!(acked.len() > 100, "drill needs real traffic, got {}", acked.len());
        for &key in &acked {
            let got = router
                .lookup(key)
                .unwrap_or_else(|e| panic!("post-churn lookup of {key}: {e}"));
            prop_assert_eq!(
                got,
                Some(vec![mix64(key)]),
                "acked write {} lost across fail/restore churn",
                key
            );
        }

        for node in nodes.into_iter().flatten() {
            node.shutdown();
        }
    }
}

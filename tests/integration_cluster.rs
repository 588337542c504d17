//! Cluster-tier chaos drills (`pdm-cluster`): kill a node mid-traffic
//! and prove the three PR-level claims — zero acked writes lost,
//! bounded shard movement on the epoch bump, and byte-identical
//! re-replication of a restarted node via journaled catch-up.
//!
//! Randomization follows the suite convention: deterministic by
//! default, `PROPTEST_SEED=<u64>` rotates the corpus (CI sets it per
//! run).

use expander::mix::mix64;
use pdm_cluster::{ClusterConfig, ClusterMap, ClusterNode, ClusterRouter, NodeConfig, RetryPolicy, RouterConfig};
use pdm_server::protocol::{WireRequest, WireResponse};
use pdm_server::{Op, Reply, TcpClient};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn suite_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_0801)
}

/// Router tuning for drills: quick failure detection on a dead peer,
/// but a generous response deadline so a *live* node on a loaded CI
/// worker is never spuriously distrusted (the durability invariant
/// leans on live replicas acking).
fn drill_router_config() -> RouterConfig {
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
    }
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
/// export opcodes, driven by hand).
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

/// The headline drill: 4 nodes, k = 2, writers hammering the router
/// while one node is killed mid-traffic. Every write the router acked
/// must read back exactly afterwards — first in the degraded cluster,
/// then again after the epoch bump re-replicates the dead node's
/// shards — and the bump must move only a bounded fraction of replica
/// slots (the cluster analogue of Lemma 3).
#[test]
fn chaos_drill_node_kill_mid_traffic_loses_no_acked_writes() {
    const NODES: usize = 4;
    const VICTIM: usize = 1;
    const WRITERS: u64 = 3;
    const KEYS_PER_WRITER: u64 = 250;

    let cfg = ClusterConfig {
        shards: 16,
        replication: 2,
        shard_capacity: 512,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (mut nodes, addrs) = start_cluster(cfg, &weights);
    let router = ClusterRouter::new(cfg, &addrs, &weights, drill_router_config());

    let seed = suite_seed();
    let acked: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let router = &router;
            let acked = &acked;
            let stop = &stop;
            s.spawn(move || {
                for i in 0..KEYS_PER_WRITER {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Distinct keys per writer (disjoint high bits),
                    // spread by the rotated seed and kept inside the
                    // cluster's 2^21 universe.
                    let key = (mix64(seed ^ (t * KEYS_PER_WRITER + i)) % (1 << 19))
                        | (t << 19);
                    // An unacked write promises nothing; the drill
                    // only audits acked ones.
                    if router.insert(key, &[mix64(key)]).is_ok() {
                        acked.lock().unwrap().push(key);
                    }
                }
            });
        }
        // Kill the victim while the writers are mid-stream.
        std::thread::sleep(Duration::from_millis(120));
        nodes[VICTIM].take().unwrap().kill();
    });
    let acked = acked.into_inner().unwrap();
    assert!(
        acked.len() > 100,
        "drill needs real traffic, got {} acked writes",
        acked.len()
    );

    // Degraded availability: every acked write reads back exactly with
    // the victim still dead and the map not yet bumped.
    for &key in &acked {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("degraded lookup of {key}: {e}")),
            Some(vec![mix64(key)]),
            "acked write {key} lost in degraded cluster"
        );
    }

    // Epoch bump + journaled re-replication onto the survivors.
    let report = router.fail_node(VICTIM).expect("fail_node");
    assert!(
        report.failed.is_empty(),
        "re-replication failures: {:?}",
        report.failed
    );
    assert_eq!(report.delta.epoch, 1, "one epoch bump");
    let moved = report.delta.movement_fraction(cfg.shards, cfg.replication);
    assert!(
        moved <= 1.0 / NODES as f64 + 0.10,
        "epoch bump moved {moved:.3} of replica slots, bound is 1/{NODES} + slack"
    );

    // Post-repair: still every acked write, exactly.
    for &key in &acked {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("post-repair lookup of {key}: {e}")),
            Some(vec![mix64(key)]),
            "acked write {key} lost after repair"
        );
    }
    let stats = router.stats();
    assert_eq!(stats.writes_acked, acked.len() as u64);
    assert!(
        stats.transport_failures > 0,
        "the kill must actually have been absorbed by the router"
    );

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// A restarted (empty) node rejoins at a fresh address: the epoch bumps
/// again, the map hands it back only its fair share, and journaled
/// catch-up leaves its shard images **byte-identical** to their
/// primaries' frozen images.
#[test]
fn restarted_node_rereplicates_byte_identically() {
    rereplication_drill(1, 64);
}

/// The same drill at σ = 2, where a shard of 256 keys derives 128-word
/// blocks: images of that geometry cross the wire, install and reopen
/// byte-identically.
#[test]
fn restarted_node_rereplicates_128_word_images_byte_identically() {
    rereplication_drill(2, 128);
}

fn rereplication_drill(sigma: usize, block_words: usize) {
    const NODES: usize = 3;
    const VICTIM: usize = 2;

    let cfg = ClusterConfig {
        shards: 8,
        replication: 2,
        shard_capacity: 256,
        sigma,
        ..ClusterConfig::default()
    };
    assert_eq!(cfg.block_words(), block_words);
    let weights = [1u32; NODES];
    let (mut nodes, addrs) = start_cluster(cfg, &weights);
    let router = ClusterRouter::new(cfg, &addrs, &weights, drill_router_config());

    let seed = suite_seed().wrapping_add(1);
    let keys: Vec<u64> = (0..300u64).map(|i| mix64(seed ^ i) % (1 << 21)).collect();
    let record = |key: u64| -> Vec<u64> { (0..sigma as u64).map(|i| mix64(key ^ 0xABCD ^ i)).collect() };
    for &key in &keys {
        // Colliding mixed keys are fine to skip — the audit below walks
        // the same list.
        let _ = router.insert(key, &record(key));
    }

    nodes[VICTIM].take().unwrap().kill();
    let down = router.fail_node(VICTIM).expect("fail_node");
    assert!(down.failed.is_empty(), "failures: {:?}", down.failed);

    // The node comes back empty on a fresh port.
    let reborn = ClusterNode::start("127.0.0.1:0", cfg, &[], NodeConfig::default()).unwrap();
    let up = router
        .restore_node(VICTIM, reborn.local_addr())
        .expect("restore_node");
    assert!(up.failed.is_empty(), "failures: {:?}", up.failed);
    assert_eq!(up.delta.epoch, 2);
    assert!(
        !up.delta.moves.is_empty(),
        "the restored node must win back replica slots"
    );
    let moved = up.delta.movement_fraction(cfg.shards, cfg.replication);
    assert!(moved <= 1.0 / NODES as f64 + 0.15, "restore moved {moved:.3}");

    // Byte-identity: every shard handed to the reborn node must export
    // exactly the image its primary exports. (Quiescing both sides is
    // what the migration opcodes do anyway; nothing has written since.)
    let map = router.map_snapshot();
    for mv in &up.delta.moves {
        assert_eq!(mv.to, VICTIM, "restore moves target the restored node");
        let primary = map.primary(mv.shard);
        assert_ne!(primary, VICTIM, "survivors stay ahead in replica order");
        let primary_image = pull_image(addrs[primary], mv.shard);
        let reborn_image = pull_image(reborn.local_addr(), mv.shard);
        assert_eq!(
            primary_image, reborn_image,
            "shard {} image diverges on the restored node",
            mv.shard
        );
        assert!(!primary_image.is_empty());
        // The `PDM2` header's third word is the image's block size.
        assert_eq!(u32::from_le_bytes(primary_image[8..12].try_into().unwrap()) as usize, block_words);
    }

    // And the data is still exactly served (some reads now land on the
    // reborn primary-or-replica).
    for &key in &keys {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("lookup of {key}: {e}")),
            Some(record(key)),
            "write {key} lost across kill + restore"
        );
    }

    reborn.shutdown();
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// A suspect is never read from or acked through until it is re-imaged,
/// however long the drill waits and whatever answers at its address: a
/// node that missed writes stays out of the read and ack sets even with a
/// live process at its slot. Were anything but a re-image able to re-trust
/// it, the stale node would serve `None` for acknowledged keys.
#[test]
fn a_suspect_is_never_read_or_acked_through_until_reimaged() {
    const NODES: usize = 3;
    const VICTIM: usize = 1;

    let cfg = ClusterConfig {
        shards: 8,
        replication: 2,
        shard_capacity: 512,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (mut nodes, addrs) = start_cluster(cfg, &weights);
    let router = ClusterRouter::new(cfg, &addrs, &weights, drill_router_config());

    let seed = suite_seed().wrapping_add(2);
    let mut acked: Vec<u64> = Vec::new();
    for i in 0..150u64 {
        let key = mix64(seed ^ i) % (1 << 21);
        if router.insert(key, &[mix64(key)]).is_ok() {
            acked.push(key);
        }
    }

    // Kill the victim; the next writes routed to its shards proceed
    // without it, which must latch it suspect.
    nodes[VICTIM].take().unwrap().kill();
    for i in 150..300u64 {
        let key = mix64(seed ^ i) % (1 << 21);
        if router.insert(key, &[mix64(key)]).is_ok() {
            acked.push(key);
        }
    }
    assert!(
        router.node_suspect(VICTIM),
        "a write proceeded without the dead victim; it must be latched"
    );

    // A stale impostor comes alive at the victim's slot: it hosts the
    // victim's shards but holds none of the acknowledged data. Pointing
    // the slot at it makes any request to the victim *succeed* — the
    // exact hazard a suspect's stickiness exists for.
    let map = ClusterMap::build(cfg, &weights);
    let stale =
        ClusterNode::start("127.0.0.1:0", cfg, &map.shards_on(VICTIM), NodeConfig::default())
            .expect("stale twin start");
    router.set_node_addr(VICTIM, stale.local_addr());

    // Waiting changes nothing: no clock re-admits a suspect.
    std::thread::sleep(Duration::from_millis(60));

    // Writes keep acking past the impostor, and none reaches it.
    let mut past_impostor: Vec<u64> = Vec::new();
    for i in 300..360u64 {
        let key = mix64(seed ^ i) % (1 << 21);
        if router.insert(key, &[mix64(key)]).is_ok() {
            acked.push(key);
            past_impostor.push(key);
        }
    }
    let mut probe = TcpClient::connect(stale.local_addr()).expect("impostor connect");
    for &key in past_impostor.iter().filter(|&&k| map.replicas(cfg.shard_of(k)).contains(&VICTIM)) {
        let shard = cfg.shard_of(key);
        match probe.request(&WireRequest::ShardOp { shard, epoch: 0, op: Op::Lookup(key) }) {
            Ok(WireResponse::Reply(Reply::Lookup(None))) => {}
            other => panic!("write {key} was sent to the suspect's address: {other:?}"),
        }
    }
    assert!(router.node_suspect(VICTIM), "an answering address re-trusts nothing");

    // Every acknowledged write still reads back exactly: the suspect
    // serves nothing, whatever answers at its address.
    for &key in &acked {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("lookup of {key} past the suspect: {e}")),
            Some(vec![mix64(key)]),
            "acked write {key} lost to a stale node at a suspect's address"
        );
    }

    // repair() selects on the node's trust — called however long
    // after, it must still find the victim and drive the epoch bump +
    // re-replication.
    let reports = router.repair().expect("repair");
    assert_eq!(reports.len(), 1, "repair must declare exactly the victim dead");
    assert!(reports[0].failed.is_empty(), "failures: {:?}", reports[0].failed);
    for &key in &acked {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("post-repair lookup of {key}: {e}")),
            Some(vec![mix64(key)]),
            "acked write {key} lost after repair"
        );
    }

    stale.shutdown();
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// A replica answering `WrongShard` (the re-replication window: it is
/// mapped but its image has not installed) must not fail the write —
/// the router skips it like an unreachable one and lets the quorum
/// check decide, without latching it suspect.
#[test]
fn write_skips_wrong_shard_replicas_instead_of_failing() {
    let cfg = ClusterConfig {
        shards: 8,
        replication: 2,
        shard_capacity: 256,
        ..ClusterConfig::default()
    };
    let weights = [1u32, 1];
    let map = ClusterMap::build(cfg, &weights);
    // Node 0 hosts everything; node 1 is mapped as a replica of every
    // shard but hosts nothing yet — every operation sent to it answers
    // WrongShard.
    let full = ClusterNode::start("127.0.0.1:0", cfg, &map.shards_on(0), NodeConfig::default())
        .expect("full node start");
    let empty =
        ClusterNode::start("127.0.0.1:0", cfg, &[], NodeConfig::default()).expect("empty node");
    let router = ClusterRouter::new(
        cfg,
        &[full.local_addr(), empty.local_addr()],
        &weights,
        drill_router_config(),
    );

    let keys: Vec<u64> = (0..60u64).map(|i| mix64(0xBADD ^ i) % (1 << 21)).collect();
    for &key in &keys {
        router
            .insert(key, &[mix64(key)])
            .unwrap_or_else(|e| panic!("insert of {key} must ack on the data holder: {e}"));
    }
    for &key in &keys {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("lookup of {key}: {e}")),
            Some(vec![mix64(key)]),
            "write {key} must be served past the WrongShard replica"
        );
    }
    assert!(
        !router.node_suspect(1),
        "a WrongShard answer is not unreachability; the replica stays trusted"
    );
    assert_eq!(router.stats().writes_acked, keys.len() as u64);

    full.shutdown();
    empty.shutdown();
}

/// Inserts are idempotent at the cluster level: a duplicate-key refusal
/// certifies the key is durably present on that replica and counts as
/// its ack, so a caller retry of a partially applied insert (and a
/// plain re-insert) acknowledges instead of hard-failing.
#[test]
fn duplicate_insert_acks_idempotently() {
    let cfg = ClusterConfig {
        shards: 4,
        replication: 2,
        shard_capacity: 128,
        ..ClusterConfig::default()
    };
    let weights = [1u32, 1];
    let (nodes, addrs) = start_cluster(cfg, &weights);
    let router = ClusterRouter::new(cfg, &addrs, &weights, drill_router_config());

    router.insert(42, &[7]).expect("first insert");
    router
        .insert(42, &[7])
        .expect("re-inserting an existing key must ack, not refuse");
    // A duplicate ack never overwrites: the first write's satellite wins.
    router.insert(42, &[9]).expect("duplicate with different satellite still acks");
    assert_eq!(router.lookup(42).expect("lookup"), Some(vec![7]));
    assert_eq!(router.stats().writes_acked, 3);
    assert_eq!(router.stats().writes_refused, 0);

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// Weighted placement respects capacity heterogeneity end to end: a
/// weight-3 node must host roughly three times the replica slots of a
/// weight-1 node, and the cluster must still serve through a kill of
/// the *heaviest* node.
#[test]
fn weighted_cluster_survives_losing_its_heaviest_node() {
    let cfg = ClusterConfig {
        shards: 24,
        replication: 2,
        shard_capacity: 256,
        ..ClusterConfig::default()
    };
    let weights = [3u32, 1, 1, 1];
    let (mut nodes, addrs) = start_cluster(cfg, &weights);

    let map = ClusterMap::build(cfg, &weights);
    let heavy = map.shards_on(0).len();
    let light: usize = (1..4).map(|n| map.shards_on(n).len()).sum::<usize>() / 3;
    assert!(
        heavy > light,
        "weight-3 node hosts {heavy} replica slots, weight-1 average {light}"
    );

    let router = ClusterRouter::new(cfg, &addrs, &weights, drill_router_config());
    let keys: Vec<u64> = (0..200u64).map(|i| mix64(0xFEED ^ i) % (1 << 21)).collect();
    for &key in &keys {
        let _ = router.insert(key, &[key]);
    }
    nodes[0].take().unwrap().kill();
    let report = router.fail_node(0).expect("fail_node");
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    for &key in &keys {
        assert_eq!(
            router.lookup(key).unwrap_or_else(|e| panic!("lookup of {key}: {e}")),
            Some(vec![key]),
            "write {key} lost with the heavy node down"
        );
    }
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

/// Client-side read cache vs failover: a value cached under epoch 0
/// must never be served once the map moves to epoch 1 — even when the
/// cluster's truth changed behind the router's back during the
/// transition. A stale cache would answer the old satellite below; the
/// epoch bump has to drop it.
#[test]
fn read_cache_never_serves_pre_failover_value_after_epoch_bump() {
    const NODES: usize = 3;
    let cfg = ClusterConfig {
        shards: 8,
        replication: 2,
        shard_capacity: 256,
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let (mut nodes, addrs) = start_cluster(cfg, &weights);
    let router = ClusterRouter::new(
        cfg,
        &addrs,
        &weights,
        RouterConfig {
            read_cache: Some(pdm_cache::CacheConfig::default()),
            ..drill_router_config()
        },
    );

    let key = 0xC0FFEE % (1 << 21);
    let shard = cfg.shard_of(key);
    router.insert(key, &[0xAA]).expect("insert");

    // The first lookup fills the router's cache (it has room); the
    // second is served from it.
    assert_eq!(router.lookup(key).expect("warm lookup"), Some(vec![0xAA]));
    assert_eq!(router.lookup(key).expect("cached lookup"), Some(vec![0xAA]));
    assert_eq!(
        router.stats().reads_cached,
        1,
        "second lookup must be a cache hit"
    );

    // Kill the shard's primary mid-life and drive the failover.
    let victim = {
        let map = router.map_snapshot();
        map.replicas(shard)[0]
    };
    nodes[victim].take().unwrap().kill();
    let report = router.fail_node(victim).expect("fail_node");
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert_eq!(report.delta.epoch, 1, "failover bumps to epoch 1");

    // The truth changes under the new epoch behind the router's back —
    // another client of the same cluster deletes the key.
    let epoch = router.epoch();
    let mut deleted = 0;
    for node in nodes.iter().flatten() {
        let mut client = TcpClient::connect(node.local_addr()).expect("connect");
        match client
            .request(&WireRequest::ShardOp {
                shard,
                epoch,
                op: Op::Delete(key),
            })
            .expect("out-of-band delete")
        {
            WireResponse::Reply(Reply::Deleted(was)) => deleted += u32::from(was),
            // Nodes not hosting the shard refuse; that is fine.
            WireResponse::Err(_) => {}
            other => panic!("delete answered {other:?}"),
        }
    }
    assert!(deleted >= 1, "some replica must have held the key");

    // The cached pre-failover value must be gone: the router re-reads
    // the (new) replica set and observes the delete.
    assert_eq!(
        router.lookup(key).expect("post-failover lookup"),
        None,
        "pre-failover cached value served after the epoch bump"
    );
    assert_eq!(
        router.stats().reads_cached,
        1,
        "the post-failover lookup must not have been a cache hit"
    );

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
}

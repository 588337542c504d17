//! Cluster-tier chaos bench: the PR-level robustness claims as
//! regenerable numbers.
//!
//! Drill: `k = 2` replication over 4 single-process nodes, writer
//! threads hammering the [`ClusterRouter`] while one node is killed
//! mid-traffic, then the epoch bump + journaled re-replication. The
//! report gates
//!
//! * **durability** — zero acked writes lost, audited in the degraded
//!   cluster and again after repair;
//! * **availability** — the fraction of writes acked while a quarter of
//!   the cluster was dying stays high (quorum writes keep serving);
//! * **bounded movement** — the epoch bump moves at most `1/N + slack`
//!   of replica slots (the cluster analogue of Lemma 3).
//!
//! Smoke: `cargo run -p bench --release --bin cluster -- --smoke`

use expander::mix::mix64;
use pdm_cluster::{ClusterConfig, ClusterMap, ClusterNode, ClusterRouter, NodeConfig, RetryPolicy, RouterConfig};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const NODES: usize = 4;
const VICTIM: usize = 1;
const MOVEMENT_SLACK: f64 = 0.10;

#[derive(Serialize)]
struct Report {
    smoke: bool,
    nodes: usize,
    replication: usize,
    shards: u32,
    writes_attempted: u64,
    writes_acked: u64,
    /// Acked writes that failed their exact read-back in the degraded
    /// cluster (gated to zero).
    acked_lost_degraded: u64,
    /// Acked writes that failed their exact read-back after repair
    /// (gated to zero).
    acked_lost_after_repair: u64,
    /// Fraction of writes acked while the kill was in flight.
    write_availability: f64,
    /// Replica slots moved by the epoch bump over all replica slots.
    movement_fraction: f64,
    /// The gate: `1/N + slack`.
    movement_bound: f64,
    shards_re_replicated: usize,
    re_replication_failures: usize,
    transport_failures_absorbed: u64,
}

fn main() -> std::process::ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (shards, keys_per_writer) = if smoke { (16u32, 200u64) } else { (32u32, 1500u64) };
    const WRITERS: u64 = 3;

    let cfg = ClusterConfig {
        shards,
        replication: 2,
        shard_capacity: if smoke { 512 } else { 1024 },
        ..ClusterConfig::default()
    };
    let weights = [1u32; NODES];
    let map = ClusterMap::build(cfg, &weights);
    let mut nodes: Vec<Option<ClusterNode>> = (0..NODES)
        .map(|n| {
            Some(
                ClusterNode::start("127.0.0.1:0", cfg, &map.shards_on(n), NodeConfig::default())
                    .expect("node start"),
            )
        })
        .collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.as_ref().unwrap().local_addr()).collect();
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

    // Writers hammer the router; the victim dies mid-stream.
    let acked: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let attempted = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let router = &router;
            let acked = &acked;
            let attempted = &attempted;
            s.spawn(move || {
                for i in 0..keys_per_writer {
                    let key =
                        (mix64(0xC1A0_5EED ^ (t * keys_per_writer + i)) % (1 << 19)) | (t << 19);
                    attempted.fetch_add(1, Ordering::Relaxed);
                    if router.insert(key, &[mix64(key)]).is_ok() {
                        acked.lock().unwrap().push(key);
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(if smoke { 80 } else { 300 }));
        nodes[VICTIM].take().unwrap().kill();
    });
    let acked = acked.into_inner().unwrap();
    let attempted = attempted.into_inner();

    let audit = |label: &str| -> u64 {
        let mut lost = 0;
        for &key in &acked {
            match router.lookup(key) {
                Ok(Some(sat)) if sat == vec![mix64(key)] => {}
                other => {
                    eprintln!("{label}: acked key {key} answered {other:?}");
                    lost += 1;
                }
            }
        }
        lost
    };
    let acked_lost_degraded = audit("degraded");

    let report_down = router.fail_node(VICTIM).expect("fail_node");
    let movement_fraction = report_down
        .delta
        .movement_fraction(cfg.shards, cfg.replication);
    let acked_lost_after_repair = audit("post-repair");

    let report = Report {
        smoke,
        nodes: NODES,
        replication: cfg.replication,
        shards,
        writes_attempted: attempted,
        writes_acked: acked.len() as u64,
        acked_lost_degraded,
        acked_lost_after_repair,
        write_availability: acked.len() as f64 / attempted.max(1) as f64,
        movement_fraction,
        movement_bound: 1.0 / NODES as f64 + MOVEMENT_SLACK,
        shards_re_replicated: report_down.replicated.len(),
        re_replication_failures: report_down.failed.len(),
        transport_failures_absorbed: router.stats().transport_failures,
    };

    let mut failures: Vec<String> = Vec::new();
    if report.acked_lost_degraded > 0 {
        failures.push(format!(
            "{} acked writes unreadable in the degraded cluster",
            report.acked_lost_degraded
        ));
    }
    if report.acked_lost_after_repair > 0 {
        failures.push(format!(
            "{} acked writes unreadable after repair",
            report.acked_lost_after_repair
        ));
    }
    if report.movement_fraction > report.movement_bound {
        failures.push(format!(
            "epoch bump moved {:.3} of replica slots, bound {:.3}",
            report.movement_fraction, report.movement_bound
        ));
    }
    if report.re_replication_failures > 0 {
        failures.push(format!(
            "{} shards failed to re-replicate: {:?}",
            report.re_replication_failures, report_down.failed
        ));
    }
    if report.write_availability < 0.95 {
        failures.push(format!(
            "write availability {:.3} below 0.95 with a single node dying",
            report.write_availability
        ));
    }

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }

    let accept = format!(
        "zero acked writes lost through a mid-traffic node kill, epoch bump moved \
         {:.3} ≤ {:.3} of replica slots, {} shards re-replicated",
        report.movement_fraction, report.movement_bound, report.shards_re_replicated
    );
    bench::finish("BENCH_cluster", &report, &failures, &accept)
}

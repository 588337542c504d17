//! Observability: watch a dictionary work through its exported metrics.
//!
//! ```sh
//! cargo run -p pdm-dict --example observability
//! ```
//!
//! Installs a `MetricsRegistry` on a dictionary via the unified `Dict`
//! trait, runs a small workload, and prints what the telemetry saw:
//! per-op parallel-I/O histograms (the paper's own cost metric),
//! per-disk block counts and their imbalance, rebuild pacing — then the
//! same data as Prometheus text and JSON, ready for scraping.

use pdm::metrics::{MetricsRegistry, DISK_BLOCKS_TOTAL};
use pdm_dict::traits::DICT_OP_PARALLEL_IOS;
use pdm_dict::{Dict, DictParams, Dictionary};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = DictParams::new(1_000, 1 << 40, 2)
        .with_degree(20)
        .with_epsilon(0.5)
        .with_seed(7);
    let mut dict = Dictionary::new(params, 128)?;

    // Hook up a registry. Every front-end implements `Dict`, so this
    // works identically for BasicDict, OneProbeStatic, DynamicDict …
    let registry = Arc::new(MetricsRegistry::new());
    dict.set_metrics(Some(Arc::clone(&registry)));

    println!("running 2,000 inserts + 3,000 lookups with metrics installed …");
    for k in 0..2_000u64 {
        Dict::insert(&mut dict, k * 977, &[k, k + 1])?;
    }
    for k in 0..3_000u64 {
        Dict::lookup(&mut dict, k * 977); // last third miss
    }
    dict.refresh_gauges();

    let snap = registry.snapshot();

    // 1. The paper's guarantees, read off the histograms.
    let lookups = snap
        .histogram(DICT_OP_PARALLEL_IOS, &[("dict", "rebuild"), ("op", "lookup")])
        .expect("lookup histogram");
    println!(
        "lookup parallel I/Os: count = {}, mean = {:.3}, p50 = {}, p99 = {}, max = {}",
        lookups.count,
        lookups.mean(),
        lookups.percentile(0.50),
        lookups.percentile(0.99),
        lookups.max,
    );

    // 2. Deterministic load balancing, visible as per-disk balance.
    if let Some(imb) = snap.imbalance(DISK_BLOCKS_TOTAL, &[("op", "read")]) {
        println!("read imbalance (max/mean over disks): {imb:.3}");
    }

    // 3. Structure shape and rebuild pacing.
    for g in &snap.gauges {
        if g.name.starts_with("dict_") {
            println!("{} = {}", g.name, g.value);
        }
    }

    // 4. Export formats. Prometheus text for scraping …
    let prom = snap.to_prometheus();
    println!("\n--- prometheus (excerpt) ---");
    for line in prom.lines().filter(|l| l.contains("dict_ops_total")).take(6) {
        println!("{line}");
    }
    // … and JSON for offline analysis.
    let json = snap.to_json();
    println!("\nJSON export: {} bytes (try piping to jq)", json.len());

    // Uninstall: the structure reverts to zero-overhead operation.
    dict.set_metrics(None);
    Ok(())
}

//! THM7 — Theorem 7: the dynamic dictionary with `1 + ɛ` average-I/O
//! lookups and `2 + ɛ` average-I/O updates.
//!
//! Sweeps the performance parameter ɛ; for each, inserts `n` keys and
//! reports average/worst insert and lookup costs, the exact 1-I/O cost of
//! unsuccessful searches, and the per-level population (which should decay
//! geometrically — the mechanism behind the averages).
//!
//! Each row also carries the space ledger (blocks per region) and the
//! bytes stored per key of capacity. At the served shape (ɛ = 0.5, d = 20,
//! σ = 2 words, B = 128) the run fails if a block is unowned, the chain
//! field is wider than its worst chain needs, or a key of capacity costs
//! over 600 B (≈ 533: 20 × 110 bucket rows + 20 × 316 field rows for 2^14).
//!
//! Run: `cargo run -p bench --release --bin thm7_dynamic`

use bench::workloads::{entries_for, miss_probes, uniform_keys};
use pdm::CostProfile;
use pdm_dict::one_probe::encoding::Chain;
use pdm_dict::{Dict, DictHandle, DictParams};
use std::process::ExitCode;

#[derive(serde::Serialize)]
struct Row {
    epsilon: f64,
    degree: usize,
    n: usize,
    insert_avg: f64,
    insert_bound: f64,
    insert_worst: u64,
    levels: usize,
    lookup_avg: f64,
    lookup_bound: f64,
    lookup_worst: u64,
    miss_avg: f64,
    level_population: Vec<usize>,
    field_bits: usize,
    space_blocks: Vec<(String, usize)>,
    bytes_per_capacity_key: f64,
}

fn main() -> ExitCode {
    let n = 1 << 13;
    let sigma = 2;
    println!(
        "{:>6} {:>4} {:>8} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>7} | {:>8}  levels",
        "ɛ", "d", "n", "ins avg", "≤ 2+ɛ", "ins wc", "lkp avg", "≤ 1+ɛ", "lkp wc", "miss avg"
    );
    let mut rows = Vec::new();
    // d > 6(1 + 1/ɛ) constrains the sweep: ɛ = 1 -> d ≥ 13; 0.5 -> 19;
    // 0.25 -> 31; 0.125 -> 55.
    for &(eps, d) in &[(1.0, 16), (0.5, 20), (0.25, 32), (0.125, 56)] {
        let keys = uniform_keys(n, 1 << 40, 0x707 + d as u64);
        let entries = entries_for(&keys, sigma);
        // Capacity 2n for headroom.
        let params = DictParams::new(2 * n, 1 << 40, sigma).with_degree(d).with_epsilon(eps).with_seed(0x707);
        let mut shard = DictHandle::in_memory(params, 128).expect("valid params");
        let mut insert_profile = CostProfile::default();
        for (k, s) in &entries {
            insert_profile.record(shard.insert(*k, s).expect("inserts succeed"));
        }

        let mut lookups = CostProfile::default();
        for (k, _) in &entries {
            let out = shard.lookup(*k);
            assert!(out.found());
            lookups.record(out.cost);
        }
        let mut misses = CostProfile::default();
        for k in miss_probes(&keys, 1 << 40, 2000, 0x708) {
            let out = shard.lookup(k);
            assert!(!out.found());
            misses.record(out.cost);
        }
        let level_population = shard.dict().level_population().to_vec();
        let space_blocks = pdm_dict::layout::space_ledger(shard.disk_array(), shard.dict().space_rows());
        let capacity = shard.dict().capacity();
        let blocks: usize = space_blocks.iter().map(|(_, blocks)| blocks).sum();
        let row = Row {
            epsilon: eps,
            degree: d,
            n,
            insert_avg: insert_profile.average(),
            insert_bound: 2.0 + eps,
            insert_worst: insert_profile.worst_parallel_ios,
            levels: level_population.len(),
            lookup_avg: lookups.average(),
            lookup_bound: 1.0 + eps,
            lookup_worst: lookups.worst_parallel_ios,
            miss_avg: misses.average(),
            level_population,
            field_bits: Chain::new(sigma * 64, d).field_bits,
            bytes_per_capacity_key: (blocks * 128 * 8) as f64 / capacity as f64,
            space_blocks,
        };
        println!(
            "{:>6} {:>4} {:>8} | {:>8.4} {:>8.3} {:>7} | {:>8.4} {:>8.3} {:>7} | {:>8.3}  {:?}",
            row.epsilon,
            row.degree,
            row.n,
            row.insert_avg,
            row.insert_bound,
            row.insert_worst,
            row.lookup_avg,
            row.lookup_bound,
            row.lookup_worst,
            row.miss_avg,
            row.level_population
        );
        println!("{:>20} {} field bits, {:.1} B/capacity key, blocks {:?}", "space:", row.field_bits, row.bytes_per_capacity_key, row.space_blocks);
        if d == 20 {
            let m = (2 * d).div_ceil(3);
            let tight = (sigma * 64 + d - 1 + 2 * m).div_ceil(m).max(d - m + 3);
            let unowned = row.space_blocks.last().map_or(0, |(_, blocks)| *blocks);
            assert!(
                unowned == 0 && row.field_bits <= tight && row.bytes_per_capacity_key <= 600.0,
                "FAIL: the served shape's space ({unowned} unowned blocks; field bound {tight} bits)"
            );
        }
        rows.push(row);
    }
    println!("\nTheorem 7 holds if: ins avg ≤ 2+ɛ, lkp avg ≤ 1+ɛ, miss avg = 1, worst ≤ levels+1.");
    bench::finish("thm7_dynamic", &rows, &[], "")
}

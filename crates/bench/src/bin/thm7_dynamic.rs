//! THM7 — Theorem 7: the dynamic dictionary with `1 + ɛ` average-I/O
//! lookups and `2 + ɛ` average-I/O updates.
//!
//! Sweeps the performance parameter ɛ; for each, inserts `n` keys and
//! reports average/worst insert and lookup costs, the exact 1-I/O cost of
//! unsuccessful searches, and the per-level population (which should decay
//! geometrically — the mechanism behind the averages). The sweep's records
//! are 4 words, the smallest width whose membership bucket (23 slots of 6
//! words at capacity 2¹⁴) outgrows a 128-word block, so every row keeps
//! Theorem 7's chains.
//!
//! Each row also carries the space ledger (blocks per region) and the
//! bytes stored per key of capacity. A last row is the served shape (ɛ =
//! 0.5, d = 20, σ = 2 words, B = 128): its records fit their membership
//! slots, so it lays out no level. The run fails if that row owns a level
//! or an unowned block, or stores over 150 B per key of capacity (137.5:
//! 20 × 110 bucket rows for 2¹⁴), and if the chained row at d = 20 has an
//! unowned block or a chain field wider than its worst chain needs.
//!
//! Run: `cargo run -p bench --release --bin thm7_dynamic`

use bench::workloads::{entries_for, miss_probes, uniform_keys};
use pdm::CostProfile;
use pdm_dict::one_probe::encoding::Chain;
use pdm_dict::{Dict, DictHandle, DictParams};
use std::process::ExitCode;

/// Record width of the sweep: chained at every row's capacity.
const CHAINED_SIGMA: usize = 4;
/// Record width of the served shape: stored in its membership slot.
const SERVED_SIGMA: usize = 2;

#[derive(serde::Serialize)]
struct Row {
    epsilon: f64,
    degree: usize,
    sigma: usize,
    inline: bool,
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

/// Insert `n` keys of `sigma` words into a fresh shard of capacity `2n`,
/// look every one up and 2 000 absent ones, and report the costs.
fn measure(eps: f64, d: usize, sigma: usize, n: usize) -> Row {
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
    Row {
        epsilon: eps,
        degree: d,
        sigma,
        inline: shard.dict().is_inline(),
        n,
        insert_avg: insert_profile.average(),
        insert_bound: 2.0 + eps,
        insert_worst: insert_profile.worst_parallel_ios,
        levels: shard.dict().num_levels(),
        lookup_avg: lookups.average(),
        lookup_bound: 1.0 + eps,
        lookup_worst: lookups.worst_parallel_ios,
        miss_avg: misses.average(),
        level_population,
        field_bits: Chain::new(sigma * 64, d).field_bits,
        bytes_per_capacity_key: (blocks * 128 * 8) as f64 / capacity as f64,
        space_blocks,
    }
}

fn main() -> ExitCode {
    let n = 1 << 13;
    println!(
        "{:>6} {:>4} {:>2} {:>8} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>7} | {:>8}  levels",
        "ɛ", "d", "σ", "n", "ins avg", "≤ 2+ɛ", "ins wc", "lkp avg", "≤ 1+ɛ", "lkp wc", "miss avg"
    );
    // d > 6(1 + 1/ɛ) constrains the sweep: ɛ = 1 -> d ≥ 13; 0.5 -> 19;
    // 0.25 -> 31; 0.125 -> 55. Then the served shape.
    let shapes = [(1.0, 16, CHAINED_SIGMA), (0.5, 20, CHAINED_SIGMA), (0.25, 32, CHAINED_SIGMA), (0.125, 56, CHAINED_SIGMA), (0.5, 20, SERVED_SIGMA)];
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (eps, d, sigma) in shapes {
        let row = measure(eps, d, sigma, n);
        println!(
            "{:>6} {:>4} {:>2} {:>8} | {:>8.4} {:>8.3} {:>7} | {:>8.4} {:>8.3} {:>7} | {:>8.3}  {:?}",
            row.epsilon,
            row.degree,
            row.sigma,
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
        let layout = if row.inline { "records inline".to_string() } else { format!("{} field bits", row.field_bits) };
        println!("{:>20} {layout}, {:.1} B/capacity key, blocks {:?}", "space:", row.bytes_per_capacity_key, row.space_blocks);
        let unowned = row.space_blocks.last().map_or(0, |(_, blocks)| *blocks);
        if sigma == SERVED_SIGMA {
            if !(row.inline && row.levels == 0 && unowned == 0 && row.bytes_per_capacity_key <= 150.0) {
                failures.push(format!(
                    "the served shape's space: inline {}, {} levels, {unowned} unowned blocks, {:.1} B per capacity key (bound 150)",
                    row.inline, row.levels, row.bytes_per_capacity_key
                ));
            }
        } else if d == 20 {
            let m = (2 * d).div_ceil(3);
            let tight = (sigma * 64 + d - 1 + 2 * m).div_ceil(m).max(d - m + 3);
            if row.inline || unowned != 0 || row.field_bits > tight {
                failures.push(format!(
                    "the chained shape's space: inline {}, {unowned} unowned blocks, {} field bits (bound {tight})",
                    row.inline, row.field_bits
                ));
            }
        }
        rows.push(row);
    }
    println!("\nTheorem 7 holds if: ins avg ≤ 2+ɛ, lkp avg ≤ 1+ɛ, miss avg = 1, worst ≤ levels+1.");
    bench::finish("thm7_dynamic", &rows, &failures, "the served shape stores its records inline; the chained shape's fields are tight")
}

//! ABL2 — ablation: expander quality vs dictionary cost.
//!
//! The Theorem 7 structure's `1 + ɛ` / `2 + ɛ` averages rest on the field
//! arrays' expansion, which in turn depends on the right-part slack
//! `c` in `v = c·N·d`. Shrinking `c` degrades expansion: more keys fall
//! through to deeper levels, the averages drift up, and below a critical
//! slack the first-fit insertion starts failing outright — the empirical
//! version of the theorems' `v = Θ(N·d)` requirement.
//!
//! Run: `cargo run -p bench --release --bin ablation_expansion`

use bench::workloads::{entries_for, uniform_keys};
use pdm::CostProfile;
use pdm_dict::{DictHandle, DictParams};

#[derive(serde::Serialize)]
struct Row {
    right_slack: f64,
    inserted: usize,
    failed: usize,
    insert_avg: f64,
    lookup_avg: f64,
    level_population: Vec<usize>,
    space_words: usize,
}

fn main() -> std::process::ExitCode {
    let n = 1 << 12;
    let d = 20;
    let eps = 0.5;
    let keys = uniform_keys(n, 1 << 40, 0xAB2E);
    let entries = entries_for(&keys, 1);
    println!(
        "{:>6} {:>8} {:>7} {:>9} {:>9} {:>12}  levels",
        "slack", "stored", "failed", "ins avg", "lkp avg", "space(w)"
    );
    let mut rows = Vec::new();
    for &slack in &[0.75f64, 1.0, 1.5, 2.0, 4.0, 8.0] {
        let mut params = DictParams::new(n, 1 << 40, 1)
            .with_degree(d)
            .with_epsilon(eps)
            .with_seed(0xAB2F);
        params.right_slack = slack;
        let (mut dict, mut disks) = DictHandle::in_memory(params, 64).unwrap().into_parts();
        let mut inserts = CostProfile::default();
        let mut failed = 0usize;
        for (k, s) in &entries {
            match dict.insert(&mut disks, *k, s) {
                Ok(c) => inserts.record(c),
                Err(_) => failed += 1,
            }
        }
        let mut lookups = CostProfile::default();
        for (k, _) in &entries {
            let out = dict.lookup(&mut disks, *k);
            if out.found() {
                lookups.record(out.cost);
            }
        }
        let row = Row {
            right_slack: slack,
            inserted: dict.len(),
            failed,
            insert_avg: inserts.average(),
            lookup_avg: lookups.average(),
            level_population: dict.level_population().to_vec(),
            space_words: dict.space_words(&disks),
        };
        println!(
            "{:>6} {:>8} {:>7} {:>9.4} {:>9.4} {:>12}  {:?}",
            row.right_slack,
            row.inserted,
            row.failed,
            row.insert_avg,
            row.lookup_avg,
            row.space_words,
            row.level_population
        );
        rows.push(row);
    }
    println!(
        "\nShape: generous slack keeps nearly all keys on level 1 (averages ≈ 1 and 2); \
         starving the expander pushes keys deeper and eventually fails first-fit entirely."
    );
    bench::finish("ablation_expansion", &rows, &[], "")
}

//! SEEDS — how often a sampled graph fails to expand, per front and family.
//!
//! Every guarantee in the repo rests on one seeded striped graph expanding
//! for the key set it meets; a seeded family gives that only w.h.p. over
//! seeds. For every catalogue front × every hash family this builds the
//! front over a fixed 300-key set at seeds `0..1000` and counts the builds
//! (construction or preload) that return an expansion-class error
//! (`DictError::is_expansion_failure`). It reports; it gates nothing: the
//! table in EXPERIMENTS.md is the baseline ROADMAP "Certify or re-seed" must
//! take to zero.
//!
//! Writes `target/experiments/BENCH_seeds.json`.
//!
//! Run: `cargo run -p bench --release --bin seed_sweep`
//! Smoke (seeds `0..50`): `cargo run -p bench --release --bin seed_sweep -- --smoke`

use bench::fronts::{dense_keys, fronts_with, padded_entries};
use expander::{FamilyKind, NeighborFamily};
use serde::Serialize;

const KEYS: usize = 300;

#[derive(Serialize)]
struct Row {
    front: &'static str,
    family: &'static str,
    seeds: u64,
    /// Builds that failed with `BucketOverflow`, `LevelsExhausted` or
    /// `ExpansionFailure`.
    expansion_failures: u64,
    /// Builds that failed any other way.
    other_failures: u64,
    /// The first seeds that failed to expand, to replay them.
    first_failing_seeds: Vec<u64>,
}

fn main() -> std::process::ExitCode {
    let seeds = if std::env::args().any(|a| a == "--smoke") { 50 } else { 1000 };
    let keys = dense_keys(KEYS);
    println!("{:<18} {:<11} {:>6} {:>10} {:>6}  first failing seeds", "front", "family", "seeds", "expansion", "other");
    let mut rows = Vec::new();
    for family in FamilyKind::ALL {
        for f in fronts_with(family) {
            let entries = padded_entries(&f, &keys);
            let mut row = Row {
                front: f.name,
                family: family.name(),
                seeds,
                expansion_failures: 0,
                other_failures: 0,
                first_failing_seeds: Vec::new(),
            };
            for seed in 0..seeds {
                match f.try_build(KEYS, &entries, seed) {
                    Ok(_) => {}
                    Err(e) if e.is_expansion_failure() => {
                        row.expansion_failures += 1;
                        if row.first_failing_seeds.len() < 8 {
                            row.first_failing_seeds.push(seed);
                        }
                    }
                    Err(_) => row.other_failures += 1,
                }
            }
            println!(
                "{:<18} {:<11} {:>6} {:>10} {:>6}  {:?}",
                row.front, row.family, row.seeds, row.expansion_failures, row.other_failures, row.first_failing_seeds
            );
            rows.push(row);
        }
    }
    bench::finish("BENCH_seeds", &rows, &[], "")
}

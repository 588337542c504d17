//! SEEDS — how often a sampled graph fails to expand, per front and family.
//!
//! Every guarantee in the repo rests on one seeded striped graph expanding
//! for the key set it meets; a seeded family gives that only w.h.p. over
//! seeds. For every key-set size the suites use (20, 42 and 300 keys) ×
//! every catalogue front × every hash family this builds the front at
//! seeds `0..1000` and counts the builds (construction or preload) that
//! return an expansion-class error (`DictError::is_expansion_failure`) —
//! after a static build's redraws (`pdm_dict::one_probe::BUILD_ATTEMPTS`),
//! so these are the failures that escape — and the static builds that
//! needed a redraw. It reports; it gates nothing: the table is in
//! EXPERIMENTS.md.
//!
//! Writes `target/experiments/BENCH_seeds.json`.
//!
//! Run: `cargo run -p bench --release --bin seed_sweep`
//! Smoke (seeds `0..50`): `cargo run -p bench --release --bin seed_sweep -- --smoke`

use bench::fronts::{dense_keys, fronts_with, padded_entries};
use expander::{FamilyKind, NeighborFamily};
use serde::Serialize;

/// The key-set sizes of the suites' static reds, and the sweep's first.
const KEY_SETS: [usize; 3] = [20, 42, 300];

#[derive(Serialize)]
struct Row {
    keys: usize,
    front: &'static str,
    family: &'static str,
    seeds: u64,
    /// Builds that failed with `BucketOverflow`, `LevelsExhausted` or
    /// `ExpansionFailure`, after every redraw.
    expansion_failures: u64,
    /// Builds that failed any other way.
    other_failures: u64,
    /// Builds whose graph expanded only at a later attempt.
    redrawn: u64,
    /// The latest attempt any build expanded at.
    last_attempt: u32,
    /// The first seeds that failed to expand, to replay them.
    first_failing_seeds: Vec<u64>,
    /// The first seeds that were redrawn.
    first_redrawn_seeds: Vec<u64>,
}

fn main() -> std::process::ExitCode {
    let seeds = if std::env::args().any(|a| a == "--smoke") { 50 } else { 1000 };
    println!(
        "{:>4} {:<18} {:<11} {:>6} {:>10} {:>6} {:>8} {:>5}  first failing / redrawn seeds",
        "keys", "front", "family", "seeds", "expansion", "other", "redrawn", "last"
    );
    let mut rows = Vec::new();
    for n in KEY_SETS {
        let keys = dense_keys(n);
        for family in FamilyKind::ALL {
            for f in fronts_with(family) {
                let entries = padded_entries(&f, &keys);
                let mut row = Row {
                    keys: n,
                    front: f.name,
                    family: family.name(),
                    seeds,
                    expansion_failures: 0,
                    other_failures: 0,
                    redrawn: 0,
                    last_attempt: 0,
                    first_failing_seeds: Vec::new(),
                    first_redrawn_seeds: Vec::new(),
                };
                for seed in 0..seeds {
                    let (count, first) = match f.measured(n, &entries, seed) {
                        Ok(m) if m.desc.build_attempt == 0 => continue,
                        Ok(m) => {
                            row.last_attempt = row.last_attempt.max(m.desc.build_attempt);
                            (&mut row.redrawn, &mut row.first_redrawn_seeds)
                        }
                        Err(e) if e.is_expansion_failure() => {
                            (&mut row.expansion_failures, &mut row.first_failing_seeds)
                        }
                        Err(_) => {
                            row.other_failures += 1;
                            continue;
                        }
                    };
                    *count += 1;
                    if first.len() < 8 {
                        first.push(seed);
                    }
                }
                println!(
                    "{:>4} {:<18} {:<11} {:>6} {:>10} {:>6} {:>8} {:>5}  {:?} / {:?}",
                    row.keys,
                    row.front,
                    row.family,
                    row.seeds,
                    row.expansion_failures,
                    row.other_failures,
                    row.redrawn,
                    row.last_attempt,
                    row.first_failing_seeds,
                    row.first_redrawn_seeds
                );
                rows.push(row);
            }
        }
    }
    bench::finish("BENCH_seeds", &rows, &[], "")
}

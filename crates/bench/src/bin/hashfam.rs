//! HASHFAM — cross-family ablation of the expander neighbor function.
//!
//! For every [`FamilyKind`] this measures (a) the full statistical
//! quality battery of `expander::verify::quality_report` across seeds —
//! Lemma 3 greedy max load vs. bound, sampled expansion, unique-neighbor
//! ratio, within-stripe chi-square, pairwise collision rate — and (b)
//! evaluation speed (ns per key for all `d` neighbors, and per edge) at
//! several degrees. The fastest family that passes every quality gate is
//! the one the library should default to; the run **fails (nonzero
//! exit)** if any family violates a quality gate or if the promoted
//! winner disagrees with `FamilyKind::default()`, making the verifier a
//! real CI check rather than a report.
//!
//! Run: `cargo run -p bench --release --bin hashfam` (`-- --smoke` for CI).

use expander::mix::SplitMix64;
use expander::verify::quality_report;
use expander::{FamilyKind, NeighborFamily, NeighborFn};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const UNIVERSE: u64 = 1 << 32;

#[derive(serde::Serialize)]
struct QualityRow {
    family: String,
    seed: u64,
    degree: usize,
    stripe: usize,
    keys: usize,
    max_load: usize,
    lemma3_bound: f64,
    expansion_ratio: f64,
    unique_ratio: f64,
    chi_square: f64,
    chi_square_dof: usize,
    collision_rate: f64,
    collision_expected: f64,
    passes: bool,
    failures: Vec<String>,
}

#[derive(serde::Serialize)]
struct SpeedRow {
    family: String,
    degree: usize,
    ns_per_key: f64,
    ns_per_edge: f64,
}

#[derive(serde::Serialize)]
struct SpeedupRow {
    degree: usize,
    /// `ns_per_key(seeded) / ns_per_key(tabulation)` — the headline.
    tabulation_speedup_vs_seeded: f64,
}

#[derive(serde::Serialize)]
struct Report {
    smoke: bool,
    quality: Vec<QualityRow>,
    speed: Vec<SpeedRow>,
    speedups: Vec<SpeedupRow>,
    /// Fastest family (d = 16 evaluation) among those passing every gate.
    promoted: String,
    default_family: String,
}

/// `n` distinct keys below [`UNIVERSE`], deterministic in `seed`.
fn sample_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut set = BTreeSet::new();
    while set.len() < n {
        set.insert(rng.next_u64() % UNIVERSE);
    }
    set.into_iter().collect()
}

/// Median-of-rounds ns per all-`d`-neighbor evaluation of one key.
fn time_family(kind: FamilyKind, degree: usize, keys: &[u64], rounds: usize) -> f64 {
    let g = kind.build(UNIVERSE, 4096, degree, 0xBEEF);
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        let mut acc = 0usize;
        for &k in keys {
            for y in g.neighbors(k) {
                acc = acc.wrapping_add(y);
            }
        }
        black_box(acc);
        let ns = start.elapsed().as_nanos() as f64 / keys.len() as f64;
        best = best.min(ns);
    }
    best
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seeds: &[u64] = if smoke {
        &[0xA11CE, 0xB0B]
    } else {
        &[0xA11CE, 0xB0B, 0xC0FFEE, 0xD15EA5E]
    };
    let n = if smoke { 1024 } else { 4096 };
    let degree = 16;
    // Slack-8 sizing: the unique-neighbor gate (1 - 4ε) needs the
    // per-stripe load factor the paper's defaults give (see verify.rs).
    let stripe = 8 * n;

    println!(
        "{:>11} {:>10} {:>8} {:>9} {:>9} {:>9} {:>8} {:>6}",
        "family", "seed", "max load", "bound", "expand", "unique", "χ²", "gates"
    );
    let mut quality = Vec::new();
    let mut family_passes = Vec::new();
    for kind in FamilyKind::ALL {
        let mut all_pass = true;
        for &seed in seeds {
            let g = kind.build(UNIVERSE, stripe, degree, seed);
            let keys = sample_keys(n, seed ^ 0x5A5A);
            let r = quality_report(&g, kind.name(), seed, &keys, seed ^ 1);
            let failures = r.failures();
            let passes = failures.is_empty();
            all_pass &= passes;
            println!(
                "{:>11} {:>#10x} {:>8} {:>9.2} {:>9.4} {:>9.4} {:>8.1} {:>6}",
                r.family,
                seed,
                r.max_load,
                r.lemma3_bound,
                r.expansion_ratio,
                r.unique_ratio,
                r.chi_square,
                if passes { "ok" } else { "FAIL" }
            );
            for f in &failures {
                eprintln!("  gate violation [{} seed {seed:#x}]: {f}", r.family);
            }
            quality.push(QualityRow {
                family: r.family.clone(),
                seed,
                degree,
                stripe,
                keys: r.keys,
                max_load: r.max_load,
                lemma3_bound: r.lemma3_bound,
                expansion_ratio: r.expansion_ratio,
                unique_ratio: r.unique_ratio,
                chi_square: r.chi_square,
                chi_square_dof: r.chi_square_dof,
                collision_rate: r.collision_rate,
                collision_expected: r.collision_expected,
                passes,
                failures,
            });
        }
        family_passes.push((kind, all_pass));
    }

    let speed_keys = sample_keys(if smoke { 50_000 } else { 200_000 }, 0x5BEED);
    let rounds = if smoke { 3 } else { 5 };
    let mut speed = Vec::new();
    let mut speedups = Vec::new();
    println!("\n{:>11} {:>6} {:>12} {:>12}", "family", "d", "ns/key", "ns/edge");
    for &d in &[4usize, 8, 16] {
        let mut per_key = Vec::new();
        for kind in FamilyKind::ALL {
            let ns = time_family(kind, d, &speed_keys, rounds);
            println!("{:>11} {:>6} {:>12.1} {:>12.2}", kind.name(), d, ns, ns / d as f64);
            per_key.push((kind, ns));
            speed.push(SpeedRow {
                family: kind.name().to_string(),
                degree: d,
                ns_per_key: ns,
                ns_per_edge: ns / d as f64,
            });
        }
        let seeded = per_key.iter().find(|(k, _)| *k == FamilyKind::Seeded).unwrap().1;
        let tab = per_key
            .iter()
            .find(|(k, _)| *k == FamilyKind::Tabulation)
            .unwrap()
            .1;
        speedups.push(SpeedupRow {
            degree: d,
            tabulation_speedup_vs_seeded: seeded / tab,
        });
    }
    for s in &speedups {
        println!(
            "tabulation vs seeded at d = {:>2}: {:.2}x",
            s.degree, s.tabulation_speedup_vs_seeded
        );
    }

    // Promotion: fastest family at d = 16 among full gate passers.
    let promoted = speed
        .iter()
        .filter(|s| s.degree == 16)
        .filter(|s| {
            family_passes
                .iter()
                .any(|(k, ok)| *ok && k.name() == s.family)
        })
        .min_by(|a, b| a.ns_per_key.total_cmp(&b.ns_per_key))
        .map(|s| s.family.clone())
        .unwrap_or_default();
    let default_family = FamilyKind::default().name().to_string();
    println!("\npromoted (fastest passing all gates): {promoted}; library default: {default_family}");

    let report = Report {
        smoke,
        quality,
        speed,
        speedups,
        promoted: promoted.clone(),
        default_family: default_family.clone(),
    };
    let failures: Vec<String> = family_passes
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(k, _)| format!("quality gates failed for {}", k.name()))
        .collect();
    let code = bench::finish("BENCH_hashfam", &report, &failures, "");
    if code == ExitCode::SUCCESS && promoted != default_family {
        eprintln!(
            "default-family drift: fastest passing family is {promoted} but the default is \
             {default_family} — update FamilyKind::default()"
        );
        return ExitCode::from(2);
    }
    code
}

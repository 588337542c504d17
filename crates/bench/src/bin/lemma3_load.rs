//! LEM3 — Lemma 3: deterministic load balancing.
//!
//! Sweeps `n`, `d`, `k` and compares the greedy expander scheme's maximum
//! load against (i) the Lemma 3 bound, (ii) single-choice hashing, and
//! (iii) random two-choice. Expected shape: greedy max load hugs the
//! average + small additive term; single choice pays the classic
//! `Θ(log n / log log n)` tail; two-choice sits in between.
//!
//! Run: `cargo run -p bench --release --bin lemma3_load`

use bench::workloads::uniform_keys;
use expander::params::{lemma3_bound, ExpanderParams};
use expander::SeededExpander;
use loadbalance::baselines::{random_d_choice, single_choice};
use loadbalance::{GreedyBalancer, LoadStats};

#[derive(serde::Serialize)]
struct Row {
    n: usize,
    v: usize,
    d: usize,
    k: usize,
    average: f64,
    greedy_max: u32,
    lemma3_bound: Option<f64>,
    single_choice_max: u32,
    two_choice_max: u32,
}

fn main() -> std::process::ExitCode {
    let universe = 1u64 << 40;
    let mut rows = Vec::new();
    println!(
        "{:>8} {:>8} {:>4} {:>3} {:>9} {:>11} {:>13} {:>12} {:>11}",
        "n", "v", "d", "k", "avg", "greedy max", "Lemma3 bound", "1-choice max", "2-choice max"
    );
    for &(n, v) in &[(1 << 12, 512), (1 << 14, 1024), (1 << 16, 2048)] {
        for &d in &[8usize, 16, 32] {
            for &k in &[1usize, d / 4, d / 2] {
                let k = k.max(1);
                let keys = uniform_keys(n, universe, 0x13_37 + d as u64);
                // Greedy over the expander.
                let g = SeededExpander::new(universe, v / d, d, 0xE0 + d as u64);
                let mut greedy = GreedyBalancer::new(&g, k);
                for &x in &keys {
                    greedy.insert(x);
                }
                let gstats = LoadStats::of(greedy.loads());
                // Baselines place k·n items with the same totals.
                let mut one = single_choice(universe, v, 0xB1);
                let mut two = random_d_choice(universe, v, 2, 0xB2);
                for &x in &keys {
                    for j in 0..k as u64 {
                        // distinct pseudo-items per key for the baselines
                        one.insert(x.wrapping_add(j << 41) % universe);
                        two.insert(x.wrapping_add(j << 41) % universe);
                    }
                }
                // Lemma 3 parameters: measured ε at this scale is small;
                // use the paper's ε = 1/12, δ = 1/2 reference values.
                let params = ExpanderParams {
                    degree: d,
                    right_size: v,
                    epsilon: 1.0 / 12.0,
                    delta: 0.5,
                };
                let bound = lemma3_bound(n, k, &params);
                println!(
                    "{:>8} {:>8} {:>4} {:>3} {:>9.2} {:>11} {:>13} {:>12} {:>11}",
                    n,
                    v,
                    d,
                    k,
                    gstats.mean,
                    gstats.max,
                    bound.map_or("-".into(), |b| format!("{b:.1}")),
                    one.max_load(),
                    two.max_load()
                );
                rows.push(Row {
                    n,
                    v,
                    d,
                    k,
                    average: gstats.mean,
                    greedy_max: gstats.max,
                    lemma3_bound: bound,
                    single_choice_max: one.max_load(),
                    two_choice_max: two.max_load(),
                });
            }
        }
    }
    println!();
    bench::finish("lemma3_load", &rows, &[], "")
}

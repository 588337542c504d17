//! ABL1 — ablation: choices `d` and items-per-key `k` in the greedy
//! load-balancing scheme.
//!
//! The Section 6 open problem asks whether full bandwidth is achievable
//! with 1-I/O lookups by running the scheme with `k = Ω(d)`; this ablation
//! maps the empirical trade-off: larger `k` spreads each key's data wider
//! (more bandwidth per parallel I/O) but pushes the max load up as `k`
//! approaches `d` (the Lemma 3 premise `d > k` frays).
//!
//! Run: `cargo run -p bench --release --bin ablation_k_choice`

use bench::workloads::uniform_keys;
use expander::params::{lemma3_bound, ExpanderParams};
use expander::SeededExpander;
use loadbalance::{GreedyBalancer, LoadStats};

#[derive(serde::Serialize)]
struct Row {
    d: usize,
    k: usize,
    n: usize,
    v: usize,
    avg: f64,
    max: u32,
    deviation: f64,
    bound: Option<f64>,
    bandwidth_fraction: f64,
}

fn main() -> std::process::ExitCode {
    let n = 1 << 14;
    let universe = 1u64 << 40;
    println!(
        "{:>4} {:>4} {:>9} {:>9} {:>6} {:>9} {:>11} {:>9}",
        "d", "k", "avg", "max", "dev", "bound", "bandwidth", "verdict"
    );
    let mut rows = Vec::new();
    for &d in &[8usize, 16, 32, 64] {
        let v = 64 * d; // fixed buckets per stripe across the sweep
        for &k in &[1usize, d / 4, d / 2, (3 * d) / 4, d - 1] {
            let k = k.max(1);
            let g = SeededExpander::new(universe, v / d, d, 0xAB1 + d as u64);
            let mut lb = GreedyBalancer::new(&g, k);
            for x in uniform_keys(n, universe, 0xAB2) {
                lb.insert(x);
            }
            let stats = LoadStats::of(lb.loads());
            let params = ExpanderParams {
                degree: d,
                right_size: v,
                epsilon: 1.0 / 12.0,
                delta: 0.5,
            };
            let bound = lemma3_bound(n, k, &params);
            let row = Row {
                d,
                k,
                n,
                v,
                avg: stats.mean,
                max: stats.max,
                deviation: stats.max_deviation(),
                bound,
                bandwidth_fraction: k as f64 / d as f64,
            };
            println!(
                "{:>4} {:>4} {:>9.2} {:>9} {:>6.1} {:>9} {:>10.0}% {:>9}",
                row.d,
                row.k,
                row.avg,
                row.max,
                row.deviation,
                row.bound.map_or("-".into(), |b| format!("{b:.1}")),
                100.0 * row.bandwidth_fraction,
                if row.bound.is_some_and(|b| f64::from(row.max) <= b) {
                    "≤ bound"
                } else if row.bound.is_none() {
                    "no bound"
                } else {
                    "EXCEEDS"
                }
            );
            rows.push(row);
        }
    }
    println!(
        "\nShape: deviation stays small while k ≪ d and degrades toward k = d-1, where Lemma 3's \
         log base (1-ε)d/k approaches 1 — the reason §6 calls the k = Ω(d) recursion non-constant-time."
    );
    bench::finish("ablation_k_choice", &rows, &[], "")
}

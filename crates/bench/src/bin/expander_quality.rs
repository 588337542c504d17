//! SEC5 — the semi-explicit expander construction (Corollary 1,
//! Lemma 11, Theorem 12).
//!
//! Sweeps the memory exponent β and the universe/capacity ratio and
//! reports, per construction: stage count (Theorem 12: O(1)), composed
//! degree (polylog target), right-part size vs `N·d`, internal memory vs
//! the `O(N^β/ε^c)` budget, and the *measured* sampled expansion of the
//! composed graph vs the ε target. Also validates Lemma 10's error
//! composition on a direct two-factor telescope product.
//!
//! Run: `cargo run -p bench --release --bin expander_quality`

use expander::semi_explicit::{SemiExplicitConfig, SemiExplicitExpander};
use expander::verify::worst_expansion_sampled;
use expander::{NeighborFn, SeededExpander, TelescopeExpander};

#[derive(serde::Serialize)]
struct Row {
    universe_log2: u32,
    capacity: usize,
    beta: f64,
    epsilon: f64,
    stages: usize,
    degree: usize,
    right_size: usize,
    nd: usize,
    memory_words: u64,
    memory_budget_words: u64,
    measured_worst_ratio: f64,
    target_ratio: f64,
}

fn main() -> std::process::ExitCode {
    println!(
        "{:>5} {:>8} {:>5} {:>5} {:>3} {:>6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>7}",
        "log u", "N", "β", "ε", "k", "degree", "v", "N·d", "mem(w)", "budget", "measured", "target"
    );
    let mut rows = Vec::new();
    for &(log_u, cap) in &[(24u32, 1 << 9), (32, 1 << 10), (40, 1 << 10)] {
        for &beta in &[0.3, 0.5, 0.8] {
            let eps = 0.25;
            let cfg = SemiExplicitConfig {
                universe: 1 << log_u,
                capacity: cap,
                beta,
                epsilon: eps,
                seed: 0x5EC5,
                stage_degree_cap: 12,
            };
            let g = match SemiExplicitExpander::build(cfg) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("log u = {log_u}, β = {beta}: {e}");
                    continue;
                }
            };
            let r = g.report().clone();
            let pop: Vec<u64> = (0..(cap as u64 * 8))
                .map(|i| expander::mix::mix64(i) % (1 << log_u))
                .collect();
            let sizes = [cap / 16, cap / 4, cap].map(|s| s.max(1));
            let w = worst_expansion_sampled(&g, &pop, &sizes, 12, 3);
            let row = Row {
                universe_log2: log_u,
                capacity: cap,
                beta,
                epsilon: eps,
                stages: g.num_stages(),
                degree: r.degree,
                right_size: r.right_size,
                nd: cap * r.degree,
                memory_words: r.memory_words,
                memory_budget_words: r.memory_budget_words,
                measured_worst_ratio: w.ratio,
                target_ratio: 1.0 - eps,
            };
            println!(
                "{:>5} {:>8} {:>5} {:>5} {:>3} {:>6} {:>10} {:>10} {:>9} {:>9} {:>9.3} {:>7.3}",
                row.universe_log2,
                row.capacity,
                row.beta,
                row.epsilon,
                row.stages,
                row.degree,
                row.right_size,
                row.nd,
                row.memory_words,
                row.memory_budget_words,
                row.measured_worst_ratio,
                row.target_ratio
            );
            rows.push(row);
        }
    }

    // Lemma 10 spot-check: composed loss vs product bound, measured.
    println!("\n-- Lemma 10 (telescope product) error composition --");
    let g1 = SeededExpander::new(1 << 20, 2048, 6, 21);
    let g2 = SeededExpander::new(6 * 2048, 512, 4, 22);
    let pop1: Vec<u64> = (0..4096u64).collect();
    let e1 = 1.0 - worst_expansion_sampled(&g1, &pop1, &[8, 64], 20, 1).ratio;
    let pop2: Vec<u64> = (0..(6 * 2048u64)).collect();
    let e2 = 1.0 - worst_expansion_sampled(&g2, &pop2, &[8, 64], 20, 2).ratio;
    let t = TelescopeExpander::new(g1, g2);
    let et = 1.0 - worst_expansion_sampled(&t, &pop1, &[4, 16], 20, 3).ratio;
    let bound = 1.0 - (1.0 - e1) * (1.0 - e2);
    println!(
        "ε₁ = {e1:.4}, ε₂ = {e2:.4}, composed measured = {et:.4}, Lemma 10 bound = {bound:.4} \
         (degree {} -> {})",
        6 * 4,
        t.degree()
    );

    println!("\nSection 5 holds if: k = O(1), measured ≥ target (sampled), memory ≲ budget.");
    bench::finish("expander_quality", &rows, &[], "")
}

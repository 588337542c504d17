//! FIG1 — regenerate Figure 1: old and new results for linear space
//! dictionaries with constant time per operation.
//!
//! Measured on the simulated PDM. Expected shape (paper's claims):
//! * one-probe structures and cuckoo: successful lookups = exactly 1 I/O;
//! * §4.1 basic: lookups 1 I/O, updates 2 I/Os, **worst case**;
//! * §4.3 dynamic: lookups ≤ 1+ɛ, updates ≤ 2+ɛ *on average*, misses 1
//!   (drawn at 4-word records, which keep Theorem 7's chains);
//! * hashing + striping: 1 / 2 I/Os w.h.p.;
//! * dghp-style: O(1) average, visible worst-case tail;
//! * cuckoo: 1-I/O lookups, insert tail from eviction walks;
//! * B-tree: lookups = height ≈ log_{BD} n ≫ 1.
//!
//! Run: `cargo run -p bench --release --bin fig1_table`

use bench::fronts::{Entries, Figure1, Front, Measured};
use pdm_dict::DictError;
use bench::workloads::{entries_for, miss_probes, uniform_keys};
use bench::{evaluate, print_table};
use std::process::ExitCode;

fn main() -> ExitCode {
    let sigma = 2;
    let block_words = 128;
    let mut all = Vec::new();
    for &n in &[1 << 12, 1 << 14] {
        let keys = uniform_keys(n, 1 << 40, 0xF161);
        let entries = entries_for(&keys, sigma);
        let misses = miss_probes(&keys, 1 << 40, 2000, 0xF162);
        let deletions = &keys[..n / 8];
        let shape = Figure1::table(n, sigma, block_words);

        let mut reports = Vec::new();
        let mut row = |name: &str, built: Result<Measured, DictError>, entries: &Entries| {
            let run = |Measured { mut dict, desc }| {
                // The table is drawn at the seeds it names: none is redrawn.
                assert_eq!(desc.build_attempt, 0, "{name}: its graph was redrawn");
                evaluate(dict.as_mut(), &desc, entries, &misses, deletions)
            };
            match built.and_then(run) {
                Ok(r) => reports.push(r),
                Err(e) => eprintln!("{name}: FAILED: {e}"),
            }
        };
        for method in Figure1::METHODS {
            if method == "dynamic" {
                // Theorem 7's row keeps its chains: 2-word records fit their
                // membership slots (and are stored there, §4.1's row), so it
                // gets its own same-key build with 4-word records, the
                // narrowest whose bucket outgrows a 128-word block at these
                // capacities. Capacity 2n for headroom, as `Figure1` builds it.
                let dynamic = Front { sigma: 4, ..shape.paper("dynamic", 20) };
                row(method, dynamic.measured(2 * n, &[], 4), &entries_for(&keys, dynamic.sigma));
            } else {
                row(method, shape.build(method, &entries), &entries);
            }
        }
        // The wide-bandwidth §4.1 variant carries a k·chunk-word satellite
        // (O(BD/log n), like the striped-hashing row's bandwidth claim), so
        // it gets its own (same-key, wider-record) build: k = 10 chunks of 2.
        let wide = Front { sigma: 20, ..shape.paper("wide", 20) };
        row("wide", wide.measured(n, &[], 9), &entries_for(&keys, wide.sigma));
        print_table(
            &format!("Figure 1 (n = {n}, σ = {sigma} words, B = {block_words})"),
            &reports,
        );
        all.push((n, reports));
    }
    println!();
    bench::finish("fig1_table", &all, &[], "")
}

//! THM6 — Theorem 6: the one-probe static dictionary.
//!
//! For a sweep of `n` and σ, builds both cases and reports:
//! * every lookup = exactly 1 parallel I/O (the headline claim),
//! * construction parallel I/Os vs the `sort(n·d)` yardstick (the claim
//!   is proportionality — the ratio should stay flat as `n` grows),
//! * space usage vs the information-theoretic `n(log u + σ)` bits.
//!
//! Run: `cargo run -p bench --release --bin thm6_construction`

use bench::workloads::{entries_for, miss_probes, uniform_keys};
use pdm::{DiskArray, PdmConfig};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::one_probe::{OneProbeStatic, OneProbeVariant};
use pdm_dict::DictParams;

#[derive(serde::Serialize)]
struct Row {
    case: &'static str,
    n: usize,
    sigma_words: usize,
    build_ios: u64,
    sort_nd_bound: u64,
    ratio: f64,
    rounds: usize,
    lookup_worst: u64,
    miss_false_positives: usize,
    space_words: usize,
    optimal_words: usize,
}

fn run_case(
    variant: OneProbeVariant,
    name: &'static str,
    n: usize,
    sigma: usize,
    rows: &mut Vec<Row>,
) {
    let d = 13;
    let disks_needed = match variant {
        OneProbeVariant::CaseA => 2 * d,
        OneProbeVariant::CaseB => d,
    };
    let block_words = 128;
    let mut disks = DiskArray::new(PdmConfig::new(disks_needed, block_words), 0);
    let mut alloc = DiskAllocator::new(disks_needed);
    let keys = uniform_keys(n, 1 << 40, 0x736 + n as u64);
    let entries = entries_for(&keys, sigma);
    let params = DictParams::new(n, 1 << 40, sigma)
        .with_degree(d)
        .with_seed(9);
    let (dict, stats) =
        OneProbeStatic::build(&mut disks, &mut alloc, 0, &params, variant, &entries)
            .expect("construction succeeds");

    let mut lookup_worst = 0;
    for (k, sat) in &entries {
        let out = dict.lookup(&mut disks, *k);
        assert_eq!(out.satellite.as_ref(), Some(sat), "wrong satellite for {k}");
        lookup_worst = lookup_worst.max(out.cost.parallel_ios);
    }
    let mut false_pos = 0;
    for k in miss_probes(&keys, 1 << 40, 1000, 0x737) {
        if dict.lookup(&mut disks, k).found() {
            false_pos += 1;
        }
    }
    let sort_bound = pdm::sort_io_bound(disks.config(), n * d, 2).max(1);
    // Optimal: n(log u + σ) bits -> words.
    let optimal_words = n * (40 + sigma * 64).div_ceil(64);
    let row = Row {
        case: name,
        n,
        sigma_words: sigma,
        build_ios: stats.cost.parallel_ios,
        sort_nd_bound: sort_bound,
        ratio: stats.cost.parallel_ios as f64 / sort_bound as f64,
        rounds: stats.rounds,
        lookup_worst,
        miss_false_positives: false_pos,
        space_words: dict.space_words(&disks),
        optimal_words,
    };
    println!(
        "{:<7} {:>7} {:>3} {:>9} {:>9} {:>7.2} {:>7} {:>8} {:>6} {:>10} {:>10}",
        row.case,
        row.n,
        row.sigma_words,
        row.build_ios,
        row.sort_nd_bound,
        row.ratio,
        row.rounds,
        row.lookup_worst,
        row.miss_false_positives,
        row.space_words,
        row.optimal_words
    );
    rows.push(row);
}

fn main() -> std::process::ExitCode {
    println!(
        "{:<7} {:>7} {:>3} {:>9} {:>9} {:>7} {:>7} {:>8} {:>6} {:>10} {:>10}",
        "case",
        "n",
        "σ",
        "build",
        "sort(nd)",
        "ratio",
        "rounds",
        "lkp wc",
        "fp",
        "space(w)",
        "opt(w)"
    );
    let mut rows = Vec::new();
    for &n in &[1 << 10, 1 << 12, 1 << 14] {
        for &sigma in &[1usize, 4] {
            run_case(OneProbeVariant::CaseA, "case a", n, sigma, &mut rows);
            run_case(OneProbeVariant::CaseB, "case b", n, sigma, &mut rows);
        }
    }
    println!("\nTheorem 6 holds if: lookup wc = 1, fp = 0, and the ratio column stays ~flat in n.");
    bench::finish("thm6_construction", &rows, &[], "")
}

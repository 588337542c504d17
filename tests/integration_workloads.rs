//! End-to-end harness integration: every subject runs every workload
//! correctly, and the Figure 1 shape assertions hold on small instances.

use bench::fronts::{Entries, Figure1, Measured};
use bench::workloads::{clustered_keys, entries_for, miss_probes, uniform_keys};
use bench::{evaluate, MethodReport};

/// Every row of Figure 1 at `B = 128` over `entries`, evaluated.
fn figure1(sigma: usize, entries: &Entries, misses: &[u64], deletions: &[u64]) -> Vec<MethodReport> {
    let shape = Figure1::table(entries.len(), sigma, 128);
    let run = |method| {
        let Measured { mut dict, desc } = shape.build(method, entries).unwrap_or_else(|e| panic!("{method}: {e}"));
        evaluate(dict.as_mut(), &desc, entries, misses, deletions).unwrap_or_else(|e| panic!("{method}: {e}"))
    };
    Figure1::METHODS.into_iter().map(run).collect()
}

#[test]
fn every_subject_is_correct_on_uniform_keys() {
    let n = 500;
    let sigma = 2;
    let keys = uniform_keys(n, 1 << 40, 0x11);
    let entries = entries_for(&keys, sigma);
    let misses = miss_probes(&keys, 1 << 40, 300, 0x12);
    for report in figure1(sigma, &entries, &misses, &keys[..50]) {
        assert_eq!(report.failures, 0, "{} had lookup failures", report.name);
        assert!(report.lookup_avg >= 1.0);
    }
}

#[test]
fn every_subject_is_correct_on_clustered_keys() {
    // Sequential key runs — adversarial for weak hash mixing.
    let n = 400;
    let sigma = 1;
    let keys = clustered_keys(n, 1 << 40, 8, 0x21);
    let entries = entries_for(&keys, sigma);
    let misses = miss_probes(&keys, 1 << 40, 200, 0x22);
    for report in figure1(sigma, &entries, &misses, &[]) {
        assert_eq!(
            report.failures, 0,
            "{} failed on clustered keys",
            report.name
        );
    }
}

#[test]
fn figure1_shape_assertions() {
    // The qualitative content of Figure 1, checked mechanically.
    let n = 600;
    let sigma = 2;
    let keys = uniform_keys(n, 1 << 40, 0x31);
    let entries = entries_for(&keys, sigma);
    let misses = miss_probes(&keys, 1 << 40, 400, 0x32);
    let reports: std::collections::HashMap<_, _> =
        figure1(sigma, &entries, &misses, &[]).into_iter().map(|r| (r.name.clone(), r)).collect();
    // One-probe rows: worst-case lookup exactly 1 parallel I/O.
    for name in [
        "§4.2 one-probe a (det., static)",
        "§4.2 one-probe b (det., static)",
        "cuckoo [13] (rand.)",
    ] {
        assert_eq!(reports[name].lookup_worst, 1, "{name}");
    }
    // §4.1: worst-case lookup 1 I/O, worst-case insert 2 I/Os.
    let basic = &reports["§4.1 basic (det.)"];
    assert_eq!(basic.lookup_worst, 1);
    assert_eq!(basic.insert_worst, Some(2));
    // §4.3: averages within 1+ɛ / 2+ɛ (ɛ = 0.5), misses exactly 1.
    let dynamic = &reports["§4.3 dynamic (det.)"];
    assert!(dynamic.lookup_avg <= 1.5);
    assert!(dynamic.insert_avg.unwrap() <= 2.5);
    assert_eq!(dynamic.miss_worst, 1);
    // B-tree pays its height: strictly more than 1 I/O per lookup once
    // the tree is taller than a root leaf (narrow stripes force height).
    let tall = Figure1 { n, sigma, block_words: 16, disks: 4 };
    let Measured { mut dict, desc } = tall.build("btree", &[]).unwrap();
    let tb = evaluate(dict.as_mut(), &desc, &entries, &misses, &[]).unwrap();
    assert!(tb.lookup_avg >= 2.0, "B-tree avg {}", tb.lookup_avg);
    assert!(
        tb.lookup_avg > dynamic.lookup_avg,
        "the dictionary must beat the B-tree on random access"
    );
    // Cuckoo's full-stripe bandwidth beats the key-value rows' σ words.
    assert!(reports["cuckoo [13] (rand.)"].bandwidth_words > sigma);
}

#[test]
fn deterministic_structures_are_reproducible_across_runs() {
    // Same seed -> byte-identical costs; different data layout decisions
    // never depend on ambient randomness.
    let n = 300;
    let keys = uniform_keys(n, 1 << 40, 0x41);
    let entries = entries_for(&keys, 1);
    let misses = miss_probes(&keys, 1 << 40, 100, 0x42);
    let run = || {
        let front = Figure1::table(n, 1, 128).paper("dynamic", 20);
        let Measured { mut dict, desc } = front.measured(2 * n, &[], 99).unwrap();
        let r = evaluate(dict.as_mut(), &desc, &entries, &misses, &[]).unwrap();
        (r.build_ios, r.lookup_avg.to_bits(), r.miss_avg.to_bits())
    };
    assert_eq!(run(), run());
}

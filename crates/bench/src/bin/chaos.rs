//! FAULT — chaos drill: every dictionary front-end under a canned
//! single-disk failure with integrity checksums sealed on.
//!
//! For each front this binary (1) builds the structure, seals checksums,
//! and measures the wall-clock overhead of verified reads against an
//! identical checksum-free twin (min-of-3 full lookup sweeps); (2) kills
//! one disk through the public [`FaultPlan`] API and counts how many
//! keys still decode *exactly*; (3) replaces the disk
//! (`clear_fault_plan`), runs the front's `scrub`, and recounts. Every
//! decoded satellite is compared against ground truth — a single byte of
//! silently wrong data fails the run.
//!
//! Writes `target/experiments/BENCH_fault.json` and exits nonzero if:
//! * any front decodes below its survival floor under the dead disk,
//! * recovery is not monotone (a key exact under the fault lost after
//!   scrub),
//! * the one-probe case (b) answers less than 100% exactly — under the
//!   fault *and* after scrub (Theorem 6's redundancy is an erasure
//!   code; see DESIGN.md),
//! * checksummed reads cost more than 10% over plain reads in
//!   aggregate.
//!
//! Run: `cargo run -p bench --release --bin chaos`
//! Smoke: `cargo run -p bench --release --bin chaos -- --smoke`

use bench::fronts::{dense_keys, drill_front, padded_entries};
use pdm::metrics::MetricsRegistry;
use pdm::FaultPlan;
use pdm_dict::traits::{DICT_DEGRADED_LOOKUPS_TOTAL, DICT_SCRUB_TOTAL};
use pdm_dict::Dict;
use serde::Serialize;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The canned plan of one catalogue front.
struct Drill {
    name: &'static str,
    /// Which disk dies.
    dead_disk: usize,
    /// Minimum fraction of keys that must still decode exactly while the
    /// disk is dead. Derived from how the front spreads a key: `basic`
    /// strands ~1/8 of keys (8 disks), `dynamic`/`rebuild` ~1/20 of
    /// membership buckets (40 disks), `one_probe_b` recovers everything
    /// through its parity chunk, `wide`/`one_probe_a` spread every key
    /// over enough disks that one loss can strand any of them (floor 0).
    floor_during: f64,
    /// Same floor after replacement + scrub (1.0 only where field-level
    /// redundancy makes the damage fully repairable).
    floor_after: f64,
}

const DRILLS: [Drill; 6] = [
    Drill { name: "basic", dead_disk: 2, floor_during: 0.70, floor_after: 0.70 },
    Drill { name: "dynamic", dead_disk: 3, floor_during: 0.85, floor_after: 0.85 },
    Drill { name: "wide", dead_disk: 5, floor_during: 0.0, floor_after: 0.0 },
    Drill { name: "one_probe_a", dead_disk: 4, floor_during: 0.0, floor_after: 0.0 },
    Drill { name: "one_probe_b", dead_disk: 4, floor_during: 1.0, floor_after: 1.0 },
    Drill { name: "rebuild", dead_disk: 3, floor_during: 0.80, floor_after: 0.80 },
];

/// Min-of-`reps` wall-clock nanoseconds for a full lookup sweep.
fn sweep_ns(dict: &mut dyn Dict, keys: &[u64], reps: usize) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        for &k in keys {
            black_box(dict.lookup(k).satellite);
        }
        best = best.min(start.elapsed().as_nanos());
    }
    best
}

#[derive(Serialize)]
struct Row {
    front: String,
    keys: usize,
    dead_disk: usize,
    exact_during: usize,
    exact_after: usize,
    exact_during_rate: f64,
    exact_after_rate: f64,
    floor_during: f64,
    floor_after: f64,
    degraded_lookups: u64,
    scrub_blocks_scanned: u64,
    scrub_checksum_failures: u64,
    scrub_repaired_blocks: u64,
    scrub_repaired_fields: u64,
    scrub_unrepairable_keys: u64,
    plain_sweep_ns: u128,
    integrity_sweep_ns: u128,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    keys_per_front: usize,
    checksum_read_overhead: f64,
    rows: Vec<Row>,
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 220 } else { 1024 };
    let reps = if smoke { 3 } else { 5 };
    let keys = dense_keys(n);

    println!(
        "{:<13} {:>5} {:>6} {:>8} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "front", "keys", "dead", "exact@f", "exact@r", "repaired", "unrepair", "plain_ns", "chksum_ns"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for f in DRILLS {
        let front = drill_front(f.name);
        let entries = padded_entries(&front, &keys);

        // Checksum overhead: identical twins, fault-free, one sealed.
        let mut plain = front.build(n, &entries, 0xC0C5);
        let mut sealed = front.build(n, &entries, 0xC0C5);
        sealed.disks_mut().unwrap().enable_integrity();
        // Interleave so neither twin systematically enjoys a warmer cache.
        let mut plain_ns = u128::MAX;
        let mut sealed_ns = u128::MAX;
        for _ in 0..reps {
            plain_ns = plain_ns.min(sweep_ns(plain.as_mut(), &keys, 1));
            sealed_ns = sealed_ns.min(sweep_ns(sealed.as_mut(), &keys, 1));
        }
        drop(plain);

        // The drill proper, on the sealed twin, with metrics attached.
        let registry = Arc::new(MetricsRegistry::new());
        let mut dict = sealed;
        dict.set_metrics(Some(Arc::clone(&registry)));
        dict.disks_mut()
            .unwrap()
            .set_fault_plan(FaultPlan::new().dead_disk(f.dead_disk));

        let mut exact_during = 0usize;
        for (k, s) in &entries {
            match dict.lookup(*k).satellite {
                Some(got) if &got == s => exact_during += 1,
                Some(got) => {
                    failures.push(format!("{}: wrong data for key {k}: {got:?}", f.name));
                }
                None => {}
            }
        }

        dict.disks_mut().unwrap().clear_fault_plan();
        let report = dict.scrub();

        let mut exact_after = 0usize;
        for (k, s) in &entries {
            match dict.lookup(*k).satellite {
                Some(got) if &got == s => exact_after += 1,
                Some(got) => {
                    failures.push(format!(
                        "{}: wrong data for key {k} after scrub: {got:?}",
                        f.name
                    ));
                }
                None => {}
            }
        }

        let snap = registry.snapshot();
        let row = Row {
            front: f.name.into(),
            keys: n,
            dead_disk: f.dead_disk,
            exact_during,
            exact_after,
            exact_during_rate: exact_during as f64 / n as f64,
            exact_after_rate: exact_after as f64 / n as f64,
            floor_during: f.floor_during,
            floor_after: f.floor_after,
            degraded_lookups: snap.counter_sum(DICT_DEGRADED_LOOKUPS_TOTAL, &[]).unwrap_or(0),
            scrub_blocks_scanned: snap
                .counter_sum(DICT_SCRUB_TOTAL, &[("stat", "blocks_scanned")])
                .unwrap_or(report.blocks_scanned),
            scrub_checksum_failures: report.checksum_failures,
            scrub_repaired_blocks: report.repaired_blocks,
            scrub_repaired_fields: report.repaired_fields,
            scrub_unrepairable_keys: report.unrepairable_keys,
            plain_sweep_ns: plain_ns,
            integrity_sweep_ns: sealed_ns,
        };
        println!(
            "{:<13} {:>5} {:>6} {:>8} {:>8} {:>9} {:>9} {:>10} {:>10}",
            row.front,
            row.keys,
            row.dead_disk,
            format!("{:.1}%", 100.0 * row.exact_during_rate),
            format!("{:.1}%", 100.0 * row.exact_after_rate),
            row.scrub_repaired_fields,
            row.scrub_unrepairable_keys,
            row.plain_sweep_ns,
            row.integrity_sweep_ns
        );

        if row.exact_during_rate < f.floor_during {
            failures.push(format!(
                "{}: exact decode rate {:.3} under a dead disk is below the {:.3} floor",
                f.name, row.exact_during_rate, f.floor_during
            ));
        }
        if row.exact_after_rate < f.floor_after {
            failures.push(format!(
                "{}: exact decode rate {:.3} after scrub is below the {:.3} floor",
                f.name, row.exact_after_rate, f.floor_after
            ));
        }
        if exact_after < exact_during {
            failures.push(format!(
                "{}: non-monotone recovery ({exact_during} exact during, {exact_after} after)",
                f.name
            ));
        }
        rows.push(row);
    }

    // Aggregate checksum overhead across all fronts: one slow front in a
    // noisy CI run must not fail the 10% gate on its own.
    let plain_total: u128 = rows.iter().map(|r| r.plain_sweep_ns).sum();
    let sealed_total: u128 = rows.iter().map(|r| r.integrity_sweep_ns).sum();
    let overhead = sealed_total as f64 / plain_total.max(1) as f64 - 1.0;
    println!("\nchecksum read overhead: {:+.2}%", 100.0 * overhead);
    if overhead > 0.10 {
        failures.push(format!(
            "checksummed reads cost {:.1}% over plain reads (budget: 10%)",
            100.0 * overhead
        ));
    }

    let report = Report {
        smoke,
        keys_per_front: n,
        checksum_read_overhead: overhead,
        rows,
    };
    bench::finish(
        "BENCH_fault",
        &report,
        &failures,
        "all fronts within floors, monotone recovery, overhead <= 10%",
    )
}

//! CRASH — journaling overhead per op class and recovery cost vs
//! in-flight ops.
//!
//! Two identical `DynamicDict` twins replay the same read-heavy mixed
//! workload (~92% lookups — the shape of `workload_replay`'s trace —
//! plus inserts, deletes, and one batched insert), one with the
//! write-ahead intent journal enabled and one without (the PR-2
//! baseline). Parallel I/Os and block writes are counted per op class —
//! deterministic in the PDM cost model, so the gate is immune to CI timer
//! noise; wall-clock totals ride along for reference. Separately,
//! recovery cost is measured as a function of the number of in-flight
//! (appended, not yet truncated) intents at two dictionary sizes (an
//! insert's intent is the ~40 words it changed: 2 ring slots at `B = 64`,
//! so seven of them sit in any ring without ring-pressure truncation).
//!
//! Writes `target/experiments/BENCH_crash.json` and exits nonzero if:
//! * the journal adds any I/O to lookups (reads never touch the ring),
//! * journaling overhead on the mixed workload exceeds 10%,
//! * a journaled mutation costs more than 2 extra parallel I/Os
//!   amortized (design: one ring append per op plus a group-committed
//!   superblock rewrite every [`pdm::GROUP_COMMIT_EVERY`] ops),
//! * write volume: a single-key insert's intent takes more than 2 ring
//!   slots, the journaled twin writes more than 1.2× the blocks of the
//!   unjournaled one on inserts, or any commit bypassed the ring,
//! * recovery is not `O(in-flight)`: its I/O count must not grow with
//!   dictionary size, and must grow at most linearly (≤ 3 I/Os per
//!   intent) in the number of in-flight ops — replay reads the intents'
//!   targets once and writes them back once, however many there are.
//!
//! Run: `cargo run -p bench --release --bin crash`
//! Smoke: `cargo run -p bench --release --bin crash -- --smoke`

use bench::fronts::{dense_keys, front, sat, Front, KEY_SPACE};
use pdm::metrics::{IoMetricsSink, MetricsRegistry, JOURNAL_TOTAL};
use pdm::Word;
use pdm_dict::Dict;
use serde::Serialize;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Ring rows for the overhead twin (the harness default).
const JOURNAL_ROWS: usize = 4;
/// Ring rows for the recovery measurement: one row (39 data slots) holds
/// 7 in-flight inserts of 2 slots each with room to spare.
const RECOVERY_ROWS: usize = 1;

/// The catalogue's dynamic front with a ring of `journal_rows` rows.
fn build(capacity: usize, journal_rows: usize, seed: u64) -> Box<dyn Dict + Send> {
    Front { journal_rows, ..front("dynamic") }.build(capacity, &[], seed)
}

#[derive(Serialize)]
struct OpClassRow {
    class: String,
    ops: usize,
    plain_ios: u64,
    journaled_ios: u64,
    /// Extra parallel I/Os per op with the journal on.
    extra_ios_per_op: f64,
    overhead: f64,
    plain_block_writes: u64,
    journaled_block_writes: u64,
    /// Journaled ÷ unjournaled `block_writes` of the class.
    block_write_ratio: f64,
    /// Ring slots written by the class's intents, and the in-place blocks
    /// those intents protect.
    journal_slot_blocks: u64,
    journal_target_blocks: u64,
    /// `journal_slot_blocks / journal_target_blocks`.
    slots_per_target: f64,
    /// The most ring slots one intent of the class took.
    max_intent_slots: u64,
}

#[derive(Serialize)]
struct RecoveryRow {
    dict_keys: usize,
    in_flight: usize,
    replayed: usize,
    recovery_ios: u64,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    keys: usize,
    journal_rows: usize,
    mixed_overhead: f64,
    plain_wall_ns: u128,
    journaled_wall_ns: u128,
    op_classes: Vec<OpClassRow>,
    recovery: Vec<RecoveryRow>,
}

/// What one phase of the replay cost its twin.
#[derive(Clone, Copy, Default)]
struct Phase {
    parallel_ios: u64,
    block_writes: u64,
    slot_blocks: u64,
    target_blocks: u64,
    max_intent_slots: u64,
}

/// Replay the mixed workload on one twin, returning per-phase costs (in
/// `phases` order) and total wall time.
fn replay(dict: &mut dyn Dict, keys: &[u64]) -> (Vec<Phase>, u128) {
    let registry = Arc::new(MetricsRegistry::new());
    let disks = dict.disks_mut().unwrap();
    disks.set_io_sink(Some(Arc::new(IoMetricsSink::new(&registry, disks.disks()))));
    let slot_blocks = registry.counter(JOURNAL_TOTAL, &[("stat", "slot_blocks")]);
    let target_blocks = registry.counter(JOURNAL_TOTAL, &[("stat", "target_blocks")]);
    let start = Instant::now();
    let mut ios = Vec::new();
    let mut mark = Phase::default();
    let mut max_intent_slots = 0;
    let mut cut = |dict: &dyn Dict, ios: &mut Vec<Phase>, max_intent_slots: &mut u64| {
        let stats = dict.disks().unwrap().stats();
        let now = Phase {
            parallel_ios: stats.parallel_ios,
            block_writes: stats.block_writes,
            slot_blocks: slot_blocks.get(),
            target_blocks: target_blocks.get(),
            max_intent_slots: 0,
        };
        ios.push(Phase {
            parallel_ios: now.parallel_ios - mark.parallel_ios,
            block_writes: now.block_writes - mark.block_writes,
            slot_blocks: now.slot_blocks - mark.slot_blocks,
            target_blocks: now.target_blocks - mark.target_blocks,
            max_intent_slots: std::mem::take(max_intent_slots),
        });
        mark = now;
    };

    // Preload half the keys sequentially: the "insert" op class.
    let (preload, rest) = keys.split_at(keys.len() / 2);
    for &k in preload {
        let before = slot_blocks.get();
        dict.insert(k, &sat(k, 2)).unwrap();
        max_intent_slots = max_intent_slots.max(slot_blocks.get() - before);
    }
    cut(dict, &mut ios, &mut max_intent_slots);
    // One staged batch for the other half: the "batch_insert" class.
    let entries: Vec<(u64, Vec<Word>)> = rest.iter().map(|&k| (k, sat(k, 2))).collect();
    let (results, _) = dict.insert_batch(&entries);
    assert!(results.iter().all(Result::is_ok));
    cut(dict, &mut ios, &mut max_intent_slots);
    // Read-heavy phase, the bulk of a replayed trace: twelve hit
    // sweeps, two miss sweeps, one batched sweep.
    for _ in 0..12 {
        for &k in keys {
            black_box(dict.lookup(k).satellite);
        }
    }
    for pass in 0..2u64 {
        for &k in keys {
            black_box(dict.lookup(k + KEY_SPACE + pass).satellite);
        }
    }
    let (got, _) = dict.lookup_batch(keys);
    assert!(got.iter().all(Option::is_some));
    cut(dict, &mut ios, &mut max_intent_slots);
    // Deletes for a quarter of the keys: the "delete" class.
    for &k in keys.iter().take(keys.len() / 4) {
        let before = slot_blocks.get();
        let (found, _) = dict.delete(k).expect("no fault plan is active");
        assert!(found);
        max_intent_slots = max_intent_slots.max(slot_blocks.get() - before);
    }
    cut(dict, &mut ios, &mut max_intent_slots);
    dict.disks_mut().unwrap().set_io_sink(None);
    (ios, start.elapsed().as_nanos())
}

/// Recovery cost with exactly `in_flight` un-truncated intents: build,
/// checkpoint (truncate), run `in_flight` more inserts, then reboot from
/// a clone of the image (superblock re-read from disk) and recover.
fn recovery_row(dict_keys: usize, in_flight: usize) -> RecoveryRow {
    assert!(
        (in_flight as u64) < pdm::GROUP_COMMIT_EVERY,
        "a group commit would truncate mid-measurement"
    );
    let mut dict = build(dict_keys + 16, RECOVERY_ROWS, 0xC4A5);
    for &k in &dense_keys(dict_keys) {
        dict.insert(k, &sat(k, 2)).unwrap();
    }
    dict.disks_mut().unwrap().journal_truncate();
    for i in 0..in_flight as u64 {
        let k = KEY_SPACE + 5_000 + i;
        dict.insert(k, &sat(k, 2)).unwrap();
    }
    let mut image = dict.disks().unwrap().clone();
    let region = image.journal_region().unwrap();
    image.reopen_journal(region);
    let report = image.recover();
    RecoveryRow {
        dict_keys,
        in_flight,
        replayed: report.replayed.len(),
        recovery_ios: report.cost.parallel_ios,
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 256 } else { 1024 };
    let keys = dense_keys(n);
    let mut failures: Vec<String> = Vec::new();

    // --- Journal overhead per op class, twin replay. ---
    let (plain_ios, plain_ns) = replay(build(n + 64, 0, 0xC4A5).as_mut(), &keys);
    let mut journaled = build(n + 64, JOURNAL_ROWS, 0xC4A5);
    let (journaled_ios, journaled_ns) = replay(journaled.as_mut(), &keys);
    let bypassed = journaled.disks().unwrap().journal_bypassed();

    let classes = ["insert", "batch_insert", "lookup", "delete"];
    // Per key: the batch's one call inserts the other half of the keys.
    let class_ops = [n / 2, n / 2, 15 * n, n / 4];
    println!(
        "{:<13} {:>6} {:>10} {:>12} {:>10} {:>9} {:>9} {:>12} {:>6}",
        "class", "ops", "plain_ios", "journal_ios", "extra/op", "overhead", "writes_x",
        "slots/target", "max"
    );
    let mut op_classes = Vec::new();
    for (i, class) in classes.iter().enumerate() {
        let (plain, journaled) = (plain_ios[i], journaled_ios[i]);
        let row = OpClassRow {
            class: (*class).into(),
            ops: class_ops[i],
            plain_ios: plain.parallel_ios,
            journaled_ios: journaled.parallel_ios,
            extra_ios_per_op: (journaled.parallel_ios as f64 - plain.parallel_ios as f64)
                / class_ops[i] as f64,
            overhead: journaled.parallel_ios as f64 / plain.parallel_ios.max(1) as f64 - 1.0,
            plain_block_writes: plain.block_writes,
            journaled_block_writes: journaled.block_writes,
            block_write_ratio: journaled.block_writes as f64 / plain.block_writes.max(1) as f64,
            journal_slot_blocks: journaled.slot_blocks,
            journal_target_blocks: journaled.target_blocks,
            slots_per_target: journaled.slot_blocks as f64 / journaled.target_blocks.max(1) as f64,
            max_intent_slots: journaled.max_intent_slots,
        };
        println!(
            "{:<13} {:>6} {:>10} {:>12} {:>10.3} {:>8.1}% {:>9.3} {:>12.4} {:>6}",
            row.class, row.ops, row.plain_ios, row.journaled_ios, row.extra_ios_per_op,
            100.0 * row.overhead, row.block_write_ratio, row.slots_per_target,
            row.max_intent_slots
        );
        if row.class == "insert" && row.max_intent_slots > 2 {
            failures.push(format!(
                "a single-key insert's intent took {} ring slots (budget: 2)",
                row.max_intent_slots
            ));
        }
        if row.class == "insert" && row.block_write_ratio > 1.2 {
            failures.push(format!(
                "journaled inserts wrote {:.3}x the unjournaled twin's blocks (budget: 1.2x)",
                row.block_write_ratio
            ));
        }
        if row.class == "lookup" && row.journaled_ios != row.plain_ios {
            failures.push(format!(
                "journal added I/O to lookups ({} vs {})",
                row.journaled_ios, row.plain_ios
            ));
        } else if row.class != "lookup" && row.extra_ios_per_op > 2.0 {
            failures.push(format!(
                "{}: {:.2} extra parallel I/Os per op with the journal on (budget: 2)",
                row.class, row.extra_ios_per_op
            ));
        }
        op_classes.push(row);
    }

    if bypassed > 0 {
        failures.push(format!("{bypassed} commits bypassed the journal ring"));
    }

    let plain_total: u64 = plain_ios.iter().map(|p| p.parallel_ios).sum();
    let journaled_total: u64 = journaled_ios.iter().map(|p| p.parallel_ios).sum();
    let mixed_overhead = journaled_total as f64 / plain_total.max(1) as f64 - 1.0;
    println!(
        "\nmixed-workload journal overhead: {:+.2}% ({journaled_total} vs {plain_total} \
         parallel I/Os; wall {:.2}ms vs {:.2}ms)",
        100.0 * mixed_overhead,
        journaled_ns as f64 / 1e6,
        plain_ns as f64 / 1e6
    );
    if mixed_overhead > 0.10 {
        failures.push(format!(
            "journaling overhead {:.1}% on the mixed workload (budget: 10%)",
            100.0 * mixed_overhead
        ));
    }

    // --- Recovery cost vs in-flight intents, at two sizes. ---
    let sizes = [n / 4, n];
    let in_flights = [0usize, 1, 2, 4, 7];
    println!("\n{:<10} {:>9} {:>9} {:>13}", "dict_keys", "in_flight", "replayed", "recovery_ios");
    let mut recovery = Vec::new();
    for &size in &sizes {
        for &m in &in_flights {
            let row = recovery_row(size, m);
            println!(
                "{:<10} {:>9} {:>9} {:>13}",
                row.dict_keys, row.in_flight, row.replayed, row.recovery_ios
            );
            if row.replayed != m {
                failures.push(format!(
                    "expected {m} replayable intents at size {size}, recovered {}",
                    row.replayed
                ));
            }
            recovery.push(row);
        }
    }
    // O(in-flight), independent of dictionary size: the scan costs the
    // same at both sizes, and an intent's targets lie on distinct disks, so
    // reading the targets of m intents and writing them back is at most 2m
    // I/Os whatever the dictionary holds (a small one shares more blocks
    // between intents and comes in under it).
    let idle = recovery[0].recovery_ios;
    for (i, &m) in in_flights.iter().enumerate() {
        let small = recovery[i].recovery_ios;
        let large = recovery[in_flights.len() + i].recovery_ios;
        if small.max(large) > idle + 2 * m as u64 || (m == 0 && large != small) {
            failures.push(format!(
                "recovery with {m} in-flight ops scales with dictionary size \
                 ({small} I/Os at {} keys, {large} at {} keys, idle scan {idle})",
                sizes[0], sizes[1]
            ));
        }
    }
    // ...and at most linear in the in-flight count.
    for rows in recovery.chunks(in_flights.len()) {
        let base = rows[0].recovery_ios;
        for r in &rows[1..] {
            if r.recovery_ios > base + 3 * r.in_flight as u64 {
                failures.push(format!(
                    "recovery cost superlinear in in-flight ops at {} keys: \
                     {} I/Os for {} intents (idle: {base})",
                    r.dict_keys, r.recovery_ios, r.in_flight
                ));
            }
        }
    }

    let report = Report {
        smoke,
        keys: n,
        journal_rows: JOURNAL_ROWS,
        mixed_overhead,
        plain_wall_ns: plain_ns,
        journaled_wall_ns: journaled_ns,
        op_classes,
        recovery,
    };
    bench::finish(
        "BENCH_crash",
        &report,
        &failures,
        "lookups journal-free, mixed overhead <= 10%, \
             mutations <= 2 extra I/Os per op, insert intents <= 2 slots and \
             <= 1.2x block writes, recovery O(in-flight)",
    )
}

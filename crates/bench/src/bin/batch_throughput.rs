//! BATCH — throughput of the batched lookup/update engine.
//!
//! The paper's bandwidth claim (Section 4.1 discussion) is that with `D`
//! disks and block size `B`, `m` *independent* operations can share
//! parallel I/O rounds: a batch costs the per-disk maximum of unique
//! blocks touched, approaching `⌈m·d/D⌉` — and less when keys share
//! candidate buckets. This binary measures exactly that: parallel I/Os
//! per lookup as a function of batch size, for the batched engine vs the
//! sequential loop, on three front-ends (basic, one-probe static,
//! dynamic) — and, as CI gates, what a window's updates cost through
//! `delete_batch` and through a rebuilding `Dictionary`.
//!
//! Run: `cargo run -p bench --release --bin batch_throughput`
//! Smoke: `cargo run -p bench --bin batch_throughput -- --smoke`

use bench::workloads::uniform_keys;
use pdm::{DiskArray, PdmConfig};
use pdm_dict::basic::{BasicDict, BasicDictConfig};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::one_probe::{OneProbeStatic, OneProbeVariant};
use pdm_dict::{Dict, DictHandle, DictParams, Dictionary, DynamicDict};

#[derive(serde::Serialize)]
struct Row {
    structure: String,
    batch_size: usize,
    lookups: usize,
    seq_ios: u64,
    batch_ios: u64,
    seq_ios_per_lookup: f64,
    batch_ios_per_lookup: f64,
    speedup: f64,
}

fn print_row(r: &Row) {
    println!(
        "{:<16} {:>6} {:>8} {:>8} {:>9} {:>10.3} {:>10.3} {:>8.2}x",
        r.structure,
        r.batch_size,
        r.lookups,
        r.seq_ios,
        r.batch_ios,
        r.seq_ios_per_lookup,
        r.batch_ios_per_lookup,
        r.speedup
    );
}

fn row(structure: &str, batch_size: usize, ops: usize, seq_ios: u64, batch_ios: u64) -> Row {
    let row = Row {
        structure: structure.into(),
        batch_size,
        lookups: ops,
        seq_ios,
        batch_ios,
        seq_ios_per_lookup: seq_ios as f64 / ops as f64,
        batch_ios_per_lookup: batch_ios as f64 / ops as f64,
        speedup: seq_ios as f64 / batch_ios.max(1) as f64,
    };
    print_row(&row);
    row
}

/// Measure one front-end: sequential vs batched lookups over the same
/// query stream, chunked at each of `batch_sizes`.
fn measure(dict: &mut dyn Dict, structure: &str, queries: &[u64], batch_sizes: &[usize], rows: &mut Vec<Row>) {
    for &bs in batch_sizes {
        let seq_ios = queries.iter().map(|&k| dict.lookup(k).cost.parallel_ios).sum();
        let batch_ios = queries.chunks(bs).map(|chunk| dict.lookup_batch(chunk).1.parallel_ios).sum();
        rows.push(row(structure, bs, queries.len(), seq_ios, batch_ios));
    }
}

/// The served shard shape (d = 20, B = 128, 4 journal rows).
fn served(capacity: usize) -> DictParams {
    DictParams::new(capacity, 1 << 40, 2).with_degree(20).with_epsilon(0.5).with_seed(0xD17).with_journal(4)
}

/// A 32-key `delete_batch` on a journaled `DynamicDict` against `delete`
/// per key on a twin: (sequential, batched) parallel I/Os over `n` keys.
fn delete_window(n: usize) -> Row {
    let mut twins: Vec<DictHandle<DynamicDict>> = Vec::new();
    let keys = uniform_keys(n, 1 << 40, 0x44);
    for _ in 0..2 {
        let mut twin = DictHandle::in_memory(served(8192), 128).unwrap();
        for &k in &keys {
            twin.insert(k, &[k, !k]).unwrap();
        }
        twins.push(twin);
    }
    let seq = keys.iter().map(|&k| twins[0].delete(k).unwrap().1.parallel_ios).sum();
    let batched = keys.chunks(32).map(|chunk| {
        let (res, cost) = twins[1].delete_batch(chunk);
        assert!(res.iter().all(|r| matches!(r, Ok(true))), "a stored key was not deleted");
        cost.parallel_ios
    });
    row("dynamic delete", 32, n, seq, batched.sum())
}

/// `engine_churn`'s stream in windows of 32 (26 updates, 6 lookups of
/// recent keys) on a journaled rebuilding `Dictionary`, through the batch
/// calls against one call per operation on a twin, until the batched one
/// has crossed `rebuilds` rebuilds. Records are inline at this shape, and a
/// steady live set opens no window there, so the updates drift: 19 inserts
/// of new keys and 7 deletes of the oldest between an even and an odd
/// rebuild count, 7 and 19 between an odd and an even — growth and shrink
/// open the windows.
fn churn_windows(rebuilds: usize) -> Row {
    const LIVE: u64 = 1024;
    let mut twins = [0, 1].map(|_| Dictionary::new(served(LIVE as usize), 128).unwrap());
    let key = |i: u64| expander::mix::mix64(i) >> 24;
    for (i, dict) in (0..LIVE).flat_map(|i| [(i, 0), (i, 1)]) {
        twins[dict].insert(key(i), &[i, i]).unwrap();
    }
    let before = twins.each_ref().map(|d| d.io_stats().parallel_ios);
    let (mut oldest, mut next, mut ops) = (0, LIVE, 0);
    while twins[1].rebuilds() < rebuilds {
        assert!(ops < 1_000_000, "{rebuilds} rebuilds not crossed in {ops} operations");
        let grow = twins[1].rebuilds().is_multiple_of(2);
        let (ins, del) = if grow { (19, 7) } else { (7, 19) };
        let inserts: Vec<(u64, Vec<u64>)> = (next..next + ins).map(|i| (key(i), vec![i, i])).collect();
        let deletes: Vec<u64> = (oldest..oldest + del).map(key).collect();
        let lookups: Vec<u64> = (next - 100..next - 94).map(key).collect();
        for (k, sat) in &inserts {
            twins[0].insert(*k, sat).unwrap();
        }
        deletes.iter().for_each(|&k| assert!(twins[0].delete(k).unwrap().0));
        lookups.iter().for_each(|&k| assert!(twins[0].lookup(k).found()));
        assert!(twins[1].insert_batch(&inserts).0.iter().all(Result::is_ok));
        assert!(twins[1].delete_batch(&deletes).0.iter().all(|r| matches!(r, Ok(true))));
        assert!(twins[1].lookup_batch(&lookups).0.iter().all(Option::is_some));
        (oldest, next, ops) = (oldest + del, next + ins, ops + 32);
    }
    let [seq, batched] = [0, 1].map(|t| twins[t].io_stats().parallel_ios - before[t]);
    row("rebuild churn", 32, ops, seq, batched)
}

fn main() -> std::process::ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let d_disks = 16; // D: disks in the array (the acceptance config)
    let degree = 16; // d': probes per key; = D so the structure spans all disks
    let (n, lookups): (usize, usize) = if smoke { (256, 256) } else { (1024, 2048) };
    let batch_sizes: &[usize] = if smoke { &[1, 16, 64] } else { &[1, 4, 16, 64, 256] };

    println!(
        "{:<16} {:>6} {:>8} {:>8} {:>9} {:>10} {:>10} {:>9}",
        "structure", "m", "lookups", "seq I/O", "batch I/O", "seq/lkp", "batch/lkp", "speedup"
    );
    let mut rows = Vec::new();

    // Basic dictionary (Section 4.1) in its block-load sizing: v = O(N/B)
    // single-block buckets, so a batch's probes concentrate on few unique
    // blocks per disk — the regime where batching pays the most.
    {
        let mut disks = DiskArray::new(PdmConfig::new(d_disks, 64), 0);
        let mut alloc = DiskAllocator::new(d_disks);
        let cfg = BasicDictConfig::block_load(n, 1 << 40, degree, 1, 64, 0xBA);
        let mut dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
        let keys = uniform_keys(n, 1 << 40, 0x41);
        for &k in &keys {
            dict.insert(&mut disks, k, &[k]).unwrap();
        }
        let queries: Vec<u64> = (0..lookups).map(|i| keys[i * 31 % keys.len()]).collect();
        measure(&mut DictHandle::new(dict, disks), "basic", &queries, batch_sizes, &mut rows);
    }

    // One-probe static (Theorem 6, case b).
    {
        let d = 13;
        let mut disks = DiskArray::new(PdmConfig::new(d_disks.max(d), 64), 0);
        let mut alloc = DiskAllocator::new(d_disks.max(d));
        let entries: Vec<(u64, Vec<u64>)> = uniform_keys(n, 1 << 30, 0x42)
            .into_iter()
            .map(|k| (k, vec![k]))
            .collect();
        let params = DictParams::new(n, 1 << 30, 1).with_degree(d).with_seed(7);
        let (dict, _) = OneProbeStatic::build(
            &mut disks,
            &mut alloc,
            0,
            &params,
            OneProbeVariant::CaseB,
            &entries,
        )
        .unwrap();
        let queries: Vec<u64> = (0..lookups)
            .map(|i| entries[i * 31 % entries.len()].0)
            .collect();
        measure(&mut DictHandle::new(dict, disks), "one-probe(b)", &queries, batch_sizes, &mut rows);
    }

    // Dynamic dictionary (Theorem 7): two-phase batched lookups.
    {
        let params = DictParams::new(n, 1 << 30, 1)
            .with_degree(20)
            .with_epsilon(0.5)
            .with_seed(0xD1);
        let mut shard = DictHandle::in_memory(params, 64).unwrap();
        let keys = uniform_keys(n, 1 << 30, 0x43);
        for &k in &keys {
            shard.insert(k, &[k]).unwrap();
        }
        let queries: Vec<u64> = (0..lookups).map(|i| keys[i * 31 % keys.len()]).collect();
        measure(&mut shard, "dynamic", &queries, batch_sizes, &mut rows);
    }

    // The acceptance check the harness looks for: at batch size 64 on
    // D = 16 disks, the basic dictionary must spend at least 4x fewer
    // parallel I/Os per lookup than the sequential loop.
    let accept = rows
        .iter()
        .find(|r| r.structure == "basic" && r.batch_size == 64)
        .map(|r| r.speedup);
    let mut failures = Vec::new();
    match accept {
        Some(s) if s >= 4.0 => println!("\nACCEPT: basic @ m=64 speedup {s:.2}x >= 4x"),
        Some(s) => failures.push(format!("basic @ m=64 speedup {s:.2}x < 4x")),
        None => {}
    }

    // A window's updates (gates of the served shape): a 32-key
    // `delete_batch` costs at most 1.5 parallel I/Os per key, and a churn
    // stream in 32-op windows at most 2.42 per op across >= 5 rebuilds
    // (2.309 as read with migration plans bounded in blocks held, + 5 %;
    // the drifting stream reads 1.140).
    for (r, bound) in [(delete_window(if smoke { 256 } else { 1024 }), 1.5), (churn_windows(if smoke { 8 } else { 12 }), 2.42)] {
        let verdict = format!("{} @ m=32 costs {:.3} parallel I/Os per op (bound {bound}, one call per op {:.3})", r.structure, r.batch_ios_per_lookup, r.seq_ios_per_lookup);
        if r.batch_ios_per_lookup <= bound {
            println!("ACCEPT: {verdict}");
        } else {
            failures.push(verdict);
        }
        rows.push(r);
    }

    bench::finish("batch_throughput", &rows, &failures, "")
}

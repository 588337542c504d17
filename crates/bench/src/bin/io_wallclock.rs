//! IO — wall-clock benefit of the parallel disk model on a *physical*
//! backend ([`pdm::FileBackend`]: one file + worker thread per disk,
//! `O_DIRECT` when the filesystem allows it).
//!
//! Everything else in this harness counts parallel I/O *rounds*; this
//! binary closes the loop and shows the rounds are real time. Two
//! experiments, both on the same D-disk file-backed array:
//!
//! 1. **Round issuance** — one round of `k·D` block reads issued to all
//!    `D` per-disk queues before any completion is joined, vs the same
//!    blocks issued disk-by-disk (join each disk before the next). The
//!    per-disk queues overlap the device waits; serial issuance cannot.
//!    Gate (direct-I/O mode): parallel ≥ 2× faster.
//! 2. **Batch round reduction** — `m` scattered single-block reads
//!    issued one call at a time (`m` rounds) vs one batched call
//!    (`⌈m/D⌉` rounds when the blocks spread evenly). The round counter
//!    says the batch is ~D× cheaper; the wall clock must agree that the
//!    saving is real throughput, not accounting. Gate (direct-I/O
//!    mode): batched ≥ 1.5× faster.
//!
//! If the experiment directory's filesystem rejects `O_DIRECT` (e.g.
//! tmpfs), the bench falls back to buffered files with fsync-on-write —
//! the overlap there is syncs rather than reads and is much weaker, so
//! the gates relax to ≥ 1.1× (still "parallel must beat serial").
//!
//! Run: `cargo run -p bench --release --bin io_wallclock`
//! Smoke: `cargo run -p bench --release --bin io_wallclock -- --smoke`
//! Writes `target/experiments/BENCH_io.json` either way.

use pdm::{BlockAddr, BlockView, FileBackend, FileBackendOptions, StorageBackend, Word};
use std::path::PathBuf;
use std::time::Instant;

/// 16 KiB blocks: B = 2048 words of 8 bytes. Large enough that a block
/// read is device time rather than syscall time, and 4096-aligned as
/// `O_DIRECT` demands.
const B: usize = 2048;
const D: usize = 4;

#[derive(serde::Serialize)]
struct Report {
    mode: String,
    disks: usize,
    block_words: usize,
    block_bytes: usize,
    blocks_per_disk: usize,
    rounds: usize,
    blocks_per_disk_per_round: usize,
    parallel_round_ms: f64,
    serial_round_ms: f64,
    parallel_vs_serial: f64,
    parallel_gate: f64,
    batch_ops: usize,
    sequential_ms: f64,
    batched_ms: f64,
    batch_wallclock_speedup: f64,
    batch_round_reduction: f64,
    batch_gate: f64,
}

fn bench_dir() -> PathBuf {
    bench::report::experiments_dir().join("io_wallclock_disks")
}

/// A deterministic scatter of block indices (splitmix64) so neither
/// issuance order sees sequential device addresses.
fn scatter(count: usize, blocks: usize, mut seed: u64) -> Vec<usize> {
    (0..count)
        .map(|_| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as usize % blocks
        })
        .collect()
}

fn main() -> std::process::ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let blocks_per_disk: usize = if smoke { 512 } else { 2048 };
    let rounds: usize = if smoke { 96 } else { 384 };
    let per_disk: usize = 4; // blocks per disk per round
    let batch_ops: usize = if smoke { 192 } else { 768 };

    let dir = bench_dir();
    let _ = std::fs::remove_dir_all(&dir);

    // Prefer O_DIRECT (device-true reads); fall back to buffered +
    // fsync-on-write where the filesystem refuses it.
    let (mut backend, mode) =
        match FileBackend::create(&dir, D, B, blocks_per_disk, FileBackendOptions::default().direct_io(true)) {
            Ok(b) => (b, "direct".to_string()),
            Err(e) => {
                eprintln!("O_DIRECT unavailable ({e}); falling back to buffered+fsync");
                let _ = std::fs::remove_dir_all(&dir);
                let b = FileBackend::create(
                    &dir,
                    D,
                    B,
                    blocks_per_disk,
                    FileBackendOptions::default().sync_on_write(true),
                )
                .expect("buffered file backend");
                (b, "buffered-fsync".to_string())
            }
        };
    let (parallel_gate, batch_gate) = if mode == "direct" { (2.0, 1.5) } else { (1.1, 1.1) };

    // Seed every block with nonzero data (and, in fallback mode, pay the
    // sync cost up front so the read timings below stay read-only).
    let payload: Vec<Word> = (0..B as u64).collect();
    for d in 0..D {
        for blk in 0..blocks_per_disk {
            backend.poke(BlockAddr::new(d, blk), &payload);
        }
    }
    backend.sync();

    // Experiment 1: one round = `per_disk` blocks on EVERY disk.
    // Parallel: one submission (all queues loaded before any join).
    // Serial: D submissions, each confined to one disk.
    let mut round_addrs: Vec<Vec<BlockAddr>> = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let picks = scatter(per_disk * D, blocks_per_disk, 0xA11C_E000 + r as u64);
        round_addrs.push(
            picks
                .iter()
                .enumerate()
                .map(|(i, &blk)| BlockAddr::new(i % D, blk))
                .collect(),
        );
    }

    // Warm the worker threads out of the measurement.
    let _ = backend.submit_reads(&round_addrs[0]);

    // Best of three trials each way (see the batch experiment below for
    // why): the gate compares two wall-clock passes on a shared host.
    let mut parallel_round_ms = f64::INFINITY;
    let mut serial_round_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for addrs in &round_addrs {
            let done = backend.submit_reads(addrs);
            assert_eq!(done.reads.len(), per_disk * D);
        }
        parallel_round_ms = parallel_round_ms.min(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        for addrs in &round_addrs {
            for d in 0..D {
                let one: Vec<BlockAddr> =
                    addrs.iter().filter(|a| a.disk == d).copied().collect();
                let done = backend.submit_reads(&one);
                assert_eq!(done.reads.len(), per_disk);
            }
        }
        serial_round_ms = serial_round_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let parallel_vs_serial = serial_round_ms / parallel_round_ms.max(1e-9);

    // Experiment 2: m scattered blocks, one call each (m rounds) vs one
    // batched call. The batch spreads over the queues, so its rounds —
    // and its wall clock — shrink by ~D.
    let picks = scatter(batch_ops, blocks_per_disk, 0xBA7C_4000);
    let addrs: Vec<BlockAddr> = picks
        .iter()
        .enumerate()
        .map(|(i, &blk)| BlockAddr::new(i % D, blk))
        .collect();

    // Best of three trials each: a single pass over a few hundred ops is
    // at the mercy of scheduler noise on a busy host, and the gate is a
    // ratio of two such passes.
    let mut sequential_ms = f64::INFINITY;
    let mut batched_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for a in &addrs {
            let done = backend.submit_reads(std::slice::from_ref(a));
            assert_eq!(done.reads.len(), 1);
        }
        sequential_ms = sequential_ms.min(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let done = backend.submit_reads(&addrs);
        assert_eq!(done.reads.len(), batch_ops);
        batched_ms = batched_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let batch_wallclock_speedup = sequential_ms / batched_ms.max(1e-9);
    // Rounds: one per call sequentially; the batch is one submission
    // whose per-disk queues drain concurrently — per-disk max ≈ m/D.
    let per_disk_max = (0..D)
        .map(|d| addrs.iter().filter(|a| a.disk == d).count())
        .max()
        .unwrap_or(1);
    let batch_round_reduction = batch_ops as f64 / per_disk_max as f64;

    let report = Report {
        mode: mode.clone(),
        disks: D,
        block_words: B,
        block_bytes: B * 8,
        blocks_per_disk,
        rounds,
        blocks_per_disk_per_round: per_disk,
        parallel_round_ms,
        serial_round_ms,
        parallel_vs_serial,
        parallel_gate,
        batch_ops,
        sequential_ms,
        batched_ms,
        batch_wallclock_speedup,
        batch_round_reduction,
        batch_gate,
    };

    println!("mode: {mode}  (D = {D}, B = {B} words = {} KiB blocks)", B * 8 / 1024);
    println!(
        "round issuance   : parallel {parallel_round_ms:>9.2} ms   serial {serial_round_ms:>9.2} ms   speedup {parallel_vs_serial:.2}x (gate ≥ {parallel_gate:.1}x)"
    );
    println!(
        "batch reduction  : batched  {batched_ms:>9.2} ms   1-by-1 {sequential_ms:>9.2} ms   speedup {batch_wallclock_speedup:.2}x (gate ≥ {batch_gate:.1}x, rounds saved {batch_round_reduction:.1}x)"
    );

    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);

    let mut failures = Vec::new();
    if parallel_vs_serial < parallel_gate {
        failures.push(format!(
            "parallel round issuance is only {parallel_vs_serial:.2}x serial (gate ≥ {parallel_gate:.1}x)"
        ));
    }
    if batch_wallclock_speedup < batch_gate {
        failures.push(format!(
            "batched reads save only {batch_wallclock_speedup:.2}x wall clock (gate ≥ {batch_gate:.1}x)"
        ));
    }
    bench::finish("BENCH_io", &report, &failures, "")
}

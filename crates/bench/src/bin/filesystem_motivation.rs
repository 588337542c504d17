//! SEC12 — the Section 1.2 motivation: dictionary-backed file system vs
//! B-tree.
//!
//! Runs the same Zipf-weighted random-block-read trace through both and
//! reports average/worst I/Os per read. Expected shape: the dictionary
//! answers in 1–2 parallel I/Os regardless of data size; the B-tree pays
//! its height (the "3 disk accesses" of the introduction), a ~2–3×
//! slowdown on random reads.
//!
//! Run: `cargo run -p bench --release --bin filesystem_motivation`

use baselines::PdmBTree;
use bench::workloads::{fs_trace, satellite_for, FsOp};
use pdm::CostProfile;
use pdm_dict::PdmFileSystem;

#[derive(serde::Serialize)]
struct Row {
    system: &'static str,
    files: u32,
    blocks_per_file: u32,
    reads: usize,
    read_avg: f64,
    read_worst: u64,
    write_avg: f64,
}

fn main() -> std::process::ExitCode {
    let files = 256u32;
    let blocks_per_file = 16u32;
    let reads = 20_000usize;
    let payload = 8usize; // words per file block payload
    let trace = fs_trace(files, blocks_per_file, reads, 0xF5F5);

    // Dictionary-backed file system.
    let mut fs = PdmFileSystem::new((files * blocks_per_file) as usize, payload, 64, 0xF5)
        .expect("fs params valid");
    let mut fs_reads = CostProfile::default();
    let mut fs_writes = CostProfile::default();
    for op in &trace {
        match *op {
            FsOp::Write(f, b) => {
                let key = (u64::from(f) << 32) | u64::from(b);
                let c = fs.write_block(f, b, &satellite_for(key, payload)).unwrap();
                fs_writes.record(c);
            }
            FsOp::Read(f, b) => {
                let out = fs.read_block(f, b);
                assert!(out.found(), "file {f} block {b} missing");
                fs_reads.record(out.cost);
            }
        }
    }

    // B-tree file system: same key packing.
    let mut bt = PdmBTree::new(payload, 16, 64);
    let mut bt_reads = CostProfile::default();
    let mut bt_writes = CostProfile::default();
    for op in &trace {
        match *op {
            FsOp::Write(f, b) => {
                let key = (u64::from(f) << 32) | u64::from(b);
                let c = bt.insert(key, &satellite_for(key, payload)).unwrap();
                bt_writes.record(c);
            }
            FsOp::Read(f, b) => {
                let key = (u64::from(f) << 32) | u64::from(b);
                let (found, cost) = bt.lookup(key);
                assert!(found.is_some());
                bt_reads.record(cost);
            }
        }
    }

    let rows = vec![
        Row {
            system: "dictionary fs (this paper)",
            files,
            blocks_per_file,
            reads,
            read_avg: fs_reads.average(),
            read_worst: fs_reads.worst_parallel_ios,
            write_avg: fs_writes.average(),
        },
        Row {
            system: "B-tree fs (incumbent)",
            files,
            blocks_per_file,
            reads,
            read_avg: bt_reads.average(),
            read_worst: bt_reads.worst_parallel_ios,
            write_avg: bt_writes.average(),
        },
    ];
    println!(
        "{:<28} {:>9} {:>9} {:>9}",
        "system", "read avg", "read wc", "write avg"
    );
    for r in &rows {
        println!(
            "{:<28} {:>9.3} {:>9} {:>9.3}",
            r.system, r.read_avg, r.read_worst, r.write_avg
        );
    }
    println!(
        "\nB-tree height = {}; the dictionary answers random reads in ~1 I/O — the paper's \
         'one disk read instead of 3'.",
        bt.height()
    );
    bench::finish("filesystem_motivation", &rows, &[], "")
}

//! SEC41 — Section 4.1 claims for the basic dictionary.
//!
//! * `B = Ω(log N)` regime: buckets fit one block, lookups exactly 1 I/O
//!   and updates exactly 2 I/Os, worst case;
//! * `v = O(N/B)` sizing: max bucket load stays below `B`'s slot count;
//! * small-`B` regime: the MicroDict (atomic-heap substitute) keeps
//!   operations O(1) I/Os where naive buckets would pay `log N / B`;
//! * observed max load vs the `Θ(log N)` target.
//!
//! Run: `cargo run -p bench --release --bin basic_dict`

use bench::workloads::uniform_keys;
use pdm::{DiskArray, PdmConfig};
use pdm_dict::basic::{BasicDict, BasicDictConfig};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::micro::MicroDict;

#[derive(serde::Serialize)]
struct Row {
    config: String,
    n: usize,
    buckets: usize,
    blocks_per_bucket: usize,
    avg_load: f64,
    max_load: usize,
    log2_n: u32,
    lookup_worst: u64,
    insert_worst: u64,
}

fn main() -> std::process::ExitCode {
    let d = 16;
    let mut rows = Vec::new();
    println!(
        "{:<22} {:>8} {:>7} {:>4} {:>9} {:>8} {:>7} {:>7} {:>7}",
        "config", "n", "v", "b/bk", "avg load", "max load", "log2 n", "lkp wc", "ins wc"
    );
    for &n in &[1 << 12, 1 << 14, 1 << 16] {
        for (name, cfg, block_words) in [
            (
                "log-load, B=64",
                BasicDictConfig::log_load(n, 1 << 40, d, 1, 0xB5),
                64usize,
            ),
            (
                "block-load, B=64",
                BasicDictConfig::block_load(n, 1 << 40, d, 1, 64, 0xB6),
                64usize,
            ),
        ] {
            let mut disks = DiskArray::new(PdmConfig::new(d, block_words), 0);
            let mut alloc = DiskAllocator::new(d);
            let mut dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
            let keys = uniform_keys(n, 1 << 40, 0x41 + n as u64);
            let mut ins_worst = 0;
            for &k in &keys {
                ins_worst = ins_worst.max(
                    dict.insert(&mut disks, k, &[k])
                        .expect("no overflow")
                        .parallel_ios,
                );
            }
            let mut lkp_worst = 0;
            for &k in &keys[..1024.min(n)] {
                let out = dict.lookup(&mut disks, k);
                assert!(out.found());
                lkp_worst = lkp_worst.max(out.cost.parallel_ios);
            }
            let row = Row {
                config: name.into(),
                n,
                buckets: dict.buckets(),
                blocks_per_bucket: dict.blocks_per_bucket(),
                avg_load: n as f64 / dict.buckets() as f64,
                max_load: dict.max_load_peek(&disks),
                log2_n: usize::BITS - n.leading_zeros(),
                lookup_worst: lkp_worst,
                insert_worst: ins_worst,
            };
            println!(
                "{:<22} {:>8} {:>7} {:>4} {:>9.2} {:>8} {:>7} {:>7} {:>7}",
                row.config,
                row.n,
                row.buckets,
                row.blocks_per_bucket,
                row.avg_load,
                row.max_load,
                row.log2_n,
                row.lookup_worst,
                row.insert_worst
            );
            rows.push(row);
        }
    }

    // Small-B regime: B = 8 words, far below log2(n) slots.
    println!("\n-- small-B regime (B = 8 words): MicroDict (atomic-heap substitute) --");
    let mut disks = DiskArray::new(PdmConfig::new(2, 8), 0);
    let mut alloc = DiskAllocator::new(2);
    let mut micro = MicroDict::create(&mut disks, &mut alloc, 0, 4096, 1, 0xA7).unwrap();
    let keys = uniform_keys(micro.capacity(), 1 << 40, 0x41F);
    let mut ins_worst = 0;
    let mut ok = 0;
    for &k in &keys {
        if let Ok(c) = micro.insert(&mut disks, k, &[k]) {
            ins_worst = ins_worst.max(c.parallel_ios);
            ok += 1;
        }
    }
    let mut lkp_worst = 0;
    for &k in &keys[..1024] {
        lkp_worst = lkp_worst.max(micro.lookup(&mut disks, k).cost.parallel_ios);
    }
    println!(
        "inserted {ok}/{} keys; lookup worst = {lkp_worst} I/O, insert worst = {ins_worst} I/Os \
         (constant despite B ≪ log n)",
        keys.len()
    );

    println!("\nSection 4.1 holds if: 1-block configs have lkp wc = 1, ins wc = 2, and max load ≈ log2 n.");
    bench::finish("basic_dict", &rows, &[], "")
}

//! Wall-clock microbenchmarks of per-operation dictionary costs.
//!
//! The paper's cost model is parallel I/Os (measured by the experiment
//! binaries); these benches measure the *simulator* wall-clock per
//! operation for each structure, which tracks the number of blocks
//! touched and the CPU-side decoding work.

use bench::measure::{
    BTreeSubject, BasicSubject, CuckooSubject, DghpSubject, DynamicSubject, FolkloreSubject,
    OneProbeSubject, StripedSubject, Subject,
};
use bench::workloads::{entries_for, uniform_keys};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const N: usize = 4096;
const SIGMA: usize = 2;
const BLOCK: usize = 128;

fn subjects() -> Vec<Box<dyn Subject>> {
    vec![
        Box::new(BasicSubject::new(N, SIGMA, 20, BLOCK, 1)),
        Box::new(OneProbeSubject::new(
            N,
            SIGMA,
            13,
            BLOCK,
            pdm_dict::one_probe::OneProbeVariant::CaseA,
            2,
        )),
        Box::new(OneProbeSubject::new(
            N,
            SIGMA,
            13,
            BLOCK,
            pdm_dict::one_probe::OneProbeVariant::CaseB,
            3,
        )),
        Box::new(DynamicSubject::new(N, SIGMA, 20, BLOCK, 0.5, 4)),
        Box::new(StripedSubject::new(N, SIGMA, 16, BLOCK, 5)),
        Box::new(CuckooSubject::new(N, SIGMA, 16, BLOCK, 6)),
        Box::new(DghpSubject::new(N, SIGMA, 16, BLOCK, 7)),
        Box::new(FolkloreSubject::new(N, SIGMA, 16, BLOCK, 4, 8)),
        Box::new(BTreeSubject::new(SIGMA, 16, BLOCK)),
    ]
}

fn bench_lookups(c: &mut Criterion) {
    let keys = uniform_keys(N, 1 << 40, 0xBE);
    let entries = entries_for(&keys, SIGMA);
    let mut group = c.benchmark_group("lookup");
    for mut subject in subjects() {
        subject.build(&entries).expect("build");
        let name = subject.name();
        let mut i = 0usize;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let k = keys[i % keys.len()];
                i += 1;
                black_box(subject.lookup(black_box(k)))
            });
        });
    }
    group.finish();
}

fn bench_inserts(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_4k_keys");
    group.sample_size(10);
    let keys = uniform_keys(N, 1 << 40, 0xBF);
    let entries = entries_for(&keys, SIGMA);
    // Incremental subjects only; construction cost of static ones is
    // covered by `bench_static_build`.
    group.bench_function("basic", |b| {
        b.iter(|| {
            let mut s = BasicSubject::new(N, SIGMA, 20, BLOCK, 1);
            black_box(s.build(&entries).unwrap())
        });
    });
    group.bench_function("dynamic", |b| {
        b.iter(|| {
            let mut s = DynamicSubject::new(N, SIGMA, 20, BLOCK, 0.5, 4);
            black_box(s.build(&entries).unwrap())
        });
    });
    group.bench_function("striped_hash", |b| {
        b.iter(|| {
            let mut s = StripedSubject::new(N, SIGMA, 16, BLOCK, 5);
            black_box(s.build(&entries).unwrap())
        });
    });
    group.bench_function("btree", |b| {
        b.iter(|| {
            let mut s = BTreeSubject::new(SIGMA, 16, BLOCK);
            black_box(s.build(&entries).unwrap())
        });
    });
    group.finish();
}

fn bench_static_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("one_probe_build");
    group.sample_size(10);
    let keys = uniform_keys(N, 1 << 40, 0xC0);
    let entries = entries_for(&keys, SIGMA);
    for (label, variant) in [
        ("case_a", pdm_dict::one_probe::OneProbeVariant::CaseA),
        ("case_b", pdm_dict::one_probe::OneProbeVariant::CaseB),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut s = OneProbeSubject::new(N, SIGMA, 13, BLOCK, variant, 2);
                black_box(s.build(&entries).unwrap())
            });
        });
    }
    group.finish();
}

/// `lookup_batch` of 64 keys on the served structure (Theorem 7's dictionary
/// behind `DictHandle`, d = 20, B = 128), per batch: ÷ 64 it reads beside the
/// `lookup` group's per-key figure (four times it while a batch's 2.5 MiB of
/// images was copied out, handed back to the OS and faulted in again).
fn bench_lookup_batch(c: &mut Criterion) {
    use pdm_dict::{Dict, DictHandle, DictParams, DynamicDict};
    let keys = uniform_keys(N, 1 << 40, 0xC1);
    let mut disks = pdm::DiskArray::new(pdm::PdmConfig::new(40, BLOCK), 0);
    let mut alloc = pdm_dict::layout::DiskAllocator::new(40);
    let params = DictParams::new(N, 1 << 40, SIGMA).with_degree(20).with_epsilon(0.5).with_seed(4);
    let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).expect("create");
    let mut shard = DictHandle::new(dict, disks);
    for (k, s) in entries_for(&keys, SIGMA) {
        shard.insert(k, &s).expect("insert");
    }
    let mut group = c.benchmark_group("lookup_batch64");
    let mut i = 0usize;
    group.bench_function("dynamic", |b| {
        b.iter(|| {
            let batch: Vec<u64> = (0..64).map(|j| keys[(i + j) % keys.len()]).collect();
            i += 64;
            black_box(shard.lookup_batch(black_box(&batch)))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_lookups, bench_inserts, bench_static_build, bench_lookup_batch);
criterion_main!(benches);

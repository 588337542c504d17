//! Wall-clock microbenchmarks of per-operation dictionary costs.
//!
//! The paper's cost model is parallel I/Os (measured by the experiment
//! binaries); these benches measure the *simulator* wall-clock per
//! operation for each structure, which tracks the number of blocks
//! touched and the CPU-side decoding work.

use bench::fronts::{preload, Figure1, Front, Measured};
use bench::workloads::{entries_for, uniform_keys};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdm_dict::Dict;
use std::hint::black_box;

const N: usize = 4096;
const SIGMA: usize = 2;
const BLOCK: usize = 128;

/// Row `method` of Figure 1 at this file's shape, holding `entries`.
fn loaded(method: &str, entries: &[(u64, Vec<u64>)]) -> Measured {
    let mut m = Figure1::table(N, SIGMA, BLOCK).build(method, entries).expect("build");
    if m.desc.construction_ios.is_none() {
        preload(m.dict.as_mut(), entries).expect("inserts");
    }
    m
}

fn bench_lookups(c: &mut Criterion) {
    let keys = uniform_keys(N, 1 << 40, 0xBE);
    let entries = entries_for(&keys, SIGMA);
    let mut group = c.benchmark_group("lookup");
    for method in Figure1::METHODS {
        let Measured { mut dict, desc } = loaded(method, &entries);
        let mut i = 0usize;
        group.bench_function(BenchmarkId::from_parameter(desc.name), |b| {
            b.iter(|| {
                let k = keys[i % keys.len()];
                i += 1;
                black_box(dict.lookup(black_box(k)))
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
    // Incremental structures only; construction cost of static ones is
    // covered by `bench_static_build`.
    for (label, method) in [("basic", "basic"), ("dynamic", "dynamic"), ("striped_hash", "striped"), ("btree", "btree")] {
        group.bench_function(label, |b| b.iter(|| black_box(loaded(method, &entries).dict.len())));
    }
    group.finish();
}

fn bench_static_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("one_probe_build");
    group.sample_size(10);
    let keys = uniform_keys(N, 1 << 40, 0xC0);
    let entries = entries_for(&keys, SIGMA);
    for (label, method) in [("case_a", "one_probe_a"), ("case_b", "one_probe_b")] {
        group.bench_function(label, |b| b.iter(|| black_box(loaded(method, &entries).dict.len())));
    }
    group.finish();
}

/// The served structure: the catalogue's Theorem 7 front at the benchmark's
/// shard shape (d = 20, B = 128), holding `entries`.
fn served(capacity: usize, journal_rows: usize, entries: &[(u64, Vec<u64>)]) -> Box<dyn Dict + Send> {
    let shape = Figure1::table(capacity, SIGMA, BLOCK).paper("dynamic", 20);
    Front { journal_rows, ..shape }.build(capacity, entries, 4)
}

/// `lookup_batch` of 64 keys on the served structure (Theorem 7's dictionary
/// behind `DictHandle`, d = 20, B = 128), per batch: ÷ 64 it reads beside the
/// `lookup` group's per-key figure (four times it while a batch's 2.5 MiB of
/// images was copied out, handed back to the OS and faulted in again).
fn bench_lookup_batch(c: &mut Criterion) {
    let keys = uniform_keys(N, 1 << 40, 0xC1);
    let mut shard = served(N, 0, &entries_for(&keys, SIGMA));
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

/// The per-key cost of the served structure's single-key calls, each the
/// batch of one: 64 operations an iteration on a 32 Ki-key shard, without a
/// journal and with 4 ring rows. `lookup_batch64` above is 64 keys in one
/// batch.
fn bench_single_key(c: &mut Criterion) {
    const LOADED: usize = 32 << 10;
    const RUN: usize = 64;
    const CASE: usize = 30 * RUN;
    let keys = uniform_keys(LOADED + CASE, 1 << 40, 0xC2);
    let entries = entries_for(&keys, SIGMA);
    for (label, journal_rows) in [("dynamic", 0), ("dynamic_journaled", 4)] {
        let mut shard = served(keys.len(), journal_rows, &entries[..LOADED]);
        // Every case works through a range of keys no other case touches
        // (none finds its blocks warmed by another): 30 runs of loaded keys
        // for the lookups and deletes, of the fresh ones behind them for the
        // inserts.
        let mut case = |group: &str, mut next: usize, op: &mut dyn FnMut(&mut dyn Dict, usize)| {
            c.benchmark_group(group).bench_function(label, |b| {
                b.iter(|| {
                    for i in next..next + RUN {
                        op(shard.as_mut(), i);
                    }
                    next += RUN;
                });
            });
        };
        case("lookup_single", 0, &mut |d, i| drop(black_box(d.lookup(keys[i]))));
        case("insert_single", LOADED, &mut |d, i| {
            d.insert(entries[i].0, &entries[i].1).expect("insert");
        });
        case("delete_single", CASE, &mut |d, i| {
            d.delete(keys[i]).expect("delete");
        });
    }
}

criterion_group!(benches, bench_lookups, bench_inserts, bench_static_build, bench_lookup_batch, bench_single_key);
criterion_main!(benches);

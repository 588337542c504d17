//! OBS — workload replay through the observability layer.
//!
//! Drives all five dictionary front-ends through `&mut dyn Dict` with a
//! metrics registry installed, replays a mixed workload (inserts,
//! hit/miss lookups, deletes, batched lookups), and reports what the
//! *exported metrics* say: p50/p99/max parallel I/Os per op class, disk
//! imbalance (max/mean per-disk block counts), cache hit rate, and the
//! wall-clock overhead of recording itself (hooked vs. bare sequential
//! lookup throughput over the same structure).
//!
//! Writes `target/experiments/BENCH_obs.json`. Exits nonzero if the
//! exported OneProbeStatic p99 lookup cost exceeds 1 parallel I/O —
//! Theorem 6's headline, checked from telemetry so CI guards both the
//! structure and the instrumentation that watches it.
//!
//! `--smoke`: small sizes for CI.

use bench::write_json;
use pdm::metrics::{MetricsRegistry, CACHE_EVENTS_TOTAL, DISK_BLOCKS_TOTAL};
use pdm::{DiskArray, PdmConfig, Word};
use pdm_dict::basic::{BasicDict, BasicDictConfig};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::one_probe::{OneProbeStatic, OneProbeVariant};
use pdm_dict::traits::{DICT_BATCH_PARALLEL_IOS, DICT_OP_PARALLEL_IOS};
use pdm_dict::wide::{WideDict, WideDictConfig};
use pdm_dict::{Dict, DictHandle, DictParams, Dictionary, DynamicDict};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const KEY_SPACE: u64 = 1 << 20;
const UNIVERSE: u64 = 1 << 21;

/// `n` distinct deterministic keys below [`KEY_SPACE`].
fn dense_keys(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % KEY_SPACE)
        .collect()
}

fn sat(key: u64, sigma: usize) -> Vec<Word> {
    (0..sigma as u64).map(|i| key ^ (i << 32)).collect()
}

/// Constructor: build a front containing exactly `entries`, sized for
/// `capacity`, deterministic in `seed`.
type BuildFn = fn(capacity: usize, entries: &[(u64, Vec<Word>)], seed: u64) -> Box<dyn Dict>;

struct Front {
    name: &'static str,
    sigma: usize,
    is_static: bool,
    build: BuildFn,
}

fn preload(h: &mut dyn Dict, entries: &[(u64, Vec<Word>)]) {
    for (k, s) in entries {
        h.insert(*k, s).unwrap();
    }
}

fn build_basic(capacity: usize, entries: &[(u64, Vec<Word>)], seed: u64) -> Box<dyn Dict> {
    let d = 8;
    let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
    let mut alloc = DiskAllocator::new(d);
    let cfg = BasicDictConfig::log_load(capacity.max(4), UNIVERSE, d, 1, seed);
    let dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
    let mut h = Box::new(DictHandle::new(dict, disks));
    preload(h.as_mut(), entries);
    h
}

fn build_dynamic(capacity: usize, entries: &[(u64, Vec<Word>)], seed: u64) -> Box<dyn Dict> {
    let d = 20;
    let mut disks = DiskArray::new(PdmConfig::new(2 * d, 64), 0);
    let mut alloc = DiskAllocator::new(2 * d);
    let params = DictParams::new(capacity.max(4), UNIVERSE, 2)
        .with_degree(d)
        .with_epsilon(0.5)
        .with_seed(seed);
    let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).unwrap();
    let mut h = Box::new(DictHandle::new(dict, disks));
    preload(h.as_mut(), entries);
    h
}

fn build_one_probe(_cap: usize, entries: &[(u64, Vec<Word>)], seed: u64) -> Box<dyn Dict> {
    let d = 13;
    let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
    let mut alloc = DiskAllocator::new(d);
    let params = DictParams::new(entries.len().max(4), UNIVERSE, 2)
        .with_degree(d)
        .with_seed(seed);
    let (dict, _) = OneProbeStatic::build(
        &mut disks,
        &mut alloc,
        0,
        &params,
        OneProbeVariant::CaseB,
        entries,
    )
    .unwrap();
    Box::new(DictHandle::new(dict, disks))
}

fn build_rebuild(_cap: usize, entries: &[(u64, Vec<Word>)], seed: u64) -> Box<dyn Dict> {
    let params = DictParams::new(64, UNIVERSE, 1)
        .with_degree(20)
        .with_epsilon(0.5)
        .with_seed(seed);
    let mut h = Box::new(Dictionary::new(params, 64).unwrap());
    preload(h.as_mut(), entries);
    h
}

fn build_wide(capacity: usize, entries: &[(u64, Vec<Word>)], seed: u64) -> Box<dyn Dict> {
    let d = 16;
    let mut disks = DiskArray::new(PdmConfig::new(d, 128), 0);
    let mut alloc = DiskAllocator::new(d);
    let cfg = WideDictConfig::paper(capacity.max(4), UNIVERSE, d, 2, seed);
    let dict = WideDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
    let mut h = Box::new(DictHandle::new(dict, disks));
    preload(h.as_mut(), entries);
    h
}

fn fronts() -> Vec<Front> {
    vec![
        Front { name: "basic", sigma: 1, is_static: false, build: build_basic },
        Front { name: "dynamic", sigma: 2, is_static: false, build: build_dynamic },
        Front { name: "one_probe", sigma: 2, is_static: true, build: build_one_probe },
        Front { name: "rebuild", sigma: 1, is_static: false, build: build_rebuild },
        Front { name: "wide", sigma: 16, is_static: false, build: build_wide },
    ]
}

#[derive(Serialize, Clone, Copy)]
struct OpClass {
    count: u64,
    mean: f64,
    p50: u64,
    p99: u64,
    max: u64,
}

#[derive(Serialize)]
struct FrontReport {
    front: &'static str,
    keys: usize,
    lookup: Option<OpClass>,
    insert: Option<OpClass>,
    delete: Option<OpClass>,
    batch_lookup: Option<OpClass>,
    disk_imbalance_read: Option<f64>,
    disk_imbalance_write: Option<f64>,
    cache_hit_rate: Option<f64>,
    /// Wall-clock overhead of recording: (hooked − bare) / bare over the
    /// same sequential lookup loop. Negative values are timer noise.
    metrics_overhead_pct: f64,
}

#[derive(Serialize)]
struct Report {
    n: usize,
    smoke: bool,
    fronts: Vec<FrontReport>,
}

fn op_class(
    snap: &pdm::metrics::MetricsSnapshot,
    metric: &str,
    dict: &str,
    op: &str,
) -> Option<OpClass> {
    let h = snap.histogram(metric, &[("dict", dict), ("op", op)])?;
    if h.is_empty() {
        return None;
    }
    Some(OpClass {
        count: h.count,
        mean: h.mean(),
        p50: h.percentile(0.50),
        p99: h.percentile(0.99),
        max: h.max,
    })
}

/// Sequential lookups over `queries`, `passes` times; elapsed seconds.
fn time_lookups(dict: &mut dyn Dict, queries: &[u64], passes: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..passes {
        for &k in queries {
            std::hint::black_box(dict.lookup(k));
        }
    }
    start.elapsed().as_secs_f64()
}

/// Best-of-3 timing of `passes` lookup sweeps.
fn best_of_3(dict: &mut dyn Dict, queries: &[u64], passes: usize) -> f64 {
    (0..3)
        .map(|_| time_lookups(dict, queries, passes))
        .fold(f64::INFINITY, f64::min)
}

/// Grow the pass count until one bare sweep takes at least `min_secs`,
/// so the hooked-vs-bare comparison is out of timer-resolution noise.
fn calibrate_passes(dict: &mut dyn Dict, queries: &[u64], min_secs: f64) -> usize {
    let mut passes = 1;
    while time_lookups(dict, queries, passes) < min_secs && passes < 1 << 16 {
        passes *= 2;
    }
    passes
}

fn run_front(f: &Front, n: usize, min_secs: f64) -> FrontReport {
    let keys = dense_keys(n);
    let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, sat(k, f.sigma))).collect();
    let registry = Arc::new(MetricsRegistry::new());

    // Overhead measurement first, on a bare structure: warm up, time the
    // bare loop, install hooks, time the same loop again.
    let mut dict = if f.is_static {
        (f.build)(n, &entries, 0x0b5)
    } else {
        let mut d = (f.build)(n + n / 2, &[], 0x0b5);
        preload(d.as_mut(), &entries);
        d
    };
    let passes = calibrate_passes(dict.as_mut(), &keys, min_secs);
    let bare = best_of_3(dict.as_mut(), &keys, passes);
    dict.set_metrics(Some(Arc::clone(&registry)));
    let hooked = best_of_3(dict.as_mut(), &keys, passes);
    let overhead_pct = if bare > 0.0 { (hooked - bare) / bare * 100.0 } else { 0.0 };

    // Replay the rest of the mixed workload with hooks installed.
    let misses: Vec<u64> = (0..n as u64).map(|i| KEY_SPACE + 100_000 + i).collect();
    for &k in &misses {
        dict.lookup(k);
    }
    for chunk in keys.chunks(64) {
        dict.lookup_batch(chunk);
    }
    if !f.is_static {
        // Fresh inserts (the preload above ran unhooked), then deletes.
        let fresh: Vec<u64> = (0..(n / 4) as u64).map(|i| KEY_SPACE + 500_000 + i).collect();
        for &k in &fresh {
            dict.insert(k, &sat(k, f.sigma)).unwrap();
        }
        for &k in fresh.iter().take(n / 8) {
            dict.delete(k).unwrap();
        }
        // Batched inserts drive the write-staging executor (cache events,
        // round widths, commit sizes).
        let staged: Vec<(u64, Vec<Word>)> = (0..(n / 4) as u64)
            .map(|i| {
                let k = KEY_SPACE + 700_000 + i;
                (k, sat(k, f.sigma))
            })
            .collect();
        dict.insert_batch(&staged);
    }
    dict.refresh_gauges();

    let snap = registry.snapshot();
    let cache_hits = snap.counter(CACHE_EVENTS_TOTAL, &[("event", "hit")]);
    let cache_misses = snap.counter(CACHE_EVENTS_TOTAL, &[("event", "miss")]);
    let cache_hit_rate = match (cache_hits, cache_misses) {
        (Some(h), Some(m)) if h + m > 0 => Some(h as f64 / (h + m) as f64),
        _ => None,
    };
    FrontReport {
        front: f.name,
        keys: n,
        lookup: op_class(&snap, DICT_OP_PARALLEL_IOS, f.name, "lookup"),
        insert: op_class(&snap, DICT_OP_PARALLEL_IOS, f.name, "insert"),
        delete: op_class(&snap, DICT_OP_PARALLEL_IOS, f.name, "delete"),
        batch_lookup: op_class(&snap, DICT_BATCH_PARALLEL_IOS, f.name, "lookup"),
        disk_imbalance_read: snap.imbalance(DISK_BLOCKS_TOTAL, &[("op", "read")]),
        disk_imbalance_write: snap.imbalance(DISK_BLOCKS_TOTAL, &[("op", "write")]),
        cache_hit_rate,
        metrics_overhead_pct: overhead_pct,
    }
}

fn fmt_class(c: &Option<OpClass>) -> String {
    c.map_or("-".into(), |c| {
        format!("{:.2}/{}/{}", c.mean, c.p99, c.max)
    })
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-".into(), |x| format!("{x:.3}"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, min_secs) = if smoke { (300, 0.02) } else { (2000, 0.25) };

    println!("== OBS — workload replay through the observability layer ==");
    println!(
        "{:<10} {:>16} {:>16} {:>16} {:>16} {:>9} {:>9} {:>7} {:>9}",
        "front",
        "lkp mean/p99/max",
        "ins mean/p99/max",
        "del mean/p99/max",
        "blkp mean/p99/max",
        "imb(rd)",
        "imb(wr)",
        "cache",
        "ovh %"
    );

    let mut reports = Vec::new();
    for f in fronts() {
        let r = run_front(&f, n, min_secs);
        println!(
            "{:<10} {:>16} {:>16} {:>16} {:>16} {:>9} {:>9} {:>7} {:>9.2}",
            r.front,
            fmt_class(&r.lookup),
            fmt_class(&r.insert),
            fmt_class(&r.delete),
            fmt_class(&r.batch_lookup),
            fmt_opt(r.disk_imbalance_read),
            fmt_opt(r.disk_imbalance_write),
            fmt_opt(r.cache_hit_rate),
            r.metrics_overhead_pct,
        );
        reports.push(r);
    }

    let one_probe_p99 = reports
        .iter()
        .find(|r| r.front == "one_probe")
        .and_then(|r| r.lookup.as_ref().map(|c| c.p99))
        .unwrap_or(u64::MAX);

    let report = Report { n, smoke, fronts: reports };
    match write_json("BENCH_obs", &report) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_obs.json: {e}");
            std::process::exit(1);
        }
    }

    // Theorem 6 gate, read off the exported telemetry.
    if one_probe_p99 > 1 {
        eprintln!("FAIL: OneProbeStatic p99 lookup = {one_probe_p99} parallel I/Os (Theorem 6 says 1)");
        std::process::exit(1);
    }
    println!("one_probe p99 lookup = {one_probe_p99} parallel I/O (Theorem 6 holds)");
}

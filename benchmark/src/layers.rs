//! Isolated per-layer measurements: each layer's public calls timed on their
//! own, single thread, on the workload's own configuration. Every figure is a
//! median over at least 2 000 calls after a warm-up.

use crate::stack::{Front, Wire, Workload, BLOCK_WORDS, DEGREE};
use crate::stats::median;
use crate::stream::{CallerStream, Keyspace, UNIVERSE};
use expander::{FamilyKind, NeighborFamily, NeighborFn};
use loadbalance::weighted::{place_all, WeightedNode};
use pdm::{
    BlockAddr, DiskArray, FileBackend, FileBackendOptions, PdmConfig, ReadOptions, Word,
    WriteOptions,
};
use pdm_cache::{CacheConfig, HotCache};
use pdm_dict::Dict;
use pdm_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, WireRequest, WireResponse,
};
use pdm_server::{Op, Reply};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const CALLS: usize = 2048;
const WARMUP_CALLS: usize = 256;

/// Median nanoseconds per call of `call`, timed in groups of `group` calls so
/// the clock reads do not drown a call of a few tens of nanoseconds.
fn median_ns(group: usize, mut call: impl FnMut(usize)) -> f64 {
    for i in 0..WARMUP_CALLS {
        call(i);
    }
    let groups = CALLS.div_ceil(group);
    let mut samples = Vec::with_capacity(groups);
    for g in 0..groups {
        let t = Instant::now();
        for i in 0..group {
            call(WARMUP_CALLS + g * group + i);
        }
        samples.push(t.elapsed().as_nanos() as f64 / group as f64);
    }
    median(&samples)
}

/// Named per-layer values, in the order measured.
pub type Rows = Vec<(&'static str, f64)>;

/// `expander.neighbors_ns_per_key`: all `d` lanes for one key, on the
/// dictionary's family and degree.
pub fn expander(rows: &mut Rows, w: &Workload) {
    let stripe = (w.preload as usize / w.shards).max(64);
    let graph = FamilyKind::default().build(UNIVERSE, stripe, DEGREE, 0xE7A0);
    let keys = Keyspace::new(1);
    let ns = median_ns(16, |i| {
        black_box(graph.neighbors(black_box(keys.key(0, i as u64))));
    });
    rows.push(("expander.neighbors_ns_per_key", ns));
}

/// `loadbalance.place_ns_per_item`: the weighted d-choice placement
/// `ClusterMap::build` runs, per shard replica.
pub fn loadbalance(rows: &mut Rows, w: &Workload) {
    let nodes: Vec<WeightedNode> = (0..3).map(|id| WeightedNode::new(id, 1)).collect();
    let shards = w.shards as u32;
    let ns = median_ns(4, |i| {
        black_box(place_all(i as u64, shards, &nodes, 2, 3));
    });
    rows.push((
        "loadbalance.place_ns_per_item",
        ns / (f64::from(shards) * 2.0),
    ));
}

/// Times and rounds of direct `Dict` calls on `shard`, preloaded with
/// `present` keys of caller 0. Returns (insert rounds + delete rounds) / 2.
fn dict_calls(rows: Option<&mut Rows>, shard: &mut dyn Dict, seed: u64, present: u64) -> f64 {
    let keys = Keyspace::new(seed);
    let total = CALLS + WARMUP_CALLS;
    let mut rounds = [0u64; 3];
    let lookup_ns = median_ns(1, |i| {
        let out = shard.lookup(keys.key(0, i as u64 % present));
        assert!(out.found(), "a preloaded key must be found on the twin");
        rounds[0] += out.cost.parallel_ios;
    });
    let batch_ns = median_ns(1, |i| {
        let batch: Vec<u64> = (0..64)
            .map(|j| keys.key(0, (i as u64 * 64 + j) % present))
            .collect();
        black_box(shard.lookup_batch(&batch));
    });
    let insert_ns = median_ns(1, |i| {
        let key = keys.key(1, i as u64);
        rounds[1] += shard
            .insert(key, &[key, i as Word])
            .expect("twin insert")
            .parallel_ios;
    });
    let delete_ns = median_ns(1, |i| {
        let (was_present, cost) = shard.delete(keys.key(1, i as u64)).expect("twin delete");
        assert!(was_present, "the twin lost a key it acknowledged");
        rounds[2] += cost.parallel_ios;
    });
    let per_call = |r: u64| r as f64 / total as f64;
    if let Some(rows) = rows {
        rows.push(("core.lookup_ns", lookup_ns));
        rows.push(("core.insert_ns", insert_ns));
        rows.push(("core.delete_ns", delete_ns));
        rows.push(("core.lookup_batch64_ns_per_key", batch_ns / 64.0));
        rows.push(("core.lookup_rounds", per_call(rounds[0])));
        rows.push(("core.insert_rounds", per_call(rounds[1])));
        rows.push(("core.delete_rounds", per_call(rounds[2])));
    }
    (per_call(rounds[1]) + per_call(rounds[2])) / 2.0
}

/// `core.*` on a twin shard of the workload's configuration (its own medium
/// and journal), and `pdm.journal_rounds_per_update` against an unjournaled
/// twin given the same updates.
pub fn core(rows: &mut Rows, w: &Workload, seed: u64, scratch: &Path) {
    const PRESENT: u64 = 2048;
    let load = |shard: &mut dyn Dict| {
        for (key, sat) in CallerStream::preload(seed, 0, PRESENT) {
            shard.insert(key, &sat).expect("twin preload");
        }
    };
    let dir = scratch.join("twin");
    let mut twin: Box<dyn Dict + Send> = if w.wire == Wire::Cluster {
        // What a node builds for its shards.
        pdm_cluster::node::build_shard(&w.cluster_config(), 0)
    } else {
        w.build_shard(0, w.file_backed.then_some(dir.as_path()), None)
    };
    load(twin.as_mut());
    let journaled = dict_calls(Some(rows), twin.as_mut(), seed, PRESENT);
    drop(twin);

    let (Front::Dynamic { journal_rows } | Front::Rebuild { journal_rows }) = w.front;
    let journal_cost = if journal_rows == 0 || w.wire == Wire::Cluster {
        0.0
    } else {
        let mut plain = w.clone();
        plain.front = match w.front {
            Front::Dynamic { .. } => Front::Dynamic { journal_rows: 0 },
            Front::Rebuild { .. } => Front::Rebuild { journal_rows: 0 },
        };
        let mut plain_twin = plain.build_shard(0, None, None);
        load(plain_twin.as_mut());
        journaled - dict_calls(None, plain_twin.as_mut(), seed, PRESENT)
    };
    rows.push(("pdm.journal_rounds_per_update", journal_cost));
}

/// `pdm.mem_round_ns`: one D-block `DiskArray::read` round on `MemBackend`.
pub fn pdm_mem(rows: &mut Rows) {
    const BLOCKS: usize = 64;
    let cfg = PdmConfig::new(2 * DEGREE, BLOCK_WORDS);
    let mut disks = DiskArray::new(cfg, BLOCKS);
    let ns = median_ns(1, |i| {
        let round: Vec<BlockAddr> = (0..cfg.disks)
            .map(|d| BlockAddr::new(d, (i * 7 + d) % BLOCKS))
            .collect();
        black_box(disks.read(&round, ReadOptions::default()));
    });
    rows.push(("pdm.mem_round_ns", ns));
}

/// `pdm.file_round_us` and `pdm.file_sync_us`: one D-block read round, and the
/// flush barrier after a one-round write, on a `FileBackend` like the
/// workload's (buffered, in the scratch directory).
pub fn pdm_file(rows: &mut Rows, scratch: &Path) {
    const BLOCKS: usize = 64;
    let cfg = PdmConfig::new(2 * DEGREE, BLOCK_WORDS);
    let dir = scratch.join("round");
    let backend = FileBackend::create(
        &dir,
        cfg.disks,
        cfg.block_words,
        BLOCKS,
        FileBackendOptions::default(),
    )
    .expect("create file backend in the scratch directory");
    let mut disks =
        DiskArray::with_backend(cfg, Box::new(backend)).expect("backend matches its config");
    let round = |i: usize| -> Vec<BlockAddr> {
        (0..cfg.disks)
            .map(|d| BlockAddr::new(d, (i * 7 + d) % BLOCKS))
            .collect()
    };
    let read_ns = median_ns(1, |i| {
        black_box(disks.read(&round(i), ReadOptions::default()));
    });
    let block = vec![0x5EED as Word; BLOCK_WORDS];
    let mut sync_samples = Vec::new();
    for i in 0..CALLS / 8 {
        let addrs = round(i);
        let writes: Vec<(BlockAddr, &[Word])> =
            addrs.iter().map(|&a| (a, block.as_slice())).collect();
        disks.write(&writes, WriteOptions::default());
        let t = Instant::now();
        let ticket = disks.flush_begin();
        disks.flush_join(ticket);
        sync_samples.push(t.elapsed().as_nanos() as f64);
    }
    rows.push(("pdm.file_round_us", read_ns / 1e3));
    rows.push(("pdm.file_sync_us", median(&sync_samples) / 1e3));
}

/// `cache.probe_hit_ns`, `cache.probe_miss_ns`, `cache.fill_ns` on a cache
/// built from the workload's `CacheConfig`.
pub fn cache(rows: &mut Rows, cfg: CacheConfig) {
    let keys = Keyspace::new(2);
    let sat = [1 as Word, 2];
    let mut cache = HotCache::new(cfg);
    // Residents: seen often enough to be admitted, then filled.
    const RESIDENT: u64 = 256;
    for idx in 0..RESIDENT {
        let key = keys.key(0, idx);
        for _ in 0..=cfg.admit_threshold {
            cache.probe(key);
        }
        assert!(
            cache.fill(key, Some(&sat), false),
            "a hot key must be admitted"
        );
    }
    let hit_ns = median_ns(16, |i| {
        black_box(cache.probe(keys.key(0, i as u64 % RESIDENT)));
    });
    let miss_ns = median_ns(16, |i| {
        black_box(cache.probe(keys.key(1, i as u64)));
    });
    // The miss path's refill: a key probed once is offered and judged.
    let fill_ns = median_ns(16, |i| {
        black_box(cache.fill(keys.key(1, i as u64), Some(&sat), false));
    });
    rows.push(("cache.probe_hit_ns", hit_ns));
    rows.push(("cache.probe_miss_ns", miss_ns));
    rows.push(("cache.fill_ns", fill_ns));
}

/// `server.codec_ns_per_op`: request and response of a found lookup, encoded
/// and decoded.
pub fn codec(rows: &mut Rows) {
    let ns = median_ns(16, |i| {
        let request = WireRequest::Op(Op::Lookup(i as u64));
        let wire = encode_request(black_box(&request));
        black_box(decode_request(&wire).expect("own request decodes"));
        let response = WireResponse::Reply(Reply::Lookup(Some(vec![i as Word, 7])));
        let wire = encode_response(black_box(&response));
        black_box(decode_response(&wire).expect("own response decodes"));
    });
    rows.push(("server.codec_ns_per_op", ns));
}

/// Median microseconds of `call` over [`CALLS`] calls after a warm-up, each
/// timed on its own (for calls of tens of microseconds).
pub fn p50_us(call: impl FnMut(usize)) -> f64 {
    median_ns(1, call) / 1e3
}

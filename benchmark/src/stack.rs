//! The six workloads and the product stacks they run on, built and torn down
//! through the crates' public constructors only.

use crate::stream::{CallerStream, Kind, StreamSpec, SATELLITE_WORDS, UNIVERSE};
use crate::trace::{BackendCounts, TracedBackend, TracedDict};
use expander::mix::mix64;
use pdm::metrics::MetricsRegistry;
use pdm::{
    DiskArray, FileBackend, FileBackendOptions, IoStats, JournalRegion, MemBackend, PdmConfig,
    StorageBackend, Word,
};
use pdm_cache::CacheConfig;
use pdm_cluster::{
    ClusterConfig, ClusterMap, ClusterNode, ClusterRouter, NodeConfig, RouterConfig,
};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::{Dict, DictHandle, DictParams, Dictionary, DynamicDict};
use pdm_server::{DictClient, EngineConfig, ServeEngine, TcpClient, TcpServer};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Callers (load-generator threads) of every workload.
pub const CALLERS: usize = 2;
/// Expander degree `d` of every shard; a dynamic shard spans `2d` disks.
pub const DEGREE: usize = 20;
/// Words per block. The issue names 64, but a 64-word block holds the
/// membership bucket of at most 8191 keys (`log2 n + 8` slots of 3 words), and
/// the workloads keep 8 k to 16 k keys per shard; 128 is the smallest power of
/// two that fits them. Cluster nodes build their own shards with 64.
pub const BLOCK_WORDS: usize = 128;
pub const BLOCK_BYTES: u64 = (BLOCK_WORDS * 8) as u64;
/// Journal ring rows of journaled shards.
const JOURNAL_ROWS: usize = 4;
/// Seed of every product-side hash; the run's `--seed` only moves the keys.
const PRODUCT_SEED: u64 = 0xB3AC_4000;
/// Entries per `insert_batch` call when preloading a file-backed shard (one
/// call per key costs a flush round trip through 40 disk threads each).
const FILE_PRELOAD_CHUNK: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `TcpClient` → `TcpServer` → engine.
    Tcp,
    /// `DictClient` straight on the engine.
    InProcess,
    /// `ClusterRouter` → three `ClusterNode`s.
    Cluster,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `DynamicDict` with this many journal rows (0 for none).
    Dynamic { journal_rows: usize },
    /// The global-rebuilding `Dictionary` with this many journal rows.
    Rebuild { journal_rows: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// One operation in flight per caller.
    Sync,
    /// Windows of this many `submit`s per caller, then all the waits.
    Pipelined(usize),
}

/// One workload: a stack and the stream that runs on it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub wire: Wire,
    pub front: Front,
    pub file_backed: bool,
    pub shards: usize,
    pub engine: EngineConfig,
    /// Keys loaded before the run, over all callers.
    pub preload: u64,
    /// Inserts the shards have room for beyond the preload, over all callers.
    /// About five times what this host issues in a run; a stream that still
    /// runs out turns its updates into lookups and says so.
    pub insert_headroom: u64,
    pub drive: Drive,
    /// The workload's size: operations, over all callers, per second of
    /// `--seconds`. A run issues this many however long they take, so that
    /// the counts which move with the operations done — rounds while a cache
    /// warms, storage and memory of shards that grow with every rebuild —
    /// repeat from run to run. Set to what the sandbox this was written on
    /// completes in a second, so that a run there lasts about `--seconds`.
    pub ops_per_second: u64,
    pub stream: StreamSpec,
}

/// The cache `engine_cold` and `engine_hot` share: 80 blocks' worth of memory
/// per shard, 2.5 k entries over both shards — a twenty-fifth of the 64 k
/// keys, and enough for all but a thousandth of the Zipf(1.8) draws.
fn small_cache() -> CacheConfig {
    CacheConfig::default().with_budget_blocks(80, BLOCK_WORDS)
}

fn uniform(pattern: Vec<Kind>, protect_preload: bool) -> StreamSpec {
    StreamSpec {
        pattern,
        absent_every: 10,
        hot_absent: None,
        zipf_theta: None,
        protect_preload,
    }
}

/// The workloads, in the order they are listed and run.
pub fn workloads() -> Vec<Workload> {
    let pipelined = EngineConfig::default()
        .with_queue_bound(8192)
        .with_max_coalesce(128);
    vec![
        Workload {
            name: "tcp_file_mixed",
            why: "the whole path, TcpClient to journaled DynamicDict on FileBackend with durable acks: pdm's file path, journal and flush barrier do most of the work",
            wire: Wire::Tcp,
            front: Front::Dynamic { journal_rows: JOURNAL_ROWS },
            file_backed: true,
            shards: 2,
            engine: EngineConfig::default()
                .with_durable_acks(true)
                .with_cache(CacheConfig::default()),
            preload: 8 * 1024,
            insert_headroom: 16 * 1024,
            drive: Drive::Sync,
            ops_per_second: 2_000,
            stream: uniform(StreamSpec::mixed(10, 1, 1), false),
        },
        Workload {
            name: "tcp_mem_lookup",
            why: "same wire and engine over MemBackend, cache off, 98 % lookups: storage is a memcpy, so the server crate's codec, threads and queue are at their largest share",
            wire: Wire::Tcp,
            front: Front::Dynamic { journal_rows: 0 },
            file_backed: false,
            shards: 2,
            engine: EngineConfig::default(),
            preload: 32 * 1024,
            insert_headroom: 24 * 1024,
            drive: Drive::Sync,
            ops_per_second: 24_000,
            stream: uniform(StreamSpec::mixed(100, 1, 1), true),
        },
        Workload {
            name: "engine_cold",
            why: "no wire, windows of 128 through lookup_batch, uniform keys 25 times the cache: core, expander and pdm's memory path work, the cache only pays its miss path",
            wire: Wire::InProcess,
            front: Front::Dynamic { journal_rows: 0 },
            file_backed: false,
            shards: 2,
            engine: pipelined.with_cache(small_cache()),
            preload: 64 * 1024,
            insert_headroom: 24 * 1024,
            drive: Drive::Pipelined(128),
            ops_per_second: 240 * 128,
            stream: uniform(StreamSpec::mixed(100, 1, 1), true),
        },
        Workload {
            name: "engine_hot",
            why: "engine_cold's stack and cache under Zipf(1.8) plus hot absent keys: the working set fits, so the cache and the submit path are the cost and core and pdm idle",
            wire: Wire::InProcess,
            front: Front::Dynamic { journal_rows: 0 },
            file_backed: false,
            shards: 2,
            engine: pipelined.with_cache(small_cache()),
            preload: 64 * 1024,
            insert_headroom: 24 * 1024,
            drive: Drive::Pipelined(128),
            ops_per_second: 10_000 * 128,
            stream: StreamSpec {
                pattern: StreamSpec::mixed(4096, 1, 1),
                absent_every: 20,
                hot_absent: Some(64),
                zipf_theta: Some(1.8),
                protect_preload: true,
            },
        },
        Workload {
            name: "engine_churn",
            why: "the write twin of engine_cold: 80 % updates on journaled rebuilding Dictionary shards, so first-fit insertion, journal intents, rebuild migration and invalidation work",
            wire: Wire::InProcess,
            front: Front::Rebuild { journal_rows: JOURNAL_ROWS },
            file_backed: false,
            shards: 2,
            engine: EngineConfig::default().with_queue_bound(8192).with_cache(small_cache()),
            preload: 4 * 1024,
            // No bound: the Dictionary grows by rebuilding.
            insert_headroom: 1 << 40,
            drive: Drive::Pipelined(64),
            // A run of 10 s ends between two migrations, where the rounds
            // charged so far do not depend on the seed; 5 % fewer or 20 %
            // fewer operations end inside one, and `rounds_per_op` then
            // moves by 2 % from seed to seed.
            ops_per_second: 216 * 64,
            stream: uniform(StreamSpec::mixed(5, 2, 2), false),
        },
        Workload {
            name: "cluster_mixed",
            why: "three ClusterNodes, 8 shards, replication 2 behind one ClusterRouter: two wire hops, routing, connection leasing and write fan-out; the only workload where cluster works",
            wire: Wire::Cluster,
            front: Front::Dynamic { journal_rows: 2 },
            file_backed: false,
            shards: 8,
            engine: EngineConfig::default(),
            preload: 8 * 1024,
            insert_headroom: 32 * 1024,
            drive: Drive::Sync,
            ops_per_second: 11_000,
            stream: uniform(StreamSpec::mixed(10, 1, 1), false),
        },
    ]
}

impl Workload {
    /// Keys each caller preloads and may insert beyond that.
    pub fn per_caller(&self) -> (u64, u64) {
        (
            self.preload / CALLERS as u64,
            self.insert_headroom / CALLERS as u64,
        )
    }

    pub fn caller_stream(&self, seed: u64, caller: usize) -> CallerStream {
        let (preload, headroom) = self.per_caller();
        CallerStream::new(
            seed,
            caller,
            self.stream.clone(),
            preload,
            headroom,
            self.shards,
            &|key| self.shard_of(key),
        )
    }

    /// The engine's route: which shard serves `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(self.engine.route_seed ^ key) % self.shards as u64) as usize
    }

    /// Capacity of one shard: its share of preload and headroom, with slack
    /// for the route's imbalance.
    fn shard_capacity(&self) -> usize {
        ((self.preload + self.insert_headroom) as usize / self.shards) * 21 / 20 + 64
    }

    fn shard_params(&self, shard: usize) -> DictParams {
        let (Front::Dynamic { journal_rows } | Front::Rebuild { journal_rows }) = self.front;
        let capacity = match self.front {
            Front::Dynamic { .. } => self.shard_capacity(),
            // Grows by rebuilding; start at the preloaded size.
            Front::Rebuild { .. } => self.preload as usize / self.shards,
        };
        let params = DictParams::new(capacity, UNIVERSE, SATELLITE_WORDS)
            .with_degree(DEGREE)
            .with_epsilon(0.5)
            .with_seed(PRODUCT_SEED + shard as u64);
        if journal_rows > 0 {
            params.with_journal(journal_rows)
        } else {
            params
        }
    }

    fn pdm_config() -> PdmConfig {
        PdmConfig::new(2 * DEGREE, BLOCK_WORDS)
    }

    pub fn cluster_config(&self) -> ClusterConfig {
        let Front::Dynamic { journal_rows } = self.front else {
            unreachable!("cluster shards are dynamic dictionaries")
        };
        ClusterConfig {
            shards: self.shards as u32,
            replication: 2,
            choices: 3,
            seed: PRODUCT_SEED,
            // Nodes build 64-word blocks, which bound a shard at 8191 keys.
            shard_capacity: self.shard_capacity().min(8191),
            universe: UNIVERSE,
            sigma: SATELLITE_WORDS,
            journal_rows,
        }
    }

    /// An empty shard of this workload, as the engine will own it. With
    /// `counts`, its backend is wrapped by the counting, span-recording
    /// decorator.
    pub fn build_shard(
        &self,
        shard: usize,
        dir: Option<&Path>,
        counts: Option<&Arc<BackendCounts>>,
    ) -> Box<dyn Dict + Send> {
        if matches!(self.front, Front::Rebuild { .. }) {
            let dict = Dictionary::new(self.shard_params(shard), BLOCK_WORDS)
                .expect("rebuilding dictionary parameters");
            return Box::new(dict);
        }
        let cfg = Self::pdm_config();
        let mut backend: Box<dyn StorageBackend> = match dir {
            Some(dir) => Box::new(
                FileBackend::create(
                    dir,
                    cfg.disks,
                    cfg.block_words,
                    0,
                    FileBackendOptions::default(),
                )
                .expect("create file backend in the scratch directory"),
            ),
            None => Box::new(MemBackend::new(cfg.disks, cfg.block_words, 0)),
        };
        if let Some(counts) = counts {
            backend = Box::new(TracedBackend::new(backend, shard, Arc::clone(counts)));
        }
        let mut disks = DiskArray::with_backend(cfg, backend).expect("backend matches its config");
        let mut alloc = DiskAllocator::new(cfg.disks);
        let dict = DynamicDict::create(&mut disks, &mut alloc, 0, self.shard_params(shard))
            .expect("dynamic dictionary parameters");
        Box::new(DictHandle::new(dict, disks))
    }

    /// Reopen a file-backed shard from its directory alone and run recovery.
    fn reopen_shard(&self, shard: usize, dir: &Path) -> Result<Box<dyn Dict + Send>, String> {
        let Front::Dynamic { journal_rows } = self.front else {
            return Err("only dynamic shards are file-backed".into());
        };
        let backend =
            FileBackend::open(dir, FileBackendOptions::default()).map_err(|e| e.to_string())?;
        let cfg = Self::pdm_config();
        let mut disks =
            DiskArray::with_backend(cfg, Box::new(backend)).map_err(|e| e.to_string())?;
        let mut alloc = DiskAllocator::new(cfg.disks);
        // The ring is the first allocation of every shard.
        let region = JournalRegion {
            first_block: 0,
            rows: journal_rows,
        };
        let (dict, _report) =
            DynamicDict::reopen(&mut disks, &mut alloc, 0, self.shard_params(shard), region)
                .map_err(|e| e.to_string())?;
        let mut reopened: Box<dyn Dict + Send> = Box::new(DictHandle::new(dict, disks));
        let report = reopened.recover();
        println!(
            "reopen shard={shard} dir={} replayed_intents={} clean={}",
            dir.display(),
            report.replayed.len(),
            report.is_clean()
        );
        Ok(reopened)
    }
}

/// How a stack is built: bare, or with the decorators of the traced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    Bare,
    Traced,
}

/// A running engine stack (every workload but `cluster_mixed`).
pub struct EngineStack {
    pub engine: ServeEngine,
    pub server: Option<TcpServer>,
    /// Shard directories of a file-backed stack.
    dirs: Vec<PathBuf>,
    /// Each shard's I/O counters when serving started (after the preload).
    io_at_start: Vec<IoStats>,
    pub counts: Vec<Arc<BackendCounts>>,
    pub registry: Option<Arc<MetricsRegistry>>,
}

/// A running cluster.
pub struct ClusterStack {
    pub nodes: Vec<ClusterNode>,
    pub router: Arc<ClusterRouter>,
    pub config: ClusterConfig,
}

pub enum Stack {
    Engine(EngineStack),
    Cluster(ClusterStack),
}

/// Storage-side counts of one serving period, read from the product's own
/// counters after shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageReport {
    pub parallel_ios: u64,
    pub block_reads: u64,
    pub block_writes: u64,
    pub storage_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Stack {
    /// Build the stack of `w`, preloaded with both callers' keys for `seed`.
    /// `scratch` holds the shard directories of a file-backed stack.
    pub fn build(w: &Workload, seed: u64, scratch: &Path, instrument: Instrument) -> Stack {
        if w.wire == Wire::Cluster {
            return Stack::Cluster(ClusterStack::build(w, seed));
        }
        let traced = instrument == Instrument::Traced;
        let counts: Vec<Arc<BackendCounts>> = (0..w.shards)
            .map(|_| Arc::new(BackendCounts::default()))
            .collect();
        let dirs: Vec<PathBuf> = if w.file_backed {
            (0..w.shards)
                .map(|s| scratch.join(format!("shard{s}")))
                .collect()
        } else {
            Vec::new()
        };
        let mut shards: Vec<Box<dyn Dict + Send>> = (0..w.shards)
            .map(|s| {
                w.build_shard(
                    s,
                    dirs.get(s).map(PathBuf::as_path),
                    traced.then(|| &counts[s]),
                )
            })
            .collect();

        // Preload straight into the shards, off the engine's books.
        let (per_caller, _) = w.per_caller();
        let mut staged: Vec<Vec<(u64, Vec<Word>)>> = vec![Vec::new(); w.shards];
        for caller in 0..CALLERS {
            for (key, sat) in CallerStream::preload(seed, caller, per_caller) {
                staged[w.shard_of(key)].push((key, sat));
            }
        }
        for (shard, entries) in shards.iter_mut().zip(&staged) {
            if w.file_backed {
                for chunk in entries.chunks(FILE_PRELOAD_CHUNK) {
                    let (results, _) = shard.insert_batch(chunk);
                    assert!(results.iter().all(Result::is_ok), "preload insert refused");
                }
            } else {
                for (key, sat) in entries {
                    shard.insert(*key, sat).expect("preload insert refused");
                }
            }
        }

        let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
        let io_at_start = shards
            .iter()
            .map(|s| s.disks().expect("every engine shard has one array").stats())
            .collect();
        if traced {
            shards = shards
                .into_iter()
                .enumerate()
                .map(|(s, mut dict)| {
                    dict.set_metrics(registry.clone());
                    Box::new(TracedDict::new(dict, s)) as Box<dyn Dict + Send>
                })
                .collect();
        }
        let engine = ServeEngine::new(shards, w.engine);
        let server = (w.wire == Wire::Tcp).then(|| {
            TcpServer::bind("127.0.0.1:0", engine.client()).expect("bind loopback server")
        });
        Stack::Engine(EngineStack {
            engine,
            server,
            dirs,
            io_at_start,
            counts,
            registry,
        })
    }
}

impl Stack {
    /// Stop a stack whose counters nobody will read.
    pub fn discard(self) {
        match self {
            Stack::Engine(engine) => drop(engine.shutdown()),
            Stack::Cluster(cluster) => cluster.shutdown(),
        }
    }
}

impl EngineStack {
    pub fn connect(&self) -> TcpClient {
        let addr = self.server.as_ref().expect("a tcp stack").local_addr();
        TcpClient::connect(addr).expect("connect to the loopback server")
    }

    pub fn client(&self) -> DictClient {
        self.engine.client()
    }

    /// Stop serving and read what the shards counted since serving started.
    /// Returns the shards too; a file-backed caller drops them before
    /// reopening the directories.
    pub fn shutdown(self) -> (StorageReport, Vec<Box<dyn Dict + Send>>, Vec<PathBuf>) {
        if let Some(server) = self.server {
            server.shutdown();
        }
        let shards = self.engine.shutdown();
        let mut report = StorageReport::default();
        for (shard, start) in shards.iter().zip(&self.io_at_start) {
            let disks = shard.disks().expect("every engine shard has one array");
            let delta = disks.stats().since(start);
            report.parallel_ios += delta.parallel_ios;
            report.block_reads += delta.block_reads;
            report.block_writes += delta.block_writes;
            let blocks: u64 = (0..disks.disks()).map(|d| disks.blocks_on(d) as u64).sum();
            report.storage_bytes += blocks * (disks.block_words() * 8) as u64;
        }
        if !self.dirs.is_empty() {
            // What the filesystem holds, meta files included.
            report.storage_bytes = self.dirs.iter().map(|d| dir_bytes(d)).sum();
        }
        (report, shards, self.dirs)
    }
}

/// Check every live key of `streams` is readable with its satellite, and
/// every deleted one absent, on `shards`. Returns (checked, failed).
pub fn verify_shards(
    w: &Workload,
    shards: &mut [Box<dyn Dict + Send>],
    streams: &[CallerStream],
) -> (u64, u64) {
    let mut expected: Vec<Vec<(u64, Option<[Word; SATELLITE_WORDS]>)>> =
        vec![Vec::new(); shards.len()];
    for stream in streams {
        for idx in stream.live_indices() {
            let key = stream.key_of(idx);
            expected[w.shard_of(key)].push((key, Some(crate::stream::satellite(key, idx))));
        }
        for idx in stream.deleted_indices() {
            let key = stream.key_of(idx);
            expected[w.shard_of(key)].push((key, None));
        }
    }
    let (mut checked, mut failed) = (0, 0);
    for (shard, expected) in shards.iter_mut().zip(&expected) {
        for chunk in expected.chunks(256) {
            let keys: Vec<u64> = chunk.iter().map(|(k, _)| *k).collect();
            let (found, _) = shard.lookup_batch(&keys);
            for ((_, want), got) in chunk.iter().zip(&found) {
                checked += 1;
                if got.as_deref() != want.as_ref().map(|s| s.as_slice()) {
                    failed += 1;
                }
            }
        }
    }
    (checked, failed)
}

/// Reopen the shard directories of a stopped file-backed stack from the files
/// alone, recover, and check every acknowledged update. Returns (checked,
/// failed).
pub fn verify_reopened(w: &Workload, dirs: &[PathBuf], streams: &[CallerStream]) -> (u64, u64) {
    let mut shards = Vec::new();
    for (s, dir) in dirs.iter().enumerate() {
        match w.reopen_shard(s, dir) {
            Ok(shard) => shards.push(shard),
            Err(e) => {
                println!("reopen shard={s} failed: {e}");
                return (1, 1);
            }
        }
    }
    verify_shards(w, &mut shards, streams)
}

/// Remove a stack's scratch directory, if it made one.
pub fn remove_scratch(scratch: &Path) {
    let _ = std::fs::remove_dir_all(scratch);
}

impl ClusterStack {
    fn build(w: &Workload, seed: u64) -> ClusterStack {
        let config = w.cluster_config();
        let weights = [1u32; 3];
        let map = ClusterMap::build(config, &weights);
        let node_cfg = NodeConfig {
            engine: w.engine,
            ..NodeConfig::default()
        };
        let nodes: Vec<ClusterNode> = (0..weights.len())
            .map(|n| {
                ClusterNode::start("127.0.0.1:0", config, &map.shards_on(n), node_cfg)
                    .expect("start a cluster node on loopback")
            })
            .collect();
        let addrs: Vec<SocketAddr> = nodes.iter().map(ClusterNode::local_addr).collect();
        let router = Arc::new(ClusterRouter::new(
            config,
            &addrs,
            &weights,
            RouterConfig {
                read_cache: None,
                ..RouterConfig::default()
            },
        ));
        // Preload through the router, each caller its own keys.
        let (per_caller, _) = w.per_caller();
        std::thread::scope(|scope| {
            for caller in 0..CALLERS {
                let router = Arc::clone(&router);
                scope.spawn(move || {
                    for (key, sat) in CallerStream::preload(seed, caller, per_caller) {
                        router
                            .insert(key, &sat)
                            .expect("preload insert through the router");
                    }
                });
            }
        });
        ClusterStack {
            nodes,
            router,
            config,
        }
    }

    pub fn shutdown(self) {
        drop(self.router);
        for node in self.nodes {
            node.shutdown();
        }
    }
}

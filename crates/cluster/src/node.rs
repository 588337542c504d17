//! A cluster node: several single-shard serving engines behind one TCP
//! listener speaking the shard-addressed wire protocol. The listener and
//! the per-connection frame loop are `pdm-server`'s own
//! ([`pdm_server::server::Listener`], [`serve_frames`]); the node only
//! supplies the request handler, so a stop reaches its connections the
//! way it reaches a [`pdm_server::TcpServer`]'s.
//!
//! Each hosted global shard gets its **own** [`ServeEngine`] (one
//! internal shard each). That keeps migration surgical: freezing a
//! shard for export quiesces exactly that engine, while every other
//! shard on the node keeps serving. The node constructs each shard's
//! dictionary deterministically from the shared [`ClusterConfig`] —
//! there is no provisioning step and no directory, in the paper's
//! spirit: any node can (re)build or adopt any shard from the config
//! plus, for adoption, a migrated image.
//!
//! Epoch discipline: the node remembers the highest cluster-map epoch
//! it has seen (learned from [`WireRequest::EpochSet`] or piggybacked
//! on any shard-addressed request) and refuses older routing with
//! [`ServeError::StaleEpoch`]. Requests for shards it does not host
//! answer [`ServeError::WrongShard`].

use crate::image::{chunk_slice, chunks_of, deserialize_image, serialize_image};
use crate::map::ClusterConfig;
use pdm::JournalRegion;
use pdm_dict::layout::DiskAllocator;
use pdm_dict::{Dict, DictHandle, DynamicDict};
use pdm_server::protocol::{WireRequest, WireResponse};
use pdm_server::server::{serve_frames, Listener};
use pdm_server::{DictClient, EngineConfig, Op, ServeEngine, ServeError};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Tuning of one cluster node.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeConfig {
    /// Engine tuning applied to every hosted shard's engine.
    pub engine: EngineConfig,
}

struct ShardHost {
    engine: ServeEngine,
    client: DictClient,
}

impl ShardHost {
    fn new(dict: Box<dyn Dict + Send>, cfg: EngineConfig) -> Self {
        let engine = ServeEngine::new(vec![dict], cfg);
        let client = engine.client();
        ShardHost { engine, client }
    }
}

struct ExportStage {
    bytes: Vec<u8>,
    total: u32,
}

struct InstallStage {
    total: u32,
    received: u32,
    bytes: Vec<u8>,
}

struct NodeInner {
    cluster: ClusterConfig,
    cfg: NodeConfig,
    epoch: AtomicU64,
    shards: Mutex<HashMap<u32, ShardHost>>,
    exports: Mutex<HashMap<u32, ExportStage>>,
    installs: Mutex<HashMap<u32, InstallStage>>,
}

impl Drop for NodeInner {
    /// Drain every engine so its worker thread exits; the returned
    /// dictionaries are dropped — node state does not survive.
    fn drop(&mut self) {
        let shards = self.shards.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (_, host) in shards.drain() {
            drop(host.engine.shutdown());
        }
    }
}

/// Build one global shard's dictionary front from nothing but the
/// shared config — deterministic, so every party agrees on the layout,
/// down to the block size ([`ClusterConfig::block_words`]).
///
/// # Panics
/// Panics if the config's dictionary parameters are rejected (they are
/// validated identically on every node, so this is a config bug, not a
/// runtime condition).
#[must_use]
pub fn build_shard(cluster: &ClusterConfig, shard: u32) -> Box<dyn Dict + Send> {
    let shard = DictHandle::in_memory(cluster.shard_params(shard), cluster.block_words())
        .unwrap_or_else(|e| panic!("shard {shard}: config yields invalid dictionary: {e}"));
    Box::new(shard)
}

/// Adopt a migrated shard image: poke the blocks back and run the
/// ordinary crash-recovery reopen (journaled catch-up — the ring
/// travels inside the image).
///
/// # Errors
/// [`ServeError::Protocol`] on a malformed image or one whose geometry
/// (disk count, block size) is not what [`build_shard`] lays out under
/// this config, [`ServeError::Dict`] when recovery rejects it.
pub fn install_shard(
    cluster: &ClusterConfig,
    shard: u32,
    image: &[u8],
) -> Result<Box<dyn Dict + Send>, ServeError> {
    let mut disks = deserialize_image(image)
        .map_err(|e| ServeError::Protocol(format!("shard {shard} image: {e}")))?;
    let want = (2 * cluster.shard_params(shard).degree, cluster.block_words());
    let got = (disks.disks(), disks.block_words());
    if got != want {
        return Err(ServeError::Protocol(format!(
            "shard {shard} image: {} disks of {}-word blocks, this cluster's shards are {} disks of {}-word blocks",
            got.0, got.1, want.0, want.1
        )));
    }
    let mut alloc = DiskAllocator::new(disks.disks());
    // The journal ring is allocated first on every shard front, so it
    // deterministically sits at block 0 of every disk.
    let region = JournalRegion {
        first_block: 0,
        rows: cluster.journal_rows,
    };
    disks.check_journal(region).map_err(|e| ServeError::Protocol(format!("shard {shard} image: {e}")))?;
    let (dict, _report) = DynamicDict::reopen(
        &mut disks,
        &mut alloc,
        0,
        cluster.shard_params(shard),
        region,
    )
    .map_err(ServeError::Dict)?;
    Ok(Box::new(DictHandle::new(dict, disks)))
}

/// A running cluster node. Dropping it stops its listener (every
/// connection ends, see [`Listener`]) and then discards its shards.
pub struct ClusterNode {
    listener: Listener,
    inner: Arc<NodeInner>,
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("addr", &self.local_addr())
            .field("epoch", &self.inner.epoch.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl ClusterNode {
    /// Start a node hosting `shards` (each built empty from the
    /// config), listening on `addr` (`"127.0.0.1:0"` for an OS port).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        cluster: ClusterConfig,
        shards: &[u32],
        cfg: NodeConfig,
    ) -> io::Result<Self> {
        let dicts = shards.iter().map(|&s| (s, build_shard(&cluster, s))).collect();
        Self::host(addr, cluster, dicts, cfg)
    }

    /// Start a node serving already-built dictionaries, each as the
    /// global shard it is paired with.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn host<A: ToSocketAddrs>(
        addr: A,
        cluster: ClusterConfig,
        shards: Vec<(u32, Box<dyn Dict + Send>)>,
        cfg: NodeConfig,
    ) -> io::Result<Self> {
        let hosted = shards
            .into_iter()
            .map(|(s, dict)| (s, ShardHost::new(dict, cfg.engine)))
            .collect();
        let inner = Arc::new(NodeInner {
            cluster,
            cfg,
            epoch: AtomicU64::new(0),
            shards: Mutex::new(hosted),
            exports: Mutex::new(HashMap::new()),
            installs: Mutex::new(HashMap::new()),
        });
        let listener = {
            let inner = Arc::clone(&inner);
            Listener::bind(addr, "pdm-cluster", move |stream| {
                serve_frames(stream, |request| dispatch(&inner, request));
            })?
        };
        Ok(ClusterNode { listener, inner })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The highest cluster-map epoch the node has seen.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Global shards currently hosted.
    #[must_use]
    pub fn hosted(&self) -> Vec<u32> {
        let mut shards: Vec<u32> = lock(&self.inner.shards).keys().copied().collect();
        shards.sort_unstable();
        shards
    }

    /// Kill the node as a failure drill: connections drop, the
    /// listener closes, and **all shard state is discarded** — exactly
    /// what a machine death looks like to the rest of the cluster. The
    /// node can only come back empty, via re-replication. The same as
    /// dropping it.
    pub fn kill(self) {
        drop(self);
    }

    /// Graceful stop. Over the in-memory backend this equals
    /// [`kill`](Self::kill) (state is process-local either way); the
    /// distinct name keeps call sites honest about intent.
    pub fn shutdown(self) {
        drop(self);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dispatch(inner: &Arc<NodeInner>, req: WireRequest) -> WireResponse {
    match req {
        WireRequest::Ping => WireResponse::Pong,
        WireRequest::Status => WireResponse::NodeStatus {
            epoch: inner.epoch.load(Ordering::Acquire),
            shards: {
                let mut s: Vec<u32> = lock(&inner.shards).keys().copied().collect();
                s.sort_unstable();
                s
            },
        },
        WireRequest::EpochSet { epoch } => {
            inner.epoch.fetch_max(epoch, Ordering::AcqRel);
            WireResponse::EpochOk
        }
        WireRequest::ShardOp { shard, epoch, op } => shard_op(inner, shard, epoch, op),
        WireRequest::MigrateExport { shard, chunk } => export_chunk(inner, shard, chunk),
        WireRequest::MigrateInstall {
            shard,
            total,
            chunk,
            bytes,
        } => install_chunk(inner, shard, total, chunk, &bytes),
        // A bare (unaddressed) dictionary op is a routing bug on a
        // multi-tenant node: refuse typed rather than guess a shard.
        WireRequest::Op(_) => WireResponse::Err(ServeError::Protocol(
            "cluster nodes require shard-addressed operations".into(),
        )),
    }
}

fn shard_op(inner: &Arc<NodeInner>, shard: u32, epoch: u64, op: Op) -> WireResponse {
    // Piggybacked epoch: learn newer, refuse older.
    let node_epoch = inner.epoch.fetch_max(epoch, Ordering::AcqRel);
    if epoch < node_epoch {
        return WireResponse::Err(ServeError::StaleEpoch {
            request: epoch,
            node: node_epoch,
        });
    }
    let Some(client) = lock(&inner.shards).get(&shard).map(|h| h.client.clone()) else {
        return WireResponse::Err(ServeError::WrongShard { shard });
    };
    // Bounded wait (engine deadline + slack): a healthy engine always
    // answers within its deadline, so hitting the bound means the shard
    // worker died — degrade to a typed timeout instead of wedging this
    // connection (and with it node teardown) forever.
    let bound = inner.cfg.engine.deadline + Duration::from_secs(1);
    match client.submit(op).map(|p| p.wait_timeout(bound)) {
        Ok(Some(Ok(reply))) => WireResponse::Reply(reply),
        Ok(Some(Err(e))) => WireResponse::Err(e),
        Ok(None) => WireResponse::Err(ServeError::TimedOut),
        Err(e) => WireResponse::Err(e),
    }
}

fn export_chunk(inner: &Arc<NodeInner>, shard: u32, chunk: u32) -> WireResponse {
    let mut exports = lock(&inner.exports);
    if chunk == 0 {
        // (Re-)freeze: quiesce exactly this shard's engine — drain,
        // checkpoint, snapshot — then put it back in service on the
        // same dictionary.
        let Some(host) = lock(&inner.shards).remove(&shard) else {
            return WireResponse::Err(ServeError::WrongShard { shard });
        };
        let mut dicts = host.engine.shutdown();
        let dict = dicts.pop().expect("single-shard engine returns its dict");
        let image = serialize_image(dict.disks().expect("shard fronts own their disks"));
        lock(&inner.shards).insert(shard, ShardHost::new(dict, inner.cfg.engine));
        let total = chunks_of(image.len());
        exports.insert(shard, ExportStage { bytes: image, total });
    }
    let Some(stage) = exports.get(&shard) else {
        return WireResponse::Err(ServeError::Protocol(format!(
            "no staged export for shard {shard} (start at chunk 0)"
        )));
    };
    if chunk >= stage.total {
        return WireResponse::Err(ServeError::Protocol(format!(
            "chunk {chunk} out of range (total {})",
            stage.total
        )));
    }
    let resp = WireResponse::ExportChunk {
        total: stage.total,
        chunk,
        bytes: chunk_slice(&stage.bytes, chunk).to_vec(),
    };
    if chunk + 1 == stage.total {
        exports.remove(&shard);
    }
    resp
}

fn install_chunk(
    inner: &Arc<NodeInner>,
    shard: u32,
    total: u32,
    chunk: u32,
    bytes: &[u8],
) -> WireResponse {
    let image = {
        let mut installs = lock(&inner.installs);
        if chunk == 0 {
            installs.insert(
                shard,
                InstallStage {
                    total,
                    received: 0,
                    bytes: Vec::new(),
                },
            );
        }
        let Some(stage) = installs.get_mut(&shard) else {
            return WireResponse::Err(ServeError::Protocol(format!(
                "no staged install for shard {shard} (start at chunk 0)"
            )));
        };
        if total != stage.total || chunk != stage.received {
            let err = format!(
                "install chunk {chunk}/{total} does not continue {}/{}",
                stage.received, stage.total
            );
            installs.remove(&shard);
            return WireResponse::Err(ServeError::Protocol(err));
        }
        stage.bytes.extend_from_slice(bytes);
        stage.received += 1;
        if stage.received < stage.total {
            return WireResponse::InstallOk { installed: false };
        }
        installs.remove(&shard).expect("just present").bytes
    };
    match install_shard(&inner.cluster, shard, &image) {
        Ok(dict) => {
            // Replace any previous incarnation of the shard; drain its
            // engine so worker threads exit.
            let host = ShardHost::new(dict, inner.cfg.engine);
            if let Some(old) = lock(&inner.shards).insert(shard, host) {
                drop(old.engine.shutdown());
            }
            WireResponse::InstallOk { installed: true }
        }
        Err(e) => WireResponse::Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_server::protocol::{read_frame, write_frame, WireRequest, WireResponse};
    use pdm_server::{Reply, TcpClient};
    use std::net::TcpStream;

    fn small_cluster() -> ClusterConfig {
        ClusterConfig {
            shards: 4,
            shard_capacity: 256,
            ..ClusterConfig::default()
        }
    }

    /// A fixed-capacity shard whose records are inline (σ = 1 at its
    /// block) is refused only when `capacity` keys are live: a deletion
    /// gives its slot back. 3 × capacity insert/delete pairs, never more
    /// than capacity/2 keys live, are all taken, and every lookup is exact.
    #[test]
    fn an_inline_shard_takes_churn_past_its_capacity() {
        let cluster = ClusterConfig { shard_capacity: 64, ..ClusterConfig::default() };
        assert!(DynamicDict::records_inline(&cluster.shard_params(0), cluster.block_words()));
        let mut shard = build_shard(&cluster, 0);
        let (cap, live) = (64u64, 32u64);
        for next in 0..3 * cap {
            if next >= live {
                assert_eq!(shard.delete(next - live).map(|(was, _)| was), Ok(true));
            }
            shard.insert(next, &[next]).unwrap_or_else(|e| panic!("insertion {}: {e}", next + 1));
        }
        assert_eq!(shard.len(), live as usize);
        for k in 0..3 * cap {
            let want = (k >= 3 * cap - live).then(|| vec![k]);
            assert_eq!(shard.lookup(k).satellite, want, "key {k}");
        }
    }

    /// The chained twin: at σ = 40 no block up to 512 words holds a bucket,
    /// so the records are chained, and a deleted key keeps its fields ("no
    /// piece of data is ever moved, once inserted"). The shard refuses
    /// insertion `capacity + 1` with half its keys deleted.
    #[test]
    fn a_chained_shard_refuses_at_capacity_insertions() {
        let cluster = ClusterConfig { shard_capacity: 64, sigma: 40, ..ClusterConfig::default() };
        assert!(!DynamicDict::records_inline(&cluster.shard_params(0), cluster.block_words()));
        let mut shard = build_shard(&cluster, 0);
        for next in 0..64 {
            if next >= 32 {
                assert_eq!(shard.delete(next - 32).map(|(was, _)| was), Ok(true));
            }
            shard.insert(next, &[next; 40]).unwrap_or_else(|e| panic!("insertion {}: {e}", next + 1));
        }
        assert_eq!(shard.len(), 32);
        assert_eq!(shard.insert(64, &[64; 40]), Err(pdm_dict::DictError::CapacityExhausted { capacity: 64 }));
    }

    #[test]
    fn shard_ops_roundtrip_with_epoch_and_shard_typing() {
        let cluster = small_cluster();
        let node =
            ClusterNode::start("127.0.0.1:0", cluster, &[0, 2], NodeConfig::default()).unwrap();
        let mut c = TcpClient::connect(node.local_addr()).unwrap();

        // Status reflects hosting.
        match c.request(&WireRequest::Status).unwrap() {
            WireResponse::NodeStatus { epoch, shards } => {
                assert_eq!(epoch, 0);
                assert_eq!(shards, vec![0, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }

        // A hosted shard serves.
        let req = WireRequest::ShardOp {
            shard: 2,
            epoch: 0,
            op: Op::Insert(7, vec![42]),
        };
        assert_eq!(
            c.request(&req).unwrap(),
            WireResponse::Reply(Reply::Inserted)
        );

        // An unhosted shard is a typed refusal.
        let req = WireRequest::ShardOp {
            shard: 1,
            epoch: 0,
            op: Op::Lookup(7),
        };
        assert_eq!(
            c.request(&req).unwrap(),
            WireResponse::Err(ServeError::WrongShard { shard: 1 })
        );

        // Raising the epoch makes old routing stale.
        assert_eq!(
            c.request(&WireRequest::EpochSet { epoch: 3 }).unwrap(),
            WireResponse::EpochOk
        );
        assert_eq!(node.epoch(), 3);
        let req = WireRequest::ShardOp {
            shard: 2,
            epoch: 1,
            op: Op::Lookup(7),
        };
        assert_eq!(
            c.request(&req).unwrap(),
            WireResponse::Err(ServeError::StaleEpoch { request: 1, node: 3 })
        );

        // Current-epoch requests still serve, and piggybacked newer
        // epochs are learned.
        let req = WireRequest::ShardOp {
            shard: 2,
            epoch: 5,
            op: Op::Lookup(7),
        };
        assert_eq!(
            c.request(&req).unwrap(),
            WireResponse::Reply(Reply::Lookup(Some(vec![42])))
        );
        assert_eq!(node.epoch(), 5);

        node.shutdown();
    }

    #[test]
    fn export_install_replicates_byte_identically() {
        let cluster = small_cluster();
        let source =
            ClusterNode::start("127.0.0.1:0", cluster, &[1], NodeConfig::default()).unwrap();
        let target =
            ClusterNode::start("127.0.0.1:0", cluster, &[], NodeConfig::default()).unwrap();
        let mut sc = TcpClient::connect(source.local_addr()).unwrap();
        let mut tc = TcpClient::connect(target.local_addr()).unwrap();

        for key in 0..50u64 {
            let req = WireRequest::ShardOp {
                shard: 1,
                epoch: 0,
                op: Op::Insert(key, vec![key ^ 0xA5]),
            };
            assert_eq!(
                sc.request(&req).unwrap(),
                WireResponse::Reply(Reply::Inserted)
            );
        }

        // Pull the frozen image chunk by chunk.
        let mut image = Vec::new();
        let mut chunk = 0u32;
        loop {
            let req = WireRequest::MigrateExport { shard: 1, chunk };
            let (total, bytes) = match sc.request(&req).unwrap() {
                WireResponse::ExportChunk { total, chunk: c, bytes } => {
                    assert_eq!(c, chunk);
                    (total, bytes)
                }
                other => panic!("unexpected {other:?}"),
            };
            image.extend_from_slice(&bytes);
            chunk += 1;
            if chunk == total {
                break;
            }
        }

        // Push it into the target.
        let total = chunks_of(image.len());
        for c in 0..total {
            let req = WireRequest::MigrateInstall {
                shard: 1,
                total,
                chunk: c,
                bytes: chunk_slice(&image, c).to_vec(),
            };
            let installed = match tc.request(&req).unwrap() {
                WireResponse::InstallOk { installed } => installed,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(installed, c + 1 == total);
        }
        assert_eq!(target.hosted(), vec![1]);

        // The replica answers exactly.
        for key in 0..50u64 {
            let req = WireRequest::ShardOp {
                shard: 1,
                epoch: 0,
                op: Op::Lookup(key),
            };
            assert_eq!(
                tc.request(&req).unwrap(),
                WireResponse::Reply(Reply::Lookup(Some(vec![key ^ 0xA5])))
            );
        }

        // Byte identity: both replicas export the same frozen image.
        let re_export = |c: &mut TcpClient| {
            let mut img = Vec::new();
            let mut chunk = 0u32;
            loop {
                let req = WireRequest::MigrateExport { shard: 1, chunk };
                match c.request(&req).unwrap() {
                    WireResponse::ExportChunk { total, bytes, .. } => {
                        img.extend_from_slice(&bytes);
                        chunk += 1;
                        if chunk == total {
                            return img;
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        };
        assert_eq!(
            re_export(&mut sc),
            re_export(&mut tc),
            "replica images diverge"
        );

        source.shutdown();
        target.shutdown();
    }

    /// What `install_shard` answers for `image` under `cluster`: the
    /// protocol error's text, or a panic if the image installed.
    fn refusal(cluster: &ClusterConfig, image: &[u8]) -> String {
        match install_shard(cluster, 0, image).map(|_| ()) {
            Err(ServeError::Protocol(msg)) => msg,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn an_image_of_another_geometry_is_refused() {
        // σ = 2, N = 256: 17 slots of 4 words derive 128-word blocks.
        let wide = ClusterConfig { sigma: 2, ..small_cluster() };
        let narrow = small_cluster();
        assert_eq!((wide.block_words(), narrow.block_words()), (128, 64));
        let image_of = |cfg: &ClusterConfig| serialize_image(build_shard(cfg, 0).disks().unwrap());

        let msg = refusal(&wide, &image_of(&narrow));
        assert!(msg.contains("40 disks of 64-word blocks") && msg.contains("40 disks of 128-word blocks"), "{msg}");
        let msg = refusal(&narrow, &image_of(&wide));
        assert!(msg.contains("40 disks of 128-word blocks") && msg.contains("40 disks of 64-word blocks"), "{msg}");
        let msg = refusal(&narrow, &serialize_image(&pdm::DiskArray::new(pdm::PdmConfig::new(3, 64), 1)));
        assert!(msg.contains("3 disks of 64-word blocks") && msg.contains("40 disks of 64-word blocks"), "{msg}");

        // Each config still installs its own image.
        for cfg in [&wide, &narrow] {
            assert!(install_shard(cfg, 0, &image_of(cfg)).is_ok());
        }
    }

    /// An image of the right geometry stamped with journal version 4 lays
    /// its inline membership out on half its disks: it is refused typed,
    /// by its version, and the node does not panic; nor at an image too
    /// short to hold a superblock.
    #[test]
    fn an_image_of_an_older_format_is_refused_typed() {
        let cluster = small_cluster();
        let empty = serialize_image(&pdm::DiskArray::new(pdm::PdmConfig::new(40, 64), 0));
        assert!(refusal(&cluster, &empty).contains("no journal superblock"));
        let mut disks = build_shard(&cluster, 0).disks().unwrap().clone();
        let superblock = disks.journal_region().unwrap().slot_addr(0, disks.disks());
        let mut block = disks.peek(superblock);
        block[1] = 4;
        disks.poke(superblock, &block);
        let msg = refusal(&cluster, &serialize_image(&disks));
        assert!(msg.contains("shard 0 image") && msg.contains("format version 4, this build reads version 5"), "{msg}");
    }

    #[test]
    fn malformed_frames_answer_typed_then_drop() {
        let cluster = small_cluster();
        let node = ClusterNode::start("127.0.0.1:0", cluster, &[0], NodeConfig::default()).unwrap();
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        write_frame(&mut stream, &[0xEE, 1, 2]).unwrap();
        let payload = read_frame(&mut stream).unwrap().expect("typed answer");
        assert!(matches!(
            pdm_server::protocol::decode_response(&payload).unwrap(),
            WireResponse::Err(ServeError::Protocol(_))
        ));
        assert!(read_frame(&mut stream).unwrap().is_none(), "then dropped");
        node.shutdown();
    }
}

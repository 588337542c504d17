//! `pdm-cluster`: a replicated cluster tier over the PDM serving
//! engine's wire protocol.
//!
//! The PDM paper's Section 3 balances *blocks over disks* with a
//! deterministic d-choice function; this crate lifts the same function
//! one level up and balances *shards over nodes*:
//!
//! - [`map`] — the epoch-versioned [`ClusterMap`]: every shard placed
//!   on `k` replica nodes by deterministic weighted d-choice over
//!   [`loadbalance::weighted`] rendezvous ranks. Node death and revival
//!   bump the epoch and move only the affected node's fair share of
//!   replicas — the cluster analogue of the paper's Lemma 3 bounded
//!   movement.
//! - [`router`] — the client-side [`ClusterRouter`]: writes go to every
//!   trusted replica and ack on quorum, reads hit the primary and fail
//!   over; permanent death drives journaled re-replication onto the
//!   epoch+1 map.
//! - [`trust`] — the per-node trust machine the router owns: one pure
//!   [`trust::step`] over what the request path, the heartbeater and the
//!   admin calls observe. A suspect is re-trusted by a re-image only.
//! - [`node`] — the server-side [`ClusterNode`]: one single-shard
//!   serving engine per hosted shard, shard-addressed and
//!   epoch-checked operations, and the migration opcodes that export /
//!   install frozen shard images.
//! - [`health`] — the typed [`RetryPolicy`] that absorbs transient
//!   transport faults before they count toward a node's trust.
//! - [`heartbeat`] — the proactive [`Heartbeater`]: periodic health
//!   probes reported to the router suspect a dark node *before* any
//!   client write fails.
//! - [`image`] — whole-medium shard-image serialization (journal ring
//!   included), so a migrated shard is recovered on the target by the
//!   ordinary crash-recovery path.
//!
//! ```no_run
//! use pdm_cluster::{ClusterConfig, ClusterNode, ClusterRouter, NodeConfig, RouterConfig};
//!
//! let cfg = ClusterConfig { shards: 8, replication: 2, ..ClusterConfig::default() };
//! let map = pdm_cluster::ClusterMap::build(cfg, &[1, 1, 1, 1]);
//! let nodes: Vec<ClusterNode> = (0..4)
//!     .map(|n| {
//!         ClusterNode::start("127.0.0.1:0", cfg, &map.shards_on(n), NodeConfig::default())
//!             .unwrap()
//!     })
//!     .collect();
//! let addrs: Vec<_> = nodes.iter().map(|n| n.local_addr()).collect();
//! let router = ClusterRouter::new(cfg, &addrs, &[1, 1, 1, 1], RouterConfig::default());
//! router.insert(42, &[7]).unwrap();
//! assert_eq!(router.lookup(42).unwrap(), Some(vec![7]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod heartbeat;
pub mod image;
pub mod map;
pub mod node;
pub mod router;
pub mod trust;

pub use health::RetryPolicy;
pub use heartbeat::{HeartbeatConfig, Heartbeater, HeartbeatStats};
pub use image::{deserialize_image, serialize_image, CHUNK_BYTES};
pub use map::{ClusterConfig, ClusterMap, MapDelta, NodeState, ShardMove};
pub use node::{ClusterNode, NodeConfig};
pub use router::{ClusterError, ClusterRouter, ReplicationReport, RouterConfig, RouterStats};

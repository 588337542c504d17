//! # `pdm-server` — the concurrent request-serving engine
//!
//! The paper's headline use case is "an environment with many concurrent
//! lookups and updates" (webmail/HTTP servers, Section 1): many clients,
//! each retrieving a block's worth of data from a huge set, in a highly
//! random fashion. Its argument for deterministic structures there is
//! twofold — worst-case (not expected) I/O bounds survive adversarial
//! load, and the no-central-directory / never-move-data discipline makes
//! concurrency control trivial.
//!
//! This crate is the serving layer that turns those properties into a
//! system:
//!
//! * **Shard-parallel batch accumulation** ([`ServeEngine`]): operations
//!   from any number of concurrent clients are routed to per-shard
//!   worker threads, and each worker **coalesces** its queued requests
//!   into `lookup_batch` / `insert_batch` calls — so concurrent traffic
//!   amortizes parallel I/O rounds exactly as the batch planner promises
//!   (one round of `D` disks serves many keys), instead of paying the
//!   full per-op cost under a lock as one-op-per-acquisition serving
//!   does.
//! * **Admission control** ([`queue::BoundedQueue`]): per-shard queues
//!   are bounded; a full queue rejects with [`ServeError::Overloaded`]
//!   at submission time (backpressure, never unbounded growth), and
//!   every admitted request carries a deadline — requests that outlive
//!   it are answered [`ServeError::TimedOut`], never silently dropped.
//! * **Graceful shutdown** ([`ServeEngine::shutdown`]): queues close
//!   (new submissions get [`ServeError::ShuttingDown`]), workers drain
//!   and execute everything already admitted, then run a journal
//!   checkpoint ([`pdm_dict::Dict::checkpoint`]) so the served image is
//!   always [`pdm_dict::Dict::recover`]-consistent.
//! * **Crash fidelity**: workers watch their shard's crash-point
//!   injection ([`pdm::FaultPlan::crash_after`]); once a crash fires, no
//!   further request is acknowledged (clients see
//!   [`ServeError::Disconnected`], exactly like a killed process's
//!   dropped connections) — so "every acked write is durable" is a
//!   testable property of the engine, not an aspiration.
//! * **A wire protocol** ([`protocol`], [`TcpServer`], [`TcpClient`]):
//!   a length-prefixed binary protocol over `std::net` TCP, so the
//!   engine serves out-of-process clients with zero dependencies.
//!
//! In-process clients use [`DictClient`] (cloneable, `Send + Sync`);
//! its sync calls block for the reply, and [`DictClient::submit`]
//! pipelines without waiting so a single client can keep a shard's
//! coalescing window full.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod netfault;
pub mod protocol;
pub mod queue;
pub mod scheduler;
pub mod server;

pub use client::{DictClient, Pending, TcpClient};
pub use netfault::{ChaosNet, Dir, FrameAction, LinkStats, NetFault, NetFaultPlan};
pub use scheduler::{
    EngineConfig, EngineStats, Op, Reply, ServeEngine, ServeMetrics, SERVE_LOOKUP_CENTI_IOS,
};
pub use server::TcpServer;

use pdm_dict::DictError;

/// Errors of the serving layer. Dictionary-level failures pass through
/// as [`ServeError::Dict`]; everything else is a property of serving
/// (admission, deadlines, lifecycle, the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The target shard's queue was full at submission: the engine is at
    /// capacity and applies backpressure instead of queueing unboundedly.
    /// Retry later (ideally with jitter) — nothing was enqueued.
    Overloaded {
        /// Shard whose queue was full.
        shard: usize,
        /// The configured queue bound it was sitting at.
        depth: usize,
    },
    /// The request was admitted but its deadline passed before a worker
    /// executed it; it was **not** applied.
    TimedOut,
    /// The engine is shutting down and admits no new requests. Requests
    /// admitted before shutdown still execute and reply.
    ShuttingDown,
    /// The serving process died (crash injection fired, or a worker
    /// vanished) before this request was acknowledged. Like a broken TCP
    /// connection, the request's effect is **in doubt**: recovery
    /// ([`pdm_dict::Dict::recover`]) decides, and only acknowledged
    /// writes are guaranteed durable.
    Disconnected,
    /// The dictionary executed the operation and reported an error
    /// (duplicate key, capacity, I/O fault, ...).
    Dict(DictError),
    /// A malformed frame, an unknown opcode, or an I/O failure on the
    /// wire; or a shard whose batch call left the request unanswered.
    Protocol(String),
    /// A shard-addressed request reached a node that does not host that
    /// shard (the client's cluster map is wrong or mid-update). Refresh
    /// the map and retry on the right node.
    WrongShard {
        /// The global shard the request addressed.
        shard: u32,
    },
    /// A shard-addressed request carried a cluster-map epoch older than
    /// the node's. The client must refresh its map before retrying —
    /// acting on a stale map could read a moved shard's leftovers.
    StaleEpoch {
        /// The epoch the request carried.
        request: u64,
        /// The epoch the node is at.
        node: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { shard, depth } => {
                write!(f, "shard {shard} overloaded (queue at bound {depth})")
            }
            ServeError::TimedOut => write!(f, "request deadline passed before execution"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Disconnected => {
                write!(f, "server connection lost before acknowledgment (effect in doubt)")
            }
            ServeError::Dict(e) => write!(f, "dictionary error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::WrongShard { shard } => {
                write!(f, "node does not host shard {shard}")
            }
            ServeError::StaleEpoch { request, node } => {
                write!(
                    f,
                    "request epoch {request} is stale (node is at epoch {node})"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Dict(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DictError> for ServeError {
    fn from(e: DictError) -> Self {
        ServeError::Dict(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = ServeError::Overloaded { shard: 3, depth: 64 };
        assert!(e.to_string().contains("shard 3"));
        assert!(ServeError::TimedOut.to_string().contains("deadline"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting"));
        assert!(ServeError::Disconnected.to_string().contains("in doubt"));
        let d: ServeError = DictError::DuplicateKey(9).into();
        assert!(d.to_string().contains('9'));
        assert!(std::error::Error::source(&d).is_some());
        let w = ServeError::WrongShard { shard: 11 };
        assert!(w.to_string().contains("shard 11"));
        let s = ServeError::StaleEpoch { request: 2, node: 5 };
        assert!(s.to_string().contains("epoch 2"));
        assert!(s.to_string().contains("epoch 5"));
    }
}

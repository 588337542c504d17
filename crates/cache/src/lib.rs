//! # `pdm-cache` — the hot-key cache tier
//!
//! Theorem 6 guarantees **1 parallel I/O per lookup** — including
//! unsuccessful ones. This crate is the tier that does *better than 1*
//! on the skewed streams real servers see (Section 1.2's webmail shape:
//! a few hot users, a long tail), by spending a bounded amount of RAM on
//! the hot tail in the spirit of the balanced-allocation
//! memory/performance tradeoff line:
//!
//! * **[`FrequencySketch`]** — a TinyLFU-style count-min sketch of 4-bit
//!   saturating counters with deterministic aging. Every probe (hit or
//!   miss) is recorded; the sketch is the *only* evidence admission
//!   listens to.
//! * **[`HotCache`]** — a byte-budgeted key → satellite cache with
//!   frequency-gated admission (room admits a first touch; displacing an
//!   entry takes an observed access count), deterministic LRU eviction (logical ticks, ordered
//!   `(tick, key)` — drills replay bit-identically), and **negative
//!   entries**: keys proven absent answer repeat misses for 0 I/Os.
//!
//! The cache holds no dictionary: it is wired in front of one by the
//! serving engine (`pdm_server::ServeEngine`, one [`HotCache`] per shard
//! probed at submission). The shard's worker invalidates every mutated key
//! before the mutation is acknowledged and fills from executed lookup
//! windows; a crashed shard's cache is cleared with it and its successor
//! starts cold, so recovery can never serve a stale hit.
//!
//! ## Negative-cache soundness
//!
//! A miss may only be cached when it is a **certified absence**: an
//! unsuccessful search whose every backing block read cleanly. The one-probe
//! dictionary's case-(b) layout makes this a positive certificate — the
//! single fetched block carries identifier-tagged fields, and "no field
//! carries this key's identifier" is proof of absence, not mere failure
//! to find. The engine's batch windows certify at the disk layer
//! ([`pdm::DiskArray::degraded_reads`] unchanged across the batch ⇒
//! every read was clean). Degraded misses certify nothing and are never
//! cached.
//!
//! The cluster router (`pdm-cluster`) reuses [`HotCache`] as an
//! epoch-validated client-side read cache; see DESIGN.md §9.

#![forbid(unsafe_code)]

pub mod hot;
pub mod sketch;

pub use hot::{
    CacheAnswer, CacheConfig, CacheCounters, HotCache, CACHE_EVENTS_TOTAL, ENTRY_OVERHEAD_BYTES,
};
pub use sketch::FrequencySketch;

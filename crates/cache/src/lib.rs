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
//! * **[`CachedDict`]** — the tier as a [`pdm_dict::Dict`] front-end
//!   wrapping any other front-end. Mutations invalidate before they are
//!   acknowledged; [`pdm_dict::Dict::recover`] drops the whole cache
//!   whenever journal replay touched the image, so recovery can never
//!   serve a stale hit.
//!
//! ## Negative-cache soundness
//!
//! A miss may only be cached when it is a **certified absence**
//! ([`pdm_dict::LookupOutcome::certifies_absence`]): an unsuccessful
//! search whose every backing block read cleanly. The one-probe
//! dictionary's case-(b) layout makes this a positive certificate — the
//! single fetched block carries identifier-tagged fields, and "no field
//! carries this key's identifier" is proof of absence, not mere failure
//! to find. Batch paths certify at the disk layer instead
//! ([`pdm::DiskArray::degraded_reads`] unchanged across the batch ⇒
//! every read was clean). Degraded misses certify nothing and are never
//! cached.
//!
//! The serving engine (`pdm-server`) wires [`HotCache`] per shard in
//! front of its batch windows, and the cluster router (`pdm-cluster`)
//! reuses it as an epoch-validated client-side read cache; see
//! DESIGN.md §9.

#![forbid(unsafe_code)]

pub mod hot;
pub mod sketch;
pub mod wrapper;

pub use hot::{
    CacheAnswer, CacheConfig, CacheCounters, HotCache, ENTRY_OVERHEAD_BYTES,
};
pub use sketch::FrequencySketch;
pub use wrapper::{CachedDict, CACHE_ENTRIES, CACHE_EVENTS_TOTAL, CACHE_USED_BYTES};

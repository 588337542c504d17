//! # `pdm-dict` — deterministic dictionaries in the parallel disk model
//!
//! The primary contribution of the SPAA'06 paper *"Deterministic load
//! balancing and dictionaries in the parallel disk model"*: dictionaries
//! with **worst-case** I/O guarantees matching the *expected* performance
//! of hashing, obtained by trading randomness for parallelism
//! (`D = Ω(log u)` disks).
//!
//! The structures, bottom to top:
//!
//! * [`basic::BasicDict`] — Section 4.1: `v` buckets indexed by a striped
//!   expander, greedy `k = 1` load balancing done *from the read blocks
//!   themselves* (no in-memory index). `O(1)`-I/O lookups and updates
//!   worst case; 1-I/O lookups when `B = Ω(log N)`.
//! * [`one_probe::OneProbeStatic`] — Section 4.2 / Theorem 6: the static
//!   one-probe dictionary. Every key owns `2d/3` *unique-neighbor* fields;
//!   case (b) tags fields with `⌈lg n⌉`-bit identifiers and decodes by
//!   majority, case (a) pairs a membership dictionary with unary-coded
//!   pointer chains for full bandwidth. Built by the paper's sort-based
//!   construction in `O(sort(n·d))` parallel I/Os.
//! * [`dynamic::DynamicDict`] — Section 4.3 / Theorem 7: `l` geometrically
//!   shrinking field arrays with first-fit insertion; lookups average
//!   `1 + ɛ` I/Os, updates `2 + ɛ`, worst case `O(log n)`, unsuccessful
//!   lookups exactly 1 I/O.
//! * [`rebuild::Dictionary`] — the user-facing fully dynamic dictionary:
//!   global rebuilding (Overmars–van Leeuwen) over two disk regions makes
//!   the capacity unbounded and supports deletions, at a constant-factor
//!   space/disk overhead, exactly as the Section 4 preamble describes.
//! * [`fs::PdmFileSystem`] — the Section 1.2 motivation: a file-system
//!   facade where keys are (inode, block number) pairs and a random block
//!   of any file is one parallel I/O away.
//!
//! Beyond the headline structures:
//!
//! * [`wide::WideDict`] — §4.1's `k = d/2` variant: `O(BD/log N)`-word
//!   bandwidth at one-probe lookups.
//! * [`multi::ParallelInstances`] — the §4 preamble's parallel instances:
//!   `C` insertions for 2 parallel I/Os, `C` lookups for 1.
//! * [`one_probe::HeadModelOneProbe`] — §5's closing remark: the
//!   dictionary over an *unstriped* expander in the parallel disk head
//!   model, saving the trivial striping's factor-`d` space.
//! * Static structures support lock-free shared reads
//!   ([`one_probe::OneProbeStatic::lookup_shared`]); the concurrent front
//!   over owned shards is `pdm_server::ServeEngine`.
//! * [`micro::MicroDict`] — the small-`B` regime's atomic-heap stand-in.
//!
//! All structures share the properties the paper advertises for
//! concurrent environments: no central directory (lookups go directly to
//! blocks computed from the key and the structure's size), and — absent
//! deletions — no piece of data is ever moved once inserted.
//!
//! ## Determinism
//!
//! Every structure is deterministic once its expander seed is fixed; the
//! seed plays the role of the paper's assumed-for-free explicit expander
//! (see the `expander` crate docs for the substitution argument).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basic;
pub mod bucket;
pub mod config;
pub mod dynamic;
pub mod fields;
pub mod fs;
pub mod handle;
pub mod layout;
pub mod micro;
pub mod multi;
pub mod one_probe;
pub mod rebuild;
pub mod traits;
pub mod wide;

pub use basic::BasicDict;
pub use config::DictParams;
pub use dynamic::DynamicDict;
pub use fs::PdmFileSystem;
pub use handle::{BasicHandle, DictHandle, DynamicHandle, OneProbeHandle, RawDict, WideHandle};
pub use multi::ParallelInstances;
pub use one_probe::OneProbeStatic;
pub use rebuild::Dictionary;
pub use traits::{Dict, DictError, ErrorKind, LookupOutcome, Provenance};
pub use wide::WideDict;

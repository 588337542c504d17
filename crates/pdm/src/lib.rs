//! # `pdm` — a parallel disk model simulator
//!
//! This crate implements the *parallel disk model* (PDM) of Vitter and
//! Shriver ("Algorithms for parallel memory I: Two-level memories",
//! Algorithmica 1994), the cost model used throughout the SPAA'06 paper
//! *"Deterministic load balancing and dictionaries in the parallel disk
//! model"*.
//!
//! In the PDM there are `D` storage devices, each an array of blocks with
//! capacity for `B` data items (a data item is one machine word — large
//! enough to hold a key or a pointer). **One parallel I/O** retrieves (or
//! writes) one block from (or to) *each* of the `D` devices. The performance
//! of an algorithm is the number of parallel I/Os it performs.
//!
//! The simulator in this crate:
//!
//! * stores blocks of `B` words on `D` simulated disks ([`DiskArray`]),
//! * charges **exactly** the PDM cost for every batched access: a batch
//!   touching `c_i` blocks on disk `i` costs `max_i c_i` parallel I/Os
//!   (in the stronger *parallel disk head* model of Aggarwal–Vitter it
//!   costs `ceil(total / D)` instead — see [`Model`]),
//! * tracks per-operation costs through [`stats::OpScope`] so data
//!   structures can report worst-case and average I/Os per operation,
//! * offers a striped view ([`stripe::StripedView`]) treating the `D` disks
//!   as a single disk with logical block size `B·D`,
//! * provides an I/O-accounted external multiway mergesort ([`sort`]),
//!   the yardstick for the paper's Theorem 6 construction cost,
//! * accounts internal memory usage in words ([`memory::MemTracker`]) for
//!   the Section 5 semi-explicit expander budgets, and
//! * includes a bit-level encoder/decoder ([`bits`]) used by the one-probe
//!   dictionary field formats (identifiers, unary-coded pointer deltas).
//!
//! The simulator is deterministic and single-threaded by design: the paper's
//! claims are statements about I/O counts, and the simulator measures those
//! counts exactly and reproducibly.
//!
//! ## Quick example
//!
//! ```
//! use pdm::{BlockAddr, BlockView, DiskArray, PdmConfig, ReadOptions, WriteOptions};
//!
//! let cfg = PdmConfig::new(4, 16); // D = 4 disks, B = 16 words per block
//! let mut disks = DiskArray::new(cfg, 8); // 8 blocks per disk
//!
//! // Writing one block on each of two different disks is ONE parallel I/O.
//! let a = BlockAddr::new(0, 3);
//! let b = BlockAddr::new(1, 5);
//! disks.write(&[(a, &vec![7; 16]), (b, &vec![9; 16])], WriteOptions::default());
//! assert_eq!(disks.stats().parallel_ios, 1);
//!
//! // Reading two blocks from the SAME disk costs two parallel I/Os.
//! let out = disks.read(&[BlockAddr::new(2, 0), BlockAddr::new(2, 1)], ReadOptions::default());
//! assert_eq!(out.blocks.len(), 2);
//! assert_eq!(disks.stats().parallel_ios, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod bits;
pub mod blocks;
pub mod config;
pub mod disk;
pub mod fault;
pub mod file;
pub mod file_backend;
pub mod integrity;
pub mod journal;
pub mod memory;
pub mod metrics;
pub mod record;
pub mod sort;
pub mod stats;
pub mod stripe;

pub use backend::{BackendError, CompletionSet, FlushTicket, IoSubmission, MemBackend, StorageBackend};
pub use batch::{BatchExecutor, BatchPlan, BatchReads, CommitReport};
pub use blocks::{BlockBuf, BlockView, Round, SubView};
pub use config::{Model, PdmConfig};
pub use disk::{BlockAddr, DiskArray, IoOutcome, ReadOptions, WriteOptions};
pub use file_backend::{FileBackend, FileBackendOptions};
pub use fault::{Fault, FaultPlan};
pub use file::RecordFile;
pub use integrity::{BlockCodec, BlockHealth, IoFaultKind, MixCodec, ScrubReport};
pub use journal::{Delta, JournalRegion, RecoveryReport, ReplayedIntent, GROUP_COMMIT_EVERY};
pub use memory::MemTracker;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, IoEvent, IoEventSink, IoMetricsSink,
    MetricsRegistry, MetricsSnapshot, NoopSink,
};
pub use record::{KeyedRecord, RecordLayout};
pub use sort::{external_sort, external_sort_by, sort_io_bound, SortOutcome};
pub use stats::{CostProfile, IoStats, OpCost, OpScope};
pub use stripe::StripedView;

/// The machine word of the model; every "data item" is one word.
pub type Word = u64;

/// Number of bits in a [`Word`].
pub const WORD_BITS: usize = 64;

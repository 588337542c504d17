//! Block integrity: per-block checksums behind a [`BlockCodec`] seam,
//! health classification for reads and writes, and scrub reporting.
//!
//! The paper's structures never move data once written and tolerate
//! *absent* data gracefully (an all-zero block decodes as "unoccupied"
//! everywhere in this workspace). What they cannot tolerate on their own
//! is *wrong* data: a bit-rotted field or a torn write decodes as a
//! plausible-looking entry. This module closes that hole: when integrity
//! is enabled on a [`crate::DiskArray`], every block carries a sidecar
//! checksum sealed on the write path and verified on the read path.
//! A failed block is **sanitized** — returned as all zeros — so the
//! damage degrades into the absence the decoders already handle, and the
//! failure is reported out-of-band as a [`BlockHealth`].
//!
//! The checksum layout is deliberately hidden behind [`BlockCodec`]: the
//! default [`MixCodec`] keeps sums in a sidecar array (modelling a
//! reserved stripe; sidecar blocks are charged to scrub walks, not to
//! individual reads, because a production layout would reserve one word
//! *inside* each block). Alternative codecs can be installed with
//! [`crate::DiskArray::set_block_codec`].

use crate::disk::BlockAddr;
use crate::stats::OpCost;
use crate::Word;

/// What kind of I/O fault damaged a block — the typed payload carried by
/// dictionary-level `Io` errors and by [`BlockHealth`].
///
/// Marked `#[non_exhaustive]`: future fault models may add variants
/// without a semver break; match with a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFaultKind {
    /// The whole disk is failed: reads return nothing, writes are dropped.
    DiskDead,
    /// A transient read error window is active on the disk; the data is
    /// intact and a retried read may succeed once the window passes.
    TransientError,
    /// The block's content does not match its sealed checksum (bit rot,
    /// or a torn write detected after the fact).
    ChecksumMismatch,
    /// A write was torn: only a prefix of the payload reached the disk.
    /// Reported on the **write** path; later reads of the block surface
    /// [`IoFaultKind::ChecksumMismatch`] instead.
    TornWrite,
    /// The storage backend rejected its configuration (e.g. a block-size
    /// change on reopen, or a missing disk file). Carried by
    /// [`crate::backend::BackendError`]; never reported per-block.
    Misconfigured,
}

impl IoFaultKind {
    /// Stable lowercase label (for metrics and JSON reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::DiskDead => "disk_dead",
            IoFaultKind::TransientError => "transient",
            IoFaultKind::ChecksumMismatch => "checksum_mismatch",
            IoFaultKind::TornWrite => "torn_write",
            IoFaultKind::Misconfigured => "misconfigured",
        }
    }
}

impl std::fmt::Display for IoFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Health of one block as observed by a verified read or checked write.
///
/// Precedence when several conditions hold at once: a dead disk masks a
/// transient window, which masks a checksum mismatch — the classification
/// reports the outermost failure.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockHealth {
    /// The block read (or wrote) cleanly.
    #[default]
    Ok,
    /// The block lives on a dead disk (read sanitized / write dropped).
    DiskDead,
    /// The disk is inside a transient-error window (read sanitized; the
    /// underlying data is intact, so a later retry may succeed).
    TransientError,
    /// The content failed checksum verification (read sanitized).
    ChecksumMismatch,
    /// The write was torn mid-block (only reported by checked writes).
    TornWrite,
}

impl BlockHealth {
    /// Whether the access succeeded.
    #[must_use]
    pub fn is_ok(self) -> bool {
        matches!(self, BlockHealth::Ok)
    }

    /// The fault kind, if the access failed.
    #[must_use]
    pub fn fault_kind(self) -> Option<IoFaultKind> {
        match self {
            BlockHealth::Ok => None,
            BlockHealth::DiskDead => Some(IoFaultKind::DiskDead),
            BlockHealth::TransientError => Some(IoFaultKind::TransientError),
            BlockHealth::ChecksumMismatch => Some(IoFaultKind::ChecksumMismatch),
            BlockHealth::TornWrite => Some(IoFaultKind::TornWrite),
        }
    }
}

/// The checksum seam: maps a block address plus content to one sealed
/// checksum word. Implementations must be pure functions of their inputs
/// (the same `(addr, data)` always yields the same sum) so that clones of
/// a [`crate::DiskArray`] verify identically.
pub trait BlockCodec: Send + Sync {
    /// Checksum `data` as the content of block `addr`.
    ///
    /// Binding the address in prevents a misdirected write (right data,
    /// wrong block) from verifying.
    fn checksum(&self, addr: BlockAddr, data: &[Word]) -> Word;
}

/// Default codec: a cheap multiply-xor mix over the address and content.
///
/// Not cryptographic — it models the CRC a real block device would carry,
/// costing a handful of cycles per word so checksummed reads stay well
/// inside the ≤ 10% overhead budget.
#[derive(Debug, Default, Clone, Copy)]
pub struct MixCodec;

impl BlockCodec for MixCodec {
    fn checksum(&self, addr: BlockAddr, data: &[Word]) -> Word {
        let mut h = 0x9E37_79B9_7F4A_7C15u64
            ^ (addr.disk as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (addr.block as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25);
        for &w in data {
            h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
        }
        h
    }
}

/// Outcome of a scrub pass (a full verify walk, optionally with repair).
///
/// Produced by [`crate::DiskArray::scrub_verify`] and by the dictionary
/// front-ends' `scrub` methods; mergeable so sharded structures can
/// aggregate per-shard passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks whose health was checked.
    pub blocks_scanned: u64,
    /// Blocks that failed checksum verification during the walk.
    pub checksum_failures: u64,
    /// Blocks rewritten with repaired content.
    pub repaired_blocks: u64,
    /// Individual fields re-encoded from surviving redundancy.
    pub repaired_fields: u64,
    /// Keys whose damage exceeded the surviving redundancy (left as-is).
    pub unrepairable_keys: u64,
    /// I/O charged by the pass.
    pub cost: OpCost,
}

impl ScrubReport {
    /// Accumulate another pass into this report.
    pub fn merge(&mut self, other: &ScrubReport) {
        self.blocks_scanned += other.blocks_scanned;
        self.checksum_failures += other.checksum_failures;
        self.repaired_blocks += other.repaired_blocks;
        self.repaired_fields += other.repaired_fields;
        self.unrepairable_keys += other.unrepairable_keys;
        self.cost = self.cost.plus(other.cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_codec_is_deterministic_and_address_bound() {
        let c = MixCodec;
        let a = BlockAddr::new(1, 2);
        let data = [1u64, 2, 3];
        assert_eq!(c.checksum(a, &data), c.checksum(a, &data));
        assert_ne!(
            c.checksum(a, &data),
            c.checksum(BlockAddr::new(2, 1), &data),
            "same data on a different block must not verify"
        );
        assert_ne!(c.checksum(a, &data), c.checksum(a, &[1, 2, 4]));
    }

    #[test]
    fn health_classifies_fault_kinds() {
        assert!(BlockHealth::Ok.is_ok());
        assert_eq!(BlockHealth::Ok.fault_kind(), None);
        assert_eq!(
            BlockHealth::DiskDead.fault_kind(),
            Some(IoFaultKind::DiskDead)
        );
        assert_eq!(
            BlockHealth::ChecksumMismatch.fault_kind(),
            Some(IoFaultKind::ChecksumMismatch)
        );
        assert_eq!(IoFaultKind::TornWrite.label(), "torn_write");
    }

    #[test]
    fn scrub_reports_merge_fieldwise() {
        let mut a = ScrubReport {
            blocks_scanned: 10,
            checksum_failures: 2,
            repaired_blocks: 1,
            repaired_fields: 3,
            unrepairable_keys: 0,
            cost: OpCost {
                parallel_ios: 4,
                block_reads: 10,
                block_writes: 1,
            },
        };
        let b = ScrubReport {
            blocks_scanned: 5,
            checksum_failures: 1,
            repaired_blocks: 0,
            repaired_fields: 0,
            unrepairable_keys: 2,
            cost: OpCost {
                parallel_ios: 2,
                block_reads: 5,
                block_writes: 0,
            },
        };
        a.merge(&b);
        assert_eq!(a.blocks_scanned, 15);
        assert_eq!(a.checksum_failures, 3);
        assert_eq!(a.unrepairable_keys, 2);
        assert_eq!(a.cost.parallel_ios, 6);
        assert_eq!(a.cost.block_reads, 15);
    }
}

//! Disk-region layout: assigning structures to disk ranges and block
//! ranges.
//!
//! The composed dictionaries place their sub-structures on *disjoint disk
//! ranges* so one parallel I/O can probe all of them simultaneously (the
//! paper: the case (a) dictionary devotes "half of the 2d available disks
//! ... to each dictionary", and the Section 4 preamble runs two whole
//! structures side by side for global rebuilding). [`DiskAllocator`] is a
//! per-disk bump allocator handing out [`Region`]s.
//!
//! Individual regions are never freed — a structure never moves data once
//! it is written — but a whole *slot* is: when the global-rebuilding
//! wrapper abandons a structure it discards the slot's blocks on the array
//! and calls [`DiskAllocator::release_tail`], so the next structure built
//! on those disks reuses the same block range. Storage is therefore
//! bounded by what is allocated at any one time (for [`crate::Dictionary`]:
//! the journal ring plus two slots), not by the history of allocations.

use pdm::{BlockAddr, DiskArray};

/// A rectangular region: a contiguous range of disks, and on each of those
/// disks a contiguous range of blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First disk of the range.
    pub first_disk: usize,
    /// Number of disks.
    pub disks: usize,
    /// First block on each disk.
    pub first_block: usize,
    /// Blocks per disk.
    pub blocks_per_disk: usize,
}

impl Region {
    /// Address of block `b` on the `i`-th disk of the region.
    ///
    /// # Panics
    /// Panics if `i` or `b` is outside the region.
    #[must_use]
    pub fn addr(&self, i: usize, b: usize) -> BlockAddr {
        assert!(
            i < self.disks,
            "disk {i} outside region of {} disks",
            self.disks
        );
        assert!(
            b < self.blocks_per_disk,
            "block {b} outside region of {} blocks/disk",
            self.blocks_per_disk
        );
        BlockAddr::new(self.first_disk + i, self.first_block + b)
    }

    /// Total blocks in the region.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.disks * self.blocks_per_disk
    }
}

/// Per-disk bump allocator over a [`DiskArray`].
///
/// Bump pointers only fall through [`release_tail`](Self::release_tail),
/// which gives up everything above a block index on a range of disks at
/// once; the caller discards those blocks on the array
/// ([`DiskArray::discard_tail`]) before allocating there again, because a
/// fresh region is expected to read as zeros.
#[derive(Debug, Clone)]
pub struct DiskAllocator {
    next_free: Vec<usize>,
}

impl DiskAllocator {
    /// Allocator starting at block 0 of every disk.
    #[must_use]
    pub fn new(disks: usize) -> Self {
        DiskAllocator {
            next_free: vec![0; disks],
        }
    }

    /// Allocate `blocks_per_disk` blocks on each of the disks
    /// `first_disk .. first_disk + disks`, growing the array as needed.
    ///
    /// The region starts at the max of the involved disks' bump pointers
    /// so its blocks are aligned across disks (required for one-I/O probes
    /// that touch the same block row on every disk).
    ///
    /// # Panics
    /// Panics if the disk range exceeds the array.
    pub fn alloc(
        &mut self,
        array: &mut DiskArray,
        first_disk: usize,
        disks: usize,
        blocks_per_disk: usize,
    ) -> Region {
        assert!(disks >= 1, "a region needs at least one disk");
        assert!(
            first_disk + disks <= array.disks(),
            "disk range {}..{} exceeds array of {} disks",
            first_disk,
            first_disk + disks,
            array.disks()
        );
        let start = self.next_free[first_disk..first_disk + disks]
            .iter()
            .copied()
            .max()
            .expect("non-empty disk range");
        for d in first_disk..first_disk + disks {
            self.next_free[d] = start + blocks_per_disk;
        }
        array.grow(start + blocks_per_disk);
        Region {
            first_disk,
            disks,
            first_block: start,
            blocks_per_disk,
        }
    }

    /// Give up every block at index `first_block` or above on the disks
    /// `first_disk .. first_disk + disks`: their bump pointers fall back to
    /// `first_block` (pointers already below it stay).
    ///
    /// # Panics
    /// Panics if the disk range exceeds the allocator.
    pub fn release_tail(&mut self, first_disk: usize, disks: usize, first_block: usize) {
        for next in &mut self.next_free[first_disk..first_disk + disks] {
            *next = (*next).min(first_block);
        }
    }

    /// Current bump pointer of a disk (for space accounting).
    #[must_use]
    pub fn used_blocks(&self, disk: usize) -> usize {
        self.next_free[disk]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::PdmConfig;

    #[test]
    fn regions_do_not_overlap() {
        let mut arr = DiskArray::new(PdmConfig::new(8, 4), 0);
        let mut alloc = DiskAllocator::new(8);
        let a = alloc.alloc(&mut arr, 0, 4, 3);
        let b = alloc.alloc(&mut arr, 0, 4, 2);
        assert_eq!(a.first_block, 0);
        assert_eq!(b.first_block, 3);
        let c = alloc.alloc(&mut arr, 4, 4, 5);
        assert_eq!(c.first_block, 0, "disjoint disks can reuse block 0");
    }

    #[test]
    fn overlapping_disk_ranges_align() {
        let mut arr = DiskArray::new(PdmConfig::new(8, 4), 0);
        let mut alloc = DiskAllocator::new(8);
        let _ = alloc.alloc(&mut arr, 0, 2, 5); // disks 0-1 now at 5
        let r = alloc.alloc(&mut arr, 1, 3, 2); // overlaps disk 1
        assert_eq!(r.first_block, 5, "must start past the busiest disk");
        assert_eq!(alloc.used_blocks(3), 7);
    }

    #[test]
    fn alloc_grows_the_array() {
        let mut arr = DiskArray::new(PdmConfig::new(2, 4), 0);
        let mut alloc = DiskAllocator::new(2);
        let r = alloc.alloc(&mut arr, 0, 2, 10);
        assert!(arr.blocks_on(0) >= 10);
        let addr = r.addr(1, 9);
        assert_eq!(addr, BlockAddr::new(1, 9));
    }

    #[test]
    fn released_tail_is_handed_out_again() {
        let mut arr = DiskArray::new(PdmConfig::new(8, 4), 0);
        let mut alloc = DiskAllocator::new(8);
        let ring = alloc.alloc(&mut arr, 0, 8, 2);
        let a = alloc.alloc(&mut arr, 0, 4, 6);
        let b = alloc.alloc(&mut arr, 4, 4, 3);
        let grown = arr.blocks_on(0);
        alloc.release_tail(0, 4, ring.blocks_per_disk);
        assert_eq!(alloc.used_blocks(0), 2);
        assert_eq!(alloc.used_blocks(4), 5, "the other disks keep their regions");
        let again = alloc.alloc(&mut arr, 0, 4, 6);
        assert_eq!(again, a, "the same block range is reused");
        assert_eq!(arr.blocks_on(0), grown, "reuse lengthens nothing");
        assert_eq!(b.first_block, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds array")]
    fn out_of_range_disks_rejected() {
        let mut arr = DiskArray::new(PdmConfig::new(2, 4), 0);
        let mut alloc = DiskAllocator::new(2);
        let _ = alloc.alloc(&mut arr, 1, 2, 1);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn addr_bounds_checked() {
        let mut arr = DiskArray::new(PdmConfig::new(2, 4), 0);
        let mut alloc = DiskAllocator::new(2);
        let r = alloc.alloc(&mut arr, 0, 2, 1);
        let _ = r.addr(0, 1);
    }

    #[test]
    fn total_blocks() {
        let r = Region {
            first_disk: 0,
            disks: 3,
            first_block: 2,
            blocks_per_disk: 4,
        };
        assert_eq!(r.total_blocks(), 12);
    }
}

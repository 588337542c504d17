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
//! wrapper abandons a structure it gives the slot's blocks back on the
//! array and calls [`DiskAllocator::release_tail`], so the next structure
//! built on those disks regrows the same block range. Storage is therefore
//! what is allocated at the time (for [`crate::Dictionary`]: the journal
//! ring plus one slot, two while a rebuild is in flight), not the history
//! of allocations.
//! A region lengthens only its own disks, so an array holds exactly the
//! blocks its regions were given: [`space_ledger`] names every one.

use pdm::metrics::MetricsRegistry;
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

    /// Space of the region in words.
    #[must_use]
    pub fn space_words(&self, disks: &DiskArray) -> usize {
        self.total_blocks() * disks.block_words()
    }
}

/// A space-ledger row: a region (`journal`, `membership`, `level_<i>`, `unowned`) and its blocks.
pub type SpaceRow = (String, usize);

/// The space ledger of `disks`: the journal ring, then `structures` (the
/// regions handed to whatever lives on the array, rows of one label
/// summed), and as `unowned` every block of the array in none of them.
pub fn space_ledger(disks: &DiskArray, structures: impl IntoIterator<Item = SpaceRow>) -> Vec<SpaceRow> {
    let ring = disks.journal_region().map_or(0, |r| r.rows * disks.disks());
    let mut ledger = vec![("journal".to_string(), ring)];
    for (label, blocks) in structures {
        match ledger.iter_mut().find(|(l, _)| *l == label) {
            Some(row) => row.1 += blocks,
            None => ledger.push((label, blocks)),
        }
    }
    let owned: usize = ledger.iter().map(|(_, blocks)| blocks).sum();
    let stored = disks.total_words() / disks.block_words();
    ledger.push(("unowned".to_string(), stored.saturating_sub(owned)));
    ledger
}

/// Export the [`space_ledger`] of `disks` as `dict_space_blocks{region}`
/// and its sum as `dict_storage_blocks` — the extent — and, where the
/// backend counts them, the blocks of it that hold memory as
/// `dict_materialised_blocks`.
pub(crate) fn export_space(registry: &MetricsRegistry, kind: &str, disks: &DiskArray, structures: impl IntoIterator<Item = SpaceRow>) {
    let mut stored = 0;
    for (region, blocks) in space_ledger(disks, structures) {
        let labels = [("dict", kind), ("region", region.as_str())];
        registry.gauge("dict_space_blocks", &labels).set(blocks as i64);
        stored += blocks;
    }
    registry.gauge("dict_storage_blocks", &[("dict", kind)]).set(stored as i64);
    if let Some(held) = disks.materialised_blocks() {
        registry.gauge("dict_materialised_blocks", &[("dict", kind)]).set(held as i64);
    }
}

/// Per-disk bump allocator over a [`DiskArray`].
///
/// Bump pointers only fall through [`release_tail`](Self::release_tail),
/// which gives up everything above a block index on a range of disks at
/// once; the caller gives those blocks back on the array
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
    /// `first_disk .. first_disk + disks`, growing those disks as needed.
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
        array.grow_disks(first_disk, disks, start + blocks_per_disk);
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
    fn a_dynamic_dicts_disks_end_where_their_regions_do() {
        use crate::{DictParams, DynamicDict};
        let (d, ring) = (20, 4);
        // Two-word records sit in their 19-slot buckets (76 ≤ 128 words);
        // six-word ones (152 > 128) take chains.
        for (sigma, inline) in [(2, true), (6, false)] {
            let params = DictParams::new(1024, 1 << 40, sigma)
                .with_degree(d)
                .with_epsilon(0.5)
                .with_seed(3)
                .with_journal(ring);
            let mut arr = DiskArray::new(PdmConfig::new(2 * d, 128), 0);
            let mut alloc = DiskAllocator::new(2 * d);
            let dict = DynamicDict::create(&mut arr, &mut alloc, 0, params).unwrap();
            assert_eq!(dict.is_inline(), inline);
            let rows = dict.space_rows();
            assert_eq!(rows[0], ("membership".to_string(), dict.membership_buckets()));
            let level_rows: usize = rows[1..].iter().map(|(_, blocks)| blocks / d).sum();
            let n = dict.membership_buckets() / d;
            for disk in 0..2 * d {
                // One bucket per block. Inline, stripe i's even buckets on
                // disk i and its odd ones on disk i + d; chained, the whole
                // stripe on disk i and the levels' field arrays stacked on
                // the others.
                let want = match (inline, disk < d) {
                    (true, true) => n.div_ceil(2),
                    (true, false) => n / 2,
                    (false, true) => n,
                    (false, false) => level_rows,
                };
                assert_eq!(arr.blocks_on(disk), ring + want, "σ = {sigma}: disk {disk}");
                assert_eq!(alloc.used_blocks(disk), arr.blocks_on(disk), "σ = {sigma}: disk {disk}");
            }
            assert_eq!(level_rows > dict.membership_buckets() / d, !inline, "σ = {sigma}: the chained shape is ragged");
            let ledger = space_ledger(&arr, rows);
            assert_eq!(ledger[0], ("journal".to_string(), ring * 2 * d));
            assert_eq!(ledger.last(), Some(&("unowned".to_string(), 0)));
            assert_eq!(ledger.len(), 3 + dict.num_levels());
            let stored: usize = (0..2 * d).map(|disk| arr.blocks_on(disk)).sum();
            assert_eq!(ledger.iter().map(|(_, blocks)| blocks).sum::<usize>(), stored);
            assert_eq!(dict.space_words(&arr), (stored - ring * 2 * d) * 128);
        }
    }

    #[test]
    fn blocks_no_region_holds_are_unowned_and_labels_are_summed() {
        let mut arr = DiskArray::new(PdmConfig::new(4, 4), 0);
        let mut alloc = DiskAllocator::new(4);
        let a = alloc.alloc(&mut arr, 0, 2, 3);
        let b = alloc.alloc(&mut arr, 2, 2, 5);
        arr.grow(6); // what a backend that can only lengthen every disk does
        let rows = [a, b].map(|r| ("level_1".to_string(), r.total_blocks()));
        assert_eq!(
            space_ledger(&arr, rows),
            [("journal", 0), ("level_1", 16), ("unowned", 8)].map(|(l, n)| (l.to_string(), n))
        );
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

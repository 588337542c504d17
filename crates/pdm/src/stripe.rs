//! Striping: treating the `D` disks as a single disk with logical block
//! size `B·D`.
//!
//! Stripe `s` consists of block `s` on every disk; within a stripe the word
//! layout is disk-major (words `d·B .. (d+1)·B` live on disk `d`). Reading
//! or writing one full stripe is exactly one parallel I/O — the classic
//! "striping" speedup the paper's introduction discusses.

use crate::disk::{BlockAddr, DiskArray, ReadOptions, WriteOptions};
use crate::Word;

/// A mutable striped view over a [`DiskArray`].
#[derive(Debug)]
pub struct StripedView<'a> {
    disks: &'a mut DiskArray,
}

impl<'a> StripedView<'a> {
    /// Wrap a disk array.
    #[must_use]
    pub fn new(disks: &'a mut DiskArray) -> Self {
        StripedView { disks }
    }

    /// Words per stripe (`B·D`).
    #[must_use]
    pub fn stripe_words(&self) -> usize {
        self.disks.config().stripe_words()
    }

    /// Number of complete stripes available (limited by the shortest disk).
    #[must_use]
    pub fn num_stripes(&self) -> usize {
        (0..self.disks.disks())
            .map(|d| self.disks.blocks_on(d))
            .min()
            .unwrap_or(0)
    }

    /// Ensure at least `stripes` stripes exist (grows disks, no I/O).
    pub fn ensure_stripes(&mut self, stripes: usize) {
        self.disks.grow(stripes);
    }

    /// Read stripe `s` (one parallel I/O). Returns `B·D` words, disk-major.
    pub fn read_stripe(&mut self, s: usize) -> Vec<Word> {
        let d = self.disks.disks();
        let addrs: Vec<BlockAddr> = (0..d).map(|disk| BlockAddr::new(disk, s)).collect();
        // Disk-major request order: the round's flat buffer is the stripe.
        self.disks.read(&addrs, ReadOptions::default()).blocks.into_buf().into_words()
    }

    /// Write stripe `s` (one parallel I/O). `data` must be exactly `B·D`
    /// words, disk-major.
    ///
    /// # Panics
    /// Panics if `data.len() != B·D`.
    pub fn write_stripe(&mut self, s: usize, data: &[Word]) {
        let b = self.disks.block_words();
        let d = self.disks.disks();
        assert_eq!(
            data.len(),
            b * d,
            "stripe payload must be exactly B·D = {} words",
            b * d
        );
        let writes: Vec<(BlockAddr, &[Word])> = (0..d)
            .map(|disk| (BlockAddr::new(disk, s), &data[disk * b..(disk + 1) * b]))
            .collect();
        self.disks.write(&writes, WriteOptions::default());
    }

    /// Read `len` words starting at global (striped) word offset `start`.
    ///
    /// Only the blocks actually overlapping the range are touched; the whole
    /// request is issued as one batch, so `k` consecutive full stripes cost
    /// `k` parallel I/Os, and a sub-stripe range costs a single parallel I/O.
    pub fn read_words(&mut self, start: usize, len: usize) -> Vec<Word> {
        if len == 0 {
            return Vec::new();
        }
        let b = self.disks.block_words();
        let sw = self.stripe_words();
        let end = start + len;
        // Collect the covering blocks in word order.
        let mut addrs = Vec::new();
        let first_block = start / b; // global block index = stripe * D + disk
        let last_block = (end - 1) / b;
        for gb in first_block..=last_block {
            let stripe = gb / self.disks.disks();
            let disk = gb % self.disks.disks();
            addrs.push(BlockAddr::new(disk, stripe));
        }
        let blocks = self.disks.read(&addrs, ReadOptions::default()).blocks;
        let mut out = Vec::with_capacity(len);
        for (i, block) in blocks.iter().enumerate() {
            let gb = first_block + i;
            let block_start = gb * b;
            let from = start.max(block_start) - block_start;
            let to = end.min(block_start + b) - block_start;
            out.extend_from_slice(&block[from..to]);
        }
        debug_assert_eq!(out.len(), len);
        debug_assert_eq!(sw % b, 0);
        out
    }

    /// [`read_words`](StripedView::read_words) through a **shared**
    /// reference: returns the words plus the cost the batch would be
    /// charged, without touching the global counters (the shared-read
    /// contract of [`DiskArray::read_shared`]). Concurrent scanners
    /// (e.g. [`crate::file::RecordFileReader`]) use this and let their
    /// owner charge the accumulated cost.
    #[must_use]
    pub fn read_words_shared(
        disks: &DiskArray,
        start: usize,
        len: usize,
    ) -> (Vec<Word>, crate::stats::OpCost) {
        if len == 0 {
            return (Vec::new(), crate::stats::OpCost::default());
        }
        let b = disks.block_words();
        let end = start + len;
        let mut addrs = Vec::new();
        let first_block = start / b;
        let last_block = (end - 1) / b;
        for gb in first_block..=last_block {
            addrs.push(BlockAddr::new(gb % disks.disks(), gb / disks.disks()));
        }
        let out = disks.read_shared(&addrs, ReadOptions::default());
        let cost = out.cost;
        let blocks = out.blocks;
        let mut words = Vec::with_capacity(len);
        for (i, block) in blocks.iter().enumerate() {
            let block_start = (first_block + i) * b;
            let from = start.max(block_start) - block_start;
            let to = end.min(block_start + b) - block_start;
            words.extend_from_slice(&block[from..to]);
        }
        debug_assert_eq!(words.len(), len);
        (words, cost)
    }

    /// Write `data` starting at global (striped) word offset `start`.
    ///
    /// Block-aligned interior blocks are written directly; ragged boundary
    /// blocks are read, patched, and written back (the model charges a read
    /// before a partial write, as the paper's Figure 1 footnote notes).
    pub fn write_words(&mut self, start: usize, data: &[Word]) {
        if data.is_empty() {
            return;
        }
        let b = self.disks.block_words();
        let d = self.disks.disks();
        let end = start + data.len();
        let first_block = start / b;
        let last_block = (end - 1) / b;

        // Read ragged boundary blocks first (one batch).
        let mut boundary = Vec::new();
        if !start.is_multiple_of(b) {
            boundary.push(first_block);
        }
        if !end.is_multiple_of(b) && last_block != *boundary.first().unwrap_or(&usize::MAX) {
            boundary.push(last_block);
        }
        let baddrs: Vec<BlockAddr> = boundary
            .iter()
            .map(|&gb| BlockAddr::new(gb % d, gb / d))
            .collect();
        let bblocks = self.disks.read(&baddrs, ReadOptions::default()).blocks;

        // Assemble full images for every block in range.
        let mut images: Vec<(BlockAddr, Vec<Word>)> = Vec::new();
        for gb in first_block..=last_block {
            let addr = BlockAddr::new(gb % d, gb / d);
            let block_start = gb * b;
            let mut img = if let Some(pos) = boundary.iter().position(|&x| x == gb) {
                bblocks[pos].to_vec()
            } else {
                vec![0; b]
            };
            let from = start.max(block_start);
            let to = end.min(block_start + b);
            img[from - block_start..to - block_start]
                .copy_from_slice(&data[from - start..to - start]);
            images.push((addr, img));
        }
        let writes: Vec<(BlockAddr, &[Word])> =
            images.iter().map(|(a, v)| (*a, v.as_slice())).collect();
        self.disks.write(&writes, WriteOptions::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;

    fn arr() -> DiskArray {
        DiskArray::new(PdmConfig::new(4, 8), 8)
    }

    #[test]
    fn stripe_roundtrip_is_two_parallel_ios() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        let data: Vec<Word> = (0..32).collect();
        view.write_stripe(3, &data);
        assert_eq!(view.read_stripe(3), data);
        assert_eq!(disks.stats().parallel_ios, 2);
    }

    #[test]
    fn stripe_layout_is_disk_major() {
        let mut disks = arr();
        let data: Vec<Word> = (0..32).collect();
        StripedView::new(&mut disks).write_stripe(0, &data);
        assert_eq!(disks.peek(BlockAddr::new(0, 0)), &data[0..8]);
        assert_eq!(disks.peek(BlockAddr::new(3, 0)), &data[24..32]);
    }

    #[test]
    fn read_words_spanning_blocks() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        let data: Vec<Word> = (0..64).collect();
        view.write_stripe(0, &data[0..32]);
        view.write_stripe(1, &data[32..64]);
        // Words 5..45 span disks 0..3 of stripe 0 and disks 0..2 of stripe 1.
        let got = view.read_words(5, 40);
        assert_eq!(got, &data[5..45]);
    }

    #[test]
    fn read_full_stripe_via_words_costs_one_io() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        let _ = view.read_words(32, 32); // stripe 1 exactly
        assert_eq!(disks.stats().parallel_ios, 1);
    }

    #[test]
    fn read_two_stripes_costs_two_ios() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        let _ = view.read_words(0, 64);
        assert_eq!(disks.stats().parallel_ios, 2);
    }

    #[test]
    fn ragged_write_preserves_neighbors() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        view.write_stripe(0, &vec![9; 32]);
        view.write_words(3, &[1, 2, 3]);
        let got = view.read_words(0, 10);
        assert_eq!(got, vec![9, 9, 9, 1, 2, 3, 9, 9, 9, 9]);
    }

    #[test]
    fn ragged_write_charges_boundary_reads() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        view.write_words(3, &[1, 2, 3]); // inside one block: 1 read + 1 write
        assert_eq!(disks.stats().parallel_ios, 2);
        assert_eq!(disks.stats().block_reads, 1);
        assert_eq!(disks.stats().block_writes, 1);
    }

    #[test]
    fn aligned_write_charges_no_reads() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        view.write_words(8, &[5; 16]); // blocks 1 and 2 exactly
        assert_eq!(disks.stats().block_reads, 0);
        assert_eq!(disks.stats().parallel_ios, 1); // two different disks
    }

    #[test]
    fn write_words_spanning_many_stripes_roundtrips() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        let data: Vec<Word> = (100..200).collect();
        view.write_words(17, &data);
        assert_eq!(view.read_words(17, 100), data);
    }

    #[test]
    fn num_stripes_tracks_geometry() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        assert_eq!(view.num_stripes(), 8);
        view.ensure_stripes(12);
        assert_eq!(view.num_stripes(), 12);
    }

    #[test]
    fn empty_ops_cost_nothing() {
        let mut disks = arr();
        let mut view = StripedView::new(&mut disks);
        assert!(view.read_words(5, 0).is_empty());
        view.write_words(5, &[]);
        assert_eq!(disks.stats().parallel_ios, 0);
    }
}

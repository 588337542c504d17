//! The field array `A` of the one-probe structures (Sections 4.2–4.3).
//!
//! `v` fixed-width bit fields, striped over `d` disks (stripe `i` of the
//! expander ↔ disk `i` of the region). Fields are packed into blocks —
//! never straddling a block boundary — so the `d` fields `Γ(x)` of a key
//! live in `d` blocks on `d` *distinct* disks: reading all of them is one
//! parallel I/O, which is the whole point of Theorem 6.

use crate::layout::{DiskAllocator, Region};
use crate::traits::DictError;
use pdm::bits::{copy_bits, extract_bits};
use pdm::{BlockAddr, BlockView, DiskArray, Word, WORD_BITS};

/// A striped array of fixed-width bit fields.
#[derive(Debug, Clone)]
pub struct FieldArray {
    region: Region,
    stripe_size: usize,
    field_bits: usize,
    fields_per_block: usize,
}

/// A field position: `(stripe, index within stripe)`.
pub type FieldPos = (usize, usize);

impl FieldArray {
    /// Create an array of `degree · stripe_size` fields of `field_bits`
    /// bits on `degree` disks starting at `first_disk`.
    pub fn create(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        degree: usize,
        stripe_size: usize,
        field_bits: usize,
    ) -> Result<Self, DictError> {
        let block_bits = disks.block_words() * WORD_BITS;
        if field_bits == 0 || field_bits > block_bits {
            return Err(DictError::UnsupportedParams(format!(
                "field of {field_bits} bits cannot fit a block of {block_bits} bits"
            )));
        }
        if degree == 0 || stripe_size == 0 {
            return Err(DictError::UnsupportedParams(
                "field array needs positive degree and stripe size".into(),
            ));
        }
        let fields_per_block = block_bits / field_bits;
        let blocks_per_disk = stripe_size.div_ceil(fields_per_block);
        let region = alloc.alloc(disks, first_disk, degree, blocks_per_disk);
        Ok(FieldArray {
            region,
            stripe_size,
            field_bits,
            fields_per_block,
        })
    }

    /// Bits per field.
    #[must_use]
    pub fn field_bits(&self) -> usize {
        self.field_bits
    }

    /// Words one extracted field occupies (zero-padded to a word boundary).
    #[must_use]
    pub fn field_words(&self) -> usize {
        self.field_bits.div_ceil(WORD_BITS)
    }

    /// Fields per stripe (`v / d`).
    #[must_use]
    pub fn stripe_size(&self) -> usize {
        self.stripe_size
    }

    /// Number of stripes (`d`).
    #[must_use]
    pub fn stripes(&self) -> usize {
        self.region.disks
    }

    /// Total fields `v`.
    #[must_use]
    pub fn num_fields(&self) -> usize {
        self.stripes() * self.stripe_size
    }

    /// Space usage in words.
    #[must_use]
    pub fn space_words(&self, disks: &DiskArray) -> usize {
        self.region.space_words(disks)
    }

    /// Block address holding field `(stripe, j)`.
    ///
    /// # Panics
    /// Panics if the position is out of range.
    #[must_use]
    pub fn addr_of(&self, pos: FieldPos) -> BlockAddr {
        let (stripe, j) = pos;
        assert!(j < self.stripe_size, "field index {j} out of stripe");
        self.region.addr(stripe, j / self.fields_per_block)
    }

    /// Bit offset of field `(_, j)` within its block.
    fn bit_offset(&self, j: usize) -> usize {
        (j % self.fields_per_block) * self.field_bits
    }

    /// Addresses of the blocks holding `positions` (in order; duplicates
    /// preserved — the disk layer batches them at no extra cost when they
    /// coincide... they are distinct blocks whenever stripes are distinct).
    pub fn probe_addrs<'a>(
        &'a self,
        positions: impl IntoIterator<Item = FieldPos> + 'a,
    ) -> impl Iterator<Item = BlockAddr> + 'a {
        positions.into_iter().map(|p| self.addr_of(p))
    }

    /// Extract the field bits at the `i`-th position from block `i` of
    /// `blocks` (the blocks read for [`probe_addrs`](Self::probe_addrs))
    /// into `out`, which is overwritten: field `i` occupies words
    /// `i·w..(i+1)·w` with `w =` [`field_words`](Self::field_words), bits
    /// past the field's width zero. Reusing one `out` across calls
    /// extracts without allocating.
    ///
    /// # Panics
    /// Panics unless there is exactly one position per block.
    pub fn extract(
        &self,
        positions: impl IntoIterator<Item = FieldPos>,
        blocks: &impl BlockView,
        out: &mut Vec<Word>,
    ) {
        let w = self.field_words();
        out.clear();
        out.resize(blocks.len() * w, 0);
        let mut fields = out.chunks_exact_mut(w);
        for (i, (_, j)) in positions.into_iter().enumerate() {
            let field = fields.next().expect("positions/blocks mismatch");
            copy_bits(field, 0, blocks.block(i), self.bit_offset(j), self.field_bits);
        }
        assert!(fields.next().is_none(), "positions/blocks mismatch");
    }

    /// Patch field `positions[i]`'s bits inside its block image
    /// `blocks[i]` (caller writes the blocks back afterwards).
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn patch(&self, pos: FieldPos, block: &mut [Word], field: &[Word]) {
        let need = self.field_bits.div_ceil(WORD_BITS);
        assert!(field.len() >= need, "field buffer too small");
        copy_bits(block, self.bit_offset(pos.1), field, 0, self.field_bits);
    }

    /// The words of its block that field `pos` lies in: all a
    /// [`patch`](Self::patch) changes.
    #[must_use]
    pub fn words_of(&self, pos: FieldPos) -> std::ops::Range<usize> {
        let at = self.bit_offset(pos.1);
        at / WORD_BITS..(at + self.field_bits).div_ceil(WORD_BITS)
    }

    /// [`patch`](Self::patch) given only `words`, the
    /// [`words_of`](Self::words_of) `pos` of the block image.
    pub fn patch_words(&self, pos: FieldPos, words: &mut [Word], field: &[Word]) {
        copy_bits(words, self.bit_offset(pos.1) % WORD_BITS, field, 0, self.field_bits);
    }

    /// Convenience for tests and construction: write one field with a
    /// read-modify-write of its block (2 parallel I/Os).
    pub fn write_field(&self, disks: &mut DiskArray, pos: FieldPos, field: &[Word]) {
        let addr = self.addr_of(pos);
        let mut block = disks.read_block(addr);
        self.patch(pos, &mut block, field);
        disks.write_block(addr, &block);
    }

    /// Convenience: read one field (1 parallel I/O).
    pub fn read_field(&self, disks: &mut DiskArray, pos: FieldPos) -> Vec<Word> {
        let addr = self.addr_of(pos);
        let block = disks.read_block(addr);
        extract_bits(&block, self.bit_offset(pos.1), self.field_bits)
    }

    /// Iterate the `(block row, stripe)` write order used by the
    /// streaming construction: returns, for a field index `(stripe, j)`,
    /// a sort key such that ascending order groups fields block-row by
    /// block-row with the `d` disks interleaved — so the filler can flush
    /// rows of `d` blocks as single parallel I/Os.
    #[must_use]
    pub fn fill_order_key(&self, pos: FieldPos) -> u64 {
        let (stripe, j) = pos;
        let row = j / self.fields_per_block;
        let slot = j % self.fields_per_block;
        ((row as u64 * self.stripes() as u64 + stripe as u64) * self.fields_per_block as u64)
            + slot as u64
    }

    /// Inverse of [`fill_order_key`](Self::fill_order_key).
    #[must_use]
    pub fn pos_from_fill_key(&self, key: u64) -> FieldPos {
        let slot = (key % self.fields_per_block as u64) as usize;
        let rest = key / self.fields_per_block as u64;
        let stripe = (rest % self.stripes() as u64) as usize;
        let row = (rest / self.stripes() as u64) as usize;
        (stripe, row * self.fields_per_block + slot)
    }

    /// The block row of a fill key (for grouping writes).
    #[must_use]
    pub fn row_of_fill_key(&self, key: u64) -> u64 {
        key / (self.fields_per_block as u64 * self.stripes() as u64)
    }

    /// Fields per block.
    #[must_use]
    pub fn fields_per_block(&self) -> usize {
        self.fields_per_block
    }

    /// Address of block row `row` on stripe `stripe`.
    ///
    /// # Panics
    /// Panics if the row is out of range.
    #[must_use]
    pub fn addr_of_row(&self, stripe: usize, row: usize) -> BlockAddr {
        self.region.addr(stripe, row)
    }

    /// Region (for composition-level diagnostics).
    #[must_use]
    pub fn region(&self) -> &Region {
        &self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DiskAllocator;
    use pdm::PdmConfig;

    fn setup(field_bits: usize, stripe_size: usize) -> (DiskArray, FieldArray) {
        let mut disks = DiskArray::new(PdmConfig::new(4, 4), 0); // 256-bit blocks
        let mut alloc = DiskAllocator::new(4);
        let fa = FieldArray::create(&mut disks, &mut alloc, 0, 4, stripe_size, field_bits).unwrap();
        (disks, fa)
    }

    #[test]
    fn geometry() {
        let (_, fa) = setup(100, 10);
        // 256-bit blocks hold 2 fields of 100 bits.
        assert_eq!(fa.num_fields(), 40);
        assert_eq!(fa.field_bits(), 100);
        assert_eq!(fa.stripes(), 4);
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut disks, fa) = setup(100, 10);
        let field = vec![
            0xDEAD_BEEF_CAFE_F00D,
            0x1234_5678_9ABC_DEF0 & ((1 << 36) - 1),
        ];
        fa.write_field(&mut disks, (2, 7), &field);
        let got = fa.read_field(&mut disks, (2, 7));
        assert_eq!(got[0], field[0]);
        assert_eq!(got[1] & ((1 << 36) - 1), field[1]);
    }

    #[test]
    fn neighboring_fields_do_not_clobber() {
        let (mut disks, fa) = setup(100, 10);
        // Fields (0,0) and (0,1) share block 0 of disk 0.
        fa.write_field(&mut disks, (0, 0), &[u64::MAX, u64::MAX]);
        fa.write_field(&mut disks, (0, 1), &[0, 0]);
        let f0 = fa.read_field(&mut disks, (0, 0));
        assert_eq!(f0[0], u64::MAX);
        assert_eq!(f0[1] & ((1u64 << 36) - 1), (1u64 << 36) - 1);
        let f1 = fa.read_field(&mut disks, (0, 1));
        assert_eq!(f1[0], 0);
    }

    #[test]
    fn one_field_per_stripe_is_one_parallel_io() {
        let (mut disks, fa) = setup(64, 8);
        let positions: Vec<FieldPos> = (0..4).map(|s| (s, s * 2)).collect();
        let addrs: Vec<BlockAddr> = fa.probe_addrs(positions.iter().copied()).collect();
        let scope = disks.begin_op();
        let blocks = disks.read(&addrs, pdm::ReadOptions::default()).blocks;
        let mut fields = vec![7; 9];
        fa.extract(positions.iter().copied(), &blocks, &mut fields);
        assert_eq!(disks.end_op(scope).parallel_ios, 1);
        assert_eq!(fields, [0; 4], "one zeroed word per 64-bit field");
    }

    #[test]
    fn patching_the_fields_own_words_equals_patching_the_block() {
        let (disks, fa) = setup(37, 40);
        let b = disks.block_words();
        for j in 0..fa.fields_per_block() {
            let field = [0x15_5555_5555 ^ j as Word];
            let mut whole = vec![Word::MAX; b];
            fa.patch((1, j), &mut whole, &field);
            let mut narrow = vec![Word::MAX; b];
            let words = fa.words_of((1, j));
            assert!(words.len() <= fa.field_words() + 1 && words.end <= b);
            fa.patch_words((1, j), &mut narrow[words.clone()], &field);
            assert_eq!(whole, narrow, "field {j}");
            assert!((0..b).all(|w| words.contains(&w) || whole[w] == Word::MAX));
        }
    }

    #[test]
    fn patch_then_extract() {
        let (mut disks, fa) = setup(33, 16);
        let addr = fa.addr_of((1, 5));
        let mut block = disks.read_block(addr);
        fa.patch((1, 5), &mut block, &[0x1_2345_6789]);
        disks.write_block(addr, &block);
        assert_eq!(fa.read_field(&mut disks, (1, 5))[0], 0x1_2345_6789);
    }

    #[test]
    fn fill_order_key_roundtrip_and_grouping() {
        let (_, fa) = setup(100, 10);
        let mut keys = Vec::new();
        for stripe in 0..4 {
            for j in 0..10 {
                let k = fa.fill_order_key((stripe, j));
                assert_eq!(fa.pos_from_fill_key(k), (stripe, j));
                keys.push((k, stripe, j));
            }
        }
        keys.sort_unstable();
        // Ascending fill order visits block row 0 of all stripes before
        // any row-1 block (2 fields per block -> rows are j/2).
        let first_eight: Vec<usize> = keys[..8].iter().map(|&(_, _, j)| j / 2).collect();
        assert!(first_eight.iter().all(|&r| r == 0));
        assert_eq!(fa.row_of_fill_key(keys[8].0), 1);
    }

    #[test]
    fn rejects_field_larger_than_block() {
        let mut disks = DiskArray::new(PdmConfig::new(2, 1), 0); // 64-bit blocks
        let mut alloc = DiskAllocator::new(2);
        assert!(FieldArray::create(&mut disks, &mut alloc, 0, 2, 4, 65).is_err());
    }

    #[test]
    #[should_panic(expected = "out of stripe")]
    fn position_bounds_checked() {
        let (_, fa) = setup(64, 8);
        let _ = fa.addr_of((0, 8));
    }
}

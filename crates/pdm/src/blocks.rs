//! The blocks of one round, and borrowed views of them.
//!
//! A read completes as a [`Round`]: the requested blocks in request order.
//! Every decoder above works on `&[Word]` views of single blocks handed out
//! through [`BlockView`], so a block is copied only where the medium is not
//! memory. On a backend that keeps its blocks in memory
//! ([`crate::StorageBackend::resident`]) the round *is* the blocks where
//! they lie, borrowed until the next `&mut` use of the array; anywhere
//! else — a file, a decorator that hides residency, an array whose fault
//! plan or checksums may change what a read returns — it is one flat
//! [`BlockBuf`], `len × B` words back to back, copied from the medium once
//! and sanitized in place. A writer copies out the blocks it patches and
//! nothing more.

use crate::Word;
use std::ops::Range;

/// Read access to a sequence of block images by position: a [`Round`] or
/// its buffer, the batch engine's results ([`crate::BatchReads`],
/// [`crate::batch::StagedBlocks`]), or a [`SubView`] of any of them.
pub trait BlockView {
    /// Number of blocks.
    fn len(&self) -> usize;

    /// The image of block `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    fn block(&self, i: usize) -> &[Word];

    /// Whether there are no blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blocks at positions `range`, re-indexed from 0: one operation's
    /// probes inside a batch, or one structure's half of a shared round.
    ///
    /// # Panics
    /// Panics if the range exceeds `len()`.
    fn sub(&self, range: Range<usize>) -> SubView<'_, Self> {
        assert!(range.start <= range.end && range.end <= self.len(), "blocks {range:?} out of range");
        SubView {
            inner: self,
            range,
        }
    }
}

/// A contiguous range of another [`BlockView`].
#[derive(Debug)]
pub struct SubView<'a, V: ?Sized> {
    inner: &'a V,
    range: Range<usize>,
}

impl<V: BlockView + ?Sized> BlockView for SubView<'_, V> {
    fn len(&self) -> usize {
        self.range.len()
    }

    fn block(&self, i: usize) -> &[Word] {
        assert!(i < self.len(), "block {i} out of range ({} blocks)", self.len());
        self.inner.block(self.range.start + i)
    }
}

/// The completion of one read ([`crate::IoOutcome::blocks`]): the requested
/// blocks in request order (see the [module docs](self)). Which variant is
/// the array's business; a decoder reads either through [`BlockView`].
#[derive(Debug, Clone)]
pub enum Round<'a> {
    /// The blocks where they lie in a resident backend: nothing was copied,
    /// and the array stays borrowed while the round lives.
    Resident(Vec<&'a [Word]>),
    /// The blocks copied out of the medium (failed ones zeroed).
    Copied(BlockBuf),
}

impl Round<'_> {
    /// The blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &[Word]> {
        (0..self.len()).map(|i| self.block(i))
    }

    /// The round's own buffer, if it was copied.
    #[must_use]
    pub fn copied(self) -> Option<BlockBuf> {
        match self {
            Round::Copied(buf) => Some(buf),
            Round::Resident(_) => None,
        }
    }

    /// The round as a buffer of its own, for a caller that patches the
    /// blocks or keeps them past the next use of the array: a copy of the
    /// resident blocks, or the buffer they were already copied into.
    #[must_use]
    pub fn into_buf(self) -> BlockBuf {
        let Round::Resident(blocks) = self else {
            return self.copied().expect("not resident");
        };
        let mut buf = BlockBuf::with_capacity(blocks.first().map_or(0, |b| b.len()), blocks.len());
        blocks.iter().for_each(|b| buf.push(b));
        buf
    }
}

impl BlockView for Round<'_> {
    fn len(&self) -> usize {
        match self {
            Round::Resident(blocks) => blocks.len(),
            Round::Copied(buf) => buf.len(),
        }
    }

    fn block(&self, i: usize) -> &[Word] {
        match self {
            Round::Resident(blocks) => blocks[i],
            Round::Copied(buf) => buf.block(i),
        }
    }
}

impl std::ops::Index<usize> for Round<'_> {
    type Output = [Word];

    fn index(&self, i: usize) -> &[Word] {
        self.block(i)
    }
}

/// Words per piece of a large [`BlockBuf`] (64 KiB).
const PIECE_WORDS: usize = 8192;

/// Block images back to back, in request order: the completion type of
/// the storage seam ([`crate::CompletionSet::reads`]) and what a copied
/// [`Round`] holds. Views are valid until it is dropped; `Default` is the
/// empty buffer and allocates nothing.
///
/// A round of up to 64 KiB — every single-key operation — is one
/// allocation. A larger one (a planned batch on a file, a preload's 256
/// keys) is held in 64 KiB pieces: one region of megabytes is served by
/// `mmap`, and freeing it makes the allocator keep that much memory for
/// the rest of the process's life, a fifth of a file-backed shard's
/// footprint (`tcp_file_mixed`: 23.1 – 24.6 MiB with one `Vec` a round
/// against 19.4, EXPERIMENTS.md § PERF, PR 19). Resident rounds are not
/// copied and never come here.
#[derive(Debug, Clone, Default)]
pub struct BlockBuf {
    /// The first piece.
    first: Vec<Word>,
    /// The later pieces; all but the last full, like `first`.
    rest: Vec<Vec<Word>>,
    block_words: usize,
    /// Blocks per full piece.
    per_piece: usize,
}

impl BlockBuf {
    /// An empty buffer of `block_words`-word blocks with room for `blocks`
    /// (in its first piece; later pieces are allocated as they fill).
    #[must_use]
    pub fn with_capacity(block_words: usize, blocks: usize) -> Self {
        let per_piece = (PIECE_WORDS / block_words.max(1)).max(1);
        BlockBuf {
            first: Vec::with_capacity(blocks.min(per_piece) * block_words),
            rest: Vec::new(),
            block_words,
            per_piece,
        }
    }

    /// `blocks` zeroed blocks of `block_words` words.
    #[must_use]
    pub fn zeroed(block_words: usize, blocks: usize) -> Self {
        let mut buf = Self::with_capacity(block_words, 0);
        let per = buf.per_piece;
        let mut pieces = (0..blocks)
            .step_by(per)
            .map(|at| vec![0; per.min(blocks - at) * block_words]);
        buf.first = pieces.next().unwrap_or_default();
        buf.rest = pieces.collect();
        buf
    }

    /// Drop every block, keeping the first piece's room.
    pub(crate) fn clear(&mut self) {
        self.first.clear();
        self.rest = Vec::new();
    }

    /// Append one block image.
    ///
    /// # Panics
    /// Panics if `block` is not exactly one block wide.
    pub fn push(&mut self, block: &[Word]) {
        assert_eq!(block.len(), self.block_words, "block width mismatch");
        let full = self.per_piece * self.block_words;
        let last = self.rest.last_mut().unwrap_or(&mut self.first);
        if last.len() == full {
            self.rest.push(Vec::with_capacity(full));
        }
        self.rest.last_mut().unwrap_or(&mut self.first).extend_from_slice(block);
    }

    /// The piece holding block `i`, and the block's word range in it.
    fn locate(&self, i: usize) -> (usize, Range<usize>) {
        let at = i % self.per_piece * self.block_words;
        (i / self.per_piece, at..at + self.block_words)
    }

    /// Mutable image of block `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn block_mut(&mut self, i: usize) -> &mut [Word] {
        let (piece, words) = self.locate(i);
        let piece = if piece == 0 { &mut self.first } else { &mut self.rest[piece - 1] };
        &mut piece[words]
    }

    /// The blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &[Word]> {
        // `max(1)`: the empty default buffer has no block size.
        std::iter::once(&self.first)
            .chain(&self.rest)
            .flat_map(|piece| piece.chunks_exact(self.block_words.max(1)))
    }

    /// Give up the buffer as its words (block `i` at `i·B..(i+1)·B`).
    #[must_use]
    pub fn into_words(mut self) -> Vec<Word> {
        for piece in &self.rest {
            self.first.extend_from_slice(piece);
        }
        self.first
    }
}

impl BlockView for BlockBuf {
    fn len(&self) -> usize {
        let last = self.rest.last().unwrap_or(&self.first);
        (self.first.len() * self.rest.len() + last.len())
            .checked_div(self.block_words)
            .unwrap_or(0)
    }

    fn block(&self, i: usize) -> &[Word] {
        let (piece, words) = self.locate(i);
        &(if piece == 0 { &self.first } else { &self.rest[piece - 1] })[words]
    }
}

impl PartialEq for BlockBuf {
    fn eq(&self, other: &Self) -> bool {
        self.block_words == other.block_words && self.iter().eq(other.iter())
    }
}

impl std::ops::Index<usize> for BlockBuf {
    type Output = [Word];

    fn index(&self, i: usize) -> &[Word] {
        self.block(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_index_and_iterate() {
        let mut buf = BlockBuf::with_capacity(2, 3);
        assert!(buf.is_empty());
        buf.push(&[1, 2]);
        buf.push(&[3, 4]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[1], [3, 4]);
        buf.block_mut(0).fill(9);
        assert_eq!(buf.iter().collect::<Vec<_>>(), [&[9, 9][..], &[3, 4]]);
        assert_eq!(buf.into_words(), [9, 9, 3, 4]);
    }

    #[test]
    fn a_large_round_is_held_in_pieces_and_reads_the_same() {
        // 4096-word blocks: two per piece.
        let mut buf = BlockBuf::with_capacity(4096, 5);
        for i in 0..5 {
            buf.push(&vec![i as Word; 4096]);
        }
        assert_eq!(buf.len(), 5);
        assert_eq!((buf.first.capacity(), buf.rest.len()), (8192, 2));
        buf.block_mut(3)[7] = 99;
        for (i, block) in buf.iter().enumerate() {
            assert_eq!(block, buf.block(i));
            assert_eq!(block[0], i as Word);
        }
        assert_eq!(buf[3][7], 99);
        assert_eq!(buf, buf.clone());
        assert_eq!(BlockBuf::zeroed(4096, 5).len(), 5);
        let words = buf.into_words();
        assert_eq!((words.len(), words[4 * 4096]), (5 * 4096, 4));
    }

    #[test]
    fn default_is_empty_and_sub_views_reindex() {
        assert_eq!(BlockBuf::default().len(), 0);
        assert_eq!(BlockBuf::default().iter().count(), 0);
        let mut buf = BlockBuf::zeroed(1, 4);
        for i in 0..4 {
            buf.block_mut(i)[0] = i as Word;
        }
        let tail = buf.sub(1..4);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.block(0), [1]);
        assert_eq!(tail.sub(1..3).block(1), [3], "views nest");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_view_bounds_are_checked() {
        let buf = BlockBuf::zeroed(1, 2);
        let _ = buf.sub(0..1).block(1);
    }
}

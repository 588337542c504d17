//! Bucket slot codec for the Section 4.1 dictionary.
//!
//! A bucket is a word buffer (one or more blocks on a single disk) holding
//! fixed-width slots `[flags, key, payload…]`. The flags word marks a slot
//! live or tombstoned — the paper's Section 4 preamble: "we can mark
//! deleted elements without influencing the search time of other
//! elements"; tombstoned slots are reused by later insertions and space is
//! reclaimed wholesale by global rebuilding.
//!
//! A record goes into the first slot that is not live, so the slots ever
//! used are a prefix of the bucket: a scan ends at the first slot never
//! used (flags 0), and a lightly loaded bucket costs the words it holds,
//! not the block it lies in. A torn write keeps that true — it lands the
//! head of an image whose used prefix is the old one's or longer — and a
//! damaged block reads as zeros, an empty bucket.

use pdm::Word;

/// Flags word values.
const FLAG_LIVE: Word = 0b01;
const FLAG_TOMBSTONE: Word = 0b11; // tombstones remain "used" slots

/// Encodes/decodes fixed-width slots within a bucket buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCodec {
    /// Payload words per slot.
    pub payload_words: usize,
}

impl BucketCodec {
    /// Codec for slots carrying `payload_words` payload words.
    #[must_use]
    pub fn new(payload_words: usize) -> Self {
        BucketCodec { payload_words }
    }

    /// Words per slot: flags + key + payload.
    #[must_use]
    pub fn slot_words(&self) -> usize {
        2 + self.payload_words
    }

    /// Slots that fit in a buffer of `words` words.
    #[must_use]
    pub fn capacity(&self, words: usize) -> usize {
        words / self.slot_words()
    }

    /// Find a live slot holding `key`; returns its payload, a slice into
    /// the bucket.
    #[must_use]
    pub fn find<'a>(&self, buf: &'a [Word], key: u64) -> Option<&'a [Word]> {
        self.find_and_count(buf, key).0
    }

    /// Number of live (non-tombstoned) slots — the bucket's load for the
    /// greedy balancing decision.
    #[must_use]
    pub fn live_count(&self, buf: &[Word]) -> usize {
        self.live_slots(buf).count()
    }

    /// One pass for an insertion's two questions: `key`'s payload if the
    /// bucket holds it live, and the bucket's load
    /// ([`live_count`](Self::live_count)).
    #[must_use]
    pub fn find_and_count<'a>(&self, buf: &'a [Word], key: u64) -> (Option<&'a [Word]>, usize) {
        let mut found = None;
        let mut live = 0;
        for s in self.live_slots(buf) {
            live += 1;
            if s[1] == key && found.is_none() {
                found = Some(&s[2..]);
            }
        }
        (found, live)
    }

    fn live_slots<'a>(&self, buf: &'a [Word]) -> impl Iterator<Item = &'a [Word]> {
        self.used_slots(buf).filter(|s| s[0] == FLAG_LIVE)
    }

    /// The slots ever used, live or tombstoned: the bucket's prefix up to
    /// the first never-used slot.
    fn used_slots<'a>(&self, buf: &'a [Word]) -> impl Iterator<Item = &'a [Word]> {
        buf.chunks_exact(self.slot_words()).take_while(|s| s[0] != 0)
    }

    /// Insert `(key, payload)` into the first free or tombstoned slot.
    /// Returns `false` when the bucket is full.
    ///
    /// # Panics
    /// Panics on a payload width mismatch.
    pub fn insert(&self, buf: &mut [Word], key: u64, payload: &[Word]) -> bool {
        assert_eq!(payload.len(), self.payload_words, "payload width mismatch");
        let Some(at) = self.free_at(buf) else {
            return false;
        };
        let s = &mut buf[at..at + self.slot_words()];
        s[0] = FLAG_LIVE;
        s[1] = key;
        s[2..].copy_from_slice(payload);
        true
    }

    /// The first word of the slot [`insert`](Self::insert) fills: the first
    /// slot not live. `None` when the bucket is full.
    #[must_use]
    pub fn free_at(&self, buf: &[Word]) -> Option<usize> {
        let w = self.slot_words();
        (0..self.capacity(buf.len())).map(|i| i * w).find(|&at| buf[at] != FLAG_LIVE)
    }

    /// Overwrite the payload of `key`'s live slot. Returns `false` if the
    /// key is absent.
    pub fn update(&self, buf: &mut [Word], key: u64, payload: &[Word]) -> bool {
        assert_eq!(payload.len(), self.payload_words, "payload width mismatch");
        let Some(at) = self.flags_at(buf, key) else {
            return false;
        };
        buf[at + 2..at + self.slot_words()].copy_from_slice(payload);
        true
    }

    /// Tombstone `key`'s slot. Returns `false` if the key is absent.
    pub fn delete(&self, buf: &mut [Word], key: u64) -> bool {
        let at = self.flags_at(buf, key);
        if let Some(at) = at {
            buf[at] = Self::TOMBSTONE;
        }
        at.is_some()
    }

    /// The flags word that deletes `key` once it holds [`Self::TOMBSTONE`]:
    /// the first word of the live slot holding it, if there is one.
    #[must_use]
    pub fn flags_at(&self, buf: &[Word], key: u64) -> Option<usize> {
        let at = self.used_slots(buf).position(|s| s[0] == FLAG_LIVE && s[1] == key)?;
        Some(at * self.slot_words())
    }

    /// The flags of a deleted slot.
    pub const TOMBSTONE: Word = FLAG_TOMBSTONE;

    /// All live `(key, payload)` pairs, in slot order.
    #[must_use]
    pub fn live_entries(&self, buf: &[Word]) -> Vec<(u64, Vec<Word>)> {
        self.live_slots(buf)
            .map(|s| (s[1], s[2..].to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(codec: &BucketCodec, slots: usize) -> Vec<Word> {
        vec![0; codec.slot_words() * slots]
    }

    #[test]
    fn insert_find_roundtrip() {
        let c = BucketCodec::new(2);
        let mut b = buf(&c, 4);
        assert!(c.insert(&mut b, 42, &[7, 8]));
        assert_eq!(c.find(&b, 42), Some(&[7, 8][..]));
        assert_eq!(c.find_and_count(&b, 42), (Some(&[7, 8][..]), 1));
        assert_eq!(c.find_and_count(&b, 43), (None, 1));
        assert_eq!(c.find(&b, 43), None);
        assert_eq!(c.live_count(&b), 1);
    }

    #[test]
    fn key_zero_is_storable() {
        // Key 0 must not be confused with an empty slot.
        let c = BucketCodec::new(0);
        let mut b = buf(&c, 2);
        assert_eq!(c.find(&b, 0), None);
        assert!(c.insert(&mut b, 0, &[]));
        assert_eq!(c.find(&b, 0), Some(&[][..]));
    }

    #[test]
    fn full_bucket_rejects() {
        let c = BucketCodec::new(0);
        let mut b = buf(&c, 2);
        assert!(c.insert(&mut b, 1, &[]));
        assert!(c.insert(&mut b, 2, &[]));
        assert!(!c.insert(&mut b, 3, &[]));
    }

    #[test]
    fn delete_tombstones_and_slot_is_reused() {
        let c = BucketCodec::new(1);
        let mut b = buf(&c, 2);
        c.insert(&mut b, 1, &[10]);
        c.insert(&mut b, 2, &[20]);
        assert!(c.delete(&mut b, 1));
        assert_eq!(c.find(&b, 1), None);
        assert_eq!(c.live_count(&b), 1);
        // Tombstone slot is reused by the next insertion.
        assert!(c.insert(&mut b, 3, &[30]));
        assert_eq!(c.find(&b, 3), Some(&[30][..]));
        assert_eq!(c.find(&b, 2), Some(&[20][..]));
    }

    #[test]
    fn delete_absent_returns_false() {
        let c = BucketCodec::new(0);
        let mut b = buf(&c, 2);
        assert!(!c.delete(&mut b, 9));
    }

    /// Slots are used front to back, so a scan ends at the first slot never
    /// used: a tombstone does not end it, and nothing past it is a record.
    #[test]
    fn a_scan_ends_at_the_first_never_used_slot() {
        let c = BucketCodec::new(1);
        let mut b = buf(&c, 4);
        c.insert(&mut b, 1, &[10]);
        c.insert(&mut b, 2, &[20]);
        assert!(c.delete(&mut b, 1));
        assert_eq!((c.find(&b, 2), c.live_count(&b)), (Some(&[20][..]), 1));
        let w = c.slot_words();
        b[3 * w..4 * w].copy_from_slice(&[FLAG_LIVE, 9, 90]);
        assert_eq!((c.find(&b, 9), c.live_count(&b)), (None, 1), "slot 2 was never used");
        assert!(c.insert(&mut b, 3, &[30]));
        assert_eq!(c.flags_at(&b, 3), Some(0), "the tombstone's slot is reused");
    }

    #[test]
    fn update_in_place() {
        let c = BucketCodec::new(1);
        let mut b = buf(&c, 2);
        c.insert(&mut b, 5, &[1]);
        assert!(c.update(&mut b, 5, &[99]));
        assert_eq!(c.find(&b, 5), Some(&[99][..]));
        assert!(!c.update(&mut b, 6, &[0]));
    }

    #[test]
    fn live_entries_in_order() {
        let c = BucketCodec::new(0);
        let mut b = buf(&c, 3);
        c.insert(&mut b, 3, &[]);
        c.insert(&mut b, 1, &[]);
        c.delete(&mut b, 3);
        c.insert(&mut b, 2, &[]); // reuses slot 0
        assert_eq!(c.live_entries(&b), vec![(2, vec![]), (1, vec![])]);
    }

    #[test]
    fn capacity_rounds_down() {
        let c = BucketCodec::new(1); // 3 words per slot
        assert_eq!(c.capacity(8), 2);
        assert_eq!(c.capacity(9), 3);
    }
}

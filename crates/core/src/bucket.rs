//! Bucket slot codec for the Section 4.1 dictionary.
//!
//! A bucket is a word buffer (one or more blocks on a single disk) holding
//! fixed-width slots `[flags, key, payload…]`. The flags word marks a slot
//! live or tombstoned — the paper's Section 4 preamble: "we can mark
//! deleted elements without influencing the search time of other
//! elements"; tombstoned slots are reused by later insertions and space is
//! reclaimed wholesale by global rebuilding.

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

    fn slot<'a>(&self, buf: &'a [Word], i: usize) -> &'a [Word] {
        let w = self.slot_words();
        &buf[i * w..(i + 1) * w]
    }

    fn slot_mut<'a>(&self, buf: &'a mut [Word], i: usize) -> &'a mut [Word] {
        let w = self.slot_words();
        &mut buf[i * w..(i + 1) * w]
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
        buf.chunks_exact(self.slot_words())
            .filter(|s| s[0] == FLAG_LIVE)
    }

    /// Insert `(key, payload)` into the first free or tombstoned slot.
    /// Returns `false` when the bucket is full.
    ///
    /// # Panics
    /// Panics on a payload width mismatch.
    pub fn insert(&self, buf: &mut [Word], key: u64, payload: &[Word]) -> bool {
        assert_eq!(payload.len(), self.payload_words, "payload width mismatch");
        for i in 0..self.capacity(buf.len()) {
            if self.slot(buf, i)[0] != FLAG_LIVE {
                let s = self.slot_mut(buf, i);
                s[0] = FLAG_LIVE;
                s[1] = key;
                s[2..].copy_from_slice(payload);
                return true;
            }
        }
        false
    }

    /// Overwrite the payload of `key`'s live slot. Returns `false` if the
    /// key is absent.
    pub fn update(&self, buf: &mut [Word], key: u64, payload: &[Word]) -> bool {
        assert_eq!(payload.len(), self.payload_words, "payload width mismatch");
        for i in 0..self.capacity(buf.len()) {
            let s = self.slot(buf, i);
            if s[0] == FLAG_LIVE && s[1] == key {
                self.slot_mut(buf, i)[2..].copy_from_slice(payload);
                return true;
            }
        }
        false
    }

    /// Tombstone `key`'s slot. Returns `false` if the key is absent.
    pub fn delete(&self, buf: &mut [Word], key: u64) -> bool {
        for i in 0..self.capacity(buf.len()) {
            let s = self.slot(buf, i);
            if s[0] == FLAG_LIVE && s[1] == key {
                self.slot_mut(buf, i)[0] = FLAG_TOMBSTONE;
                return true;
            }
        }
        false
    }

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

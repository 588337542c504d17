//! The "folklore trick" (Figure 1 row "\[7\] + trick"): full `Θ(BD)`
//! bandwidth at `1 + ɛ` average lookups.
//!
//! "Keep a hash table storing all keys that do not collide with another
//! key (in that hash table), and mark all locations for which there is a
//! collision. The remaining keys are stored using the algorithm of \[7\].
//! The fraction of searches and updates that need to go to the dictionary
//! of \[7\] can be made arbitrarily small by choosing the hash table size
//! with a suitably large constant on the linear term."
//!
//! The primary table gives each key a whole stripe (bandwidth `Θ(BD)`);
//! collided locations carry a mark and their keys are demoted to a
//! secondary [`DghpDict`]. A lookup reads the primary stripe (1 parallel
//! I/O) and falls through to the secondary only on a marked location —
//! a vanishing fraction at a suitable primary size.

use crate::dghp::{DghpDict, DghpError};
use crate::hashfam::PolyHash;
use pdm::{DiskArray, OpCost, PdmConfig, StripedView, Word};

const MARK_COLLIDED: Word = 1;
const SLOT_LIVE: Word = 1;

/// Errors from the folklore structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FolkloreError {
    /// Key already present.
    Duplicate(u64),
    /// Payload width mismatch.
    PayloadWidth {
        /// Expected words.
        expected: usize,
        /// Supplied words.
        got: usize,
    },
}

impl std::fmt::Display for FolkloreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FolkloreError::Duplicate(k) => write!(f, "key {k} already present"),
            FolkloreError::PayloadWidth { expected, got } => {
                write!(f, "payload width mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for FolkloreError {}

impl From<DghpError> for FolkloreError {
    fn from(e: DghpError) -> Self {
        match e {
            DghpError::Duplicate(k) => FolkloreError::Duplicate(k),
            DghpError::PayloadWidth { expected, got } => {
                FolkloreError::PayloadWidth { expected, got }
            }
        }
    }
}

/// Primary stripe layout: `[mark, flags, key, payload…]`.
#[derive(Debug)]
pub struct FolkloreDict {
    primary: DiskArray,
    secondary: DghpDict,
    hash: PolyHash,
    stripes: usize,
    payload_words: usize,
    len: usize,
}

impl FolkloreDict {
    /// Create for `capacity` keys of `payload_words` words on `d` disks
    /// with `block_words`-word blocks. `slack` is the "suitably large
    /// constant on the linear term": primary stripes = `slack · capacity`.
    ///
    /// # Panics
    /// Panics if a record does not fit in one stripe.
    #[must_use]
    pub fn new(
        capacity: usize,
        payload_words: usize,
        disks: usize,
        block_words: usize,
        slack: usize,
        seed: u64,
    ) -> Self {
        let cfg = PdmConfig::new(disks, block_words);
        assert!(
            payload_words + 3 <= cfg.stripe_words(),
            "record of {} words exceeds the stripe of {}",
            payload_words + 3,
            cfg.stripe_words()
        );
        let stripes = (slack.max(2) * capacity.max(1)).max(2);
        let mut arr = DiskArray::new(cfg, stripes);
        StripedView::new(&mut arr).ensure_stripes(stripes);
        let k = (usize::BITS - capacity.max(2).leading_zeros()) as usize + 2;
        FolkloreDict {
            primary: arr,
            secondary: DghpDict::new(capacity, payload_words, disks, block_words, seed ^ 0xF01C),
            hash: PolyHash::new(k, seed),
            stripes,
            payload_words,
            len: 0,
        }
    }

    /// Live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keys currently demoted to the secondary structure.
    #[must_use]
    pub fn secondary_len(&self) -> usize {
        self.secondary.len()
    }

    /// The structure collided keys are demoted to (the component whose
    /// array grows; the primary table is laid out once).
    #[must_use]
    pub fn secondary(&self) -> &DghpDict {
        &self.secondary
    }

    /// Bandwidth in words (`Θ(BD)`).
    #[must_use]
    pub fn bandwidth_words(&self) -> usize {
        self.primary.config().stripe_words() - 3
    }

    /// Total space of both component arrays, in words.
    #[must_use]
    pub fn space_words(&self) -> usize {
        self.stripes * self.primary.config().stripe_words() + self.secondary.disks().total_words()
    }

    /// Disks of the primary array.
    #[must_use]
    pub fn primary_disks(&self) -> usize {
        self.primary.disks()
    }

    /// Combined I/O statistics of both component arrays.
    #[must_use]
    pub fn io_stats(&self) -> pdm::IoStats {
        let a = self.primary.stats();
        let b = self.secondary.disks().stats();
        pdm::IoStats {
            parallel_ios: a.parallel_ios + b.parallel_ios,
            block_reads: a.block_reads + b.block_reads,
            block_writes: a.block_writes + b.block_writes,
            batches: a.batches + b.batches,
            rounds: a.rounds + b.rounds,
        }
    }

    fn stripe_of(&self, key: u64) -> usize {
        self.hash.bucket(key, self.stripes)
    }

    /// Lookup: 1 parallel I/O unless the location is marked collided.
    pub fn lookup(&mut self, key: u64) -> (Option<Vec<Word>>, OpCost) {
        let scope = self.primary.begin_op();
        let s = self.stripe_of(key);
        let buf = StripedView::new(&mut self.primary).read_stripe(s);
        if buf[1] == SLOT_LIVE && buf[2] == key {
            let payload = buf[3..3 + self.payload_words].to_vec();
            return (Some(payload), self.primary.end_op(scope));
        }
        let primary_cost = self.primary.end_op(scope);
        if buf[0] == MARK_COLLIDED {
            let (found, sec_cost) = self.secondary.lookup(key);
            (found, primary_cost.plus(sec_cost))
        } else {
            (None, primary_cost)
        }
    }

    /// Insert. Average `2 + ɛ` I/Os: collision-free keys write their
    /// stripe; a collision demotes both residents to the secondary.
    pub fn insert(&mut self, key: u64, payload: &[Word]) -> Result<OpCost, FolkloreError> {
        if payload.len() != self.payload_words {
            return Err(FolkloreError::PayloadWidth {
                expected: self.payload_words,
                got: payload.len(),
            });
        }
        let scope = self.primary.begin_op();
        let s = self.stripe_of(key);
        let mut buf = StripedView::new(&mut self.primary).read_stripe(s);
        if buf[1] == SLOT_LIVE && buf[2] == key {
            return Err(FolkloreError::Duplicate(key));
        }
        let outcome: Result<OpCost, FolkloreError>;
        if buf[1] != SLOT_LIVE && buf[0] != MARK_COLLIDED {
            // Free, unmarked: the common case.
            buf[1] = SLOT_LIVE;
            buf[2] = key;
            buf[3..3 + self.payload_words].copy_from_slice(payload);
            StripedView::new(&mut self.primary).write_stripe(s, &buf);
            outcome = Ok(self.primary.end_op(scope));
        } else if buf[0] == MARK_COLLIDED {
            // Already marked: straight to the secondary.
            let primary_cost = self.primary.end_op(scope);
            let sec = self.secondary.insert(key, payload)?;
            outcome = Ok(primary_cost.plus(sec));
        } else {
            // Collision: demote the resident and the new key, mark.
            let old_key = buf[2];
            let old_payload = buf[3..3 + self.payload_words].to_vec();
            buf[0] = MARK_COLLIDED;
            buf[1] = 0;
            StripedView::new(&mut self.primary).write_stripe(s, &buf);
            let primary_cost = self.primary.end_op(scope);
            let c1 = self.secondary.insert(old_key, &old_payload)?;
            let c2 = self.secondary.insert(key, payload)?;
            outcome = Ok(primary_cost.plus(c1).plus(c2));
        }
        if outcome.is_ok() {
            self.len += 1;
        }
        outcome
    }

    /// Delete. Returns whether the key was present.
    pub fn delete(&mut self, key: u64) -> (bool, OpCost) {
        let scope = self.primary.begin_op();
        let s = self.stripe_of(key);
        let mut buf = StripedView::new(&mut self.primary).read_stripe(s);
        if buf[1] == SLOT_LIVE && buf[2] == key {
            buf[1] = 0;
            StripedView::new(&mut self.primary).write_stripe(s, &buf);
            self.len -= 1;
            return (true, self.primary.end_op(scope));
        }
        let primary_cost = self.primary.end_op(scope);
        if buf[0] == MARK_COLLIDED {
            let (was, sec_cost) = self.secondary.delete(key);
            if was {
                self.len -= 1;
            }
            (was, primary_cost.plus(sec_cost))
        } else {
            (false, primary_cost)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict(n: usize, slack: usize) -> FolkloreDict {
        FolkloreDict::new(n, 2, 8, 16, slack, 0xF01)
    }

    #[test]
    fn roundtrip() {
        let mut f = dict(200, 4);
        for k in 0..200u64 {
            f.insert(k * 3 + 1, &[k, k]).unwrap();
        }
        assert_eq!(f.len(), 200);
        for k in 0..200u64 {
            assert_eq!(f.lookup(k * 3 + 1).0, Some(vec![k, k]));
        }
        assert_eq!(f.lookup(0).0, None);
    }

    #[test]
    fn average_lookup_close_to_one() {
        let mut f = dict(500, 8);
        for k in 0..500u64 {
            f.insert(k.wrapping_mul(0x9E3779B97F4A7C15), &[0, 0])
                .unwrap();
        }
        let frac_secondary = f.secondary_len() as f64 / 500.0;
        assert!(
            frac_secondary < 0.25,
            "too many demotions: {frac_secondary}"
        );
        let mut total = 0;
        for k in 0..500u64 {
            total += f.lookup(k.wrapping_mul(0x9E3779B97F4A7C15)).1.parallel_ios;
        }
        let avg = total as f64 / 500.0;
        assert!(avg < 1.5, "average lookup {avg}");
    }

    #[test]
    fn collisions_demote_both_keys() {
        // Tiny primary forces collisions.
        let mut f = dict(64, 2);
        for k in 0..64u64 {
            f.insert(k, &[k, 0]).unwrap();
        }
        assert!(f.secondary_len() > 0, "no collisions at load 1/2?");
        for k in 0..64u64 {
            assert_eq!(f.lookup(k).0, Some(vec![k, 0]), "key {k}");
        }
    }

    #[test]
    fn delete_from_both_layers() {
        let mut f = dict(32, 2);
        for k in 0..32u64 {
            f.insert(k, &[k, 0]).unwrap();
        }
        for k in 0..32u64 {
            let (was, _) = f.delete(k);
            assert!(was, "key {k}");
        }
        assert_eq!(f.len(), 0);
        for k in 0..32u64 {
            assert!(f.lookup(k).0.is_none());
        }
    }

    #[test]
    fn full_bandwidth() {
        let f = dict(4, 2);
        assert_eq!(f.bandwidth_words(), 8 * 16 - 3);
    }

    #[test]
    fn duplicate_detected_in_primary_and_secondary() {
        let mut f = dict(16, 2);
        for k in 0..16u64 {
            f.insert(k, &[0, 0]).unwrap();
        }
        for k in 0..16u64 {
            assert!(matches!(
                f.insert(k, &[0, 0]),
                Err(FolkloreError::Duplicate(_))
            ));
        }
    }
}

//! The byte-budgeted hot-key cache with frequency-gated admission and
//! deterministic eviction.
//!
//! ## Determinism
//!
//! Chaos drills replay bit-identically from their seeds, so the cache
//! must too: no wall clock, no randomized iteration order. Recency is a
//! logical tick (one per access), and the eviction victim is the
//! *smallest `(tick, key)` pair* in a `BTreeSet` — strict LRU with a
//! deterministic key tie-break, identical on every run of the same
//! operation sequence.
//!
//! ## Admission (TinyLFU)
//!
//! A fill is **not** an admission once the budget is spent. While there
//! is room a first touch gets in — an empty cache has no working set to
//! protect, and refusing would only make the second touch pay the
//! dictionary again. When a fill needs a victim, the key gets in only if
//! its sketch estimate has reached [`CacheConfig::admit_threshold`]
//! (displace on observed access count, not first touch) and it is
//! estimated hotter than the LRU victim it would displace. One-hit
//! wonders therefore never wash the working set out of the cache, which
//! is what makes a byte budget behave like a byte budget under scans:
//! scan resistance is about displacement.
//!
//! ## Negative entries
//!
//! A negative entry asserts "this key is absent" and answers misses for
//! free. It may only be created from a *certified* absence (a miss of a
//! lookup window across which `pdm::DiskArray::degraded_reads` did not
//! move: every block the key could live in read cleanly), and any
//! mutation of the key invalidates it.

use crate::sketch::FrequencySketch;
use pdm::Word;
use std::collections::{BTreeSet, HashMap};

/// Bytes charged per resident entry on top of its satellite payload
/// (key + bookkeeping + allocator overhead, a deliberate round number so
/// budgets are easy to reason about). A negative entry costs exactly
/// this.
pub const ENTRY_OVERHEAD_BYTES: usize = 48;

/// Counter family a cache's owner exports its [`CacheCounters`] under:
/// labels `dict` (the owner; the serving engine uses `"serve"`) and `event`
/// (`hit` / `negative_hit` / `miss` / `admit` / `reject` / `evict` /
/// `invalidate`).
pub const CACHE_EVENTS_TOTAL: &str = "cache_events_total";

/// Cache tuning knobs. `Copy` so it can ride inside larger `Copy`
/// configs (e.g. the serving engine's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Capacity in bytes (entry payloads + [`ENTRY_OVERHEAD_BYTES`]
    /// each). The cache never holds more than this.
    pub budget_bytes: usize,
    /// Minimum sketch estimate before a key may displace another (a fill
    /// that fits the free budget is always admitted). 1 is classic LRU;
    /// the default 2 requires a key to be seen twice before it can
    /// displace anything.
    pub admit_threshold: u32,
    /// Whether certified absences are cached (see the module docs).
    pub negative: bool,
    /// Distinct hot keys the frequency sketch is sized for.
    pub sketch_keys: usize,
    /// Seed of the sketch's hash rows.
    pub seed: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget_bytes: 1 << 20,
            admit_threshold: 2,
            negative: true,
            sketch_keys: 8192,
            seed: 0xCAC4_ED00,
        }
    }
}

impl CacheConfig {
    /// Set the byte budget directly.
    ///
    /// # Panics
    /// Panics if `bytes == 0`.
    #[must_use]
    pub fn with_budget_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "cache budget must be positive");
        self.budget_bytes = bytes;
        self
    }

    /// Set the budget as a number of PDM blocks of `block_words` words —
    /// the unit the paper's memory/performance tradeoff is stated in
    /// (spend the RAM equivalent of `blocks` disk blocks on the hot
    /// tail).
    ///
    /// # Panics
    /// Panics if either argument is 0.
    #[must_use]
    pub fn with_budget_blocks(self, blocks: usize, block_words: usize) -> Self {
        assert!(blocks > 0 && block_words > 0, "budget must be positive");
        self.with_budget_bytes(blocks * block_words * std::mem::size_of::<Word>())
    }

    /// Set the admission threshold (sketch estimate a key needs before
    /// it can displace a resident entry).
    ///
    /// # Panics
    /// Panics if `threshold == 0` (0 would admit keys never seen at all).
    #[must_use]
    pub fn with_admit_threshold(mut self, threshold: u32) -> Self {
        assert!(threshold > 0, "admit threshold must be positive");
        self.admit_threshold = threshold;
        self
    }

    /// Toggle negative caching.
    #[must_use]
    pub fn with_negative(mut self, negative: bool) -> Self {
        self.negative = negative;
        self
    }

    /// Size the frequency sketch for `keys` distinct hot keys.
    ///
    /// # Panics
    /// Panics if `keys == 0`.
    #[must_use]
    pub fn with_sketch_keys(mut self, keys: usize) -> Self {
        assert!(keys > 0, "sketch must cover at least one key");
        self.sketch_keys = keys;
        self
    }

    /// Set the sketch hash seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What a [`HotCache::probe`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheAnswer {
    /// The key is resident with this satellite payload.
    Hit(Vec<Word>),
    /// The key is resident as a certified absence.
    NegativeHit,
    /// Not resident — ask the dictionary.
    Miss,
}

/// Monotone event counters (snapshot via [`HotCache::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Probes answered with a resident value.
    pub hits: u64,
    /// Probes answered from a negative entry.
    pub negative_hits: u64,
    /// Probes that fell through to the dictionary.
    pub misses: u64,
    /// Fills admitted into residency.
    pub admitted: u64,
    /// Fills refused by the admission policy (a full cache and a cold key,
    /// or one colder than the victim it would displace).
    pub rejected: u64,
    /// Entries displaced by the byte budget.
    pub evicted: u64,
    /// Entries removed by explicit invalidation (mutations, epoch
    /// changes, recovery).
    pub invalidated: u64,
}

#[derive(Debug)]
struct Entry {
    /// `Some(satellite)` for a resident value, `None` for a certified
    /// absence.
    value: Option<Vec<Word>>,
    charge: usize,
    tick: u64,
}

fn charge_of(value: Option<&[Word]>) -> usize {
    ENTRY_OVERHEAD_BYTES + value.map_or(0, std::mem::size_of_val)
}

/// The cache proper. Single-owner (`&mut self` API) — concurrent tiers
/// wrap one per shard in a mutex, which also serializes the logical
/// clock.
#[derive(Debug)]
pub struct HotCache {
    cfg: CacheConfig,
    sketch: FrequencySketch,
    entries: HashMap<u64, Entry>,
    /// `(tick, key)` recency index; the smallest element is the LRU
    /// victim. Keys appear exactly once (their latest tick).
    recency: BTreeSet<(u64, u64)>,
    used: usize,
    tick: u64,
    counters: CacheCounters,
}

impl HotCache {
    /// An empty cache under `cfg`.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        HotCache {
            sketch: FrequencySketch::new(cfg.sketch_keys, cfg.seed),
            entries: HashMap::new(),
            recency: BTreeSet::new(),
            used: 0,
            tick: 0,
            counters: CacheCounters::default(),
            cfg,
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Resident entries (positive + negative).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently charged against the budget.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Snapshot the event counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    fn touch(&mut self, key: u64, old_tick: u64) -> u64 {
        self.tick += 1;
        self.recency.remove(&(old_tick, key));
        self.recency.insert((self.tick, key));
        self.tick
    }

    /// Look up `key`, recording the access in the frequency sketch (a
    /// miss still counts toward future admission — that is the whole
    /// point of promote-on-frequency).
    pub fn probe(&mut self, key: u64) -> CacheAnswer {
        self.sketch.record(key);
        if let Some(entry) = self.entries.get(&key) {
            let old = entry.tick;
            let answer = match &entry.value {
                Some(v) => CacheAnswer::Hit(v.clone()),
                None => CacheAnswer::NegativeHit,
            };
            let new_tick = self.touch(key, old);
            self.entries.get_mut(&key).expect("entry present").tick = new_tick;
            match answer {
                CacheAnswer::Hit(_) => self.counters.hits += 1,
                CacheAnswer::NegativeHit => self.counters.negative_hits += 1,
                CacheAnswer::Miss => unreachable!(),
            }
            answer
        } else {
            self.counters.misses += 1;
            CacheAnswer::Miss
        }
    }

    /// Offer the dictionary's answer for `key` to the cache.
    ///
    /// `value` is the satellite payload (`None` for a miss);
    /// `certified_absent` must be `true` only for a certified absence
    /// (an `Exact`-provenance miss). Misses that are not certified are
    /// never cached, regardless of [`CacheConfig::negative`]. Returns
    /// whether the key is resident afterwards.
    pub fn fill(&mut self, key: u64, value: Option<&[Word]>, certified_absent: bool) -> bool {
        if value.is_none() && !(self.cfg.negative && certified_absent) {
            return false;
        }
        let charge = charge_of(value);
        // A payload wider than the whole budget can never be resident:
        // refuse it outright, and drop any entry it would have refreshed
        // (the old payload went stale the moment the dictionary answered
        // with the new one). Letting the refresh path below handle it
        // would shed every *other* entry and still end over budget.
        if charge > self.cfg.budget_bytes {
            self.invalidate(key);
            self.counters.rejected += 1;
            return false;
        }
        if let Some(entry) = self.entries.get(&key) {
            // Already resident: refresh the payload in place (the
            // dictionary's answer is fresher than ours by construction —
            // fills only come from reads ordered after our last
            // invalidation).
            let old_tick = entry.tick;
            let old_charge = entry.charge;
            let new_tick = self.touch(key, old_tick);
            let entry = self.entries.get_mut(&key).expect("entry present");
            entry.value = value.map(<[Word]>::to_vec);
            entry.charge = charge;
            entry.tick = new_tick;
            self.used = self.used - old_charge + charge;
            // An in-place refresh can overshoot the budget when the new
            // payload is wider; shed LRU entries (never the refreshed
            // key — it was just touched, so it is the newest).
            self.shed_to_budget(key);
            return true;
        }
        // With room the candidate is admitted as it is. Else evict until
        // it fits, but only if it has been seen often enough, and only
        // past victims it beats on estimated frequency — otherwise refuse
        // the candidate and keep the warmer working set.
        let estimate = self.sketch.estimate(key);
        while self.used + charge > self.cfg.budget_bytes {
            let &(victim_tick, victim_key) = self.recency.first().expect("over budget ⇒ nonempty");
            if estimate < self.cfg.admit_threshold || self.sketch.estimate(victim_key) >= estimate {
                self.counters.rejected += 1;
                return false;
            }
            self.remove_entry(victim_key, victim_tick);
            self.counters.evicted += 1;
        }
        self.tick += 1;
        self.recency.insert((self.tick, key));
        self.entries.insert(
            key,
            Entry {
                value: value.map(<[Word]>::to_vec),
                charge,
                tick: self.tick,
            },
        );
        self.used += charge;
        self.counters.admitted += 1;
        true
    }

    /// Evict LRU entries (skipping `keep`) until the budget holds.
    fn shed_to_budget(&mut self, keep: u64) {
        while self.used > self.cfg.budget_bytes {
            let Some(&(tick, key)) = self.recency.iter().find(|&&(_, k)| k != keep) else {
                return;
            };
            self.remove_entry(key, tick);
            self.counters.evicted += 1;
        }
    }

    fn remove_entry(&mut self, key: u64, tick: u64) {
        let entry = self.entries.remove(&key).expect("indexed entry exists");
        debug_assert_eq!(entry.tick, tick);
        self.recency.remove(&(tick, key));
        self.used -= entry.charge;
    }

    /// Drop `key` (positive or negative). Every mutation of a key must
    /// call this *before* the mutation is acknowledged — the
    /// invalidate-before-ack ordering is what keeps acked-⊆-journaled
    /// fidelity intact above the cache. Returns whether it was resident.
    pub fn invalidate(&mut self, key: u64) -> bool {
        if let Some(entry) = self.entries.get(&key) {
            let tick = entry.tick;
            self.remove_entry(key, tick);
            self.counters.invalidated += 1;
            true
        } else {
            false
        }
    }

    /// Drop everything (recovery, epoch change). The frequency sketch
    /// survives — popularity is not staleness.
    pub fn clear(&mut self) {
        self.counters.invalidated += self.entries.len() as u64;
        self.entries.clear();
        self.recency.clear();
        self.used = 0;
    }

    /// Direct sketch access for overhead measurement (the bench gates
    /// record cost against dictionary op cost).
    pub fn sketch_mut(&mut self) -> &mut FrequencySketch {
        &mut self.sketch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::default()
            .with_budget_bytes(4 * ENTRY_OVERHEAD_BYTES + 64)
            .with_admit_threshold(2)
            .with_sketch_keys(64)
    }

    /// Probe until `key` is hot enough to admit, then fill.
    fn warm_fill(cache: &mut HotCache, key: u64, value: &[Word]) {
        for _ in 0..3 {
            let _ = cache.probe(key);
        }
        assert!(cache.fill(key, Some(value), false), "fill of warmed key");
    }

    #[test]
    fn a_first_touch_is_admitted_while_there_is_room() {
        let mut c = HotCache::new(cfg());
        assert_eq!(c.probe(7), CacheAnswer::Miss);
        // One observation < threshold 2, but nothing has to make way.
        assert!(c.fill(7, Some(&[1]), false));
        assert_eq!(c.probe(7), CacheAnswer::Hit(vec![1]));
        assert_eq!((c.counters().rejected, c.counters().admitted, c.counters().evicted), (0, 1, 0));
    }

    #[test]
    fn a_first_touch_cannot_displace_once_the_cache_is_full() {
        let mut c = HotCache::new(cfg());
        for key in 0..4 {
            assert_eq!(c.probe(key), CacheAnswer::Miss);
            assert!(c.fill(key, Some(&[key]), false), "room for four");
        }
        // Full. One observation < threshold 2: the fill is refused even
        // though the victim was seen no more often.
        assert_eq!(c.probe(7), CacheAnswer::Miss);
        assert!(!c.fill(7, Some(&[1]), false));
        assert_eq!(c.probe(7), CacheAnswer::Miss);
        // A third observation reaches the threshold and beats the victim.
        assert!(c.fill(7, Some(&[1]), false));
        assert_eq!(c.probe(7), CacheAnswer::Hit(vec![1]));
        assert_eq!(c.probe(0), CacheAnswer::Miss, "the LRU entry made way");
        assert_eq!((c.counters().rejected, c.counters().admitted, c.counters().evicted), (1, 5, 1));
    }

    #[test]
    fn oversized_refresh_invalidates_instead_of_shedding() {
        let mut c = HotCache::new(cfg());
        for key in 0..4 {
            warm_fill(&mut c, key, &[key]);
        }
        assert_eq!(c.len(), 4);
        // Refresh key 0 with a payload wider than the entire budget: the
        // fill is refused and key 0 (whose old payload is now stale) is
        // dropped — the other residents survive and the budget holds.
        let huge = vec![0 as Word; 1024];
        assert!(!c.fill(0, Some(&huge), false));
        assert_eq!(c.probe(0), CacheAnswer::Miss, "stale entry invalidated");
        for key in 1..4 {
            assert_eq!(
                c.probe(key),
                CacheAnswer::Hit(vec![key]),
                "other residents must not be shed for an unadmittable payload"
            );
        }
        assert!(c.used_bytes() <= c.config().budget_bytes);
        assert_eq!(c.counters().invalidated, 1);
    }

    #[test]
    fn uncertified_miss_is_never_cached() {
        let mut c = HotCache::new(cfg());
        for _ in 0..5 {
            let _ = c.probe(9);
        }
        assert!(!c.fill(9, None, false), "uncertified absence refused");
        assert!(c.fill(9, None, true), "certified absence cached");
        assert_eq!(c.probe(9), CacheAnswer::NegativeHit);
    }

    #[test]
    fn negative_caching_can_be_disabled() {
        let mut c = HotCache::new(cfg().with_negative(false));
        for _ in 0..5 {
            let _ = c.probe(9);
        }
        assert!(!c.fill(9, None, true));
        assert_eq!(c.probe(9), CacheAnswer::Miss);
    }

    #[test]
    fn budget_is_enforced_and_eviction_is_lru() {
        let mut c = HotCache::new(cfg());
        // Budget fits 4 negative-sized entries plus one word of slack.
        for key in 0..4 {
            warm_fill(&mut c, key, &[key]);
        }
        assert_eq!(c.len(), 4);
        assert!(c.used_bytes() <= c.config().budget_bytes);
        // Key 0 is LRU. A hotter new key evicts exactly it.
        for _ in 0..8 {
            let _ = c.probe(100);
        }
        assert!(c.fill(100, Some(&[100]), false));
        assert_eq!(c.probe(0), CacheAnswer::Miss, "LRU victim evicted");
        assert_eq!(c.probe(100), CacheAnswer::Hit(vec![100]));
        assert!(c.used_bytes() <= c.config().budget_bytes);
        assert!(c.counters().evicted >= 1);
    }

    #[test]
    fn colder_candidate_cannot_displace_warmer_victims() {
        let mut c = HotCache::new(cfg());
        for key in 0..4 {
            for _ in 0..10 {
                let _ = c.probe(key);
            }
            assert!(c.fill(key, Some(&[key]), false));
        }
        // A key seen exactly twice meets the threshold but is colder
        // than every resident: the fill must be refused, nothing evicted.
        let _ = c.probe(50);
        let _ = c.probe(50);
        let evicted_before = c.counters().evicted;
        assert!(!c.fill(50, Some(&[50]), false));
        assert_eq!(c.counters().evicted, evicted_before);
        for key in 0..4 {
            assert!(matches!(c.probe(key), CacheAnswer::Hit(_)));
        }
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = HotCache::new(cfg());
        warm_fill(&mut c, 3, &[3]);
        assert!(c.invalidate(3));
        assert!(!c.invalidate(3));
        assert_eq!(c.probe(3), CacheAnswer::Miss);
        assert_eq!(c.counters().invalidated, 1);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_popularity() {
        let mut c = HotCache::new(cfg());
        warm_fill(&mut c, 3, &[3]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        // Popularity survived: an immediate refill is admitted.
        assert!(c.fill(3, Some(&[3]), false));
    }

    #[test]
    fn in_place_refresh_updates_value_and_budget() {
        let mut c = HotCache::new(cfg());
        warm_fill(&mut c, 3, &[3]);
        let used = c.used_bytes();
        assert!(c.fill(3, Some(&[3, 4, 5]), false));
        assert_eq!(c.probe(3), CacheAnswer::Hit(vec![3, 4, 5]));
        assert!(c.used_bytes() > used);
        assert!(c.used_bytes() <= c.config().budget_bytes);
    }

    #[test]
    fn oversized_entry_is_refused_outright() {
        let mut c = HotCache::new(cfg());
        let huge = vec![0u64; 1024];
        for _ in 0..5 {
            let _ = c.probe(1);
        }
        assert!(!c.fill(1, Some(&huge), false));
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c = HotCache::new(cfg());
            let mut evictions = Vec::new();
            for key in 0..32 {
                for _ in 0..(3 + key % 5) {
                    let _ = c.probe(key);
                }
                let _ = c.fill(key, Some(&[key]), false);
                evictions.push(c.counters().evicted);
            }
            let mut resident: Vec<u64> = (0..32)
                .filter(|&k| c.entries.contains_key(&k))
                .collect();
            resident.sort_unstable();
            (evictions, resident)
        };
        assert_eq!(run(), run(), "replays must be bit-identical");
    }
}

//! The operation stream and the model its replies are checked against.
//!
//! Everything here is a pure function of `(seed, caller, operation index)`:
//! the product sees only the generated keys, and two runs of one seed issue
//! the same operations in the same order per caller, whatever their timing.
//!
//! Each caller owns a family of keys nobody else touches, indexed `0, 1, 2…`.
//! Index `i` maps to a key through a bijection on 38 bits, so distinct
//! indices never collide. A caller's live keys are the *protected* prefix
//! `[0, protected)` (never deleted) plus the window `[oldest, newest)`:
//! "insert-new" takes index `newest`, "delete-oldest" takes index `oldest`.
//! The model is therefore three counters, and any reply can be checked
//! without a table of the key set.

use bench::workloads::ZipfStream;
use expander::mix::{mix64, SplitMix64};
use pdm::Word;

/// Key universe of every dictionary the benchmark builds.
pub const UNIVERSE: u64 = 1 << 40;
/// Satellite words per key.
pub const SATELLITE_WORDS: usize = 2;
/// Bytes of user data in one acknowledged insert (key + satellite).
pub const INSERT_USER_BYTES: u64 = 8 * (1 + SATELLITE_WORDS as u64);
/// Bytes of user data in one acknowledged delete (the key).
pub const DELETE_USER_BYTES: u64 = 8;

const LOW_BITS: u32 = 38;
const LOW_MASK: u64 = (1 << LOW_BITS) - 1;
/// Key family of keys that are never inserted; the families below it belong
/// to the callers.
const FAMILY_ABSENT: u64 = 2;
/// Key family of the small set of absent keys `engine_hot` asks for often.
const FAMILY_HOT_ABSENT: u64 = 3;
/// How far back among deleted keys an "absent" lookup reaches.
const DELETED_REACH: u64 = 1024;
/// Operations per caller folded into the stream hash.
pub const HASHED_OPS: u64 = 1024;

/// A bijection on 38-bit values: odd multiplications and xor-shifts, each
/// invertible modulo 2^38.
fn perm38(mut x: u64) -> u64 {
    x &= LOW_MASK;
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & LOW_MASK;
    x ^= x >> 19;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & LOW_MASK;
    x ^= x >> 19;
    x
}

/// Maps `(family, index)` to a key below [`UNIVERSE`], keyed by the seed.
#[derive(Debug, Clone, Copy)]
pub struct Keyspace {
    offsets: [u64; 4],
}

impl Keyspace {
    pub fn new(seed: u64) -> Self {
        let mut offsets = [0; 4];
        for (family, o) in offsets.iter_mut().enumerate() {
            *o = mix64(seed ^ (family as u64) << 56) & LOW_MASK;
        }
        Keyspace { offsets }
    }

    pub fn key(&self, family: u64, idx: u64) -> u64 {
        (family << LOW_BITS) | perm38(idx.wrapping_add(self.offsets[family as usize]))
    }
}

/// The satellite stored with `key` when it was inserted as index `idx`:
/// `f(key, version)` with the insertion index as the version.
pub fn satellite(key: u64, idx: u64) -> [Word; SATELLITE_WORDS] {
    [mix64(key ^ 0x5A7E_111E), idx]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Insert,
    Delete,
}

/// What a workload's stream looks like; the same for every caller.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Operation kinds, repeated: operation `i` has kind `pattern[i % len]`.
    pub pattern: Vec<Kind>,
    /// Every `absent_every`-th lookup asks for a key that is not there
    /// (alternately one never inserted and one deleted earlier); 0 for none.
    pub absent_every: u64,
    /// `Some(n)`: the absent lookups go to `n` fixed absent keys instead.
    pub hot_absent: Option<u64>,
    /// `Some(theta)`: present-key lookups follow Zipf(theta) over the
    /// preloaded keys of *all* callers, ranked alike for every caller, so the
    /// callers share one hot set (the preload must be protected: a key
    /// another caller may delete cannot be checked). Ranks go round the
    /// shards in turn, so the hot mass splits over them alike for every seed.
    /// `None`: uniform over the caller's own live keys.
    pub zipf_theta: Option<f64>,
    /// Whether the preloaded keys are protected from "delete-oldest", which
    /// then only removes keys the run itself inserted.
    pub protect_preload: bool,
}

impl StreamSpec {
    /// `lookups : inserts : deletes` per period, spread evenly.
    pub fn mixed(period: usize, inserts: usize, deletes: usize) -> Vec<Kind> {
        let mut pattern = vec![Kind::Lookup; period];
        for j in 0..inserts {
            pattern[(2 * j + 1) * period / (2 * inserts) % period] = Kind::Insert;
        }
        for j in 0..deletes {
            // Offset by a quarter period so deletes do not land on inserts.
            let at = ((2 * j + 1) * period / (2 * deletes) + period / 4) % period;
            let at = (at..period)
                .chain(0..at)
                .find(|&p| pattern[p] == Kind::Lookup);
            pattern[at.expect("pattern has room for the deletes")] = Kind::Delete;
        }
        pattern
    }
}

/// One generated operation and what its reply must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOp {
    pub kind: Kind,
    pub key: u64,
    /// Index of the key in its family (the satellite's version word).
    pub idx: u64,
    /// For lookups: whether the key is live.
    pub present: bool,
}

impl GenOp {
    pub fn satellite(&self) -> [Word; SATELLITE_WORDS] {
        satellite(self.key, self.idx)
    }

    /// Whether a lookup reply matches the model.
    pub fn lookup_ok(&self, got: Option<&[Word]>) -> bool {
        match (self.present, got) {
            (true, Some(words)) => words == self.satellite(),
            (false, None) => true,
            _ => false,
        }
    }
}

/// The shared hot set of a Zipf stream.
struct HotSet {
    /// Draws positions of a seed-shuffled list; `rank_of` undoes the shuffle.
    draws: ZipfStream,
    rank_of: Vec<u32>,
    /// `(family, index)` of the preloaded key at each rank.
    ranked: Vec<(u64, u64)>,
}

impl HotSet {
    /// Rank the `preloaded` keys of each caller, taking the shards in turn:
    /// rank `r` is a key of shard `r % shards` while that shard has keys left.
    fn new(
        seed: u64,
        family: u64,
        theta: f64,
        keys: &Keyspace,
        preloaded: u64,
        shards: usize,
        shard_of: &dyn Fn(u64) -> usize,
    ) -> Self {
        let mut by_shard: Vec<std::collections::VecDeque<(u64, u64)>> =
            vec![Default::default(); shards];
        for idx in 0..preloaded {
            for owner in 0..FAMILY_ABSENT {
                by_shard[shard_of(keys.key(owner, idx))].push_back((owner, idx));
            }
        }
        let total = (preloaded * FAMILY_ABSENT) as usize;
        let mut ranked = Vec::with_capacity(total);
        while ranked.len() < total {
            ranked.extend(by_shard.iter_mut().filter_map(|s| s.pop_front()));
        }
        // One ranking for all callers, one draw sequence each.
        let positions: Vec<u64> = (0..total as u64).collect();
        let draws = ZipfStream::new(&positions, theta, mix64(seed ^ 0x21FF))
            .with_draws(mix64(seed ^ 0xD4A3 ^ family));
        let mut rank_of = vec![0; total];
        for (rank, &position) in draws.hot_keys(total).iter().enumerate() {
            rank_of[position as usize] = rank as u32;
        }
        HotSet {
            draws,
            rank_of,
            ranked,
        }
    }

    fn next(&mut self) -> (u64, u64) {
        self.ranked[self.rank_of[self.draws.next_key() as usize] as usize]
    }
}

/// One caller's stream and model.
pub struct CallerStream {
    keys: Keyspace,
    family: u64,
    spec: StreamSpec,
    rng: SplitMix64,
    zipf: Option<HotSet>,
    protected: u64,
    oldest: u64,
    newest: u64,
    pending_inserts: u64,
    pending_deletes: u64,
    op_index: u64,
    lookups: u64,
    insert_budget: u64,
    budget_exhausted: bool,
    hash: u64,
    /// Acknowledged inserts and deletes, for the write-volume metric.
    pub acked_inserts: u64,
    pub acked_deletes: u64,
}

impl CallerStream {
    /// Stream of caller `caller` over `preloaded` keys already present, with
    /// room for `insert_budget` further inserts. `shard_of` is the route of
    /// the stack's `shards` shards; only a Zipf stream asks it.
    pub fn new(
        seed: u64,
        caller: usize,
        spec: StreamSpec,
        preloaded: u64,
        insert_budget: u64,
        shards: usize,
        shard_of: &dyn Fn(u64) -> usize,
    ) -> Self {
        let keys = Keyspace::new(seed);
        let family = caller as u64;
        assert!(
            family < FAMILY_ABSENT,
            "at most two callers own key families"
        );
        let zipf = spec.zipf_theta.map(|theta| {
            assert!(
                spec.protect_preload,
                "a shared hot set needs a protected preload"
            );
            HotSet::new(seed, family, theta, &keys, preloaded, shards, shard_of)
        });
        let protected = if spec.protect_preload { preloaded } else { 0 };
        CallerStream {
            keys,
            family,
            rng: SplitMix64::new(mix64(seed ^ 0xCA11_E400 ^ family)),
            zipf,
            protected,
            oldest: protected,
            newest: preloaded,
            pending_inserts: 0,
            pending_deletes: 0,
            op_index: 0,
            lookups: 0,
            insert_budget,
            budget_exhausted: false,
            hash: mix64(seed ^ family),
            acked_inserts: 0,
            acked_deletes: 0,
            spec,
        }
    }

    /// The keys to load before the run, with their satellites.
    pub fn preload(seed: u64, caller: usize, count: u64) -> impl Iterator<Item = (u64, Vec<Word>)> {
        let keys = Keyspace::new(seed);
        (0..count).map(move |idx| {
            let key = keys.key(caller as u64, idx);
            (key, satellite(key, idx).to_vec())
        })
    }

    /// Generate the next `n` operations, which may all be in flight at once:
    /// no lookup among them targets a key the same window inserts or deletes.
    /// Call [`commit`](Self::commit) once all of them are acknowledged.
    pub fn next_window(&mut self, n: usize, out: &mut Vec<GenOp>) {
        assert_eq!(
            self.pending_inserts + self.pending_deletes,
            0,
            "previous window not committed"
        );
        out.clear();
        let plen = self.spec.pattern.len() as u64;
        // Lookups stay clear of every index this window may delete.
        let guard = (0..n as u64)
            .filter(|j| self.spec.pattern[((self.op_index + j) % plen) as usize] == Kind::Delete)
            .count() as u64;
        for j in 0..n as u64 {
            let mut kind = self.spec.pattern[((self.op_index + j) % plen) as usize];
            if kind == Kind::Insert && self.insert_budget == 0 {
                self.budget_exhausted = true;
            }
            // Out of room for inserts: stop deleting too, so the live set
            // keeps its size; and never delete what is not acknowledged.
            if self.budget_exhausted
                || (kind == Kind::Delete && self.oldest + self.pending_deletes >= self.newest)
            {
                kind = Kind::Lookup;
            }
            let op = match kind {
                Kind::Insert => {
                    let idx = self.newest + self.pending_inserts;
                    self.pending_inserts += 1;
                    self.insert_budget -= 1;
                    self.op(kind, self.family, idx, true)
                }
                Kind::Delete => {
                    let idx = self.oldest + self.pending_deletes;
                    self.pending_deletes += 1;
                    self.op(kind, self.family, idx, true)
                }
                Kind::Lookup => self.lookup(guard),
            };
            if self.op_index + j < HASHED_OPS {
                self.hash = mix64(self.hash ^ op.key ^ (op.kind as u64) << 60);
            }
            out.push(op);
        }
        self.op_index += n as u64;
    }

    fn op(&self, kind: Kind, family: u64, idx: u64, present: bool) -> GenOp {
        GenOp {
            kind,
            key: self.keys.key(family, idx),
            idx,
            present,
        }
    }

    fn lookup(&mut self, guard: u64) -> GenOp {
        let nth = self.lookups;
        self.lookups += 1;
        let absent_turn = self.spec.absent_every > 0
            && nth % self.spec.absent_every == self.spec.absent_every - 1;
        let window = (self.newest - self.oldest).saturating_sub(guard);
        let live = self.protected + window;
        if absent_turn || live == 0 {
            if let Some(hot) = self.spec.hot_absent {
                let idx = self.rng.below(hot);
                return self.op(Kind::Lookup, FAMILY_HOT_ABSENT, idx, false);
            }
            let deleted = self.oldest - self.protected;
            if (nth / self.spec.absent_every.max(1)) % 2 == 1 && deleted > 0 {
                let idx = self.oldest - 1 - self.rng.below(deleted.min(DELETED_REACH));
                return self.op(Kind::Lookup, self.family, idx, false);
            }
            let idx = self.rng.below(1 << 30);
            return self.op(Kind::Lookup, FAMILY_ABSENT, idx, false);
        }
        if let Some(zipf) = &mut self.zipf {
            let (owner, idx) = zipf.next();
            return self.op(Kind::Lookup, owner, idx, true);
        }
        let r = self.rng.below(live);
        let idx = if r < self.protected {
            r
        } else {
            self.oldest + guard + (r - self.protected)
        };
        self.op(Kind::Lookup, self.family, idx, true)
    }

    /// The window's inserts and deletes were all acknowledged.
    pub fn commit(&mut self) {
        self.newest += self.pending_inserts;
        self.oldest += self.pending_deletes;
        self.acked_inserts += self.pending_inserts;
        self.acked_deletes += self.pending_deletes;
        self.pending_inserts = 0;
        self.pending_deletes = 0;
    }

    /// Indices of this caller's live keys: the protected prefix and the
    /// window.
    pub fn live_indices(&self) -> impl Iterator<Item = u64> {
        (0..self.protected).chain(self.oldest..self.newest)
    }

    /// Indices this caller deleted (acknowledged).
    pub fn deleted_indices(&self) -> std::ops::Range<u64> {
        self.protected..self.oldest
    }

    pub fn key_of(&self, idx: u64) -> u64 {
        self.keys.key(self.family, idx)
    }

    pub fn live_count(&self) -> u64 {
        self.protected + (self.newest - self.oldest)
    }

    /// Hash of the first [`HASHED_OPS`] operations issued.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Operations generated so far.
    pub fn issued(&self) -> u64 {
        self.op_index
    }

    pub fn hashed_ops(&self) -> u64 {
        self.op_index.min(HASHED_OPS)
    }

    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn uniform_spec() -> StreamSpec {
        StreamSpec {
            pattern: StreamSpec::mixed(10, 1, 1),
            absent_every: 10,
            hot_absent: None,
            zipf_theta: None,
            protect_preload: false,
        }
    }

    #[test]
    fn keys_are_distinct_and_in_the_universe() {
        let ks = Keyspace::new(42);
        let mut seen = HashSet::new();
        for family in 0..4 {
            for idx in 0..20_000 {
                let key = ks.key(family, idx);
                assert!(key < UNIVERSE);
                assert!(seen.insert(key));
            }
        }
    }

    #[test]
    fn pattern_has_the_asked_shares() {
        let count = |p: &[Kind], k| p.iter().filter(|&&x| x == k).count();
        let p = StreamSpec::mixed(10, 1, 1);
        assert_eq!((count(&p, Kind::Insert), count(&p, Kind::Delete)), (1, 1));
        let p = StreamSpec::mixed(5, 2, 2);
        assert_eq!(
            (
                count(&p, Kind::Insert),
                count(&p, Kind::Delete),
                count(&p, Kind::Lookup)
            ),
            (2, 2, 1)
        );
        let p = StreamSpec::mixed(2048, 1, 1);
        assert_eq!((count(&p, Kind::Insert), count(&p, Kind::Delete)), (1, 1));
    }

    fn issue(stream: &mut CallerStream, windows: usize, width: usize) -> Vec<GenOp> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..windows {
            stream.next_window(width, &mut buf);
            stream.commit();
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let run = |seed, width| {
            let mut s = CallerStream::new(seed, 0, uniform_spec(), 1000, 10_000, 1, &|_| 0);
            let ops = issue(&mut s, 4096 / width, width);
            (ops, s.hash())
        };
        let (a, ha) = run(7, 1);
        let (b, hb) = run(7, 1);
        assert_eq!(a, b);
        assert_eq!(ha, hb);
        let (c, hc) = run(8, 1);
        assert_ne!(a, c);
        assert_ne!(ha, hc);
        // Callers of one seed own different keys.
        let mut other = CallerStream::new(7, 1, uniform_spec(), 1000, 10_000, 1, &|_| 0);
        let d = issue(&mut other, 4096, 1);
        let keys = |ops: &[GenOp]| {
            ops.iter()
                .filter(|o| o.present)
                .map(|o| o.key)
                .collect::<HashSet<_>>()
        };
        assert!(keys(&a).is_disjoint(&keys(&d)));
    }

    /// Replay a stream against a plain set: every expectation the stream
    /// states must hold, also when a whole window is applied in the engine's
    /// order (inserts, then deletes, then lookups).
    #[test]
    fn expectations_hold_against_a_set_model() {
        for (width, protect) in [(1usize, false), (128, false), (64, true)] {
            let mut spec = uniform_spec();
            spec.protect_preload = protect;
            spec.pattern = StreamSpec::mixed(5, 2, 2);
            let mut s = CallerStream::new(3, 1, spec, 500, 100_000, 1, &|_| 0);
            let mut live: HashSet<u64> = CallerStream::preload(3, 1, 500).map(|(k, _)| k).collect();
            let mut buf = Vec::new();
            for _ in 0..200 {
                s.next_window(width, &mut buf);
                for op in buf.iter().filter(|o| o.kind == Kind::Insert) {
                    assert!(live.insert(op.key), "insert of a live key");
                }
                for op in buf.iter().filter(|o| o.kind == Kind::Delete) {
                    assert!(live.remove(&op.key), "delete of an absent key");
                }
                for op in buf.iter().filter(|o| o.kind == Kind::Lookup) {
                    assert_eq!(live.contains(&op.key), op.present);
                }
                s.commit();
            }
            assert_eq!(live.len() as u64, s.live_count());
            let by_index: HashSet<u64> = s.live_indices().map(|i| s.key_of(i)).collect();
            assert_eq!(by_index, live);
            assert!(s.deleted_indices().all(|i| !live.contains(&s.key_of(i))));
        }
    }

    #[test]
    fn exhausted_budget_turns_updates_into_lookups() {
        let mut s = CallerStream::new(1, 0, uniform_spec(), 100, 3, 1, &|_| 0);
        let ops = issue(&mut s, 200, 1);
        assert_eq!(ops.iter().filter(|o| o.kind == Kind::Insert).count(), 3);
        assert!(s.budget_exhausted());
        assert_eq!(s.live_count(), 100);
        assert!(ops[100..].iter().all(|o| o.kind == Kind::Lookup));
    }

    #[test]
    fn zipf_head_mass_matches_the_analytic_law() {
        let mut spec = uniform_spec();
        spec.zipf_theta = Some(1.8);
        spec.absent_every = 0;
        spec.pattern = vec![Kind::Lookup];
        spec.protect_preload = true;
        let n = 4096;
        let shard_of = |key: u64| (key % 2) as usize;
        let mut s = CallerStream::new(11, 0, spec, n, 0, 2, &shard_of);
        let (law, ranked) = {
            let hot = s.zipf.as_ref().expect("zipf stream");
            (hot.draws.clone(), hot.ranked.clone())
        };
        let keys = Keyspace::new(11);
        let hot: Vec<u64> = ranked[..16].iter().map(|&(f, i)| keys.key(f, i)).collect();
        // The ranks go round the shards in turn.
        assert!(hot.iter().enumerate().all(|(r, &k)| shard_of(k) == r % 2));
        let hot: HashSet<u64> = hot.into_iter().collect();
        let ops = issue(&mut s, 100_000, 1);
        let in_head = ops.iter().filter(|o| hot.contains(&o.key)).count() as f64;
        let measured = in_head / ops.len() as f64;
        assert!(
            (measured - law.head_mass(16)).abs() < 0.01,
            "measured {measured}, analytic {}",
            law.head_mass(16)
        );
    }

    #[test]
    fn lookup_check_compares_both_satellite_words() {
        let op = GenOp {
            kind: Kind::Lookup,
            key: 77,
            idx: 5,
            present: true,
        };
        assert!(op.lookup_ok(Some(&satellite(77, 5))));
        assert!(!op.lookup_ok(Some(&satellite(77, 6))));
        assert!(!op.lookup_ok(None));
        let gone = GenOp {
            present: false,
            ..op
        };
        assert!(gone.lookup_ok(None));
        assert!(!gone.lookup_ok(Some(&satellite(77, 5))));
    }
}

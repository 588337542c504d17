//! The hot-key cache tier must be **invisible**: switching it on in a
//! [`ServeEngine`] may change costs, never answers. Three angles:
//!
//! 1. **Differential, every front-end** (proptest): a cache-on engine, a
//!    cache-off engine and a plain twin dictionary, each over a shard built
//!    from the same entries and seed, run the same generated mixed stream —
//!    single synchronous operations (repeated lookups so hits and negative
//!    hits actually occur, inserts, deletes) and pipelined pools held into
//!    one window, so `lookup_batch` / `insert_batch` / `delete_batch` calls
//!    of many keys occur. Every reply and every error must match, under an
//!    aggressive config (admit on first touch, tiny budget, so admission
//!    *and* eviction churn — asserted, not hoped) and under the default.
//! 2. **Crash points**: a warmed engine over the journaled dynamic front
//!    is cut at *every* physical write of a mutation workload. The crashed
//!    shard's cache must be empty, and after the reboot (journal
//!    superblock re-read from the image alone) and [`Dict::recover`], a
//!    successor engine with the cache on must agree with a cache-less
//!    reopen of the same image on every lookup, twice (the second pass
//!    reads through the refilled cache). No crash point may yield a stale
//!    hit: not the pre-crash value of a cut mutation, not a negatively
//!    cached absence for a key whose insert landed.
//! 3. **Engine level**: a [`ServeEngine`] with the cache tier enabled
//!    answers a deterministic client stream reply-for-reply identically
//!    to a cache-off engine, while actually serving from the cache
//!    (hits > 0).

mod harness;

use harness::{dense_keys, front, fronts, sat, ShardProbe, KEY_SPACE};
use pdm::{FaultPlan, Word};
use pdm_cache::{CacheConfig, CacheCounters};
use pdm_dict::Dict;
use pdm_server::scheduler::OpResult;
use pdm_server::{DictClient, EngineConfig, Op, Reply, ServeEngine, ServeError};
use proptest::prelude::*;

/// Aggressive cache shape: first-touch admission, a budget smaller than
/// the smallest generated key pool (evictions), tiny sketch (aging kicks
/// in). Maximizes cache state churn per test case.
fn churn_config() -> CacheConfig {
    CacheConfig::default()
        .with_admit_threshold(1)
        .with_budget_bytes(512)
        .with_sketch_keys(64)
}

/// One generated step over the key pool (index is resolved mod pool).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Look the key up twice — the repeat is what cache hits are made of.
    Lookup(usize),
    Insert(usize),
    Delete(usize),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0usize..64).prop_map(Step::Lookup),
            1 => (0usize..64).prop_map(Step::Insert),
            1 => (0usize..64).prop_map(Step::Delete),
        ],
        30..90,
    )
}

fn key_set() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::hash_set(0u64..KEY_SPACE, 8..24).prop_map(|s| {
        let mut v: Vec<u64> = s.into_iter().collect();
        v.sort_unstable();
        v
    })
}

/// `op` on a bare dictionary, as the reply an engine would give for it.
fn apply(dict: &mut dyn Dict, op: &Op) -> OpResult {
    match op {
        Op::Lookup(k) => Ok(Reply::Lookup(dict.lookup(*k).satellite)),
        Op::Insert(k, s) => dict.insert(*k, s).map(|_| Reply::Inserted).map_err(ServeError::Dict),
        Op::Delete(k) => dict.delete(*k).map(|(was, _)| Reply::Deleted(was)).map_err(ServeError::Dict),
    }
}

/// A one-shard engine over a probed shard.
struct Served {
    engine: ServeEngine,
    client: DictClient,
    probe: ShardProbe,
}

impl Served {
    fn new(shard: Box<dyn Dict + Send>, cache: Option<CacheConfig>) -> Self {
        let probe = ShardProbe::new();
        let cfg = EngineConfig::default().with_deadline(std::time::Duration::from_secs(60));
        let engine = ServeEngine::new(
            vec![probe.wrap(shard)],
            cache.map_or(cfg, |c| cfg.with_cache(c)),
        );
        Served { client: engine.client(), engine, probe }
    }

    /// One synchronous operation.
    fn one(&self, op: &Op) -> OpResult {
        self.client.submit(op.clone()).and_then(|p| p.wait())
    }
}

/// Entries a cache holds, from its counters: an entry arrives by admission
/// and leaves by eviction or invalidation.
fn resident(c: CacheCounters) -> u64 {
    c.admitted - c.evicted - c.invalidated
}

/// The three parties of the differential: a cache-on engine, a cache-off
/// engine and a plain twin, each over a shard built alike.
struct Trio<'f> {
    f: &'f harness::Front,
    plain: Box<dyn Dict + Send>,
    on: Served,
    off: Served,
    /// The key a held worker looks up: a new one every time, so never
    /// cached.
    decoy: u64,
}

impl Trio<'_> {
    /// `op`, synchronously, on all three: the twin's reply is the
    /// engines'.
    fn one(&mut self, op: Op) -> Result<(), TestCaseError> {
        let want = apply(self.plain.as_mut(), &op);
        prop_assert_eq!(self.on.one(&op), want.clone(), "cache-on {:?} on {}", op, self.f.name);
        prop_assert_eq!(self.off.one(&op), want, "cache-off {:?} on {}", op, self.f.name);
        Ok(())
    }

    /// A pool of one kind of operation over distinct keys, pipelined into
    /// one window of each engine: order-independent, so the twin's one
    /// call per key predicts every reply.
    fn window(&mut self, ops: Vec<Op>, call: &'static str) -> Result<(), TestCaseError> {
        let want: Vec<OpResult> = ops.iter().map(|op| apply(self.plain.as_mut(), op)).collect();
        for (served, name) in [(&self.on, "on"), (&self.off, "off")] {
            self.decoy += 1;
            let got = served.probe.one_window(&served.client, self.decoy, ops.clone());
            prop_assert_eq!(&got, &want, "cache-{} {} window diverged on {}", name, call, self.f.name);
        }
        // Without a cache to answer any of it, the pool was one call.
        let last = self.off.probe.calls.lock().unwrap().last().copied();
        prop_assert_eq!(last, Some((call, ops.len())));
        Ok(())
    }
}

/// Run `steps` against the [`Trio`]; every reply must match. `keys` are
/// preloaded; the pool adds as many fresh keys (insert targets / certified
/// misses), and the sweeps a few ghosts nothing ever inserts. Returns the
/// cache's counters.
fn differential(
    f: &harness::Front,
    cfg: CacheConfig,
    keys: &[u64],
    steps: &[Step],
) -> Result<CacheCounters, TestCaseError> {
    let entries = harness::padded_entries(f, keys);
    let cap = entries.len() + 48;
    let seed = 0xD1FF ^ keys.len() as u64;
    let mut trio = Trio {
        f,
        plain: f.build(cap, &entries, seed),
        on: Served::new(f.build(cap, &entries, seed), Some(cfg)),
        off: Served::new(f.build(cap, &entries, seed), None),
        decoy: KEY_SPACE + 40_000,
    };

    let mut pool: Vec<u64> = keys.to_vec();
    pool.extend((0..keys.len().max(8) as u64).map(|i| KEY_SPACE + 10_000 + i));
    let ghosts: Vec<u64> = (0..4).map(|i| KEY_SPACE + 30_000 + i).collect();

    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Lookup(i) => {
                let k = pool[i % pool.len()];
                trio.one(Op::Lookup(k))?;
                trio.one(Op::Lookup(k))?;
            }
            Step::Insert(i) => {
                let k = pool[i % pool.len()];
                trio.one(Op::Insert(k, sat(k, f.sigma)))?;
            }
            Step::Delete(i) => trio.one(Op::Delete(pool[i % pool.len()]))?,
        }
        if i % 24 == 23 || i + 1 == steps.len() {
            // A third of the pool inserted and another third deleted, each
            // as one window; then every key looked up one at a time and as
            // one window. The ghosts, asked last and twice more, are what
            // finds the budget spent and has to displace.
            let third = |r: usize| pool.iter().copied().skip((i + r) % 3).step_by(3);
            trio.window(third(0).map(|k| Op::Insert(k, sat(k, f.sigma))).collect(), "insert_batch")?;
            trio.window(third(1).map(Op::Delete).collect(), "delete_batch")?;
            let all = || pool.iter().chain(&ghosts).copied();
            for k in all().chain(ghosts.iter().copied().cycle().take(8)) {
                trio.one(Op::Lookup(k))?;
            }
            trio.window(all().map(Op::Lookup).collect(), "lookup_batch")?;
        }
    }
    let counters = trio.on.engine.cache_counters().expect("cache on");
    drop(trio.on.engine.shutdown());
    drop(trio.off.engine.shutdown());
    Ok(counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cache on ≡ cache off ≡ no engine, for every front-end, under the
    /// churn config and the default config.
    #[test]
    fn cache_is_invisible_on_every_frontend(
        keys in key_set(),
        steps in steps(),
    ) {
        for f in fronts() {
            let c = differential(&f, churn_config(), &keys, &steps)?;
            prop_assert!(
                c.hits > 0 && c.negative_hits > 0 && c.evicted > 0,
                "{}: the churn config never exercised the cache: {:?}", f.name, c
            );
            differential(&f, CacheConfig::default(), &keys, &steps)?;
        }
    }
}

/// One crash cycle of front `name` at `crash_at` physical writes into the
/// mutation workload. Returns whether the crash fired (the caller's loop
/// drains the whole write range).
fn crash_cycle(name: &str, crash_at: u64) -> bool {
    let f = front(name);
    let keys = dense_keys(24);
    let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, sat(k, f.sigma))).collect();
    let cap = entries.len() + 32;
    let seed = 0xCAC4E;
    let cfg = EngineConfig::default().with_cache(CacheConfig::default().with_admit_threshold(1));
    // The plan counts physical writes from here on; warming only reads.
    let mut shard = f.build(cap, &entries, seed);
    shard
        .disks_mut()
        .unwrap()
        .set_fault_plan(FaultPlan::new().crash_after(crash_at));
    let engine = ServeEngine::new(vec![shard], cfg);
    let client = engine.client();

    // Warm the cache: every present key resident, and the keys about to
    // be inserted negatively cached — the exact entries a buggy
    // invalidation path would serve stale.
    let fresh: Vec<u64> = (0..6).map(|i| KEY_SPACE + 5_000 + i).collect();
    for &k in keys.iter().chain(&fresh) {
        for _ in 0..2 {
            client.lookup(k).expect("warming lookup");
        }
    }
    let warm = engine.cache_counters().expect("cache on");
    assert!(resident(warm) > 0, "present keys must be resident pre-crash");

    // The mutation workload the crash cuts: inserts of the negatively
    // cached keys, deletes of resident ones. Past the crash point every
    // reply is `Disconnected`.
    for (i, &k) in fresh.iter().enumerate() {
        let _ = client.insert(k, &sat(k, f.sigma));
        if i < 3 {
            let _ = client.delete(keys[(i * 7) % keys.len()]);
        }
    }
    if engine.crash_observed() {
        // The crashed shard's cache died with it.
        assert_eq!(
            resident(engine.cache_counters().expect("cache on")),
            0,
            "the cache survived the crash at write {crash_at}"
        );
    }
    // (A crash point past the workload cuts the shutdown's checkpoint.)
    let mut shard = engine.shutdown().pop().expect("one shard");
    let fired = shard.disks().unwrap().crash_fired();

    // Reboot: dropped writes stay dropped; only the image survives.
    let image = {
        let disks = shard.disks_mut().unwrap();
        disks.clear_fault_plan();
        disks.clone()
    };
    // Ground truth: a cache-less reopen of the same image.
    let mut truth = f.reopen(cap, seed, image).unwrap();

    // The shard recovers in place — adopt the on-disk superblock (not the
    // dead process's cursors), replay — and a successor engine serves it,
    // its cache cold.
    {
        let disks = shard.disks_mut().unwrap();
        let region = disks.journal_region().expect("journaled image");
        disks.reopen_journal(region);
    }
    shard.recover();
    let successor = ServeEngine::new(vec![shard], cfg);
    let client = successor.client();

    // No stale hit at any key, twice: the first pass compares against
    // truth (and fills), the second reads through the filled cache.
    for pass in 0..2 {
        for &k in keys.iter().chain(&fresh) {
            let want = truth.lookup(k).satellite;
            if let Some(s) = &want {
                assert_eq!(s, &sat(k, f.sigma), "torn satellite for {k} at {crash_at}");
            }
            assert_eq!(
                client.lookup(k),
                Ok(want),
                "stale answer for key {k} on pass {pass} after crash at write {crash_at}"
            );
        }
    }
    assert!(successor.stats().cache_hits > 0, "the second pass must read through the cache");
    drop(successor.shutdown());
    fired
}

/// Every crash point of the mutation workload, exhaustively: stop only
/// when a cycle completes without the crash firing (the write range is
/// drained). Both journaled dynamic fronts: records in their membership
/// slots, and chained.
#[test]
fn recovered_cache_serves_no_stale_hit_at_any_crash_point() {
    for name in ["dynamic_journaled", "dynamic_chained_journaled"] {
        let mut crash_at = 0u64;
        loop {
            if !crash_cycle(name, crash_at) {
                break;
            }
            crash_at += 1;
            assert!(crash_at < 2_000, "{name}: crash point never drained");
        }
        assert!(crash_at > 0, "{name}: workload must cross at least one crash point");
    }
}

/// Engine-level differential: cache-on and cache-off engines answer a
/// deterministic mixed stream identically, and the cached engine really
/// does serve from RAM.
#[test]
fn engine_replies_match_with_and_without_cache() {
    for name in ["dynamic", "dynamic_chained"] {
        engine_replies_match_on(name);
    }
}

fn engine_replies_match_on(name: &str) {
    let build = || {
        let f = front(name);
        let keys = dense_keys(32);
        let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, sat(k, f.sigma))).collect();
        (f.sigma, f.build(128, &entries, 0xE46))
    };
    let (sigma, shard) = build();
    let on = ServeEngine::new(
        vec![shard],
        EngineConfig::default().with_cache(CacheConfig::default().with_admit_threshold(1)),
    );
    let (_, shard) = build();
    let off = ServeEngine::new(vec![shard], EngineConfig::default());

    let keys = dense_keys(32);
    let mut state = 0x5EED_u64;
    for i in 0..400u64 {
        state = expander::mix::mix64(state.wrapping_add(1));
        let k = keys[(state % keys.len() as u64) as usize];
        let absent = KEY_SPACE + 20_000 + (state % 8);
        type OpResult = Result<Option<Vec<Word>>, ServeError>;
        let (a, b): (OpResult, OpResult) = match i % 5 {
            0..=2 => (on.client().lookup(k), off.client().lookup(k)),
            3 => (on.client().lookup(absent), off.client().lookup(absent)),
            _ => {
                if state & 1 == 0 {
                    let s = sat(absent, sigma);
                    (
                        on.client().insert(absent, &s).map(|()| None),
                        off.client().insert(absent, &s).map(|()| None),
                    )
                } else {
                    (
                        on.client().delete(absent).map(|was| Some(vec![was as Word])),
                        off.client().delete(absent).map(|was| Some(vec![was as Word])),
                    )
                }
            }
        };
        assert_eq!(a, b, "engines diverged at op {i}");
    }
    let stats = on.stats();
    assert!(
        stats.cache_hits > 0,
        "the cached engine never actually served from RAM: {stats:?}"
    );
    drop(on.shutdown());
    drop(off.shutdown());
}

//! Integration tests for the serving engine (`pdm-server`): concurrent
//! clients against a sequential oracle, graceful-shutdown durability,
//! and the crash drill — the engine-level proof of "every acked write
//! survives recovery".
//!
//! Randomization follows the suite convention: deterministic by default,
//! `PROPTEST_SEED=<u64>` rotates the corpus (CI sets it per run).

mod harness;

use expander::FamilyKind;
use harness::{front, front_with, sat, Front};
use pdm::FaultPlan;
use pdm_server::{DictClient, EngineConfig, ServeEngine, ServeError};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;
use std::time::Duration;

/// Seed for the randomized streams, rotated in CI like the proptest
/// corpora.
fn suite_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_0501)
}

fn mix(x: u64) -> u64 {
    expander::mix::mix64(x)
}

/// An engine over `shards` journaled-dynamic shard dictionaries built by
/// the differential harness.
fn engine_of(f: &Front, shards: usize, capacity: usize, seed: u64) -> ServeEngine {
    let dicts = (0..shards as u64)
        .map(|i| f.build(capacity, &[], seed + i))
        .collect();
    ServeEngine::new(
        dicts,
        EngineConfig::default()
            .with_queue_bound(512)
            // Generous deadline: a loaded CI worker must not turn a
            // correct reply into a spurious TimedOut.
            .with_deadline(Duration::from_secs(60)),
    )
}

/// The journaled dynamic fronts every engine test runs: two-word records
/// stored in their membership slots at these capacities, and four-word
/// ones chained.
const JOURNALED: [&str; 2] = ["dynamic_journaled", "dynamic_chained_journaled"];

/// Multi-threaded randomized stress against a per-thread sequential
/// oracle. Threads own disjoint key ranges, so every reply is exactly
/// predictable from the thread's own history (per-key linearizability),
/// and the union of the oracles predicts the final image.
#[test]
fn concurrent_mixed_workload_matches_sequential_oracle() {
    for name in JOURNALED {
        concurrent_mixed_workload_on(name);
    }
}

fn concurrent_mixed_workload_on(name: &str) {
    const THREADS: u64 = 4;
    const KEYS_PER_THREAD: u64 = 40;
    const OPS_PER_THREAD: u64 = 300;

    let f = front(name);
    let seed = suite_seed();
    let capacity = (THREADS * KEYS_PER_THREAD) as usize + 32;
    let engine = engine_of(&f, 2, capacity, seed);
    let client = engine.client();

    let oracles: Mutex<HashMap<u64, Vec<pdm::Word>>> = Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let client = client.clone();
            let oracles = &oracles;
            let sigma = f.sigma;
            s.spawn(move || {
                // This thread's private key range and op stream.
                let base = t * KEYS_PER_THREAD;
                let mut oracle: HashMap<u64, Vec<pdm::Word>> = HashMap::new();
                let mut state = mix(seed ^ (t << 32));
                for _ in 0..OPS_PER_THREAD {
                    state = mix(state.wrapping_add(1));
                    let key = base + state % KEYS_PER_THREAD;
                    match state % 16 {
                        // Insert-heavy mix so the structures actually fill.
                        0..=6 => {
                            let expected_err = oracle.contains_key(&key);
                            let satellite = sat(key ^ state, sigma);
                            match client.insert(key, &satellite) {
                                Ok(()) => {
                                    assert!(
                                        !expected_err,
                                        "engine acked an insert the oracle says is a duplicate"
                                    );
                                    oracle.insert(key, satellite);
                                }
                                Err(ServeError::Dict(
                                    pdm_dict::DictError::DuplicateKey(k),
                                )) => {
                                    assert_eq!(k, key);
                                    assert!(expected_err, "spurious duplicate for {key}");
                                }
                                Err(other) => panic!("{name}: insert({key}): {other}"),
                            }
                        }
                        7..=9 => {
                            let was = client.delete(key).unwrap();
                            assert_eq!(
                                was,
                                oracle.remove(&key).is_some(),
                                "delete({key}) presence disagrees with oracle"
                            );
                        }
                        _ => {
                            let got = client.lookup(key).unwrap();
                            assert_eq!(
                                got.as_ref(),
                                oracle.get(&key),
                                "lookup({key}) disagrees with oracle"
                            );
                        }
                    }
                }
                oracles.lock().unwrap().extend(oracle);
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.rejected_overloaded, 0, "stress stayed under the bound");
    assert_eq!(stats.rejected_timedout, 0);
    assert_eq!(stats.disconnected, 0);
    assert_eq!(
        stats.submitted,
        THREADS * OPS_PER_THREAD,
        "every op admitted"
    );
    assert_eq!(
        stats.acked + stats.dict_errors,
        stats.submitted,
        "every admitted op answered — nothing silently dropped"
    );

    // Final image vs the merged oracle, across both engine shards.
    let oracle = oracles.into_inner().unwrap();
    let mut shards = engine.shutdown();
    let total: usize = shards.iter().map(|d| d.len()).sum();
    assert_eq!(total, oracle.len(), "record count disagrees with oracle");
    for key in 0..THREADS * KEYS_PER_THREAD {
        let hits: Vec<Vec<pdm::Word>> = shards
            .iter_mut()
            .filter_map(|d| d.lookup(key).satellite)
            .collect();
        match oracle.get(&key) {
            Some(expected) => {
                assert_eq!(hits.len(), 1, "key {key} present in {} shards", hits.len());
                assert_eq!(&hits[0], expected, "key {key} satellite diverged");
            }
            None => assert!(hits.is_empty(), "key {key} should be absent"),
        }
    }
}

/// Five threads race the insert of one key through one engine: whichever
/// windows they fall into, exactly one is acknowledged, the other four are
/// refused as duplicates, and the stored satellite is the winner's.
#[test]
fn racing_inserts_of_one_key_ack_exactly_one() {
    for name in JOURNALED {
        racing_inserts_on(name);
    }
}

fn racing_inserts_on(name: &str) {
    const KEY: u64 = 42;
    let f = front(name);
    let engine = engine_of(&f, 2, 64, suite_seed() ^ 0xACE);
    let client = engine.client();
    let start = std::sync::Barrier::new(5);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..5u64)
            .map(|t| {
                let (client, start, sigma) = (client.clone(), &start, f.sigma);
                s.spawn(move || {
                    start.wait();
                    client.insert(KEY, &sat(t, sigma))
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let winners: Vec<u64> = (0..5).filter(|&t| outcomes[t as usize].is_ok()).collect();
    assert_eq!(winners.len(), 1, "{outcomes:?}");
    let duplicate = Err(ServeError::Dict(pdm_dict::DictError::DuplicateKey(KEY)));
    assert_eq!(outcomes.iter().filter(|o| **o == duplicate).count(), 4, "{outcomes:?}");
    assert_eq!(client.lookup(KEY), Ok(Some(sat(winners[0], f.sigma))));
    drop(engine.shutdown());
}

/// Family rotation: the serving engine composes with every hash family —
/// a concurrent insert workload over each non-default family must ack
/// every op and leave exactly the inserted records, sharded correctly.
#[test]
fn engine_serves_over_every_family() {
    let families = FamilyKind::ALL.into_iter().filter(|&family| family != FamilyKind::default());
    for (family, name) in families.flat_map(|family| JOURNALED.map(|name| (family, name))) {
        let f = front_with(name, family);
        let engine = engine_of(&f, 2, 128, suite_seed() ^ 0xFA);
        let client = engine.client();
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let client = client.clone();
                let sigma = f.sigma;
                s.spawn(move || {
                    for i in 0..25 {
                        let k = t * 1_000 + i;
                        client.insert(k, &sat(k, sigma)).unwrap();
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.acked, 75, "{name}/{family}: some op went unacked");
        let mut shards = engine.shutdown();
        let total: usize = shards.iter().map(|d| d.len()).sum();
        assert_eq!(total, 75, "{name}/{family}: record count disagrees");
        for t in 0..3u64 {
            for i in 0..25 {
                let k = t * 1_000 + i;
                let hits: Vec<_> = shards
                    .iter_mut()
                    .filter_map(|d| d.lookup(k).satellite)
                    .collect();
                assert_eq!(hits, vec![sat(k, f.sigma)], "{name}/{family}: key {k} wrong");
            }
        }
    }
}

/// Graceful shutdown leaves a `recover`-consistent image: reopening the
/// disk image from scratch finds a checkpointed journal (nothing to
/// replay) and every acked write present.
#[test]
fn graceful_shutdown_image_is_recover_consistent() {
    for name in JOURNALED {
        graceful_shutdown_on(name);
    }
}

fn graceful_shutdown_on(name: &str) {
    let f = front(name);
    let seed = suite_seed() ^ 0x5D;
    let capacity = 128;
    let engine = engine_of(&f, 1, capacity, seed);
    let client = engine.client();

    std::thread::scope(|s| {
        for t in 0..3u64 {
            let client = client.clone();
            s.spawn(move || {
                for i in 0..30 {
                    client.insert(t * 100 + i, &sat(t * 100 + i, f.sigma)).unwrap();
                }
            });
        }
    });

    let mut shards = engine.shutdown();
    let dict = &mut shards[0];
    assert_eq!(dict.len(), 90);
    let image = dict.disks().expect("single-array front").clone();
    drop(shards);

    // Reopen from the image alone, as a fresh process would.
    let mut reopened = f.reopen(capacity, seed, image).unwrap();
    assert_eq!(reopened.len(), 90, "recovered length");
    for t in 0..3u64 {
        for i in 0..30 {
            let key = t * 100 + i;
            assert_eq!(
                reopened.lookup(key).satellite,
                Some(sat(key, f.sigma)),
                "{name}: acked insert {key} missing after reopen"
            );
        }
    }
    // The shutdown checkpoint truncated the ring: a recovery pass over
    // the reopened image replays nothing.
    let report = reopened.recover();
    assert!(
        report.replayed.is_empty() && report.stalled == 0,
        "graceful image still had replayable intents: {report:?}"
    );
}

/// The crash drill: kill the server mid-load via a crash-point fault
/// plan (all later physical writes silently dropped), then verify from
/// the surviving disk image alone that **every acknowledged write is
/// durable**. Unacknowledged (`Disconnected`) writes are in-doubt: they
/// may be present or absent, but never torn.
#[test]
fn crash_drill_every_acked_write_survives_recovery() {
    for name in JOURNALED {
        crash_drill_on(name);
    }
}

fn crash_drill_on(name: &str) {
    const THREADS: u64 = 3;
    const KEYS_PER_THREAD: u64 = 60;

    let f = front(name);
    let seed = suite_seed() ^ 0xC4A5;
    let capacity = (THREADS * KEYS_PER_THREAD) as usize + 32;

    // Build the single shard, then arm the crash point. The write budget
    // is far below what the full load needs, so the crash always fires
    // mid-serving.
    let crash_at = 30 + suite_seed() % 120;
    let mut dict = f.build(capacity, &[], seed);
    dict.disks_mut()
        .unwrap()
        .set_fault_plan(FaultPlan::new().crash_after(crash_at));
    let engine = ServeEngine::new(
        vec![dict],
        EngineConfig::default().with_deadline(Duration::from_secs(60)),
    );
    let client = engine.client();

    let acked: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    let in_doubt: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let client: DictClient = client.clone();
            let (acked, in_doubt) = (&acked, &in_doubt);
            s.spawn(move || {
                for i in 0..KEYS_PER_THREAD {
                    let key = t * KEYS_PER_THREAD + i;
                    match client.insert(key, &sat(key, f.sigma)) {
                        Ok(()) => {
                            acked.lock().unwrap().insert(key);
                        }
                        Err(ServeError::Disconnected) => {
                            in_doubt.lock().unwrap().insert(key);
                        }
                        Err(other) => panic!("insert({key}): {other}"),
                    }
                }
            });
        }
    });
    let acked = acked.into_inner().unwrap();
    let in_doubt = in_doubt.into_inner().unwrap();

    assert!(engine.crash_observed(), "crash point never fired");
    assert!(!in_doubt.is_empty(), "crash produced no disconnects");
    let stats = engine.stats();
    assert_eq!(stats.acked, acked.len() as u64);
    assert_eq!(
        stats.acked + stats.disconnected,
        THREADS * KEYS_PER_THREAD,
        "every request answered exactly once"
    );

    // The process dies; only the disk image survives. Clearing the plan
    // is the reboot — writes dropped by the crash stay dropped.
    let mut shards = engine.shutdown();
    let image = {
        let disks = shards[0].disks_mut().unwrap();
        // Whatever sizes the engine's windows grew to, every commit went
        // through the ring: a bypassed batch would be unprotected here.
        assert_eq!(disks.journal_bypassed(), 0, "a batch commit bypassed the journal");
        disks.clear_fault_plan();
        disks.clone()
    };
    drop(shards);
    let mut recovered = f.reopen(capacity, seed, image).unwrap();

    // Acked ⇒ durable, bit-exact.
    for &key in &acked {
        assert_eq!(
            recovered.lookup(key).satellite,
            Some(sat(key, f.sigma)),
            "{name}: ACKED insert {key} lost after crash at write {crash_at}"
        );
    }
    // In-doubt ⇒ all-or-nothing: present with the right bits, or absent.
    let mut present = acked.len();
    for &key in &in_doubt {
        if let Some(got) = recovered.lookup(key).satellite {
            assert_eq!(got, sat(key, f.sigma), "torn write for in-doubt key {key}");
            present += 1;
        }
    }
    assert_eq!(
        recovered.len(),
        present,
        "recovered counters disagree with recovered contents"
    );
}

/// A pipelined window of deletes is **one** `Dict` call — `delete_batch`,
/// in submission order, so a key deleted twice answers `true` then `false`
/// — and never a `delete` per key. With the hot-key cache on, every key of
/// the batch is invalidated before its reply: cache-on ≡ cache-off after it.
#[test]
fn a_pipelined_window_of_deletes_is_one_dict_call() {
    for name in JOURNALED {
        a_pipelined_window_of_deletes_on(name);
    }
}

fn a_pipelined_window_of_deletes_on(name: &str) {
    use pdm_server::{Op, Reply};
    let f = front(name);
    let mut answers = Vec::new();
    for cache in [false, true] {
        let probe = harness::ShardProbe::new();
        let mut cfg = EngineConfig::default().with_deadline(Duration::from_secs(60));
        if cache {
            cfg = cfg.with_cache(pdm_cache::CacheConfig::default());
        }
        let engine = ServeEngine::new(vec![probe.wrap(f.build(128, &[], 0x5E21))], cfg);
        let client = engine.client();
        for k in 0..40u64 {
            client.insert(k, &sat(k, f.sigma)).unwrap();
        }
        // Hot: with a cache, resident before the deletes.
        for _ in 0..3 {
            for k in 0..40u64 {
                assert_eq!(client.lookup(k).unwrap(), Some(sat(k, f.sigma)));
            }
        }
        // The window queues up behind a held lookup of an absent (never
        // cached) key.
        let doomed: Vec<u64> = (0..40).step_by(2).chain([0, 90]).collect();
        let replies = probe.one_window(&client, 1 << 19, doomed.iter().map(|&k| Op::Delete(k)).collect());
        let want: Vec<_> = (0..doomed.len()).map(|i| Ok(Reply::Deleted(i < 20))).collect();
        assert_eq!(replies, want, "{name}, cache = {cache}");
        let window: Vec<(&str, usize)> =
            probe.calls.lock().unwrap().iter().copied().filter(|(call, _)| call.starts_with("delete")).collect();
        assert_eq!(window, vec![("delete_batch", doomed.len())], "cache = {cache}: the window's delete calls");
        answers.push((0..44u64).map(|k| client.lookup(k).unwrap()).collect::<Vec<_>>());
        for k in 0..40u64 {
            assert_eq!(answers.last().unwrap()[k as usize].is_some(), k % 2 == 1, "cache = {cache}: key {k}");
        }
        drop(engine.shutdown());
    }
    assert_eq!(answers[0], answers[1], "cache-on diverged from cache-off");
}

/// A window of inserts on a full shard is answered — one `CapacityExhausted`
/// per insert, as a sequential loop gives — and the shard serves on. Its
/// batch call once stopped at the first refusal and answered short, which
/// panicked the shard's worker and left the window's clients waiting forever.
#[test]
fn a_window_of_inserts_on_a_full_shard_is_answered_and_the_shard_serves_on() {
    use pdm_dict::{Dict, DictError, DictHandle, DictParams};
    use pdm_server::Op;
    let params = DictParams::new(8, harness::UNIVERSE, 1).with_degree(20).with_epsilon(0.5).with_seed(0xF011);
    let mut shard = DictHandle::in_memory(params, 64).unwrap();
    let mut key = 0;
    while shard.insert(key, &[key]).is_ok() {
        key += 1;
    }
    let full = DictError::CapacityExhausted { capacity: 8 };
    assert_eq!(shard.insert(key, &[key]).unwrap_err(), full);
    let probe = harness::ShardProbe::new();
    let cfg = EngineConfig::default().with_deadline(Duration::from_secs(60));
    let engine = ServeEngine::new(vec![probe.wrap(Box::new(shard))], cfg);
    let client = engine.client();
    let (tx, rx) = std::sync::mpsc::channel();
    // A thread of its own, so that a window left unanswered fails the test
    // in 5 s instead of hanging it.
    let window = std::thread::spawn({
        let (probe, client) = (probe.clone(), client.clone());
        move || {
            let inserts = (100..103).map(|k| Op::Insert(k, vec![k])).collect();
            let _ = tx.send(probe.one_window(&client, 1 << 19, inserts));
        }
    });
    let replies = rx.recv_timeout(Duration::from_secs(5)).expect("the window was not answered within 5 s");
    window.join().unwrap();
    let refused: Vec<_> = (0..3).map(|_| Err(ServeError::Dict(full.clone()))).collect();
    assert_eq!(replies, refused);
    assert!(probe.calls.lock().unwrap().contains(&("insert_batch", 3)), "the three inserts were one window");
    assert_eq!(client.lookup(0), Ok(Some(vec![0])));
    assert_eq!(engine.stats().dict_errors, 3);
    drop(engine.shutdown());
}

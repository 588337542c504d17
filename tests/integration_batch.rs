//! Differential batch harness, generic over every dictionary front-end:
//! each front is described once (a `dyn Dict` constructor plus explicit
//! quirk flags, see `harness.rs`) and every property below runs against
//! all of them. `lookup_batch` must return results byte-identical to
//! sequential lookups and its charged cost must sit between the per-key
//! maximum and the sequential sum; `insert_batch` must leave the
//! structure in the same state as a sequential insertion loop —
//! including per-key error reporting for duplicates.
//!
//! Caveat: the vendored `proptest` stand-in (see `vendor/proptest`)
//! draws cases from a fixed-seed deterministic stream with no shrinking
//! or persistence, so by default every run replays the *identical* case
//! set — these properties are a reproducible corpus, not an ongoing
//! search for new inputs. Set `PROPTEST_SEED=<u64>` to explore a
//! different corpus (CI can rotate it); any failure replays exactly
//! under the seed that produced it.

mod harness;

use expander::FamilyKind;
use harness::{
    dense_keys, disk_image, front, fronts, fronts_with, padded_entries, sat, Front, KEY_SPACE,
    UNIVERSE,
};
use pdm::{BatchPlan, BlockAddr, DiskArray, PdmConfig, Word};
use pdm_dict::basic::{BasicDict, BasicDictConfig};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::{Dict, DictError, DictParams, Dictionary, ErrorKind};
use proptest::prelude::*;

/// A sorted, deduplicated key set.
fn key_set() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::hash_set(0u64..KEY_SPACE, 5..60).prop_map(|s| {
        let mut v: Vec<u64> = s.into_iter().collect();
        v.sort_unstable();
        v
    })
}

/// Arbitrary probe keys — mostly misses, occasionally hits.
fn probes() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..KEY_SPACE, 1..50)
}

/// The lookup differential: batch results equal sequential results, and
/// the batch cost sits between the per-key max and the sequential sum.
fn diff_lookup_batch(f: &Front, keys: &[u64], extra: &[u64]) -> Result<(), TestCaseError> {
    let entries = padded_entries(f, keys);
    let mut dict = f.build(entries.len(), &entries, 0xBA7C);
    let mut queries: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
    queries.extend(extra);

    let mut seq = Vec::with_capacity(queries.len());
    let mut seq_sum = 0u64;
    let mut seq_max = 0u64;
    for &k in &queries {
        let out = dict.lookup(k);
        seq_sum += out.cost.parallel_ios;
        seq_max = seq_max.max(out.cost.parallel_ios);
        seq.push(out.satellite);
    }
    let (batch, cost) = dict.lookup_batch(&queries);
    prop_assert_eq!(&batch, &seq, "{}: batch lookups diverged from sequential", f.name);
    prop_assert!(
        cost.parallel_ios <= seq_sum,
        "{}: batch cost {} exceeds sequential sum {}",
        f.name,
        cost.parallel_ios,
        seq_sum
    );
    prop_assert!(
        cost.parallel_ios >= seq_max,
        "{}: batch cost {} undercuts the per-key max {}",
        f.name,
        cost.parallel_ios,
        seq_max
    );
    Ok(())
}

/// The insert differential: twin structures with identical seeds, one
/// inserting sequentially and one as a single batch, must report the
/// same per-key outcomes and hold the same contents.
fn diff_insert_batch(f: &Front, keys: &[u64]) -> Result<(), TestCaseError> {
    let mut entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, sat(k, f.sigma))).collect();
    if f.intra_batch_dup {
        // Duplicate appended so the error path is exercised in both twins.
        entries.push((keys[0], sat(keys[0], f.sigma)));
    }
    let cap = entries.len();
    let seed = 0x5E0;

    let mut seq_dict = f.build(cap, &[], seed);
    let seq_res: Vec<Result<(), ErrorKind>> = entries
        .iter()
        .map(|(k, s)| seq_dict.insert(*k, s).map(|_| ()).map_err(|e| e.kind()))
        .collect();

    let mut batch_dict = f.build(cap, &[], seed);
    let (batch_res, batch_cost) = batch_dict.insert_batch(&entries);
    let batch_res: Vec<Result<(), ErrorKind>> = batch_res
        .into_iter()
        .map(|r| r.map_err(|e| e.kind()))
        .collect();

    prop_assert_eq!(&batch_res, &seq_res, "{}: per-key insert outcomes diverged", f.name);
    prop_assert_eq!(batch_dict.len(), seq_dict.len(), "{}: lengths diverged", f.name);
    prop_assert!(batch_cost.parallel_ios >= 1);

    if f.byte_identical {
        let (img_a, writes_a) = {
            let d = seq_dict.disks().unwrap();
            (disk_image(d), d.stats().block_writes)
        };
        let (img_b, writes_b) = {
            let d = batch_dict.disks().unwrap();
            (disk_image(d), d.stats().block_writes)
        };
        prop_assert_eq!(img_b, img_a, "{}: disk images diverged", f.name);
        // The batch flushes each dirty block once; sequential pays one
        // write batch per key.
        prop_assert!(
            writes_b <= writes_a,
            "{}: batch wrote {} blocks, sequential only {}",
            f.name,
            writes_b,
            writes_a
        );
    } else {
        // Pacing-divergent fronts: contents must still agree.
        let (seq_found, _) = seq_dict.lookup_batch(keys);
        let (batch_found, _) = batch_dict.lookup_batch(keys);
        prop_assert_eq!(batch_found, seq_found, "{}: contents diverged", f.name);
    }
    Ok(())
}

/// The delete differential: twins holding `keys`, one deleting `doomed`
/// (stored keys, keys listed twice, absent keys) one call at a time and one
/// as a single `delete_batch`, must give the same per-key answers, the
/// same `len()` and the same contents, at a cost between the per-key
/// maximum and the sequential sum.
fn diff_delete_batch(f: &Front, keys: &[u64], doomed: &[u64]) -> Result<(), TestCaseError> {
    let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, sat(k, f.sigma))).collect();
    let mut seq_dict = f.build(entries.len(), &entries, 0xDE1);
    let mut batch_dict = f.build(entries.len(), &entries, 0xDE1);
    let (mut seq_sum, mut seq_max) = (0, 0);
    let seq_res: Vec<Result<bool, ErrorKind>> = doomed
        .iter()
        .map(|&k| {
            seq_dict.delete(k).map_err(|e| e.kind()).map(|(was, cost)| {
                seq_sum += cost.parallel_ios;
                seq_max = seq_max.max(cost.parallel_ios);
                was
            })
        })
        .collect();
    let (batch_res, cost) = batch_dict.delete_batch(doomed);
    let batch_res: Vec<Result<bool, ErrorKind>> =
        batch_res.into_iter().map(|r| r.map_err(|e| e.kind())).collect();
    prop_assert_eq!(&batch_res, &seq_res, "{}: per-key delete answers diverged", f.name);
    prop_assert_eq!(batch_dict.len(), seq_dict.len(), "{}: lengths diverged", f.name);
    prop_assert!(
        cost.parallel_ios <= seq_sum,
        "{}: batch cost {} exceeds sequential sum {}", f.name, cost.parallel_ios, seq_sum
    );
    // The rebuilding front paces its migration per batch: a step one
    // sequential delete paid alone may fall outside the batch's window.
    // And one journaled delete in eight pays the group commit's superblock.
    if f.name != "rebuild" {
        let floor = seq_max - u64::from(f.journal_rows > 0 && seq_max > 3);
        prop_assert!(
            cost.parallel_ios >= floor,
            "{}: batch cost {} undercuts the per-key max {}", f.name, cost.parallel_ios, floor
        );
    }
    let probes: Vec<u64> = keys.iter().chain(doomed).copied().collect();
    let (seq_found, _) = seq_dict.lookup_batch(&probes);
    let (batch_found, _) = batch_dict.lookup_batch(&probes);
    prop_assert_eq!(batch_found, seq_found, "{}: contents diverged", f.name);
    Ok(())
}

/// A `Dictionary` of initial capacity 32 under `batches` — `(insert?,
/// keys)` — applied through the batch calls on one twin and one call per
/// key on the other. Returns how many batches ran with a window open on
/// the batched twin at their start, at their end, or both sides differing.
fn diff_window_batches(journal_rows: usize, batches: &[(bool, Vec<u64>)]) -> Result<[usize; 3], TestCaseError> {
    let params = DictParams::new(32, UNIVERSE, 1).with_degree(20).with_epsilon(0.5).with_seed(0x17);
    let params = if journal_rows > 0 { params.with_journal(journal_rows) } else { params };
    let mut seq = Dictionary::new(params, 64).unwrap();
    let mut batched = Dictionary::new(params, 64).unwrap();
    let mut windows = [0; 3];
    for (insert, keys) in batches {
        let open = batched.is_rebuilding();
        if *insert {
            let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, vec![k])).collect();
            let want: Vec<Result<(), ErrorKind>> =
                entries.iter().map(|(k, s)| seq.insert(*k, s).map(|_| ()).map_err(|e| e.kind())).collect();
            let (got, _) = batched.insert_batch(&entries);
            let got: Vec<Result<(), ErrorKind>> = got.into_iter().map(|r| r.map_err(|e| e.kind())).collect();
            prop_assert_eq!(got, want, "insert batch {:?}", keys);
        } else {
            let want: Vec<Result<bool, ErrorKind>> =
                keys.iter().map(|&k| seq.delete(k).map(|(was, _)| was).map_err(|e| e.kind())).collect();
            let (got, _) = batched.delete_batch(keys);
            let got: Vec<Result<bool, ErrorKind>> = got.into_iter().map(|r| r.map_err(|e| e.kind())).collect();
            prop_assert_eq!(got, want, "delete batch {:?}", keys);
        }
        prop_assert_eq!(batched.len(), seq.len(), "len() after batch {:?}", keys);
        windows[0] += usize::from(open);
        windows[1] += usize::from(batched.is_rebuilding());
        windows[2] += usize::from(open != batched.is_rebuilding());
    }
    prop_assert_eq!(batched.disks().journal_bypassed(), 0);
    let probes: Vec<u64> = (0..400).collect();
    prop_assert_eq!(batched.lookup_batch(&probes).0, seq.lookup_batch(&probes).0, "contents diverged");
    Ok(windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lookup_batch_matches_sequential_for_every_frontend(
        keys in key_set(),
        extra in probes(),
    ) {
        for f in fronts() {
            diff_lookup_batch(&f, &keys, &extra)?;
        }
    }

    #[test]
    fn insert_batch_matches_sequential_for_every_frontend(keys in key_set()) {
        for f in fronts().iter().filter(|f| !f.is_static) {
            diff_insert_batch(f, &keys)?;
        }
    }

    #[test]
    fn delete_batch_matches_sequential_for_every_frontend(keys in key_set(), extra in probes()) {
        // Every other stored key, the first twice, and mostly-absent keys.
        let mut doomed: Vec<u64> = keys.iter().step_by(2).copied().collect();
        doomed.push(keys[0]);
        doomed.extend(&extra);
        for f in fronts().iter().filter(|f| !f.is_static) {
            diff_delete_batch(f, &keys, &doomed)?;
        }
    }

    #[test]
    fn dictionary_batches_match_sequential_across_rebuild_windows(
        stream in proptest::collection::vec((0u64..3, 1usize..40, 0u64..400), 30..60),
    ) {
        // Inserts of fresh runs of keys (with a duplicate), deletes of runs
        // that are partly stored, partly gone, partly never inserted, one
        // key twice: the live set swings between 0 and ~300 keys over a
        // capacity of 32, so windows open (growing and shrinking), are
        // straddled by a batch, and close inside one.
        let batches: Vec<(bool, Vec<u64>)> = stream
            .iter()
            .map(|&(kind, n, at)| {
                let mut keys: Vec<u64> = (at..at + n as u64).collect();
                keys.push(at);
                (kind > 0, keys)
            })
            .collect();
        for journal_rows in [0, 2] {
            let windows = diff_window_batches(journal_rows, &batches)?;
            prop_assert!(windows.iter().all(|&n| n > 0), "windows (open at start, at end, changed): {:?}", windows);
        }
    }

    #[test]
    fn basic_dict_batch_cost_meets_the_plan_lower_bound(
        keys in key_set(),
        extra in probes(),
    ) {
        // Front-end-specific sharpening of the generic lower bound: for
        // BasicDict the probe addresses are observable, so the batch cost
        // can be pinned against the per-disk maximum of unique blocks.
        let d = 8;
        let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
        let mut alloc = DiskAllocator::new(d);
        let cfg = BasicDictConfig::log_load(keys.len().max(4), UNIVERSE, d, 1, 0xBA7C);
        let mut dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
        for &k in &keys {
            dict.insert(&mut disks, k, &[k]).unwrap();
        }
        let mut queries = keys.clone();
        queries.extend(&extra);
        let (_, cost) = dict.lookup_batch(&mut disks, &queries);
        let all: Vec<BlockAddr> = queries.iter().flat_map(|&k| dict.probe_addrs(k)).collect();
        let bound = BatchPlan::new(disks.disks(), &all).num_rounds() as u64;
        prop_assert!(
            cost.parallel_ios >= bound,
            "batch cost {} undercuts the per-disk max {}", cost.parallel_ios, bound
        );
    }

    #[test]
    fn dictionary_insert_batch_roundtrips_through_rebuilds(keys in key_set()) {
        // Rebuild-front quirk pinned explicitly: capacity far below the
        // key count, so insert_batch must ride through at least one
        // capacity-triggered rebuild, and a *second* batch of the same
        // keys (cross-batch duplicates, unlike the intra-batch dup the
        // generic harness skips for this front) must fail per key while
        // changing nothing.
        let params = DictParams::new(16, UNIVERSE, 1)
            .with_degree(20)
            .with_epsilon(0.5)
            .with_seed(0xFEEE);
        let mut dict = Dictionary::new(params, 64).unwrap();
        let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, vec![k])).collect();
        let (res, _) = Dict::insert_batch(&mut dict, &entries);
        for (i, r) in res.iter().enumerate() {
            prop_assert!(r.is_ok(), "fresh key {} rejected: {:?}", entries[i].0, r);
        }
        prop_assert_eq!(Dict::len(&dict), keys.len());
        let (found, _) = Dict::lookup_batch(&mut dict, &keys);
        for (i, f) in found.iter().enumerate() {
            prop_assert_eq!(f.as_deref(), Some(&[keys[i]][..]), "key {} lost", keys[i]);
        }
        let (res2, _) = Dict::insert_batch(&mut dict, &entries);
        for r in &res2 {
            prop_assert!(matches!(r, Err(DictError::DuplicateKey(_))), "duplicate accepted");
        }
        prop_assert_eq!(Dict::len(&dict), keys.len());
    }
}

/// Family rotation: the batch differentials above run over the default
/// family; this replays them under every other hash family, proving the
/// seam composes with the batch paths (satellite of the hashfam PR).
#[test]
fn batch_differentials_hold_under_family_rotation() {
    let keys = dense_keys(24);
    for family in FamilyKind::ALL {
        if family == FamilyKind::default() {
            continue;
        }
        for f in fronts_with(family) {
            diff_lookup_batch(&f, &keys, &[KEY_SPACE - 3, KEY_SPACE - 11]).unwrap();
            if !f.is_static {
                diff_insert_batch(&f, &keys).unwrap();
            }
        }
    }
}

/// A batch of one is charged exactly what `delete` is — every counter of
/// the cost, hits and misses, journaled or not, inside rebuild windows and
/// outside — so a synchronous caller's rounds do not move.
#[test]
fn a_delete_batch_of_one_is_charged_what_delete_is() {
    for name in ["dynamic", "dynamic_journaled", "dynamic_chained", "dynamic_chained_journaled", "rebuild"] {
        let f = front(name);
        // 200 keys: the rebuilding front starts at 32 and crosses windows.
        let capacity = if name == "rebuild" { 32 } else { 256 };
        let mut single = f.build(capacity, &[], 0x0E);
        let mut batched = f.build(capacity, &[], 0x0E);
        let mut in_window = 0;
        for k in 0..200u64 {
            for dict in [&mut single, &mut batched] {
                dict.insert(k, &sat(k, f.sigma)).unwrap();
            }
            // A stored key every third step, else one that is gone.
            let doomed = if k % 3 == 0 { k } else { k / 2 };
            let want = single.delete(doomed).unwrap();
            let (got, cost) = batched.delete_batch(&[doomed]);
            assert_eq!((got[0].clone().unwrap(), cost), want, "{name}: delete of {doomed} at step {k}");
            in_window += usize::from(want.1.parallel_ios > 4);
        }
        assert_eq!(single.len(), batched.len());
        assert_eq!(in_window > 0, name == "rebuild", "{name}: {in_window} deletes carried a migration step");
    }
}

#[test]
fn static_frontends_reject_mutation() {
    for f in fronts().iter().filter(|f| f.is_static) {
        let entries = padded_entries(f, &[1, 2, 3]);
        let mut dict = f.build(entries.len(), &entries, 0x57A7);
        let err = dict.insert(9999, &sat(9999, f.sigma)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnsupportedParams, "{}", f.name);
        let err = dict.delete(entries[0].0).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnsupportedParams, "{}", f.name);
    }
}

/// `insert_batch` answers every entry, and as a sequential loop does, also
/// once the structure is full: twins of each front, built at capacity 8 and
/// filled until an insert is refused (or with 64 keys, for the fronts that
/// grow or have room), take three more keys as one batch and one by one.
/// A short answer is what once hung the serving engine on a full shard.
#[test]
fn insert_batch_answers_every_entry_at_capacity() {
    for f in fronts() {
        let entries = padded_entries(&f, &[]);
        let [mut batched, mut looped] = [0, 1].map(|_| f.build(8, &entries, 0xF011));
        for dict in [&mut batched, &mut looped] {
            let _ = (0..64).try_for_each(|k| dict.insert(k, &sat(k, f.sigma)).map(drop));
        }
        let more: Vec<(u64, Vec<Word>)> = (1_000..1_003).map(|k| (k, sat(k, f.sigma))).collect();
        let (answers, _) = batched.insert_batch(&more);
        let one_by_one: Vec<_> = more.iter().map(|(k, s)| looped.insert(*k, s).map(drop)).collect();
        assert_eq!(answers, one_by_one, "{}", f.name);
    }
}

/// What a fixed op stream leaves behind: the array's I/O counters, a hash
/// of the physical image, and a hash of every result the stream returned
/// except what a batched call was charged (the counters hold that, and it
/// is the one kind of result a denser layout may move).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    parallel_ios: u64,
    batches: u64,
    block_reads: u64,
    block_writes: u64,
    rounds: u64,
    image: u64,
    results: u64,
}

fn fnv(h: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn both(h: &mut u64, g: &mut u64, x: u64) {
    fnv(h, x);
    fnv(g, x);
}

/// Drive `dict` with a fixed seeded stream of 4096 operations — single
/// inserts, lookups and deletes, `lookup_batch` and `insert_batch` — over
/// a key space small enough that hits, misses, duplicates and deletes of
/// stored keys all occur. Beside the [`Golden`], returns the hash of the
/// stream's *answers*: what `results` hashes and what each batched lookup
/// was charged, which a journal may not move either.
fn golden_stream(dict: &mut dyn Dict, sigma: usize, seed: u64) -> (Golden, u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        expander::mix::mix64(state)
    };
    let mut results = 0xCBF2_9CE4_8422_2325u64;
    let mut answers = results;
    let result_of = |r: Result<(), DictError>| r.map_or_else(|e| 1 + e.kind() as u64, |()| 0);
    for _ in 0..4096 {
        let r = next();
        let key = next() % 1536;
        match r % 16 {
            0..=5 => both(&mut results, &mut answers, result_of(dict.insert(key, &sat(key, sigma)).map(|_| ()))),
            6..=9 => {
                let out = dict.lookup(key);
                both(&mut results, &mut answers, out.cost.parallel_ios);
                for w in out.satellite.iter().flatten() {
                    both(&mut results, &mut answers, *w);
                }
            }
            10..=12 => both(&mut results, &mut answers, dict.delete(key).map_or(2, |(was, _)| u64::from(was))),
            13..=14 => {
                let keys: Vec<u64> = (0..1 + r % 24).map(|_| next() % 1536).collect();
                let (found, cost) = dict.lookup_batch(&keys);
                fnv(&mut answers, cost.parallel_ios);
                for f in found {
                    both(&mut results, &mut answers, f.map_or(u64::MAX, |s| s.iter().fold(7, |a, w| a ^ w)));
                }
            }
            _ => {
                let entries: Vec<(u64, Vec<Word>)> = (0..1 + r % 12)
                    .map(|_| next() % 1536)
                    .map(|k| (k, sat(k, sigma)))
                    .collect();
                let (res, _) = dict.insert_batch(&entries);
                for r in res {
                    both(&mut results, &mut answers, result_of(r));
                }
            }
        }
    }
    let disks = dict.disks().expect("the golden fronts own one array");
    let mut image = 0xCBF2_9CE4_8422_2325u64;
    for disk in disks.snapshot() {
        fnv(&mut image, disk.len() as u64);
        for block in disk {
            block.iter().for_each(|&w| fnv(&mut image, w));
        }
    }
    let s = disks.stats();
    let golden = Golden {
        parallel_ios: s.parallel_ios,
        batches: s.batches,
        block_reads: s.block_reads,
        block_writes: s.block_writes,
        rounds: s.rounds,
        image,
        results,
    };
    (golden, answers)
}

/// The "I/O-count gates byte-identical" acceptance made mechanical. A
/// change to how blocks are held in memory must issue the same blocks in
/// the same batches and leave the same image; a change that is *meant* to
/// move them re-records what it moves and says why (EXPERIMENTS.md § PERF
/// lists each re-recording). Two things are pinned harder than the
/// counters:
///
/// * `results` — every answer and every single-key operation's charged
///   cost — does not depend on how densely fields pack into blocks: the
///   constants below were recorded under 26-bit chain fields and hold under
///   the exact 13-bit ones, where the batched calls (`lookup_batch`,
///   `insert_batch`, the migration step) plan fewer distinct blocks and the
///   counters fell.
/// * A journal may never move an answer: each journaled stream is also run
///   on an unjournaled twin, and every result, every lookup's charged
///   rounds included, must hash the same.
///
/// Re-recorded for batched window updates (PR 17). The two `DynamicDict`
/// streams kept every counter and `results`; the journaled one's `image`
/// moved because a tombstone's intent now carries `[tag, META_TOMBSTONES,
/// n, c]` where it carried `[tag, META_DELETE]` — two more words in a ring
/// slot. The rebuilding `Dictionary` moved whole: inside a window an
/// `insert_batch` is one plan and **one** migration step where it was a
/// step per key (`parallel_ios` 22928 → 22082, `batches` 10014 → 8891,
/// reads and writes down 3 % and 4 %; `rounds` up, a step's plan being
/// several rounds where a key's was one), and the batch's keys are now
/// placed first-fit *before* the step's copies instead of interleaved with
/// them, so some keys land on another level and a handful of lookups are
/// charged 2 rounds where they were charged 1, or the reverse — which
/// `results` hashes. Every answer in it (found, satellite, insert and
/// delete outcomes, all five streams) was compared against the parent's
/// op by op and is unchanged.
///
/// Re-recorded for views of resident blocks (PR 19), the rebuilding
/// `Dictionary` only. Reading blocks where they lie and an executor that
/// holds only what it stages moved nothing: all three streams passed as
/// recorded. What moved the third is the migration step's sub-plan, now
/// bounded in blocks held (`MIGRATE_BLOCKS_PER_PLAN`) where it was four
/// buckets: on a resident backend a plan holds `m + 1` blocks a key where
/// it held `3d`, so a step of more than four buckets is fewer plans, each
/// with its scan, intent and superblock share (`parallel_ios` 22082 →
/// 21146, `batches` 8891 → 8619, reads and writes down 3 % and 6 %, `image`
/// with the ring's slots). `results` did not move: keys are placed in scan
/// order however a step is cut.
///
/// Re-recorded when a finished rebuild started giving its old slot back,
/// the rebuilding `Dictionary`'s `image` only: the abandoned slot's disks
/// now end at the ring, so the image is shorter. Every counter and
/// `results` stayed equal.
///
/// Re-recorded when a record that fits its membership slot started being
/// stored there. The unjournaled `DynamicDict` stream (capacity 4096, two
/// words: 21 slots of 4 words outgrow the 64-word block) still chains and
/// passed as recorded. The journaled one's `image` moved only by the ring
/// superblock's format stamp (3 → 4); every counter and `results` held.
/// The rebuilding `Dictionary` (one-word records, capacity 64 up to about
/// 2 k: at most 20 slots of 3 words) now stores every record inline: no
/// level fields are read or written (`parallel_ios` 21146 → 17413, reads
/// 558281 → 252132, writes 66359 → 7515), and every lookup is charged one
/// round, which `results` hashes. Its answers alone (found, satellite,
/// insert and delete outcomes) hash the same as the parent's.
///
/// Re-recorded when the single-key `lookup`, `insert` and `delete` became
/// the batch of one: every `parallel_ios`, `batches`, `block_reads`,
/// `block_writes` and `results` held in all three streams, and so did the
/// unjournaled stream's `image`. `rounds` moved in all three (11131 →
/// 15677, 10318 → 14937, 11320 → 15119): a single-key operation's read is
/// now a plan of one and records its round, as a batch's always did. The
/// two journaled `image`s moved because an insert's intent now carries
/// `[tag, META_BATCH, count per level]` where it carried `[tag,
/// META_INSERT, level]`, its targets in the commit's canonical order.
///
/// Re-recorded when an inline structure's budget became its live keys
/// (a deletion gives its slot back), the rebuilding `Dictionary` only: its
/// records are inline, so a window opens when live keys, not insertions,
/// reach 3/4 of capacity, and the stream crosses 8 rebuilds where it
/// crossed 9. Fewer windows is the only cause: `parallel_ios` 17413 →
/// 16909, `batches` 8463 → 8286, reads 252132 → 241446, writes 7515 →
/// 6835, `rounds` 15119 → 14706, and the `image`. `results` held, and so
/// did every answer against the unjournaled twin. Both `DynamicDict`
/// streams chain and passed as recorded.
///
/// Re-recorded when an inline membership spread each stripe over two disks
/// (`i` and `i + d`): a batch's rounds are its largest per-disk load over
/// `2d` disks where they were over `d`. The rebuilding `Dictionary` is
/// inline: `parallel_ios` 16909 → 13345 and `rounds` 14706 → 11143, its
/// `image` with the layout; `batches`, `block_reads`, `block_writes` and
/// `results` held. The two `DynamicDict` streams chain and kept every
/// counter and `results`; the journaled one's `image` moved only by the
/// ring superblock's format stamp (4 → 5).
///
/// Re-recorded when an update that writes one block of an inline structure
/// started going in place with no intent (the block write is atomic by the
/// model): the rebuilding `Dictionary` is inline, and each of its 1 032
/// commits that staged one block no longer appends a ring slot —
/// `parallel_ios` 13345 → 12313, `batches` 8286 → 7254 and `block_writes`
/// 6835 → 5803, each by exactly those 1 032, and the `image` with the ring's
/// slots. `block_reads`, `rounds` and `results` held. The two `DynamicDict`
/// streams chain and passed as recorded.
#[test]
fn golden_io_counts_and_images_match_the_recorded_parent() {
    let mut plain = front("dynamic").build(4096, &[], 0x601D);
    assert_eq!(
        golden_stream(plain.as_mut(), 2, 1).0,
        Golden {
            parallel_ios: 15677,
            batches: 5916,
            block_reads: 468001,
            block_writes: 24324,
            rounds: 15677,
            image: 0x6AD4BB1682089858,
            results: 0xB95B2CD1CCB773CC,
        },
        "unjournaled DynamicDict"
    );
    let mut journaled = front("dynamic_journaled").build(4096, &[], 0x601D);
    let mut twin = front("dynamic").build(4096, &[], 0x601D);
    let (got, answers) = golden_stream(journaled.as_mut(), 2, 2);
    assert_eq!(answers, golden_stream(twin.as_mut(), 2, 2).1, "a journal changed an answer");
    assert_eq!(journaled.disks().unwrap().journal_bypassed(), 0);
    assert_eq!(
        got,
        Golden {
            parallel_ios: 16473,
            batches: 7414,
            block_reads: 445392,
            block_writes: 26887,
            rounds: 14937,
            image: 0x06F713A0A64C4F8A,
            results: 0x8BD6C178816A1AE4,
        },
        "journaled DynamicDict"
    );
    let params = DictParams::new(64, UNIVERSE, 1)
        .with_degree(20)
        .with_epsilon(0.5)
        .with_seed(0x601D)
        .with_journal(2);
    let mut rebuilding = Dictionary::new(params, 64).unwrap();
    let mut twin = Dictionary::new(DictParams { journal_rows: 0, ..params }, 64).unwrap();
    let (got, answers) = golden_stream(&mut rebuilding, 1, 3);
    assert!(rebuilding.rebuilds() >= 2, "the stream must cross two rebuilds");
    assert_eq!(answers, golden_stream(&mut twin, 1, 3).1, "a journal changed an answer");
    assert_eq!(rebuilding.disks().journal_bypassed(), 0);
    assert_eq!(
        got,
        Golden {
            parallel_ios: 12313,
            batches: 7254,
            block_reads: 241446,
            block_writes: 5803,
            rounds: 11143,
            image: 0xCEA1CE410FD11A2C,
            results: 0xEDE0642EA99494BB,
        },
        "journaled rebuilding Dictionary"
    );
}

/// No user batch bypasses the ring: the wall-clock benchmark's
/// `engine_churn` shape — a journaled rebuilding `Dictionary` (B = 128, 4
/// ring rows) under windows of 64 operations, 80 % updates, the window's
/// inserts as one `insert_batch` — across several rebuilds. Every commit
/// went through the journal, and the dictionary agrees with a model.
#[test]
fn an_engine_churn_shaped_stream_never_bypasses_the_ring() {
    let params = DictParams::new(256, UNIVERSE, 2)
        .with_degree(20)
        .with_epsilon(0.5)
        .with_seed(0xC4A2)
        .with_journal(4);
    let mut dict = Dictionary::new(params, 128).unwrap();
    let mut model = std::collections::BTreeMap::new();
    let mut state = 7u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        expander::mix::mix64(state)
    };
    let mut windows = 0;
    while dict.rebuilds() < 4 {
        let (mut inserts, mut deletes, mut lookups) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..64 {
            let (r, key) = (next() % 10, next() % 4096);
            match r {
                0..=4 if !model.contains_key(&key) && !inserts.iter().any(|(k, _)| *k == key) => {
                    inserts.push((key, sat(key, 2)));
                }
                0..=7 => deletes.push(key),
                _ => lookups.push(key),
            }
        }
        let (results, _) = Dictionary::insert_batch(&mut dict, &inserts);
        for ((key, s), r) in inserts.into_iter().zip(results) {
            r.unwrap();
            model.insert(key, s);
        }
        for key in deletes {
            let (was, _) = Dictionary::delete(&mut dict, key).unwrap();
            assert_eq!(was, model.remove(&key).is_some(), "delete of {key}");
        }
        let (found, _) = Dictionary::lookup_batch(&mut dict, &lookups);
        for (key, got) in lookups.iter().zip(found) {
            assert_eq!(got.as_ref(), model.get(key), "lookup of {key}");
        }
        windows += 1;
        assert!(windows < 2_000, "the stream never crossed four rebuilds");
    }
    assert_eq!(dict.disks().journal_bypassed(), 0, "a window's batch bypassed the journal");
    assert_eq!(dict.len(), model.len());
    for (key, s) in &model {
        assert_eq!(Dictionary::lookup(&mut dict, *key).satellite.as_ref(), Some(s), "key {key}");
    }
    // And what the ring holds replays onto the image it was taken from.
    let report = Dict::recover(&mut dict);
    assert_eq!((report.stalled, report.mismatched), (0, 0), "{report:?}");
    assert_eq!(dict.len(), model.len());
}

//! Crash-consistency properties for the journaled front-ends. Workloads
//! are cut at deterministic crash points ([`pdm::FaultPlan::crash_after`]:
//! every physical write past the k-th is silently dropped), the
//! in-memory process state is discarded, and the dictionary is rebuilt
//! from the surviving disk image alone — [`pdm::DiskArray::reopen_journal`]
//! re-reads the superblock, so nothing the dead process knew leaks into
//! recovery. Four invariants at every crash point:
//!
//! 1. **No panic**, in recovery or afterwards.
//! 2. **Acked ⇒ durable**: an op that completed before the crash fired
//!    is fully visible after reopen. The journal writes each entry's
//!    descriptor last, so a completed op's intent is already on disk
//!    even when the lazy superblock truncation point lags behind by up
//!    to [`pdm::GROUP_COMMIT_EVERY`] ops.
//! 3. **All-or-nothing**: the op in flight when the crash fired is
//!    either fully applied or fully absent after recovery — never a
//!    torn multi-block state, never wrong satellite data. Recovered
//!    counters agree with recovered contents.
//! 4. **Truncation**: reopen checkpoints the journal, so a second
//!    recovery pass finds zero replayable intents.
//!
//! The exhaustive every-k crash matrices live next to the structures
//! (`dynamic.rs`, `batch.rs`, `journal.rs`); these tests cover the
//! integration surface — reopen from the image alone, the rebuilding
//! wrapper mid-migration, and scrub repair under a dead disk.

mod harness;

use expander::FamilyKind;
use harness::{
    dense_keys, front, front_with, padded_entries, sat, JOURNAL_ROWS, KEY_SPACE, UNIVERSE,
};
use pdm::{FaultPlan, Word};
use pdm_dict::{Dict, DictParams, Dictionary};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A sorted, deduplicated key set (same corpus as the fault suite).
fn key_set() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::hash_set(0u64..KEY_SPACE, 5..60).prop_map(|s| {
        let mut v: Vec<u64> = s.into_iter().collect();
        v.sort_unstable();
        v
    })
}

enum Op {
    Ins(u64),
    Del(u64),
}

/// The journaled dynamic fronts: two-word records stored in their
/// membership slots at these sizes, four-word ones chained.
const JOURNALED: [&str; 2] = ["dynamic_journaled", "dynamic_chained_journaled"];

/// Run a mutation workload over each journaled dynamic front, crash after
/// `crash_at` physical writes, reopen from the disk image alone, and
/// check the four invariants above.
fn drive_crash(keys: &[u64], crash_at: u64) -> Result<(), TestCaseError> {
    for name in JOURNALED {
        drive_crash_with(name, FamilyKind::default(), keys, crash_at)?;
    }
    Ok(())
}

/// Same crash cycle on front `name`, over an explicit hash family
/// (rotation below).
fn drive_crash_with(
    name: &str,
    family: FamilyKind,
    keys: &[u64],
    crash_at: u64,
) -> Result<(), TestCaseError> {
    let f = front_with(name, family);
    let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, sat(k, f.sigma))).collect();
    let cap = entries.len() + 32;
    let seed = 0xC4A5;
    let mut dict = f.build(cap, &entries, seed);

    // The ground truth the crash must respect. Keys move between the
    // three sets as ops complete; an op cut by the crash moves its key
    // to `in_doubt` (all-or-nothing is all recovery owes it).
    let mut must_present: BTreeSet<u64> = keys.iter().copied().collect();
    let mut must_absent: BTreeSet<u64> = BTreeSet::new();
    let mut in_doubt: BTreeSet<u64> = BTreeSet::new();

    dict.disks_mut()
        .unwrap()
        .set_fault_plan(FaultPlan::new().crash_after(crash_at));

    // Interleaved inserts (fresh keys, above the generated range) and
    // deletes (existing keys), then one batch.
    let fresh: Vec<u64> = (0..6).map(|i| KEY_SPACE + 5_000 + i).collect();
    let step = (keys.len() / 3).max(1);
    let dels: Vec<u64> = keys.iter().copied().step_by(step).take(3).collect();
    let mut ops: Vec<Op> = Vec::new();
    for (i, &k) in fresh.iter().enumerate().take(3) {
        ops.push(Op::Ins(k));
        if let Some(&d) = dels.get(i) {
            ops.push(Op::Del(d));
        }
    }
    for &k in &fresh[3..] {
        ops.push(Op::Ins(k));
    }

    for op in ops {
        match op {
            Op::Ins(k) => {
                let res = dict.insert(k, &sat(k, f.sigma));
                if dict.disks().unwrap().crash_fired() {
                    in_doubt.insert(k);
                } else if res.is_ok() {
                    must_present.insert(k);
                } else {
                    // A failed insert truncates its intent: it must not
                    // resurrect on replay.
                    must_absent.insert(k);
                }
            }
            Op::Del(k) => {
                let res = dict.delete(k);
                if dict.disks().unwrap().crash_fired() {
                    must_present.remove(&k);
                    in_doubt.insert(k);
                } else if matches!(res, Ok((true, _))) {
                    must_present.remove(&k);
                    must_absent.insert(k);
                }
            }
        }
    }
    let batch: Vec<(u64, Vec<Word>)> = (0..5)
        .map(|i| {
            let k = KEY_SPACE + 6_000 + i;
            (k, sat(k, f.sigma))
        })
        .collect();
    let (results, _) = dict.insert_batch(&batch);
    if dict.disks().unwrap().crash_fired() {
        in_doubt.extend(batch.iter().map(|(k, _)| *k));
    } else {
        for ((k, _), r) in batch.iter().zip(&results) {
            if r.is_ok() {
                must_present.insert(*k);
            } else {
                must_absent.insert(*k);
            }
        }
    }

    // The crash: the process dies, only the disk image survives.
    // Clearing the plan is the reboot — dropped writes stay dropped.
    let image = {
        let disks = dict.disks_mut().unwrap();
        disks.clear_fault_plan();
        disks.clone()
    };
    drop(dict);
    let mut reopened = f.reopen(cap, seed, image).unwrap();

    // (2) acked ⇒ durable, and deletions stay deleted.
    for &k in &must_present {
        let got = reopened.lookup(k).satellite;
        prop_assert_eq!(
            got,
            Some(sat(k, f.sigma)),
            "acked key {} lost or damaged after crash at write {}",
            k,
            crash_at
        );
    }
    for &k in &must_absent {
        prop_assert!(
            reopened.lookup(k).satellite.is_none(),
            "absent key {} resurrected after crash at write {}",
            k,
            crash_at
        );
    }
    // (3) all-or-nothing for the cut op(s), and counters match contents.
    let mut present = 0usize;
    for &k in must_present.iter().chain(&must_absent).chain(&in_doubt) {
        if let Some(got) = reopened.lookup(k).satellite {
            prop_assert_eq!(
                got,
                sat(k, f.sigma),
                "wrong satellite for {} after crash at write {}",
                k,
                crash_at
            );
            present += 1;
        }
    }
    prop_assert_eq!(
        reopened.len(),
        present,
        "recovered length disagrees with recovered contents (crash at write {})",
        crash_at
    );

    // (4) reopen checkpointed: nothing left to replay.
    let second = reopened.recover();
    prop_assert!(
        second.replayed.is_empty() && second.is_clean(),
        "journal not truncated after reopen: {:?}",
        second
    );

    // The reopened front keeps working.
    let k2 = KEY_SPACE + 9_999;
    prop_assert!(reopened.insert(k2, &sat(k2, f.sigma)).is_ok());
    prop_assert_eq!(reopened.lookup(k2).satellite, Some(sat(k2, f.sigma)));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn journaled_front_reopens_consistently_from_any_crash(
        keys in key_set(),
        crash_seed in 0u64..1 << 48,
    ) {
        // Three crash points per case, spread over the workload's write
        // range (the build preloads clean; only workload writes count).
        for crash_at in [crash_seed % 96, (crash_seed >> 8) % 96, (crash_seed >> 16) % 96] {
            drive_crash(&keys, crash_at)?;
        }
    }
}

/// Family rotation: journaled crash/recovery composes with every hash
/// family — the intent journal and replay never depend on where the
/// neighbor function placed the records.
#[test]
fn crash_recovery_composes_with_every_family() {
    let keys = dense_keys(24);
    for family in FamilyKind::ALL {
        if family == FamilyKind::default() {
            continue;
        }
        for (name, crash_at) in JOURNALED.into_iter().flat_map(|name| [(name, 5u64), (name, 41)]) {
            drive_crash_with(name, family, &keys, crash_at).unwrap();
        }
    }
}

/// Recovery must distrust every pre-crash verification: the
/// verified-clean read cache is rebuilt from scratch after
/// [`pdm::DiskArray::recover`], never carried across a crash (a cached
/// "clean" bit may describe a write the crash dropped).
#[test]
fn recovery_distrusts_pre_crash_verification() {
    for name in JOURNALED {
        let f = front(name);
        let keys = dense_keys(24);
        let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, sat(k, f.sigma))).collect();
        let mut dict = f.build(64, &entries, 0xC4A5);
        dict.disks_mut().unwrap().enable_integrity();
        // A scrub verifies (and caches) every block.
        let report = dict.scrub();
        assert!(report.blocks_scanned > 0);
        assert!(
            dict.disks().unwrap().verified_clean_blocks() > 0,
            "{name}: scrub should populate the verified-clean cache"
        );
        // The intent lands, the in-place writes do not: a batch of four
        // keys' records is one ring slot and their blocks (one key's inline
        // record alone would be one block, written in place with no intent).
        dict.disks_mut()
            .unwrap()
            .set_fault_plan(FaultPlan::new().crash_after(1));
        let entries: Vec<(u64, Vec<Word>)> = (5_000..5_004).map(|k| (KEY_SPACE + k, sat(KEY_SPACE + k, f.sigma))).collect();
        let _ = dict.insert_batch(&entries);
        let disks = dict.disks_mut().unwrap();
        assert!(disks.crash_fired(), "{name}: the batch should cross the crash point");
        disks.clear_fault_plan();
        let _ = disks.recover();
        assert_eq!(
            disks.verified_clean_blocks(),
            0,
            "{name}: recovery must drop every pre-crash verified-clean bit"
        );
    }
}

/// A single-key update of an inline journaled structure writes its one
/// bucket in place with no intent. Cut at every physical write of a run of
/// them — two inserts and two deletes, behind a live batch intent, so that
/// the first truncates the ring before it writes — the structure reopened
/// from the image alone, on `MemBackend` and on a reopened `FileBackend`
/// directory, holds every acked update (acked ⊆ durable), the cut one
/// whole or not at all, `len()` equal to the keys that read back (the
/// recount), and no stalled or mismatched intent.
#[test]
fn an_in_place_update_is_atomic_under_any_crash_point() {
    for file in [false, true] {
        let mut crash_at = 0;
        while in_place_crash(file, crash_at) {
            crash_at += 1;
        }
        assert!(crash_at >= 5, "file = {file}: the run wrote {crash_at} blocks");
    }
}

/// One cell of [`an_in_place_update_is_atomic_under_any_crash_point`]:
/// whether the crash after `crash_at` writes fired.
fn in_place_crash(file: bool, crash_at: u64) -> bool {
    use pdm::{DiskArray, FileBackend, FileBackendOptions, MemBackend, PdmConfig, StorageBackend};
    use pdm_dict::{layout::DiskAllocator, DynamicDict};
    const D: usize = 20;
    const B: usize = 64;
    let cfg = PdmConfig::new(2 * D, B);
    let params = DictParams::new(64, UNIVERSE, 2).with_degree(D).with_epsilon(0.5).with_seed(0x1A7E).with_journal(JOURNAL_ROWS);
    let dir = std::env::temp_dir().join(format!("pdm-in-place-{}-{crash_at}", std::process::id()));
    let backend: Box<dyn StorageBackend> = if file {
        Box::new(FileBackend::create(&dir, 2 * D, B, 0, FileBackendOptions::default()).unwrap())
    } else {
        Box::new(MemBackend::new(2 * D, B, 0))
    };
    let mut disks = DiskArray::with_backend(cfg, backend).unwrap();
    let mut dict = DynamicDict::create(&mut disks, &mut DiskAllocator::new(2 * D), 0, params).unwrap();
    assert!(dict.is_inline());
    let stored = dense_keys(16);
    let entries: Vec<(u64, Vec<Word>)> = stored.iter().map(|&k| (k, sat(k, 2))).collect();
    assert!(dict.insert_batch(&mut disks, &entries).0.iter().all(Result::is_ok));

    let (a, b) = (KEY_SPACE + 1, KEY_SPACE + 2);
    // The keys the acked updates left stored, and the cut update's key.
    let (mut acked, mut cut): (BTreeSet<u64>, _) = (stored.iter().copied().collect(), None);
    disks.set_fault_plan(FaultPlan::new().crash_after(crash_at));
    for (i, op) in [Op::Ins(a), Op::Del(stored[3]), Op::Ins(b), Op::Del(a)].into_iter().enumerate() {
        let writes = disks.stats().block_writes;
        let key = match op {
            Op::Ins(k) => dict.insert(&mut disks, k, &sat(k, 2)).map(|_| k).unwrap(),
            Op::Del(k) => dict.delete(&mut disks, k).map(|(was, _)| was.then_some(k)).unwrap().unwrap(),
        };
        if disks.crash_fired() {
            cut = Some(key);
            break;
        }
        // In place: the bucket, and first the superblock truncating the batch.
        assert_eq!(disks.stats().block_writes - writes, 1 + u64::from(i == 0), "op {i}");
        match op {
            Op::Ins(k) => acked.insert(k),
            Op::Del(k) => acked.remove(&k),
        };
    }
    let fired = disks.crash_fired();
    disks.clear_fault_plan();

    // The process dies; only the medium survives.
    let mut disks = if file {
        drop(disks);
        DiskArray::with_backend(cfg, Box::new(FileBackend::open(&dir, FileBackendOptions::default()).unwrap())).unwrap()
    } else {
        DiskArray::with_backend(cfg, Box::new(MemBackend::from_image(B, disks.snapshot()))).unwrap()
    };
    let region = pdm::journal::JournalRegion { first_block: 0, rows: JOURNAL_ROWS };
    let (rec, report) = DynamicDict::reopen(&mut disks, &mut DiskAllocator::new(2 * D), 0, params, region).unwrap();
    let at = format!("file = {file}, crash at {crash_at}");
    assert_eq!((report.stalled, report.mismatched), (0, 0), "{at}: {report:?}");
    assert_eq!(fired, cut.is_some());
    let mut present = 0;
    for k in stored.iter().copied().chain([a, b]) {
        let got = rec.lookup(&mut disks, k).satellite;
        assert!(got.is_none() || got == Some(sat(k, 2)), "{at}: key {k} damaged");
        // Acked ⊆ durable, and an acked delete stays deleted; the cut
        // update's key is either way.
        assert!(got.is_some() == acked.contains(&k) || cut == Some(k), "{at}: key {k} read {got:?}");
        present += usize::from(got.is_some());
    }
    assert_eq!(rec.len(), present, "{at}: len() against the keys that read back");
    assert!(disks.recover().is_clean(), "{at}");
    drop(disks);
    let _ = std::fs::remove_dir_all(&dir);
    fired
}

/// One operation on the rebuilding wrapper, cut at every crash point.
#[derive(Debug, Clone)]
enum Cut {
    Insert(u64),
    Delete(u64),
    /// `insert_batch` of fresh keys.
    InsertBatch(Vec<u64>),
    /// `delete_batch` of stored keys.
    DeleteBatch(Vec<u64>),
}

/// The rebuilding wrapper inside a window, under **every** crash point of
/// `cut` (which also runs a batched migration step — and, when `dict` is one
/// step from the end, the swap → checkpoint → discard that follows it):
/// resume from a pre-op snapshot of the process state plus the crashed disk
/// image (superblock re-read from disk) and recover. At each point the cut
/// operation is all-or-nothing — a batch as a whole: its keys are one
/// intent — every other key of `live` is intact, `len()` is exact, the
/// journal is truncated — and stays exact through the rest of the rebuild,
/// with nothing having bypassed the journal. Satellites are `sigma` words.
fn rebuild_crash_matrix_of(dict: &Dictionary, live: &BTreeSet<u64>, cut: Cut, sigma: usize) {
    assert!(dict.is_rebuilding(), "the matrix is for operations inside a window");
    let run = |d: &mut Dictionary| match &cut {
        Cut::Insert(k) => Dictionary::insert(d, *k, &sat(*k, sigma)).map(|_| ()),
        Cut::Delete(k) => Dictionary::delete(d, *k).map(|_| ()),
        Cut::InsertBatch(keys) => {
            let entries: Vec<(u64, Vec<Word>)> = keys.iter().map(|&k| (k, sat(k, sigma))).collect();
            Dictionary::insert_batch(d, &entries).0.into_iter().collect()
        }
        Cut::DeleteBatch(keys) => {
            let answers: Result<Vec<bool>, _> = Dictionary::delete_batch(d, keys).0.into_iter().collect();
            answers.map(|was| assert!(was.iter().all(|&w| w), "{cut:?} missed a stored key"))
        }
    };
    let cut_keys: Vec<u64> = match &cut {
        Cut::Insert(k) | Cut::Delete(k) => vec![*k],
        Cut::InsertBatch(keys) | Cut::DeleteBatch(keys) => keys.clone(),
    };
    let mut crash_at = 0u64;
    loop {
        let mut trial = dict.clone();
        trial
            .disks_mut()
            .unwrap()
            .set_fault_plan(FaultPlan::new().crash_after(crash_at));
        let res = run(&mut trial);
        if !trial.disks().crash_fired() {
            // The whole operation landed: nothing to recover, and the
            // matrix is exhausted.
            res.unwrap();
            let want = match cut {
                Cut::Insert(_) | Cut::InsertBatch(_) => live.len() + cut_keys.len(),
                Cut::Delete(_) | Cut::DeleteBatch(_) => live.len() - cut_keys.len(),
            };
            assert_eq!(trial.len(), want, "{cut:?} without a crash");
            assert_eq!(trial.disks().journal_bypassed(), 0);
            break;
        }
        let mut image = trial.disks().clone();
        drop(trial);
        image.clear_fault_plan();
        // The process is gone: adopt the on-disk superblock, not the
        // dead process's cursors.
        let region = image.journal_region().unwrap();
        image.reopen_journal(region);

        let mut survivor = dict.clone();
        *survivor.disks_mut().unwrap() = image;
        let first = Dict::recover(&mut survivor);
        // Every delta replayed onto a block in one of the states it was
        // taken across.
        assert_eq!((first.stalled, first.mismatched), (0, 0), "crash point {crash_at} of {cut:?}");

        let mut present = 0;
        for &k in live.iter().filter(|k| !cut_keys.contains(k)) {
            assert_eq!(
                survivor.lookup(k).satellite,
                Some(sat(k, sigma)),
                "acked key {k} lost at crash point {crash_at} of {cut:?}"
            );
            present += 1;
        }
        // The cut operation is in doubt, never torn, and whole.
        let mut in_doubt = 0;
        for &k in &cut_keys {
            if let Some(got) = survivor.lookup(k).satellite {
                assert_eq!(got, sat(k, sigma), "{cut:?} torn at crash point {crash_at}");
                in_doubt += 1;
            }
        }
        assert!(in_doubt == 0 || in_doubt == cut_keys.len(), "crash point {crash_at} split {cut:?}: {in_doubt} keys");
        present += in_doubt;
        assert_eq!(
            survivor.len(),
            present,
            "recovered length disagrees with recovered contents at crash point {crash_at} of {cut:?}"
        );
        let second = Dict::recover(&mut survivor);
        assert!(second.is_clean(), "journal not truncated at crash point {crash_at}: {second:?}");

        // Drive the rebuild to completion on the recovered state.
        let mut extra = 0u64;
        while survivor.is_rebuilding() {
            assert!(extra < 10_000, "the window never closed after crash point {crash_at} of {cut:?}");
            let nk = KEY_SPACE + 8_000 + extra;
            extra += 1;
            survivor.insert(nk, &sat(nk, sigma)).unwrap();
        }
        for &k in live.iter().filter(|k| !cut_keys.contains(k)) {
            assert_eq!(
                survivor.lookup(k).satellite,
                Some(sat(k, sigma)),
                "key {k} lost finishing the rebuild after crash point {crash_at} of {cut:?}"
            );
        }
        assert_eq!(
            survivor.len(),
            present + extra as usize,
            "length drifted finishing the rebuild after crash point {crash_at} of {cut:?}"
        );
        assert_eq!(survivor.disks().journal_bypassed(), 0);

        crash_at += 1;
        assert!(crash_at < 2_000, "crash point never drained");
    }
}

/// Journal intents one more insert into `dict` would append.
fn intents_of_next_insert(dict: &Dictionary, key: u64, sigma: usize) -> u64 {
    let mut trial = dict.clone();
    let before = trial.disks().last_journal_seq();
    trial.insert(key, &sat(key, sigma)).unwrap();
    trial.disks().last_journal_seq() - before
}

/// Block writes the tombstone of `key` itself costs inside `dict`'s window —
/// the migration step every delete also runs is measured on an absent key
/// and subtracted. One ring slot and the in-place blocks: 3 when one intent
/// covers a key living in both structures, 2 for a key in just one.
fn tombstone_writes(dict: &Dictionary, key: u64) -> i64 {
    let writes_of = |k: u64| {
        let mut trial = dict.clone();
        let (_, cost) = Dictionary::delete(&mut trial, k).unwrap();
        cost.block_writes as i64
    };
    writes_of(key) - writes_of(KEY_SPACE + 9_999)
}

/// A journaled rebuilding dictionary of `sigma`-word records filled until
/// its first window opens, with the keys it holds and the supply of
/// further ones.
fn open_window_of(
    capacity: usize,
    journal_rows: usize,
    sigma: usize,
) -> (Dictionary, BTreeSet<u64>, impl Iterator<Item = u64>) {
    let params = DictParams::new(capacity, UNIVERSE, sigma)
        .with_degree(20)
        .with_epsilon(0.5)
        .with_seed(0xC4A5)
        .with_journal(journal_rows);
    let mut dict = Dictionary::new(params, 64).unwrap();
    let mut live: BTreeSet<u64> = BTreeSet::new();
    let mut keys = dense_keys(2_000).into_iter();
    while !dict.is_rebuilding() {
        let k = keys.next().expect("rebuild never started");
        dict.insert(k, &sat(k, sigma)).unwrap();
        live.insert(k);
    }
    assert!(dict.disks().journal_enabled());
    (dict, live, keys)
}

/// The crash matrix over the states of a window that differ in what a crash
/// can cut: an insert with a batched step behind it; a delete of a key
/// already copied (one tombstone intent over both structures); and the final
/// step, which swaps, checkpoints and discards. Records of one word are
/// stored in their membership slots on both sides of the window, records of
/// four words chained on both.
#[test]
fn rebuilding_dictionary_is_crash_consistent_during_migration() {
    for sigma in [1, 4] {
        let (dict, live, keys) = open_window_of(64, JOURNAL_ROWS, sigma);
        assert_eq!(inline_in_slots(&dict), (sigma == 1, sigma == 1), "σ = {sigma}: records inline in (old, new)");
        window_crash_matrix(dict, live, keys, sigma);
    }
}

/// Whether the structures of `dict`'s first window — the old one in the
/// lower slot of `2d` disks, its replacement in the upper — store records
/// inline: then a slot's disks `d..2d` hold the ring and the upper half of
/// the membership (stripe `i`'s odd buckets), never longer than the lower
/// half on disks `0..d`; chained, they hold the levels, which stack more
/// rows than the membership has.
fn inline_in_slots(dict: &Dictionary) -> (bool, bool) {
    let inline = |slot: usize| dict.disks().blocks_on(slot + 20) <= dict.disks().blocks_on(slot);
    (inline(0), inline(40))
}

/// The same matrix over the window that crosses the layout boundary: the
/// old structure (capacity 200: 16 slots of 4 words, one 64-word block)
/// stores its two-word records inline, the replacement (capacity 300: 17
/// slots, 68 words) chains them. Every record a step copies is read out of
/// its slot and written as a chain, cut at every write.
#[test]
fn a_window_from_inline_to_chained_records_is_crash_consistent() {
    let (dict, live, keys) = open_window_of(200, JOURNAL_ROWS, 2);
    assert_eq!(inline_in_slots(&dict), (true, false), "records inline in (old, new)");
    window_crash_matrix(dict, live, keys, 2);
}

/// [`rebuilding_dictionary_is_crash_consistent_during_migration`]'s matrix
/// from the open window of `dict`, on records of `sigma` words.
fn window_crash_matrix(mut dict: Dictionary, mut live: BTreeSet<u64>, mut keys: impl Iterator<Item = u64>, sigma: usize) {
    let victim = KEY_SPACE + 7_000;
    let fresh: Vec<u64> = (0..5).map(|i| KEY_SPACE + 7_100 + i).collect();
    // Inserts until the window closes (a batch of as many closes it with
    // its own step: the swap's checkpoint is then the call's last write.
    // Past it the pre-op process state the matrix resumes from is no
    // longer the one a restart would rebuild, so a batch the window ends
    // *inside* of is left to the differential suite).
    let ops_left = |dict: &Dictionary| {
        let mut probe = dict.clone();
        (0..).take_while(|&i| probe.is_rebuilding() && probe.insert(victim + i, &sat(victim + i, sigma)).is_ok()).count()
    };
    let matrix = |dict: &Dictionary, live: &BTreeSet<u64>, cut: Cut| rebuild_crash_matrix_of(dict, live, cut, sigma);
    assert!(ops_left(&dict) > fresh.len(), "the window is too short for a batch inside it");
    matrix(&dict, &live, Cut::Insert(victim));
    matrix(&dict, &live, Cut::InsertBatch(fresh.clone()));
    let (mut cut_a_copied_delete, mut cut_a_closing_batch) = (false, false);
    loop {
        let copied = live.iter().copied().find(|&k| tombstone_writes(&dict, k) == 3);
        if let (false, Some(k)) = (cut_a_copied_delete, copied) {
            cut_a_copied_delete = true;
            matrix(&dict, &live, Cut::Delete(k));
            // A batch over a copied key and keys only one structure holds:
            // one intent, a section for each structure.
            let mut doomed: Vec<u64> = live.iter().copied().filter(|&d| d != k).step_by(9).collect();
            doomed.push(k);
            matrix(&dict, &live, Cut::DeleteBatch(doomed));
        }
        let left = ops_left(&dict);
        if (2..=fresh.len()).contains(&left) && !cut_a_closing_batch {
            cut_a_closing_batch = true;
            // Batches whose step is the final one.
            matrix(&dict, &live, Cut::InsertBatch(fresh[..left].to_vec()));
            matrix(&dict, &live, Cut::DeleteBatch(live.iter().copied().step_by(7).collect()));
        }
        // The final step: one more operation ends the window.
        if left == 1 {
            matrix(&dict, &live, Cut::Insert(victim));
            let k = copied.expect("nothing copied by the last step");
            matrix(&dict, &live, Cut::Delete(k));
            break;
        }
        let k = keys.next().expect("window never closed");
        dict.insert(k, &sat(k, sigma)).unwrap();
        live.insert(k);
    }
    assert!(cut_a_copied_delete, "no delete of a copied key was cut");
    assert!(cut_a_closing_batch, "no batch closed the window");
}

/// A step that stages more changed words than a one-row ring holds commits
/// as several intents, so the ring truncates *inside* the operation and the
/// pre-op process state no longer sees the first of them replayed: the
/// counters must then come from the checkpoint the truncation persisted.
/// (An intent is the words a key changes, ~76 of them at one satellite word,
/// and the smallest ring holds 62 such keys — more than two buckets hand a
/// step. Satellites of `WIDE` words make a key's chain 14 fields of 63
/// words, one to a block, and a step of more than 4 keys splits.)
#[test]
fn a_migration_step_split_across_intents_is_crash_consistent() {
    const WIDE: usize = 880;
    let victim = KEY_SPACE + 7_000;
    let (mut dict, mut live, mut keys) = open_window_of(64, 1, WIDE);
    // One intent for the insert, one per commit of the step.
    while intents_of_next_insert(&dict, victim, WIDE) <= 2 {
        assert!(dict.is_rebuilding(), "no step of the window was split");
        let k = keys.next().expect("keys ran out");
        dict.insert(k, &sat(k, WIDE)).unwrap();
        live.insert(k);
    }
    rebuild_crash_matrix_of(&dict, &live, Cut::Insert(victim), WIDE);
}

/// Integrity checksums across a discard: the `rebuild` front runs through
/// several rebuilds with every block sealed, so each replacement after the
/// first is laid out over recycled blocks — which must read as clean
/// zeros, never as a checksum mismatch.
#[test]
fn recycled_blocks_never_read_as_checksum_mismatches() {
    let f = front("rebuild");
    let keys = dense_keys(300);
    let entries: Vec<(u64, Vec<Word>)> = keys[..20].iter().map(|&k| (k, sat(k, f.sigma))).collect();
    let mut dict = f.build(0, &entries, 0x5EA1);
    dict.disks_mut().unwrap().enable_integrity();
    for (i, &k) in keys.iter().enumerate().skip(20) {
        dict.insert(k, &sat(k, f.sigma)).unwrap();
        // Churn, so rebuilds keep coming at a bounded size.
        assert!(dict.delete(keys[i - 20]).unwrap().0);
        let out = dict.lookup(k);
        assert_eq!(out.satellite, Some(sat(k, f.sigma)), "key {k}");
        assert!(out.is_exact(), "lookup of {k} met a damaged block");
    }
    assert_eq!(dict.len(), 20);
    let disks = dict.disks().unwrap();
    assert_eq!(disks.degraded_reads(), 0, "a recycled block failed verification");
    let report = dict.scrub();
    assert_eq!(report.checksum_failures, 0, "{report:?}");
    for &k in &keys[280..] {
        let out = dict.lookup(k);
        assert_eq!(out.satellite, Some(sat(k, f.sigma)));
        assert!(out.is_exact());
    }
}

/// Scrub repair under a dead disk is itself crash-protected: the repair
/// flush routes through the journal, so a crash mid-repair never leaves
/// a half-rewritten stripe. After reboot (superblock re-read), recovery
/// replays the torn flush and a final scrub restores every key exactly.
#[test]
fn one_probe_b_scrub_repair_survives_dead_disk_plus_crash() {
    let f = front("one_probe_b");
    let es = padded_entries(&f, &dense_keys(150));
    let mut dict = f.build(es.len(), &es, 0xD1E5);
    let disks = dict.disks_mut().unwrap();
    disks.enable_integrity();
    disks.enable_journal_appended(JOURNAL_ROWS);
    let mut crash_at = 0u64;
    loop {
        dict.disks_mut()
            .unwrap()
            .set_fault_plan(FaultPlan::new().dead_disk(4).crash_after(crash_at));
        let _ = dict.scrub(); // repairs route through the journal; the crash tears the flush
        let fired = dict.disks().unwrap().crash_fired();
        let disks = dict.disks_mut().unwrap();
        disks.clear_fault_plan();
        let region = disks.journal_region().unwrap();
        disks.reopen_journal(region);
        let _ = dict.recover(); // replay the torn repair flush, checkpoint

        // No wrong data between reboot and repair: damage may read as a
        // miss, never as another key's satellite.
        for (k, s) in &es {
            if let Some(got) = dict.lookup(*k).satellite {
                assert_eq!(&got, s, "wrong satellite for {k} after crash at {crash_at}");
            }
        }
        let report = dict.scrub();
        assert_eq!(report.unrepairable_keys, 0, "{report:?}");
        for (k, s) in &es {
            let out = dict.lookup(*k);
            assert_eq!(out.satellite.as_ref(), Some(s), "key {k} lost");
            assert!(out.is_exact(), "key {k} still degraded after repair");
        }
        let idle = dict.scrub();
        assert_eq!(idle.repaired_blocks, 0, "idle scrub repaired: {idle:?}");

        if !fired {
            break;
        }
        crash_at += 9; // stride keeps the drill fast; the every-k matrix is unit-level
        assert!(crash_at < 2_000, "crash point never drained");
    }
}

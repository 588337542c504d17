//! Fault-injection properties, generic over every dictionary front-end:
//! each front runs behind `dyn Dict` under pseudo-random [`FaultPlan`]s
//! (dead disks, transient read windows, torn writes, bit rot) with
//! integrity checksums sealed over the built state. Three invariants:
//!
//! 1. **No panics**, ever — hits, misses, and mutations under any plan.
//! 2. **No silent wrong data**: a returned satellite is exactly the
//!    record its key was stored with. Damage surfaces as misses (decodes
//!    fail closed over sanitized reads) or typed [`DictError::Io`]s,
//!    never as fabricated or cross-key data.
//! 3. **Monotone recovery**: after the plan is cleared (failed hardware
//!    replaced) and a scrub pass runs, every key answered exactly under
//!    the fault is still answered exactly — repair never loses ground.
//!
//! Deletes of stored keys run under the plan too. On the fronts that
//! promise it ([`Front::typed_delete`]) a key that reads back exactly is
//! never reported absent by the delete that follows: the answer is
//! `Ok(true)` or a typed `Io` error. (A key that no longer reads back may
//! be truly gone — a rebuilding front can lose a record to a migration
//! write under the plan — so there "absent" can be the truth; the strict
//! form, no "absent" off an unreadable probe, has its own tests beside
//! `dead_membership_disk_fails_deletes_typed` in `pdm-dict`.) Everywhere, a
//! key whose delete was acknowledged stays gone after repair, and one whose
//! delete failed typed was not touched by it.
//!
//! Inserted-under-fault keys are deliberately *not* asserted readable:
//! an insert interrupted by a fault may be rejected typed or land
//! partially (fail-closed), both of which are contract-conforming. For
//! the same reason the recovery baseline is measured *after* the
//! mutation phase — a rebuilding front may migrate records while the
//! plan is active, and a migration write that lands on a dead disk is
//! lost at the write path (typed where surfaced), not by the scrub.
//!
//! The vendored `proptest` stand-in draws cases from a fixed-seed
//! deterministic stream (see `integration_batch.rs`); set
//! `PROPTEST_SEED=<u64>` to explore a different corpus.

mod harness;

use expander::FamilyKind;
use harness::{fronts, fronts_with, padded_entries, sat, Front, KEY_SPACE};
use pdm::{FaultPlan, Word};
use pdm_dict::{Dict, DictError};
use proptest::prelude::*;

/// A sorted, deduplicated key set.
fn key_set() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::hash_set(0u64..KEY_SPACE, 5..60).prop_map(|s| {
        let mut v: Vec<u64> = s.into_iter().collect();
        v.sort_unstable();
        v
    })
}

/// Probe keys guaranteed absent: generated keys stay below [`KEY_SPACE`],
/// padding keys just above it, insert-under-fault keys at `+5000`.
fn miss_probes() -> impl Iterator<Item = u64> {
    (0..40u64).map(|i| KEY_SPACE + 1_000 + i * 7)
}

fn drive(f: &Front, keys: &[u64], fault_seed: u64) -> Result<(), TestCaseError> {
    let entries = padded_entries(f, keys);
    let mut dict = f.build(entries.len(), &entries, 0xFA17);
    let disks = dict
        .disks_mut()
        .unwrap_or_else(|| panic!("{}: a front without an array cannot be fault-injected", f.name));
    // Seal checksums over the built (trusted) state, then injure it.
    disks.enable_integrity();
    let d = disks.disks();
    // Each disk's own length: disks differ, and one may hold nothing.
    let blocks_on: Vec<usize> = (0..d).map(|i| disks.blocks_on(i)).collect();
    let mut plan = FaultPlan::random(fault_seed, &blocks_on, 6);
    if fault_seed.is_multiple_of(2) {
        plan = plan.dead_disk((fault_seed % d as u64) as usize);
    }
    disks.set_fault_plan(plan);

    // (1) + (2) under the active plan.
    for (k, s) in &entries {
        let out = dict.lookup(*k);
        if let Some(got) = &out.satellite {
            prop_assert_eq!(
                got,
                s,
                "{}: wrong satellite for key {} under plan seed {:#x}",
                f.name,
                k,
                fault_seed
            );
        }
    }
    for probe in miss_probes() {
        let out = dict.lookup(probe);
        prop_assert!(
            out.satellite.is_none(),
            "{}: absent key {probe} fabricated under faults",
            f.name
        );
    }
    if !f.is_static {
        for i in 0..8u64 {
            let k = KEY_SPACE + 5_000 + i;
            // May succeed, fail typed (Io on an unreadable membership
            // probe, overflow on sanitized buckets), or land partially;
            // must never panic.
            match dict.insert(k, &sat(k, f.sigma)) {
                Ok(_) | Err(DictError::Io { .. }) => {}
                Err(e) => {
                    prop_assert!(
                        !matches!(e, DictError::SatelliteWidth { .. }),
                        "{}: insert under fault miswired: {e}",
                        f.name
                    );
                }
            }
        }
        let batch: Vec<(u64, Vec<Word>)> = (0..8u64)
            .map(|i| {
                let k = KEY_SPACE + 6_000 + i;
                (k, sat(k, f.sigma))
            })
            .collect();
        let _ = dict.insert_batch(&batch);
    }
    // Deletes of stored keys; `deleted` collects the acknowledged ones.
    let mut deleted: Vec<u64> = Vec::new();
    if !f.is_static {
        for (k, s) in entries.iter().step_by(4) {
            let exact_before = dict.lookup(*k).satellite.as_ref() == Some(s);
            match dict.delete(*k) {
                Ok((true, _)) => deleted.push(*k),
                Ok((false, _)) => prop_assert!(
                    !(f.typed_delete && exact_before),
                    "{}: readable key {k} reported absent under plan seed {:#x}",
                    f.name,
                    fault_seed
                ),
                Err(DictError::Io { .. }) => {
                    // A failed delete wrote nothing: a key that read back
                    // before it still does, or misses only off damage.
                    let after = dict.lookup(*k);
                    prop_assert!(
                        !exact_before || after.satellite.as_ref() == Some(s) || !after.is_exact(),
                        "{}: a failed delete made key {k} certifiably absent",
                        f.name
                    );
                }
                Err(e) => prop_assert!(false, "{}: delete under fault miswired: {e}", f.name),
            }
        }
    }
    // Batched lookups under the plan obey the same no-wrong-data rule.
    let query: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
    let (batch_res, _) = dict.lookup_batch(&query);
    for ((k, s), got) in entries.iter().zip(&batch_res) {
        if let Some(got) = got {
            prop_assert_eq!(got, s, "{}: batch wrong satellite for {}", f.name, k);
        }
    }

    // Recovery baseline: what is still exactly answered once the dust of
    // the mutation phase settles, with the plan STILL active.
    let mut exact_during: Vec<u64> = Vec::new();
    for (k, s) in &entries {
        if dict.lookup(*k).satellite.as_ref() == Some(s) {
            exact_during.push(*k);
        }
    }

    // (3) replace the hardware, scrub, and require monotone recovery.
    dict.disks_mut().unwrap().clear_fault_plan();
    let report = dict.scrub();
    prop_assert!(
        report.blocks_scanned > 0,
        "{}: scrub scanned nothing",
        f.name
    );
    let during = exact_during.len();
    let mut lost: Vec<u64> = Vec::new();
    for (k, s) in &entries {
        let out = dict.lookup(*k);
        match &out.satellite {
            Some(got) => {
                prop_assert_eq!(got, s, "{}: wrong satellite for {} after scrub", f.name, k);
            }
            None => {
                if exact_during.contains(k) {
                    lost.push(*k);
                }
            }
        }
    }
    for k in &deleted {
        let got = dict.lookup(*k).satellite;
        prop_assert!(got.is_none(), "{}: deleted key {k} came back after scrub", f.name);
    }
    prop_assert!(
        lost.is_empty(),
        "{}: keys exact under the fault but lost after scrub (non-monotone recovery): \
         {lost:?} (of {during} exact during)",
        f.name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn every_frontend_survives_random_fault_plans(
        keys in key_set(),
        fault_seed in 0u64..1 << 48,
    ) {
        for f in fronts() {
            drive(&f, &keys, fault_seed)?;
        }
    }
}

/// Case 0 of the `PROPTEST_SEED=3` stream, pinned. Its plan tears the
/// write of a tombstone on the rebuilding front (disk 6, block 0) and keeps
/// the half the flag word is in: the medium holds exactly the block the
/// delete staged, under a matching checksum. Reporting that delete failed
/// kept counting a key the next lookup certified absent; the commit's one
/// retry of a write that did not land now writes it whole, and the delete
/// is acknowledged.
#[test]
fn a_torn_tombstone_that_landed_is_a_delete_that_happened() {
    let keys = [
        7260u64, 18135, 48993, 49044, 56309, 56577, 70879, 108937, 125908, 152015, 168938, 184109, 204850,
        222691, 224114, 231878, 244213, 277285, 293580, 296840, 303043, 329681, 334642, 347344, 365078,
        396056, 449694, 450603, 458386, 490019, 498070, 556518, 557937, 569168, 622896, 650874, 715567,
        725008, 733500, 734352, 772559, 804991, 810667, 843812, 860563, 894141, 919208, 933873, 940015,
        959137, 982456, 1003271, 1039604,
    ];
    for f in fronts() {
        drive(&f, &keys, 0xe588_c104_25e6).unwrap();
    }
}

/// Family rotation: one canned fault plan (with a dead disk — the even
/// seed triggers it) driven through every front over every non-default
/// hash family, proving the seam composes with fault injection.
#[test]
fn fault_recovery_composes_with_every_family() {
    let keys = [3u64, 99, 1_024, 77_777, 524_287];
    for family in FamilyKind::ALL {
        if family == FamilyKind::default() {
            continue;
        }
        for f in fronts_with(family) {
            drive(&f, &keys, 0xFA_0172 & !1).unwrap();
        }
    }
}

/// The canned single-disk-failure drill the chaos CI step mirrors: under
/// one dead disk the one-probe case (b) answers **every** key exactly,
/// and after replacement + scrub the structure is fully exact again with
/// nothing left to repair.
#[test]
fn one_probe_b_single_disk_failure_drill() {
    let f = harness::front("one_probe_b");
    let es = padded_entries(&f, &harness::dense_keys(150));
    let mut dict = f.build(es.len(), &es, 0xD1E5);
    let disks = dict.disks_mut().unwrap();
    disks.enable_integrity();
    disks.set_fault_plan(FaultPlan::new().dead_disk(4));
    for (k, s) in &es {
        assert_eq!(
            dict.lookup(*k).satellite.as_ref(),
            Some(s),
            "key {k} lost under a single dead disk"
        );
    }
    dict.disks_mut().unwrap().clear_fault_plan();
    let report = dict.scrub();
    assert_eq!(report.unrepairable_keys, 0, "{report:?}");
    assert!(report.repaired_fields > 0, "{report:?}");
    for (k, s) in &es {
        let out = dict.lookup(*k);
        assert_eq!(out.satellite.as_ref(), Some(s));
        assert!(out.is_exact(), "key {k} still degraded after scrub");
    }
    let second = dict.scrub();
    assert_eq!(second.repaired_blocks, 0, "idle scrub repaired: {second:?}");
}

/// A tombstone write that tears is written once more by the commit's retry;
/// one that tears again did not provably land — the record may still be on
/// disk — so the delete fails typed instead of acknowledging. Every disk's
/// first two writes tear (wherever the key's bucket lies, and whether or not
/// a journal slot is written to that disk first), so the retry may tear too.
/// Either way `len()` is what lookups answer, before and after a recovery:
/// a failed delete leaves it counting the key, truncates its intent so that
/// no recovery replays an op the caller was told failed, and never turns
/// the key into wrong data; an acknowledged one is counted, and stays gone.
/// An inline shard's single-key delete is one block written in place, and
/// a recovery counts its keys from the image: a failed delete whose torn
/// tombstone landed anyway is counted gone from then on.
/// (`pdm-dict`'s `torn_tombstone_write_fails_deletes_typed` counts the
/// tears.)
#[test]
fn a_torn_tombstone_write_fails_the_delete_typed() {
    for name in ["dynamic", "dynamic_journaled", "dynamic_chained", "dynamic_chained_journaled", "rebuild"] {
        let f = harness::front(name);
        let entries = padded_entries(&f, &harness::dense_keys(40));
        let mut dict = f.build(entries.len() + 8, &entries, 0x70A2);
        let disks = dict.disks_mut().unwrap();
        disks.enable_integrity();
        let plan = (0..disks.disks()).fold(FaultPlan::new(), |plan, d| {
            plan.torn_write(d, 0).torn_write(d, 1)
        });
        disks.set_fault_plan(plan);
        let (victim, stored) = &entries[17];
        let before = dict.len();
        let after = match dict.delete(*victim) {
            Err(DictError::Io { kind, .. }) => {
                assert_eq!(kind, pdm::IoFaultKind::TornWrite, "{name}");
                before
            }
            Ok((true, _)) => before - 1,
            other => panic!("{name}: a torn tombstone was answered {other:?}"),
        };
        assert_eq!(dict.len(), after, "{name}: len() against the delete's answer");
        dict.disks_mut().unwrap().clear_fault_plan();
        let report = dict.recover();
        assert!(report.replayed.is_empty() || after < before, "{name}: the failed delete replayed: {report:?}");
        let out = dict.lookup(*victim);
        if let Some(got) = &out.satellite {
            assert_eq!(got, stored, "{name}: wrong satellite after a torn tombstone");
            assert_eq!(after, before, "{name}: an acknowledged delete came back");
        }
        // A failed delete's torn tombstone may have landed (a tear writes
        // the block's first half): the recovery of a journaled inline shard,
        // the one front here, counts what the image holds, so a key
        // certifiably gone is no longer counted.
        let recounts = name == "dynamic_journaled";
        let recounted = usize::from(recounts && after == before && !out.found() && out.is_exact());
        assert_eq!(dict.len(), after - recounted, "{name}");
        if after < before {
            assert!(dict.lookup(*victim).is_exact(), "{name}: counted gone, yet not certifiably");
        }
        // The other keys never noticed.
        for (k, s) in entries.iter().filter(|(k, _)| k != victim).step_by(5) {
            let got = dict.lookup(*k).satellite;
            assert!(got.is_none() || got.as_ref() == Some(s), "{name}: key {k} damaged");
        }
    }
}

/// Record widths of a rebuilding `Dictionary` at `B = 64` around 256 keys:
/// one word is stored in its membership slot, four take Theorem 7's chains.
const INLINE_AND_CHAINED: [usize; 2] = [1, 4];

/// A journaled rebuilding `Dictionary` of `sigma`-word records stopped
/// inside a rebuild window with some keys already copied, and the
/// satellites it holds.
fn window_dictionary(sigma: usize) -> (pdm_dict::Dictionary, std::collections::BTreeMap<u64, Vec<Word>>) {
    let params = pdm_dict::DictParams::new(256, harness::UNIVERSE, sigma)
        .with_degree(20)
        .with_epsilon(0.5)
        .with_seed(0xFA57)
        .with_journal(2);
    let mut dict = pdm_dict::Dictionary::new(params, 64).unwrap();
    let mut model = std::collections::BTreeMap::new();
    let mut k = 0u64;
    let mut in_window = 0;
    while in_window < 3 {
        dict.insert(k, &sat(k, sigma)).unwrap();
        model.insert(k, sat(k, sigma));
        in_window += usize::from(dict.is_rebuilding());
        k += 1;
    }
    dict.disks_mut().unwrap().enable_integrity();
    (dict, model)
}

/// What a batch left behind, against `model` (updated by the caller for
/// every key answered `Ok`): the keys it holds read back, the keys of
/// `gone` do not, `len()` is exact, and a recovery changes none of that.
fn check_against(dict: &mut dyn Dict, model: &std::collections::BTreeMap<u64, Vec<Word>>, gone: &[u64], what: &str) {
    assert_eq!(dict.len(), model.len(), "{what}: len()");
    dict.disks_mut().unwrap().clear_fault_plan();
    for round in ["before", "after"] {
        for (k, s) in model {
            assert_eq!(dict.lookup(*k).satellite.as_ref(), Some(s), "{what}: key {k} {round} recovery");
        }
        for k in gone {
            assert!(!dict.lookup(*k).found(), "{what}: key {k} is back {round} recovery");
        }
        dict.recover();
        assert_eq!(dict.len(), model.len(), "{what}: len() after recovery");
    }
}

/// One torn write — on whichever disk, whichever of an update's writes: the
/// ring slot, a bucket, a field block, a block of the migration step — is
/// retried by the batch's commit and lands: every key is acknowledged and
/// stored, nothing is counted that is not on the medium. (The commit used
/// to drop the failure: the key was acked, counted, and unreadable.)
#[test]
fn a_torn_write_inside_a_batch_is_retried_and_lands() {
    let fresh: Vec<(u64, Vec<Word>)> = (0..24u64).map(|i| (KEY_SPACE + 9_000 + i, vec![i])).collect();
    for nth in 0..3 {
        let tear_all = |dict: &mut dyn Dict| {
            let disks = dict.disks_mut().unwrap();
            let plan = (0..disks.disks()).fold(FaultPlan::new(), |plan, d| plan.torn_write(d, nth));
            disks.set_fault_plan(plan);
        };
        for name in DYNAMIC_FRONTS {
            let f = harness::front(name);
            let entries = padded_entries(&f, &harness::dense_keys(40));
            let batch: Vec<(u64, Vec<Word>)> = fresh.iter().map(|(k, _)| (*k, sat(*k, f.sigma))).collect();
            let mut model: std::collections::BTreeMap<u64, Vec<Word>> = entries.iter().cloned().collect();
            let mut dict = f.build(128, &entries, 0x7EA2);
            dict.disks_mut().unwrap().enable_integrity();
            tear_all(dict.as_mut());
            let (res, _) = dict.insert_batch(&batch);
            assert!(res.iter().all(Result::is_ok), "{name}, tear {nth}: {res:?}");
            model.extend(batch.iter().cloned());
            tear_all(dict.as_mut());
            let doomed: Vec<u64> = entries.iter().step_by(3).map(|(k, _)| *k).collect();
            let (res, _) = dict.delete_batch(&doomed);
            assert!(res.iter().all(|r| matches!(r, Ok(true))), "{name}, tear {nth}: {res:?}");
            doomed.iter().for_each(|k| drop(model.remove(k)));
            check_against(dict.as_mut(), &model, &doomed, &format!("{name}, tear {nth}"));
        }
        // Inside a rebuild window, each batch with its migration step.
        for sigma in INLINE_AND_CHAINED {
            let (mut dict, mut model) = window_dictionary(sigma);
            let what = format!("window of σ = {sigma}, tear {nth}");
            tear_all(&mut dict);
            let batch: Vec<(u64, Vec<Word>)> = fresh.iter().take(6).map(|(k, _)| (*k, sat(*k, sigma))).collect();
            let (res, _) = dict.insert_batch(&batch);
            assert!(res.iter().all(Result::is_ok), "{what}: {res:?}");
            model.extend(batch);
            assert!(dict.is_rebuilding(), "{what}: the window closed before the delete batch");
            tear_all(&mut dict);
            let doomed: Vec<u64> = model.keys().step_by(7).copied().collect();
            let (res, _) = dict.delete_batch(&doomed);
            assert!(res.iter().all(|r| matches!(r, Ok(true))), "{what}: {res:?}");
            doomed.iter().for_each(|k| drop(model.remove(k)));
            assert_eq!(dict.last_step_error(), None, "{what}");
            check_against(&mut dict, &model, &doomed, &what);
            // The rebuild finishes over what the steps copied.
            for k in 0..200u64 {
                dict.insert(KEY_SPACE + 20_000 + k, &sat(k, sigma)).unwrap();
                model.insert(KEY_SPACE + 20_000 + k, sat(k, sigma));
            }
            assert!(dict.rebuilds() > 0, "{what}: the rebuild never finished");
            check_against(&mut dict, &model, &doomed, &format!("{what}, after the swap"));
        }
    }
}

/// The unrebuilt Theorem 7 fronts: two-word records stored inline (at the
/// capacity of 128 the tests below build them at), four-word ones chained.
const DYNAMIC_FRONTS: [&str; 4] = ["dynamic", "dynamic_journaled", "dynamic_chained", "dynamic_chained_journaled"];

/// The keys of `keys` whose records lie on `disk`, read off their probes:
/// on a copy of the array with `disk` dead, exactly their lookups miss — a
/// record's bucket reads as zeros there, and every other record is found in
/// a bucket its probe still reads. The dictionary's own array is put back.
fn records_on(dict: &mut dyn Dict, disk: usize, keys: &[u64]) -> Vec<u64> {
    let mut dead = dict.disks().unwrap().clone();
    harness::kill_disk(&mut dead, disk);
    let live = std::mem::replace(dict.disks_mut().unwrap(), dead);
    let on = keys.iter().copied().filter(|&k| !dict.lookup(k).found()).collect();
    *dict.disks_mut().unwrap() = live;
    on
}

/// The batch both drills below insert.
fn drill_batch(f: &Front) -> Vec<(u64, Vec<Word>)> {
    (0..24u64).map(|i| KEY_SPACE + 9_000 + i).map(|k| (k, sat(k, f.sigma))).collect()
}

/// A drill's disks on a dynamic front built at capacity 128 from `entries`
/// at `seed`, and for each, when it is a membership disk, the batch keys a
/// fault-free twin that took [`drill_batch`] stored there, in batch order. The membership
/// disk is the first holding the records of a batch key and of a key the
/// drills delete (every other entry), so a fault there reaches both; disk
/// 27 joins it where records are chained (a lookup reads more than the `d`
/// membership buckets) and holds fields.
fn drill_disks(f: &Front, entries: &[(u64, Vec<Word>)], seed: u64) -> Vec<(usize, Option<Vec<u64>>)> {
    let mut twin = f.build(128, entries, seed);
    let batch = drill_batch(f);
    assert!(twin.insert_batch(&batch).0.iter().all(Result::is_ok));
    let doomed: Vec<u64> = entries.iter().step_by(2).map(|e| e.0).collect();
    let added: Vec<u64> = batch.iter().map(|e| e.0).collect();
    let membership = (0..2 * f.degree)
        .find_map(|disk| {
            let on = records_on(twin.as_mut(), disk, &added);
            (!on.is_empty() && !records_on(twin.as_mut(), disk, &doomed).is_empty()).then_some((disk, on))
        })
        .expect("a disk holding records of both");
    let chained = twin.lookup(KEY_SPACE + 77_777).cost.block_reads > f.degree as u64;
    let mut drills = vec![(membership.0, Some(membership.1))];
    drills.extend(chained.then_some((27, None)));
    drills
}

/// A write that keeps failing (every write to one disk tears, the commit's
/// retry included) fails exactly the keys staged into the lost blocks,
/// typed; every other key of the batch is acknowledged and stored. The
/// failed keys are not counted, and their intent never replays.
#[test]
fn a_write_that_keeps_failing_fails_its_keys_typed() {
    let tear = |dict: &mut dyn Dict, disk: usize| {
        let plan = (0..64).fold(FaultPlan::new(), |plan, nth| plan.torn_write(disk, nth));
        dict.disks_mut().unwrap().set_fault_plan(plan);
    };
    let torn_on = |e: &DictError, disk: usize| {
        matches!(e, DictError::Io { kind: pdm::IoFaultKind::TornWrite, disk: at, .. } if *at == disk)
    };
    for name in DYNAMIC_FRONTS {
        let f = harness::front(name);
        let entries = padded_entries(&f, &harness::dense_keys(40));
        for (disk, staged) in drill_disks(&f, &entries, 0x7EA3) {
            let what = format!("{name}, disk {disk}");
            let mut model: std::collections::BTreeMap<u64, Vec<Word>> = entries.iter().cloned().collect();
            let mut dict = f.build(128, &entries, 0x7EA3);
            dict.disks_mut().unwrap().enable_integrity();
            tear(dict.as_mut(), disk);
            let batch = drill_batch(&f);
            let (res, _) = dict.insert_batch(&batch);
            let mut lost = Vec::new();
            for ((k, s), r) in batch.iter().zip(&res) {
                match r {
                    Ok(()) => drop(model.insert(*k, s.clone())),
                    Err(e) => {
                        assert!(torn_on(e, disk), "{what}: insert of {k} failed with {e}");
                        lost.push(*k);
                    }
                }
            }
            assert!(!lost.is_empty() && lost.len() < batch.len(), "{what}: {} of {} inserts lost", lost.len(), batch.len());
            // The batch is placed before it is written, as the twin placed
            // it; a write batch tears the first block it carries to the disk.
            if let Some(staged) = &staged {
                assert!(lost.iter().all(|k| staged.contains(k)), "{what}: lost {lost:?}, staged on the disk {staged:?}");
            }
            // What the tear damaged beside the batch is the fault's, not
            // the commit's: stored keys it reached are still counted, and
            // no longer vouched for.
            let mut shaky: Vec<u64> = Vec::new();
            let mut collateral = |dict: &mut Box<dyn Dict + Send>, model: &mut std::collections::BTreeMap<u64, Vec<Word>>| {
                let hit: Vec<u64> = model.keys().copied().filter(|k| !dict.lookup(*k).is_exact()).collect();
                hit.iter().for_each(|k| drop(model.remove(k)));
                shaky.extend(hit);
                shaky.len()
            };
            let counted = collateral(&mut dict, &mut model);
            assert_eq!(dict.len(), model.len() + counted, "{what}: len() after the insert batch");
            // Deletes under the same plan fail for records on the disk — those
            // in the block torn — (a membership disk only: a tombstone writes
            // nothing to a field disk).
            let doomed: Vec<u64> = model.keys().step_by(2).copied().collect();
            let on_disk = if staged.is_some() { records_on(dict.as_mut(), disk, &doomed) } else { Vec::new() };
            let (res, _) = dict.delete_batch(&doomed);
            let mut gone = Vec::new();
            // Failed typed: not counted (an insert) or still counted (a
            // delete), and on the medium whatever half of the torn block
            // landed — the key is absent or holds its own satellite.
            let mut kept = Vec::new();
            let mut torn: Vec<(u64, Vec<Word>)> = lost.iter().map(|&k| (k, sat(k, f.sigma))).collect();
            for (k, r) in doomed.iter().zip(&res) {
                match r {
                    Ok(true) => gone.push(*k),
                    Ok(false) => panic!("{what}: stored key {k} reported absent"),
                    // Still counted; the torn tombstone may or may not show.
                    Err(e) => {
                        assert!(torn_on(e, disk), "{what}: delete of {k} failed with {e}");
                        kept.push((*k, model[k].clone()));
                    }
                }
                model.remove(k);
            }
            assert_eq!(!kept.is_empty(), staged.is_some(), "{what}: {} deletes lost", kept.len());
            assert!(kept.iter().all(|(k, _)| on_disk.contains(k)), "{what}: a delete lost off the disk");
            let counted = collateral(&mut dict, &mut model) + kept.len();
            assert_eq!(dict.len(), model.len() + counted, "{what}: len() after the delete batch");
            dict.disks_mut().unwrap().clear_fault_plan();
            let report = dict.recover();
            // A batch that lost a key truncated its intent; one that did
            // not may replay, onto counters that already hold it.
            assert!(kept.is_empty() || report.replayed.is_empty(), "{what}: a failed batch replayed: {report:?}");
            assert_eq!(dict.len(), model.len() + counted, "{what}: len() after recovery");
            for (k, s) in &model {
                assert_eq!(dict.lookup(*k).satellite.as_ref(), Some(s), "{what}: key {k}");
            }
            for k in &gone {
                assert!(!dict.lookup(*k).found(), "{what}: key {k} is stored");
            }
            torn.extend(kept);
            for (k, s) in &torn {
                let got = dict.lookup(*k).satellite;
                assert!(got.is_none() || got.as_ref() == Some(s), "{what}: key {k} reads {got:?}");
            }
        }
    }
}

/// A disk that dies before a batch. A field disk is routed around (its
/// fields count as occupied, nothing is written to it): every key is
/// acknowledged and stored. A membership disk leaves open the duplicate
/// check of every key whose probe reads it, and every delete of a key it
/// held: exactly those fail typed, the rest of the batch is applied, and
/// `len()` moves by exactly the acknowledged keys.
#[test]
fn a_dead_disk_inside_a_batch_fails_typed_or_is_routed_around() {
    for name in DYNAMIC_FRONTS {
        let f = harness::front(name);
        let entries = padded_entries(&f, &harness::dense_keys(40));
        for (disk, staged) in drill_disks(&f, &entries, 0x7EA4) {
            let what = format!("{name}, disk {disk}");
            let membership = staged.is_some();
            let mut dict = f.build(128, &entries, 0x7EA4);
            let doomed: Vec<u64> = entries.iter().step_by(2).map(|(k, _)| *k).collect();
            let held = if membership { records_on(dict.as_mut(), disk, &doomed) } else { Vec::new() };
            assert_eq!(held.is_empty(), !membership, "{what}: the disk holds a doomed key's record");
            dict.disks_mut().unwrap().enable_integrity();
            harness::kill_disk(dict.disks_mut().unwrap(), disk);
            let before = dict.len();
            let batch = drill_batch(&f);
            // A probe that reads the dead disk is degraded.
            let blind: Vec<bool> = batch.iter().map(|(k, _)| membership && !dict.lookup(*k).is_exact()).collect();
            assert!(blind.contains(&true) || !membership, "{what}: no probe reads the disk");
            let (inserted, _) = dict.insert_batch(&batch);
            let stored = inserted.iter().filter(|r| r.is_ok()).count();
            for ((r, blind), (k, _)) in inserted.iter().zip(&blind).zip(&batch) {
                assert_eq!(r.is_err(), *blind, "{what}: insert of {k}: {r:?}");
                if let Err(e) = r {
                    assert!(matches!(e, DictError::Io { kind: pdm::IoFaultKind::DiskDead, disk: at, .. } if *at == disk), "{what}: {e}");
                }
            }
            assert_eq!(dict.len(), before + stored, "{what}: len() after the insert batch");
            let (res, _) = dict.delete_batch(&doomed);
            let mut gone = 0;
            for (k, r) in doomed.iter().zip(&res) {
                match r {
                    Ok(true) if !held.contains(k) => {
                        gone += 1;
                        assert!(!dict.lookup(*k).found(), "{what}: deleted key {k} reads back");
                    }
                    Err(DictError::Io { kind: pdm::IoFaultKind::DiskDead, disk: at, .. }) if *at == disk && held.contains(k) => {}
                    other => panic!("{what}: delete of stored key {k} answered {other:?}"),
                }
            }
            assert!(gone > 0, "{what}: no delete went through");
            assert_eq!(dict.len(), before + stored - gone, "{what}: len() after the delete batch");
            for ((k, s), r) in batch.iter().zip(&inserted) {
                if r.is_ok() {
                    assert_eq!(dict.lookup(*k).satellite.as_ref(), Some(s), "{what}: key {k}");
                }
            }
        }
    }
}

/// Inside a rebuild window the batch's writes and its migration step's go
/// to the same executor discipline. With every write to one field disk of
/// the replacement tearing: the keys of the batch staged there fail typed,
/// the others are stored; copies the step lost are counted out (so `len()`
/// stays exact) and leave the step's error on the dictionary, not in any
/// reply; and once the disk writes again the next update retakes the step.
#[test]
fn a_failing_disk_inside_a_window_costs_only_the_keys_it_lost() {
    // Chained records: the replacement's fields are written on disks of
    // their own (inline ones have none).
    let sigma = INLINE_AND_CHAINED[1];
    let (mut dict, mut model) = window_dictionary(sigma);
    // Rebuild 1 builds in the upper slot: its fields are on disks 60..80.
    let disk = 67;
    let plan = (0..64).fold(FaultPlan::new(), |plan, nth| plan.torn_write(disk, nth));
    dict.disks_mut().unwrap().set_fault_plan(plan);
    let mut step_errors = 0;
    let mut lost = 0;
    for round in 0..3u64 {
        let batch: Vec<(u64, Vec<Word>)> =
            (0..5).map(|i| KEY_SPACE + 9_000 + 5 * round + i).map(|k| (k, sat(k, sigma))).collect();
        let (res, _) = dict.insert_batch(&batch);
        for ((k, s), r) in batch.into_iter().zip(res) {
            match r {
                Ok(()) => drop(model.insert(k, s)),
                Err(DictError::Io { kind: pdm::IoFaultKind::TornWrite, disk: at, .. }) if at == disk => lost += 1,
                Err(e) => panic!("insert of {k} failed with {e}"),
            }
        }
        let doomed: Vec<u64> = model.keys().skip(round as usize).step_by(9).copied().collect();
        let (res, _) = dict.delete_batch(&doomed);
        for (k, r) in doomed.iter().zip(res) {
            // A tombstone writes nothing to a field disk.
            assert_eq!(r, Ok(true), "delete of {k}");
            model.remove(k);
        }
        if let Some(e) = dict.last_step_error() {
            assert!(matches!(e, DictError::Io { kind: pdm::IoFaultKind::TornWrite, disk: at, .. } if *at == disk), "{e}");
            step_errors += 1;
        }
        if !dict.is_rebuilding() {
            // Swapped: what the torn blocks held is now the disk's loss.
            break;
        }
        assert_eq!(dict.len(), model.len(), "round {round}: len()");
        // What the torn blocks held beside (a key inserted in this window
        // has no copy in the old structure) reads as damage, not as absent.
        for (k, s) in &model {
            let out = dict.lookup(*k);
            assert!(out.satellite.as_ref() == Some(s) || !out.is_exact(), "round {round}: key {k} reads {out:?}");
        }
    }
    assert!(lost + step_errors > 0, "no write to disk {disk} in three rounds");
    assert!(dict.is_rebuilding(), "the window closed before the disk was replaced");
    dict.disks_mut().unwrap().clear_fault_plan();
    dict.insert(KEY_SPACE + 9_900, &sat(1, sigma)).unwrap();
    model.insert(KEY_SPACE + 9_900, sat(1, sigma));
    assert_eq!(dict.last_step_error(), None, "the step was not retaken");
    assert_eq!(dict.len(), model.len());
    dict.recover();
    assert_eq!(dict.len(), model.len(), "len() after recovery");
}


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
//! promise it ([`Frontend::typed_delete`]) a key that reads back exactly is
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
use harness::{frontends, frontends_with, padded_entries, sat, Frontend, KEY_SPACE};
use pdm::{FaultPlan, Word};
use pdm_dict::DictError;
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

fn drive(f: &Frontend, keys: &[u64], fault_seed: u64) -> Result<(), TestCaseError> {
    let entries = padded_entries(f, keys);
    let mut dict = (f.build)(entries.len(), &entries, 0xFA17);
    let Some(disks) = dict.disks_mut() else {
        // Front without an exposed array (sharded): fault injection goes
        // through its shards' own coverage.
        return Ok(());
    };
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
        for f in frontends() {
            drive(&f, &keys, fault_seed)?;
        }
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
        for f in frontends_with(family) {
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
    let f = harness::frontend("one_probe_b");
    let es = padded_entries(&f, &harness::dense_keys(150));
    let mut dict = (f.build)(es.len(), &es, 0xD1E5);
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

/// A tombstone write that tears did not provably land — the record may
/// still be on disk — so the delete fails typed instead of acknowledging.
/// Every disk's first two writes tear (wherever the key's bucket lies, and
/// whether or not a journal slot is written to that disk first): the
/// failed delete leaves `len()` counting the key, truncates its intent so
/// that no recovery replays an op the caller was told failed, and never
/// turns the key into wrong data.
#[test]
fn a_torn_tombstone_write_fails_the_delete_typed() {
    for name in ["dynamic", "dynamic_journaled", "rebuild"] {
        let f = harness::frontend(name);
        let entries = padded_entries(&f, &harness::dense_keys(40));
        let mut dict = (f.build)(entries.len() + 8, &entries, 0x70A2);
        let disks = dict.disks_mut().unwrap();
        disks.enable_integrity();
        let plan = (0..disks.disks()).fold(FaultPlan::new(), |plan, d| {
            plan.torn_write(d, 0).torn_write(d, 1)
        });
        disks.set_fault_plan(plan);
        let (victim, stored) = &entries[17];
        let before = dict.len();
        match dict.delete(*victim) {
            Err(DictError::Io { kind, .. }) => assert_eq!(kind, pdm::IoFaultKind::TornWrite, "{name}"),
            other => panic!("{name}: a torn tombstone was answered {other:?}"),
        }
        assert_eq!(dict.len(), before, "{name}: a failed delete moved len()");
        dict.disks_mut().unwrap().clear_fault_plan();
        let report = dict.recover();
        assert!(report.replayed.is_empty(), "{name}: the failed delete replayed: {report:?}");
        assert_eq!(dict.len(), before, "{name}");
        if let Some(got) = dict.lookup(*victim).satellite {
            assert_eq!(&got, stored, "{name}: wrong satellite after a torn tombstone");
        }
        // The other keys never noticed.
        for (k, s) in entries.iter().filter(|(k, _)| k != victim).step_by(5) {
            let got = dict.lookup(*k).satellite;
            assert!(got.is_none() || got.as_ref() == Some(s), "{name}: key {k} damaged");
        }
    }
}

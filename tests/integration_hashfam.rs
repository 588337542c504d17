//! Cross-family differential suite: every dictionary front-end, built
//! over every hash family (`FamilyKind::ALL`), must return byte-identical
//! *results* — lookups, per-key mutation outcomes, lengths — even though
//! the placements (disk images) legitimately differ per family. Costs
//! must stay within a shared envelope: the neighbor function decides
//! *where* records land, never *how many* parallel I/Os a probe takes.
//!
//! Like the other differential suites this replays a deterministic
//! corpus from the vendored proptest stand-in; set `PROPTEST_SEED=<u64>`
//! to rotate the corpus (CI does), which here rotates both the generated
//! key sets and the build seeds handed to each family.

mod harness;

use expander::FamilyKind;
use harness::{disk_image, front_with, fronts_with, padded_entries, sat, KEY_SPACE};
use pdm_dict::ErrorKind;
use proptest::prelude::*;

fn suite_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_06FA)
}

/// A sorted, deduplicated key set.
fn key_set() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::hash_set(0u64..KEY_SPACE, 5..40).prop_map(|s| {
        let mut v: Vec<u64> = s.into_iter().collect();
        v.sort_unstable();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Build the same key set under every family and compare the batch
    /// lookup results byte-for-byte, with every family's charged cost
    /// inside a shared envelope (within 4x of the cheapest family).
    #[test]
    fn lookups_byte_identical_across_families(keys in key_set()) {
        let names: Vec<&str> = fronts_with(FamilyKind::default())
            .iter()
            .map(|f| f.name)
            .collect();
        for name in names {
            let mut results = Vec::new();
            for family in FamilyKind::ALL {
                let f = front_with(name, family);
                let entries = padded_entries(&f, &keys);
                let mut dict = f.build(entries.len(), &entries, suite_seed() ^ 0xFA7);
                let mut queries: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
                // Misses probe the same envelope as hits.
                queries.extend((0..10).map(|i| KEY_SPACE - 1 - i));
                let (found, cost) = dict.lookup_batch(&queries);
                prop_assert_eq!(dict.len(), entries.len(), "{name}/{family}: wrong len");
                results.push((family, found, cost.parallel_ios));
            }
            let (_, ref want, _) = results[0];
            for (family, found, _) in &results {
                prop_assert_eq!(
                    found, want,
                    "{}: lookups over {} diverged from {}",
                    name, family, results[0].0
                );
            }
            let cheapest = results.iter().map(|(_, _, c)| *c).min().unwrap().max(1);
            for (family, _, cost) in &results {
                prop_assert!(
                    *cost <= 4 * cheapest,
                    "{name}/{family}: cost {cost} outside the 4x envelope of {cheapest}"
                );
            }
        }
    }

    /// Mutable fronts: an insert (with duplicate) / delete script must
    /// report identical per-key outcomes and end with identical contents
    /// under every family.
    #[test]
    fn mutation_outcomes_identical_across_families(keys in key_set()) {
        let names: Vec<&str> = fronts_with(FamilyKind::default())
            .iter()
            .filter(|f| !f.is_static)
            .map(|f| f.name)
            .collect();
        for name in names {
            let mut outcomes = Vec::new();
            for family in FamilyKind::ALL {
                let f = front_with(name, family);
                let mut dict = f.build(keys.len(), &[], suite_seed() ^ 0x3B);
                let mut script: Vec<Result<(), ErrorKind>> = Vec::new();
                for &k in &keys {
                    script.push(dict.insert(k, &sat(k, f.sigma)).map(|_| ()).map_err(|e| e.kind()));
                }
                // Duplicate of the first key must fail identically.
                script.push(dict.insert(keys[0], &sat(keys[0], f.sigma)).map(|_| ()).map_err(|e| e.kind()));
                for &k in keys.iter().step_by(2) {
                    script.push(dict.delete(k).map(|_| ()).map_err(|e| e.kind()));
                }
                let (contents, _) = dict.lookup_batch(&keys);
                outcomes.push((family, script, contents, dict.len()));
            }
            let (_, ref want_script, ref want_contents, want_len) = outcomes[0];
            for (family, script, contents, len) in &outcomes {
                prop_assert_eq!(script, want_script, "{}/{}: outcomes diverged", name, family);
                prop_assert_eq!(contents, want_contents, "{}/{}: contents diverged", name, family);
                prop_assert_eq!(len, &want_len, "{}/{}: lengths diverged", name, family);
            }
        }
    }
}

/// Sanity check that the differential above is not vacuous: the family
/// genuinely changes the neighbor function, so the *placements* (disk
/// images) of the same key set differ between families even though the
/// results agree.
#[test]
fn families_place_records_differently() {
    let keys: Vec<u64> = (0..32u64).map(|i| i * 1031).collect();
    let mut images = Vec::new();
    for family in FamilyKind::ALL {
        let f = front_with("basic", family);
        let entries = padded_entries(&f, &keys);
        let dict = f.build(entries.len(), &entries, suite_seed());
        images.push(disk_image(dict.disks().expect("basic exposes its array")));
    }
    for (i, a) in images.iter().enumerate() {
        for b in &images[i + 1..] {
            assert_ne!(a, b, "two families produced identical disk images");
        }
    }
}

//! Cross-structure integration tests: every dictionary agrees with a
//! reference model under arbitrary operation sequences, and the paper's
//! structures agree with each other.

use pdm::{DiskArray, PdmConfig, Word};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::one_probe::{OneProbeStatic, OneProbeVariant};
use pdm_dict::{DictHandle, DictParams, Dictionary};
use proptest::prelude::*;
use std::collections::HashMap;

/// Operations for model-based testing.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Lookup(u64),
    Delete(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..64, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0u64..64).prop_map(Op::Lookup),
        1 => (0u64..64).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fully dynamic dictionary behaves exactly like a HashMap under
    /// arbitrary insert/lookup/delete interleavings (including duplicate
    /// inserts, double deletes, and rebuild windows).
    #[test]
    fn prop_dictionary_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let params = DictParams::new(16, 1 << 20, 1)
            .with_degree(16)
            .with_epsilon(1.0)
            .with_seed(0x600D);
        let mut dict = Dictionary::new(params, 64).expect("params valid");
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let ours = dict.insert(k, &[v]);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(ours.is_ok(), "insert of {} failed: {:?}", k, ours);
                        e.insert(v);
                    } else {
                        prop_assert!(ours.is_err(), "duplicate insert of {} accepted", k);
                    }
                }
                Op::Lookup(k) => {
                    let out = dict.lookup(k);
                    prop_assert_eq!(
                        out.satellite,
                        model.get(&k).map(|&v| vec![v]),
                        "lookup({}) diverged", k
                    );
                }
                Op::Delete(k) => {
                    let (was, _) = dict.delete(k).expect("delete never errors");
                    prop_assert_eq!(was, model.remove(&k).is_some(), "delete({}) diverged", k);
                }
            }
            prop_assert_eq!(dict.len(), model.len());
        }
    }
}

#[test]
fn one_probe_and_dynamic_agree_on_the_same_key_set() {
    let d = 20;
    let n = 400usize;
    let sigma = 2usize;
    let keys: Vec<u64> = (0..n as u64).map(|i| i * 1009 % (1 << 30)).collect();
    let entries: Vec<(u64, Vec<Word>)> = keys
        .iter()
        .map(|&k| (k, vec![k, k.wrapping_mul(3)]))
        .collect();

    // Static one-probe (case a).
    let mut disks_a = DiskArray::new(PdmConfig::new(2 * 13, 128), 0);
    let mut alloc_a = DiskAllocator::new(2 * 13);
    let params_a = DictParams::new(n, 1 << 30, sigma)
        .with_degree(13)
        .with_seed(1);
    let (static_dict, _) = OneProbeStatic::build(
        &mut disks_a,
        &mut alloc_a,
        0,
        &params_a,
        OneProbeVariant::CaseA,
        &entries,
    )
    .expect("build");

    // Dynamic Theorem 7 structure.
    let params_b = DictParams::new(2 * n, 1 << 30, sigma)
        .with_degree(d)
        .with_epsilon(0.5)
        .with_seed(2);
    let (mut dyn_dict, mut disks_b) = DictHandle::in_memory(params_b, 128).unwrap().into_parts();
    for (k, s) in &entries {
        dyn_dict.insert(&mut disks_b, *k, s).unwrap();
    }

    // Agreement on hits and misses.
    for (k, s) in &entries {
        assert_eq!(
            static_dict.lookup(&mut disks_a, *k).satellite.as_ref(),
            Some(s),
            "static missed {k}"
        );
        assert_eq!(
            dyn_dict.lookup(&mut disks_b, *k).satellite.as_ref(),
            Some(s),
            "dynamic missed {k}"
        );
    }
    for probe in (1_000_000..1_000_400u64).step_by(7) {
        assert!(!static_dict.lookup(&mut disks_a, probe).found());
        assert!(!dyn_dict.lookup(&mut disks_b, probe).found());
    }
}

#[test]
fn dictionary_survives_heavy_churn_with_bounded_lookup_cost() {
    let params = DictParams::new(64, 1 << 30, 1)
        .with_degree(16)
        .with_epsilon(1.0)
        .with_seed(0xC4);
    let mut dict = Dictionary::new(params, 64).unwrap();
    let mut live = std::collections::HashSet::new();
    for round in 0u64..8 {
        for k in 0..300u64 {
            if live.contains(&k) {
                dict.delete(k).unwrap();
                live.remove(&k);
            }
            dict.insert(k, &[round]).unwrap();
            live.insert(k);
        }
    }
    let mut worst = 0;
    for k in 0..300u64 {
        let out = dict.lookup(k);
        assert_eq!(out.satellite, Some(vec![7]), "key {k}");
        worst = worst.max(out.cost.parallel_ios);
    }
    assert!(worst <= 4, "lookup worst case {worst} after churn");
    assert_eq!(dict.len(), 300);
}

#[test]
fn file_system_and_raw_dictionary_agree() {
    use pdm_dict::PdmFileSystem;
    let mut fs = PdmFileSystem::new(128, 4, 64, 0xF5).unwrap();
    let mut model: HashMap<(u32, u32), Vec<Word>> = HashMap::new();
    // Interleaved writes, overwrites, and deletes across files.
    for i in 0..200u32 {
        let inode = i % 5;
        let block = i % 17;
        let data = vec![u64::from(i); 4];
        fs.write_block(inode, block, &data).unwrap();
        model.insert((inode, block), data);
        if i % 11 == 0 {
            let victim = ((i / 2) % 5, (i / 3) % 17);
            let was_fs = fs.delete_block(victim.0, victim.1).unwrap();
            let was_model = model.remove(&victim).is_some();
            assert_eq!(was_fs, was_model, "delete divergence at {victim:?}");
        }
    }
    for inode in 0..5u32 {
        for block in 0..17u32 {
            assert_eq!(
                fs.read_block(inode, block).satellite,
                model.get(&(inode, block)).cloned(),
                "({inode}, {block})"
            );
        }
    }
}

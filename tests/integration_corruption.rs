//! Failure injection: corrupted disk blocks must degrade gracefully —
//! wrong/absent answers are surfaced as misses or decode failures, never
//! as panics or silent wrong satellite data for *other* keys.

mod harness;

use harness::{dense_keys, front, kill_disk, kill_disks, padded_entries};
use pdm::{BlockAddr, DiskArray, PdmConfig, Word};
use pdm_dict::basic::{BasicDict, BasicDictConfig};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::one_probe::{OneProbeStatic, OneProbeVariant};
use pdm_dict::{DictHandle, DictParams};

fn entries(n: usize, sigma: usize) -> Vec<(u64, Vec<Word>)> {
    (0..n as u64)
        .map(|i| {
            let k = i.wrapping_mul(0x9E37_79B9) % (1 << 30);
            (k, vec![k; sigma])
        })
        .collect()
}

#[test]
fn one_probe_case_b_membership_survives_a_dead_disk() {
    // Case (b) stores each key's identifier in 2d/3 of d fields; killing
    // ONE disk removes at most one of them, so the majority (and hence
    // membership detection) survives for every key. And because every
    // record carries one XOR-parity chunk, the erasure-aware decoder
    // recovers the single missing chunk: with the fault *plan* active
    // (so reads report which probes are erasures, not just zeros), every
    // key's exact satellite comes back — degraded in provenance only.
    let d = 13;
    let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
    let mut alloc = DiskAllocator::new(d);
    let es = entries(150, 2);
    let params = DictParams::new(150, 1 << 30, 2).with_degree(d).with_seed(3);
    let (dict, _) =
        OneProbeStatic::build(&mut disks, &mut alloc, 0, &params, OneProbeVariant::CaseB, &es)
            .unwrap();
    kill_disk(&mut disks, 4);
    for (k, s) in &es {
        let out = dict.lookup(&mut disks, *k);
        assert_eq!(
            out.satellite.as_ref(),
            Some(s),
            "key {k} not exactly recovered under a single-disk failure"
        );
    }
}

#[test]
fn one_probe_case_b_fails_closed_when_majority_is_gone() {
    // Killing most disks destroys the majority: lookups must return
    // misses (or survive by luck), never panic or fabricate data.
    let d = 13;
    let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
    let mut alloc = DiskAllocator::new(d);
    let es = entries(100, 1);
    let params = DictParams::new(100, 1 << 30, 1).with_degree(d).with_seed(4);
    let (dict, _) =
        OneProbeStatic::build(&mut disks, &mut alloc, 0, &params, OneProbeVariant::CaseB, &es)
            .unwrap();
    kill_disks(&mut disks, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    for (k, s) in &es {
        let out = dict.lookup(&mut disks, *k);
        if let Some(got) = out.satellite {
            assert_eq!(&got, s, "fabricated data for {k}");
        }
    }
}

#[test]
fn random_bit_corruption_never_panics() {
    let d = 13;
    let mut disks = DiskArray::new(PdmConfig::new(2 * d, 128), 0);
    let mut alloc = DiskAllocator::new(2 * d);
    let es = entries(120, 2);
    let params = DictParams::new(120, 1 << 30, 2).with_degree(d).with_seed(5);
    let (dict, _) =
        OneProbeStatic::build(&mut disks, &mut alloc, 0, &params, OneProbeVariant::CaseA, &es)
            .unwrap();
    // Flip words all over the array (deterministic pseudo-random spray).
    let mut state = 0xBAD5EED_u64;
    for _ in 0..500 {
        state = expander::mix::mix64(state);
        let disk = (state % (2 * d as u64)) as usize;
        let block = ((state >> 16) % disks.blocks_on(disk) as u64) as usize;
        let addr = BlockAddr::new(disk, block);
        let mut img = disks.peek(addr).to_vec();
        let w = ((state >> 32) % img.len() as u64) as usize;
        img[w] ^= 1 << (state % 64);
        disks.poke(addr, &img);
    }
    // Lookups may now miss or (for flipped satellite bits) return altered
    // data for the corrupted keys — but must never panic.
    for (k, _) in &es {
        let _ = dict.lookup(&mut disks, *k);
    }
    for probe in 0..500u64 {
        let _ = dict.lookup(&mut disks, probe);
    }
}

#[test]
fn dynamic_dict_tolerates_corrupted_membership_bucket() {
    let d = 20;
    // At 200 keys a bucket is 16 slots: records of one word sit in them
    // (48 ≤ 128 words), records of seven take chains (144 > 128).
    for (sigma, inline) in [(1, true), (7, false)] {
        let params = DictParams::new(200, 1 << 30, sigma)
            .with_degree(d)
            .with_epsilon(0.5)
            .with_seed(6);
        let (mut dict, mut disks) = DictHandle::in_memory(params, 128).unwrap().into_parts();
        assert_eq!(dict.is_inline(), inline);
        for (k, s) in entries(200, sigma) {
            dict.insert(&mut disks, k, &s).unwrap();
        }
        // Kill one membership disk: keys whose bucket lived there now miss;
        // everything else still answers; nothing panics.
        kill_disk(&mut disks, 3);
        let mut still_found = 0;
        for (k, s) in entries(200, sigma) {
            let out = dict.lookup(&mut disks, k);
            if let Some(got) = out.satellite {
                assert_eq!(got, s, "σ = {sigma}: fabricated data for {k}");
                still_found += 1;
            }
        }
        assert!(
            still_found >= 150,
            "σ = {sigma}: a single dead membership disk should strand ~1/d of keys (1/2d inline), not {}",
            200 - still_found
        );
    }
}

#[test]
fn batch_lookup_degrades_exactly_like_sequential_on_a_dead_disk() {
    // The batch path reads the same blocks as the sequential path (just
    // scheduled into rounds), so a dead disk must produce *identical*
    // per-key outcomes for EVERY front-end: same misses, same
    // damaged-satellite decodes, no panics, no cross-key corruption.
    // Every front is fail-closed under sanitized reads — a found answer
    // is exact for its key — and the one-probe case (b) recovers every
    // key exactly through its parity chunk once the fault plan reports
    // the erasure. The survivor floor scales with how many disks the
    // front spreads a key over (`wide` loses any key with a chunk on the
    // dead disk, so its floor is zero).
    struct DeadDiskCase {
        front: &'static str,
        wipe: usize,
        exact_when_found: bool,
        min_survivors: usize,
    }
    let cases = [
        DeadDiskCase {
            front: "basic",
            wipe: 2,
            exact_when_found: true,
            // 8 disks: one dead disk strands ~1/8 of 200 keys.
            min_survivors: 140,
        },
        DeadDiskCase {
            front: "dynamic",
            wipe: 3,
            exact_when_found: true,
            // 40 disks: a dead membership disk strands ~1/40 of keys (the
            // membership is inline, on all 40 disks).
            min_survivors: 150,
        },
        DeadDiskCase {
            front: "dynamic_chained",
            wipe: 3,
            exact_when_found: true,
            min_survivors: 150,
        },
        DeadDiskCase {
            front: "dynamic_chained",
            wipe: 23,
            exact_when_found: true,
            // A dead field disk breaks every chain through it.
            min_survivors: 0,
        },
        DeadDiskCase {
            front: "one_probe_b",
            wipe: 4,
            exact_when_found: true,
            // 13 disks, one parity chunk per record: a single dead disk
            // is a recoverable erasure for every key.
            min_survivors: 200,
        },
        DeadDiskCase {
            front: "wide",
            wipe: 5,
            exact_when_found: true,
            min_survivors: 0,
        },
    ];
    for case in cases {
        let f = front(case.front);
        let es = padded_entries(&f, &dense_keys(200));
        let mut dict = f.build(es.len(), &es, 3);
        kill_disk(dict.disks_mut().unwrap(), case.wipe);

        let keys: Vec<u64> = es.iter().map(|(k, _)| *k).chain(5000..5100).collect();
        let seq: Vec<Option<Vec<Word>>> = keys.iter().map(|&k| dict.lookup(k).satellite).collect();
        let (batch, _) = dict.lookup_batch(&keys);
        assert_eq!(
            batch, seq,
            "{}: batch and sequential disagree on a dead disk",
            f.name
        );
        if case.exact_when_found {
            // Stranded keys miss; every still-found answer is exact for
            // ITS key.
            let mut still_found = 0;
            for (got, (k, s)) in batch.iter().zip(&es) {
                if let Some(sat) = got {
                    assert_eq!(sat, s, "{}: cross-key corruption for {k}", f.name);
                    still_found += 1;
                }
            }
            assert!(
                still_found >= case.min_survivors,
                "{}: only {still_found}/{} keys survived",
                f.name,
                es.len()
            );
        }
    }
}

#[test]
fn batch_insert_never_panics_on_corrupted_buckets() {
    // Batched inserts into a BasicDict with a zeroed block: plans built
    // from corrupt bucket images must surface per-key errors (or
    // overflow), never panic or damage other buckets.
    let d = 13;
    let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
    let mut alloc = DiskAllocator::new(d);
    let cfg = BasicDictConfig::log_load(300, 1 << 30, d, 1, 7);
    let mut dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
    let first: Vec<(u64, Vec<Word>)> = entries(150, 1);
    let (res, _) = dict.insert_batch(&mut disks, &first);
    assert!(res.iter().all(Result::is_ok));
    disks.poke(BlockAddr::new(2, 5), &vec![0; 64]);
    let more: Vec<(u64, Vec<Word>)> = (1000..1150u64).map(|k| (k * 7 + 3, vec![k])).collect();
    let (res, _) = dict.insert_batch(&mut disks, &more);
    // Whatever happened per key, every reported success must be readable.
    for ((k, s), r) in more.iter().zip(&res) {
        if r.is_ok() {
            assert_eq!(
                dict.lookup(&mut disks, *k).satellite.as_ref(),
                Some(s),
                "inserted key {k} unreadable"
            );
        }
    }
}

#[test]
fn basic_dict_corruption_is_local() {
    let d = 13;
    let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
    let mut alloc = DiskAllocator::new(d);
    let cfg = BasicDictConfig::log_load(300, 1 << 30, d, 1, 7);
    let mut dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).unwrap();
    for (k, s) in entries(300, 1) {
        dict.insert(&mut disks, k, &s).unwrap();
    }
    // Zero one block: only the keys whose chosen bucket was that block
    // disappear; every still-found answer is exact.
    disks.poke(BlockAddr::new(2, 5), &vec![0; 64]);
    let mut lost = 0;
    for (k, s) in entries(300, 1) {
        match dict.lookup(&mut disks, k).satellite {
            Some(got) => assert_eq!(got, s),
            None => lost += 1,
        }
    }
    assert!(lost <= 25, "one dead block lost {lost} keys");
}

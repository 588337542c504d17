//! Differential suite for the storage-backend seam: every test drives an
//! identical deterministic workload against a [`pdm::MemBackend`] array
//! and a [`pdm::FileBackend`] array (one file + worker thread per disk in
//! a temp directory) and demands *bit-compatible* behaviour — identical
//! physical images via [`pdm::DiskArray::snapshot`], identical
//! [`pdm::IoStats`], identical fault healths, and identical crash-point
//! recovery. Fault injection, checksums, and the journal all live above
//! the [`pdm::StorageBackend`] trait, so no observable behaviour may
//! depend on which medium is underneath.

use pdm::{
    BlockAddr, DiskArray, FaultPlan, FileBackend, FileBackendOptions, IoStats, MemBackend,
    PdmConfig, ReadOptions, Word, WriteOptions,
};
use std::path::{Path, PathBuf};

mod harness;

const D: usize = 4;
const B: usize = 8;
const BLOCKS: usize = 16;

fn cfg() -> PdmConfig {
    PdmConfig::new(D, B)
}

/// A per-test temp directory (removed at the start so reruns are clean;
/// removed again at the end on success).
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pdm-diff-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mem-backed and a file-backed array with identical geometry.
fn pair(tag: &str) -> (DiskArray, DiskArray, PathBuf) {
    let mem = DiskArray::new(cfg(), BLOCKS);
    let dir = tmpdir(tag);
    let fb = FileBackend::create(&dir, D, B, BLOCKS, FileBackendOptions::default())
        .expect("create file backend");
    let file = DiskArray::with_backend(cfg(), Box::new(fb)).expect("geometry matches");
    (mem, file, dir)
}

/// Reopen the file-backed array from its directory alone.
fn reopen(dir: &Path) -> DiskArray {
    let fb = FileBackend::open(dir, FileBackendOptions::default()).expect("reopen file backend");
    DiskArray::with_backend(cfg(), Box::new(fb)).expect("geometry matches")
}

/// splitmix64 — a deterministic workload generator with no rand crate.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn payload(seed: u64) -> Vec<Word> {
    let mut s = seed;
    (0..B).map(|_| mix(&mut s)).collect()
}

/// The shared mixed workload: checked writes, verified reads, shared
/// reads (charged back by the owner), a grow, plain reads — every façade
/// of the options API. Returns the final counters.
fn drive(disks: &mut DiskArray) -> IoStats {
    disks.enable_integrity();
    let mut s = 0xD15C_0B5E_u64;
    for round in 0..12u64 {
        let mut writes: Vec<(BlockAddr, Vec<Word>)> = Vec::new();
        for _ in 0..3 {
            let d = (mix(&mut s) as usize) % D;
            let blk = (mix(&mut s) as usize) % disks.blocks_on(d);
            let addr = BlockAddr::new(d, blk);
            if !writes.iter().any(|(a, _)| *a == addr) {
                writes.push((addr, payload(mix(&mut s))));
            }
        }
        let refs: Vec<(BlockAddr, &[Word])> =
            writes.iter().map(|(a, v)| (*a, v.as_slice())).collect();
        let healths = disks.write(&refs, WriteOptions::checked()).healths;
        assert!(healths.iter().all(|h| h.is_ok()), "round {round}");

        let addrs: Vec<BlockAddr> = (0..D)
            .map(|d| BlockAddr::new(d, (mix(&mut s) as usize) % disks.blocks_on(d)))
            .collect();
        let out = disks.read(&addrs, ReadOptions::verified());
        assert!(out.all_ok(), "round {round}");

        // Shared read through &self, charged back by the owner — the
        // counters must advance exactly as an owned read would.
        let shared = disks.read_shared(&addrs, ReadOptions::default());
        let cost = shared.cost;
        disks.charge_cost(cost);

        if round == 6 {
            disks.grow(BLOCKS + 4);
            let above = BlockAddr::new(1, BLOCKS + 1);
            let img = payload(77);
            disks.write(&[(above, img.as_slice())], WriteOptions::default());
            assert_eq!(disks.read(&[above], ReadOptions::default()).blocks[0], payload(77));
        }
    }
    disks.stats()
}

#[test]
fn mixed_workload_is_bit_compatible_across_backends() {
    let (mut mem, mut file, dir) = pair("mixed");
    let stats_mem = drive(&mut mem);
    let stats_file = drive(&mut file);
    assert_eq!(stats_mem, stats_file, "IoStats must not depend on the medium");
    assert_eq!(
        mem.snapshot(),
        file.snapshot(),
        "physical images must be byte-identical"
    );
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_image_survives_reopen_and_matches_mem() {
    let (mut mem, mut file, dir) = pair("reopen");
    drive(&mut mem);
    drive(&mut file);
    let expected = mem.snapshot();
    drop(file); // joins the per-disk workers; everything must be on disk
    let reopened = reopen(&dir);
    assert_eq!(reopened.snapshot(), expected);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected faults act *above* the backend, so a dead disk, a transient
/// read, a torn write, and bit rot must produce the same healths and the
/// same surviving image on both media.
fn drive_faults(disks: &mut DiskArray) -> (Vec<String>, IoStats) {
    disks.enable_integrity();
    // Seed every block so verified reads have checksums to check.
    for d in 0..D {
        for blk in 0..BLOCKS {
            let addr = BlockAddr::new(d, blk);
            let img = payload((d * BLOCKS + blk) as u64);
            disks.write(&[(addr, img.as_slice())], WriteOptions::checked());
        }
    }
    disks.set_fault_plan(
        FaultPlan::new()
            .dead_disk(2)
            .transient_read(1, 1, 2)
            .torn_write(3, 0)
            .bit_rot(0, 5, 17),
    );
    let mut log = Vec::new();
    for round in 0..6u64 {
        let addrs: Vec<BlockAddr> = (0..D)
            .map(|d| BlockAddr::new(d, (round as usize * 3 + d) % BLOCKS))
            .collect();
        let out = disks.read(&addrs, ReadOptions::verified());
        for (a, h) in addrs.iter().zip(&out.healths) {
            log.push(format!("read {}:{} -> {:?}", a.disk, a.block, h));
        }
        let target = BlockAddr::new(3, (round as usize) % BLOCKS);
        let img = payload(round + 900);
        let h = disks.write(&[(target, img.as_slice())], WriteOptions::checked());
        log.push(format!("write {}:{} -> {:?}", target.disk, target.block, h.healths));
    }
    disks.clear_fault_plan();
    (log, disks.stats())
}

#[test]
fn fault_plan_behaves_identically_on_both_backends() {
    let (mut mem, mut file, dir) = pair("faults");
    let (log_mem, stats_mem) = drive_faults(&mut mem);
    let (log_file, stats_file) = drive_faults(&mut file);
    assert_eq!(log_mem, log_file, "fault healths must not depend on the medium");
    assert_eq!(stats_mem, stats_file);
    assert_eq!(mem.snapshot(), file.snapshot());
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-point drill at the backend seam. For every prefix length
/// `k` of the journaled write sequence (3 payload slots + 1 descriptor +
/// 3 in-place writes), crash both arrays after `k` physical writes, then
/// recover each *from its medium alone*: the file array is dropped and
/// reopened from the directory; the mem array is rebuilt from its
/// snapshot image. Both must roll the same way and converge to the same
/// image.
#[test]
fn every_crash_point_recovers_identically_on_both_backends() {
    let targets = [BlockAddr::new(0, 1), BlockAddr::new(0, 2), BlockAddr::new(1, 5)];
    for k in 0..=7u64 {
        let (mut mem, mut file, dir) = pair(&format!("crash{k}"));
        let mut regions = Vec::new();
        for disks in [&mut mem, &mut file] {
            let region = disks.enable_journal_appended(4);
            regions.push(region);
            for &t in &targets {
                disks.write_block(t, &payload(100));
            }
            disks.journal_checkpoint(&[]);
            disks.set_fault_plan(FaultPlan::new().crash_after(k));
            let new: Vec<Vec<Word>> = (0..3).map(|i| payload(200 + i)).collect();
            let writes: Vec<(BlockAddr, &[Word])> = targets
                .iter()
                .zip(&new)
                .map(|(&a, v)| (a, v.as_slice()))
                .collect();
            disks.journaled_write_batch_checked(&writes, &[k]);
        }

        // Process death: only the medium survives.
        let mem_image = mem.snapshot();
        drop(mem);
        drop(file);

        let mut mem2 = DiskArray::with_backend(cfg(), Box::new(MemBackend::from_image(B, mem_image)))
            .expect("geometry matches");
        mem2.reopen_journal(regions[0]);
        let report_mem = mem2.recover();

        let mut file2 = reopen(&dir);
        file2.reopen_journal(regions[1]);
        let report_file = file2.recover();

        let metas_mem: Vec<Vec<Word>> =
            report_mem.replayed.iter().map(|e| e.meta.clone()).collect();
        let metas_file: Vec<Vec<Word>> =
            report_file.replayed.iter().map(|e| e.meta.clone()).collect();
        assert_eq!(metas_mem, metas_file, "crash at {k}: replay divergence");
        assert_eq!(
            report_mem.blocks_rewritten, report_file.blocks_rewritten,
            "crash at {k}"
        );
        assert_eq!(
            mem2.snapshot(),
            file2.snapshot(),
            "crash at {k}: recovered images diverge"
        );

        // All-or-nothing on both media.
        let committed = !metas_mem.is_empty();
        for (i, &t) in targets.iter().enumerate() {
            let want = if committed { payload(200 + i as u64) } else { payload(100) };
            assert_eq!(mem2.read_block(t), want, "crash at {k}");
            assert_eq!(file2.read_block(t), want, "crash at {k}");
        }
        drop(file2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn grow_is_bit_compatible_and_durable() {
    let (mut mem, mut file, dir) = pair("grow");
    for disks in [&mut mem, &mut file] {
        disks.grow(BLOCKS + 8);
        let addr = BlockAddr::new(3, BLOCKS + 7);
        let img = payload(4242);
        disks.write(&[(addr, img.as_slice())], WriteOptions::default());
    }
    assert_eq!(mem.snapshot(), file.snapshot());
    drop(file);
    let reopened = reopen(&dir);
    assert_eq!(reopened.blocks_on(0), BLOCKS + 8);
    assert_eq!(reopened.snapshot(), mem.snapshot());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-disk extents: interleaved `grow_disks` over overlapping disk
/// ranges, a discard that shortens two disks and the regrowth after it,
/// and writes into the grown blocks, integrity on.
/// Lengths, contents and seals must agree between the media at every
/// step, and the file array must come back from its directory alone with
/// the same ragged geometry.
#[test]
fn ragged_growth_is_bit_compatible_and_durable() {
    let (mut mem, mut file, dir) = pair("ragged");
    let lens = |disks: &DiskArray| (0..D).map(|d| disks.blocks_on(d)).collect::<Vec<_>>();
    for disks in [&mut mem, &mut file] {
        disks.enable_integrity();
        let mut s = 0xE87E_0075_u64;
        for step in 0..10usize {
            let first = (mix(&mut s) as usize) % D;
            let count = 1 + (mix(&mut s) as usize) % (D - first);
            let blocks = BLOCKS + (mix(&mut s) as usize) % 24;
            disks.grow_disks(first, count, blocks);
            if step == 5 {
                let longest = (1..3).map(|d| disks.blocks_on(d)).max().unwrap();
                assert!(disks.discard_tail(1, 2, BLOCKS + 2) > 0);
                assert!((1..3).all(|d| disks.blocks_on(d) <= BLOCKS + 2), "{:?}", lens(disks));
                // Regrown past where it ended, the range reads zeros.
                disks.grow_disks(1, 2, longest + 1);
                for d in 1..3 {
                    for b in BLOCKS + 2..=longest {
                        assert_eq!(disks.peek(BlockAddr::new(d, b)), vec![0; B], "({d}, {b})");
                    }
                }
            }
            // The last block of every disk of the range takes a write,
            // whether this call lengthened the disk or not.
            let img = payload(step as u64);
            let writes: Vec<(BlockAddr, &[Word])> = (first..first + count)
                .map(|d| (BlockAddr::new(d, disks.blocks_on(d) - 1), img.as_slice()))
                .collect();
            assert!(disks.write(&writes, WriteOptions::checked()).all_ok());
        }
        assert!(lens(disks).windows(2).any(|w| w[0] != w[1]), "{:?}", lens(disks));
        assert_eq!(disks.scrub_verify().checksum_failures, 0, "new blocks arrive sealed");
    }
    assert_eq!(lens(&mem), lens(&file));
    assert_eq!(mem.stats(), file.stats());
    assert_eq!(mem.snapshot(), file.snapshot());
    drop(file);
    let reopened = reopen(&dir);
    assert_eq!(lens(&reopened), lens(&mem), "lengths come back from meta");
    assert_eq!(reopened.snapshot(), mem.snapshot());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sync_on_write` and explicit flush barriers change durability timing,
/// never contents: a fsync-on-commit file array must still match mem.
#[test]
fn sync_on_write_does_not_change_contents() {
    let mut mem = DiskArray::new(cfg(), BLOCKS);
    let dir = tmpdir("sync");
    let fb = FileBackend::create(
        &dir,
        D,
        B,
        BLOCKS,
        FileBackendOptions::default().sync_on_write(true),
    )
    .expect("create file backend");
    let mut file = DiskArray::with_backend(cfg(), Box::new(fb)).expect("geometry matches");
    let stats_mem = drive(&mut mem);
    let stats_file = drive(&mut file);
    let ticket = file.flush_begin();
    file.flush_join(ticket);
    assert_eq!(stats_mem, stats_file);
    assert_eq!(mem.snapshot(), file.snapshot());
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Resident ≡ copied: a backend that keeps its blocks in memory hands a
// read out as views of them; any other completes it as a copy. Nothing
// observable may depend on which.
// ---------------------------------------------------------------------

/// Every [`pdm::metrics::IoEvent`] an array fires, in order.
#[derive(Default)]
struct Tape(std::sync::Mutex<Vec<String>>);

impl pdm::metrics::IoEventSink for Tape {
    fn on_io(&self, event: pdm::metrics::IoEvent<'_>) {
        self.0.lock().unwrap().push(format!("{event:?}"));
    }
}

/// What one run of [`churn`] leaves to compare: every answer and charged
/// cost, the counters, the events, the image.
type Witness = (Vec<u64>, IoStats, Vec<String>, Vec<Vec<Box<[Word]>>>);

/// One seeded stream over `dict` — single-key and batched lookups, inserts
/// and deletes — until `done`, then the witness of the array `tape` hears.
fn churn(
    dict: &mut dyn pdm_dict::Dict,
    tape: &Tape,
    seed: u64,
    done: impl Fn(&dyn pdm_dict::Dict, usize) -> bool,
) -> Witness {
    let sat = |key: u64| vec![key ^ 0xA5A5, key.rotate_left(17)];
    let mut s = seed;
    let mut answers = Vec::new();
    let note = |answers: &mut Vec<u64>, cost: pdm::OpCost| {
        answers.extend([cost.parallel_ios, cost.block_reads, cost.block_writes]);
    };
    let mut ops = 0;
    while !done(dict, ops) {
        ops += 1;
        let (r, key) = (mix(&mut s), mix(&mut s) % 768);
        let some_keys = |s: &mut u64, n: u64| (0..1 + n).map(|_| mix(s) % 768).collect::<Vec<u64>>();
        match r % 16 {
            0..=4 => match dict.insert(key, &sat(key)) {
                Ok(cost) => note(&mut answers, cost),
                Err(e) => answers.push(1_000 + e.kind() as u64),
            },
            5..=7 => {
                let out = dict.lookup(key);
                note(&mut answers, out.cost);
                answers.extend(out.satellite.into_iter().flatten());
            }
            8..=10 => {
                let (was, cost) = dict.delete(key).expect("no fault is installed");
                note(&mut answers, cost);
                answers.push(u64::from(was));
            }
            11..=12 => {
                let (found, cost) = dict.lookup_batch(&some_keys(&mut s, r % 24));
                note(&mut answers, cost);
                answers.extend(found.into_iter().map(|f| f.map_or(u64::MAX, |s| s[0])));
            }
            13..=14 => {
                let entries: Vec<(u64, Vec<Word>)> =
                    some_keys(&mut s, r % 12).into_iter().map(|k| (k, sat(k))).collect();
                let (results, cost) = dict.insert_batch(&entries);
                note(&mut answers, cost);
                answers.extend(results.into_iter().map(|r| r.map_or_else(|e| 1_000 + e.kind() as u64, |()| 0)));
            }
            _ => {
                let (results, cost) = dict.delete_batch(&some_keys(&mut s, r % 12));
                note(&mut answers, cost);
                answers.extend(results.into_iter().map(|r| u64::from(r.expect("no fault is installed"))));
            }
        }
    }
    let disks = dict.disks().expect("the fronts under test own one array");
    let events = std::mem::take(&mut *tape.0.lock().unwrap());
    (answers, disks.stats(), events, disks.snapshot())
}

/// Compare two witnesses piece by piece (a whole-tuple `assert_eq` would
/// print two disk images).
fn assert_same(what: &str, resident: &Witness, copied: &Witness) {
    assert_eq!(resident.0, copied.0, "{what}: an answer or a charged cost");
    let (a, b) = (resident.1, copied.1);
    assert_eq!(a.parallel_ios, b.parallel_ios, "{what}: parallel_ios");
    assert_eq!(a.batches, b.batches, "{what}: batches");
    assert_eq!(a.block_reads, b.block_reads, "{what}: block_reads");
    assert_eq!(a.block_writes, b.block_writes, "{what}: block_writes");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds");
    assert_eq!(resident.2.len(), copied.2.len(), "{what}: number of I/O events");
    if let Some(at) = (0..resident.2.len()).find(|&i| resident.2[i] != copied.2[i]) {
        panic!("{what}: I/O event {at}: {} on views, {} on copies", resident.2[at], copied.2[at]);
    }
    // The decorator also inherits `grow_disks`' default and stays
    // rectangular: its disks may end in blocks nobody was given, all zeros.
    for (d, (mine, theirs)) in resident.3.iter().zip(&copied.3).enumerate() {
        assert!(mine.len() <= theirs.len(), "{what}: disk {d} is shorter on copies");
        assert!(mine[..] == theirs[..mine.len()], "{what}: the final images differ on disk {d}");
        assert!(theirs[mine.len()..].iter().all(|b| b.iter().all(|&w| w == 0)), "{what}: disk {d}'s tail");
    }
}

#[test]
fn reads_as_views_change_nothing_a_copying_backend_does() {
    use pdm_dict::layout::DiskAllocator;
    use pdm_dict::{Dict, DictHandle, DictParams, Dictionary, DynamicDict};
    use std::sync::Arc;

    let degree = 20;
    let shard_cfg = PdmConfig::new(2 * degree, 64);
    for journal_rows in [0, 2] {
        let params = DictParams::new(2048, 1 << 40, 2)
            .with_degree(degree)
            .with_epsilon(0.5)
            .with_seed(0x0D1F)
            .with_journal(journal_rows);
        // Theorem 7's dictionary over the backend itself and over the
        // decorator that hides its residency.
        let dynamic = |backend: Box<dyn pdm::StorageBackend>| {
            let tape = Arc::new(Tape::default());
            let mut disks = DiskArray::with_backend(shard_cfg, backend).unwrap();
            disks.set_io_sink(Some(tape.clone()));
            let mut alloc = DiskAllocator::new(shard_cfg.disks);
            let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).unwrap();
            let mut handle = DictHandle::new(dict, disks);
            churn(&mut handle, &tape, 0xD1FF, |_, ops| ops == 1500)
        };
        let resident = dynamic(Box::new(MemBackend::new(shard_cfg.disks, 64, 0)));
        let copied = dynamic(Box::new(harness::HiddenResidency(MemBackend::new(shard_cfg.disks, 64, 0))));
        assert!(resident.1.rounds > 0 && resident.2.len() > 4_000, "the stream did something");
        assert_same(&format!("DynamicDict, {journal_rows} journal rows"), &resident, &copied);

        // The rebuilding wrapper builds its own array; its copying twin is
        // the same array under an empty fault plan, which ends the views as
        // any hazard does (a migration plan's size follows the medium, so
        // the two take the same plans).
        let rebuilding = |copied: bool| {
            let tape = Arc::new(Tape::default());
            let mut dict = Dictionary::new(DictParams { capacity: 64, ..params }, 64).unwrap();
            let disks = dict.disks_mut().unwrap();
            disks.set_io_sink(Some(tape.clone()));
            if copied {
                disks.set_fault_plan(FaultPlan::new());
            }
            let witness = churn(&mut dict, &tape, 0xD200, |dict, _| dict.len() > 300);
            assert!(dict.rebuilds() >= 2, "the stream must cross two rebuilds");
            witness
        };
        let (resident, copied) = (rebuilding(false), rebuilding(true));
        assert_same(&format!("Dictionary, {journal_rows} journal rows"), &resident, &copied);
    }
}

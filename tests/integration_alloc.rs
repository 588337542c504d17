//! Allocation budget of the probe path.
//!
//! The dictionaries are priced in parallel I/Os, and the repo sits on the
//! paper's counts; what a caller pays on top is CPU, most of which used to
//! be `malloc` and `memcpy` of block images. This test pins the diet: on
//! the wall-clock benchmark's `engine_cold` shard shape (d = 20, B = 128,
//! ~46 k capacity, unjournaled `DynamicDict` behind `DictHandle`) a
//! steady-state operation makes a handful of allocations, and
//!
//! * on `MemBackend`, whose blocks a read hands out where they lie, it
//!   allocates for a block it *reads* no more than the round's entry and
//!   the probe's address — an eighth of the block's bytes covers them with
//!   room — and for a block it *writes* the one copy it patched;
//! * on a backend that does not say its blocks are in memory (the same
//!   `MemBackend` behind a decorator forwarding the required methods only,
//!   as the benchmark's tracing backend does) a round is one flat buffer,
//!   and an operation allocates barely more bytes than the blocks it moves.
//!
//! The same counts hold at d = 28: nothing scales with the degree except
//! the size of a round.
//!
//! A journaled twin of the shard (the benchmark's `tcp_file_mixed` shape: 4
//! ring rows) has its own budget for the two updates. Each writes its one
//! bucket in place with no intent (a block write is atomic by the model),
//! so journaling it adds the word ranges the executor notes for an intent
//! it then does not write, and the checkpoint section rewritten where it
//! lies; the budget, set when every update appended an intent (the delta
//! stream, the slot image, the write list), still holds it. The unjournaled
//! budgets do not move: a pre-image is only looked at when a journal is
//! enabled.
//!
//! A block is storage, not a cost of the call that first writes it: the
//! backend allocates it then, once (`MemBackend` holds only blocks something
//! was written to), so each measured call is charged one allocation of
//! `B` words per block its shard's array materialised during it, and the
//! remainder is held to the budgets. The same binary gates the memory side
//! of Theorem 7's reservation: on an `engine_cold`-shaped shard, the blocks
//! 32 768 inserts materialise are what their keys reach, and no deep level;
//! and of global rebuilding: a rebuilding dictionary that gives a slot back
//! lays the next one out over the same blocks, allocating none.
//!
//! The counting allocator lives in this test binary only, and counts per
//! thread, so the harness's own threads do not disturb it.

use pdm::{BlockAddr, DiskArray, MemBackend, OpCost, PdmConfig, Word};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::{Dict, DictHandle, DictParams, Dictionary, DynamicDict};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod harness;

thread_local! {
    /// (allocations, bytes) made by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread tearing down may allocate after its locals died.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches only thread-local `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes `op` makes on this thread, and its result — less
/// one allocation of [`BLOCK_BYTES`] for each block it materialises on
/// `shard`'s array: a block is storage, allocated the first time something
/// is written to it, not a cost of the call. The count is the shard's own,
/// so the other test threads cannot disturb it.
fn measured<R>(shard: &mut dyn Dict, op: impl FnOnce(&mut dyn Dict) -> R) -> (R, u64, u64) {
    let held = |shard: &dyn Dict| {
        let disks = shard.disks().expect("the shard has an array");
        disks.materialised_blocks().expect("a MemBackend counts its blocks") as u64
    };
    let before = held(shard);
    let (n0, b0) = COUNTS.with(Cell::get);
    let out = op(shard);
    let (n1, b1) = COUNTS.with(Cell::get);
    let fresh = held(shard) - before;
    (out, n1 - n0 - fresh, b1 - b0 - fresh * BLOCK_BYTES)
}

const BLOCK_WORDS: usize = 128;
const BLOCK_BYTES: u64 = 8 * BLOCK_WORDS as u64;
const PRESENT: u64 = 2048;

fn key(family: u64, i: u64) -> u64 {
    (expander::mix::mix64(family << 32 | i) >> 24) | 1
}

/// The shard with a journal ring of `journal_rows` rows (0: none), on a
/// `MemBackend` — behind the decorator that hides its residency if `copied`.
fn shard_with(degree: usize, journal_rows: usize, copied: bool) -> Box<dyn Dict> {
    let cfg = PdmConfig::new(2 * degree, BLOCK_WORDS);
    let mem = MemBackend::new(cfg.disks, BLOCK_WORDS, 0);
    let backend: Box<dyn pdm::StorageBackend> =
        if copied { Box::new(harness::HiddenResidency(mem)) } else { Box::new(mem) };
    let mut disks = DiskArray::with_backend(cfg, backend).unwrap();
    let mut alloc = DiskAllocator::new(cfg.disks);
    let params = DictParams::new(46_264, 1 << 40, 2)
        .with_degree(degree)
        .with_epsilon(0.5)
        .with_seed(0xA110C)
        .with_journal(journal_rows);
    let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).unwrap();
    assert!(dict.is_inline(), "24 slots of 4 words fit a 128-word block");
    let mut shard = Box::new(DictHandle::new(dict, disks));
    for i in 0..PRESENT {
        shard.insert(key(0, i), &[i, !i]).unwrap();
    }
    shard
}

/// Bytes a call of cost `cost` may allocate (see the module docs): where
/// rounds are copied out, 1.25 × the blocks moved; where they are views,
/// 1/8 × the blocks read and 1.25 × the blocks written.
fn byte_budget(copied: bool, cost: &OpCost) -> u64 {
    let (read, written) = (cost.block_reads * BLOCK_BYTES, cost.block_writes * BLOCK_BYTES);
    if copied {
        5 * (read + written) / 4
    } else {
        read / 8 + 5 * written / 4
    }
}

/// Checks one kind of operation over `calls` calls: every call that took
/// the kind's usual number of rounds (all but the few keys on a deeper
/// level) stays within `max_allocs` allocations and within
/// [`byte_budget`].
struct Budget {
    what: &'static str,
    /// Whether the shard's backend hides its residency.
    copied: bool,
    usual_rounds: u64,
    max_allocs: u64,
    /// 1 for a journaled update, which takes one round more, for the
    /// superblock, when the ring holds a live intent it must truncate
    /// first; the budget covers that call too. Else 0.
    group_commit: u64,
}

impl Budget {
    /// Returns the most allocations any usual call made.
    fn check(&self, degree: usize, shard: &mut dyn Dict, calls: u64, mut call: impl FnMut(&mut dyn Dict, u64) -> OpCost) -> u64 {
        let (mut usual, mut worst, mut worst_bytes) = (0, 0, 0);
        for i in 0..calls {
            let (cost, allocs, bytes) = measured(shard, |shard| call(shard, i));
            if !(self.usual_rounds..=self.usual_rounds + self.group_commit)
                .contains(&cost.parallel_ios)
            {
                continue;
            }
            usual += 1;
            worst = worst.max(allocs);
            worst_bytes = worst_bytes.max(bytes);
            assert!(
                allocs <= self.max_allocs,
                "d = {degree}: {} #{i} made {allocs} allocations, budget {}",
                self.what,
                self.max_allocs
            );
            assert!(
                bytes <= byte_budget(self.copied, &cost),
                "d = {degree}: {} #{i} allocated {bytes} B for {cost:?} (copied rounds: {})",
                self.what,
                self.copied
            );
        }
        assert!(
            10 * usual >= 9 * calls,
            "d = {degree}: only {usual} of {calls} {} calls took {} rounds",
            self.what,
            self.usual_rounds
        );
        println!("d = {degree}: {} ≤ {worst} allocations, ≤ {worst_bytes} B", self.what);
        worst
    }
}

#[test]
fn probe_path_stays_within_its_allocation_budget() {
    let mut counts = Vec::new();
    for (degree, copied) in [(20, false), (28, false), (20, true), (28, true)] {
        let mut shard = shard_with(degree, 0, copied);
        // Steady state: lazily sized internals have settled.
        for i in 0..64 {
            assert!(shard.lookup(key(0, i)).found());
            shard.insert(key(1, i), &[i, i]).unwrap();
            assert!(shard.delete(key(1, i)).unwrap().0);
        }
        let lookup = Budget { what: "lookup", copied, usual_rounds: 1, max_allocs: 8, group_commit: 0 }
            .check(degree, shard.as_mut(), 512, |shard, i| {
                let out = shard.lookup(key(0, i % PRESENT));
                assert!(out.found());
                out.cost
            });
        let miss = Budget { what: "lookup (miss)", copied, usual_rounds: 1, max_allocs: 8, group_commit: 0 }
            .check(degree, shard.as_mut(), 512, |shard, i| {
                let out = shard.lookup(key(2, i));
                assert!(!out.found());
                out.cost
            });
        // `lookup_batch(64)`: its rounds vary with how the batch's blocks
        // fall, so only the budgets are checked — 8 allocations per key, and
        // where rounds are views an eighth of a block per address the plan
        // was asked for (its `d` membership buckets a key: records are
        // inline), not per block read: the plan keeps an entry for every
        // address, duplicates included.
        let (mut batch, mut batch_bytes) = (0, 0);
        for i in 0..32 {
            let keys: Vec<u64> = (0..64).map(|j| key(0, (i * 64 + j) % PRESENT)).collect();
            let ((found, cost), allocs, bytes) = measured(shard.as_mut(), |shard| shard.lookup_batch(&keys));
            assert!(found.iter().all(Option::is_some));
            assert!(allocs <= 8 * 64, "d = {degree}: lookup_batch(64) made {allocs} allocations");
            let budget = if copied { byte_budget(copied, &cost) } else { (64 * degree) as u64 * BLOCK_BYTES / 8 };
            assert!(
                bytes <= budget,
                "d = {degree}: lookup_batch(64) allocated {bytes} B for {cost:?} (copied rounds: {copied})"
            );
            batch = batch.max(allocs.div_ceil(64));
            batch_bytes = batch_bytes.max(bytes / 64);
        }
        println!("d = {degree}: lookup_batch(64) ≤ {batch} allocations, ≤ {batch_bytes} B per key");
        let insert = Budget { what: "insert", copied, usual_rounds: 2, max_allocs: 16, group_commit: 0 }
            .check(degree, shard.as_mut(), 512, |shard, i| shard.insert(key(3, i), &[i as Word, 7]).unwrap());
        let delete = Budget { what: "delete", copied, usual_rounds: 2, max_allocs: 8, group_commit: 0 }
            .check(degree, shard.as_mut(), 512, |shard, i| {
                let (was, cost) = shard.delete(key(3, i)).unwrap();
                assert!(was);
                cost
            });
        counts.push([lookup, miss, batch, insert, delete]);
    }
    assert_eq!(counts[0], counts[1], "allocation counts must not scale with the degree");
    // A copied batch's round is held in 64 KiB pieces, more of them at d = 28.
    let but_batch = |c: &[u64; 5]| [c[0], c[1], c[3], c[4]];
    assert_eq!(but_batch(&counts[2]), but_batch(&counts[3]), "allocation counts must not scale with the degree");
}

#[test]
fn journaled_updates_stay_within_their_allocation_budget() {
    let mut counts = Vec::new();
    for (degree, copied) in [(20, false), (28, false), (20, true), (28, true)] {
        let mut shard = shard_with(degree, 4, copied);
        for i in 0..64 {
            shard.insert(key(1, i), &[i, i]).unwrap();
            assert!(shard.delete(key(1, i)).unwrap().0);
        }
        // Read, write the one bucket in place: no intent.
        let insert = Budget { what: "journaled insert", copied, usual_rounds: 2, max_allocs: 24, group_commit: 1 }
            .check(degree, shard.as_mut(), 512, |shard, i| shard.insert(key(3, i), &[i as Word, 7]).unwrap());
        let delete = Budget { what: "journaled delete", copied, usual_rounds: 2, max_allocs: 16, group_commit: 1 }
            .check(degree, shard.as_mut(), 512, |shard, i| {
                let (was, cost) = shard.delete(key(3, i)).unwrap();
                assert!(was);
                cost
            });
        assert_eq!(shard.disks().unwrap().journal_bypassed(), 0);
        counts.push([insert, delete]);
    }
    assert_eq!(counts[0], counts[1], "allocation counts must not scale with the degree");
    assert_eq!(counts[2], counts[3], "allocation counts must not scale with the degree");
}

/// What an `engine_cold`-shaped shard materialises: N = 47 372, d = 20,
/// B = 128, ɛ = 0.5 and the product seed, the shape the wall-clock
/// benchmark's shard ran when this was written, filled with 32 768 of this
/// suite's keys (not the benchmark's preload). The numbers are copied, so
/// this gate does not follow a later change to the benchmark's shape.
///
/// * With its own two-word records, a bucket of 24 slots of 4 words fits a
///   block, so the records are stored in their membership slots: the shard
///   lays out no level at all, and what it materialises is at most its
///   membership blocks.
/// * With four-word records (24 slots of 6 words do not fit) it keeps
///   Theorem 7's `l` geometrically shrinking levels for the keys Lemma 5
///   lets fall past each one. At `right_slack = 8` nearly every key stays
///   on level 1, so at most 70 % of the extent holds memory and no block of
///   level 3 or deeper does (67.7 % at two-word chained records when this
///   was first written).
#[test]
fn an_engine_cold_shaped_shard_materialises_only_what_its_keys_reach() {
    let (regions, held) = engine_cold_shaped(2);
    assert_eq!(regions.len(), 1, "records inline: no level is laid out: {regions:?}");
    assert!(held <= regions[0].1, "{held} blocks materialised for {} membership blocks", regions[0].1);
    let (regions, held) = engine_cold_shaped(4);
    let extent: usize = regions.iter().map(|r| r.1).sum();
    assert!(10 * held <= 7 * extent, "{held} of {extent} blocks materialised");
    // regions[0] is membership, [1] level 1, [2] level 2.
    assert!(regions[3..].iter().all(|r| r.2 == 0), "a level ≥ 3 block was written: {regions:?}");
}

/// The `engine_cold`-shaped shard of `sigma`-word records, filled: its
/// `(region, blocks, blocks written)` rows and the blocks it materialised.
fn engine_cold_shaped(sigma: usize) -> (Vec<(String, usize, usize)>, usize) {
    const D: usize = 20;
    let cfg = PdmConfig::new(2 * D, BLOCK_WORDS);
    let mut disks = DiskArray::new(cfg, 0);
    let params = DictParams::new(47_372, 1 << 40, sigma).with_degree(D).with_epsilon(0.5).with_seed(0xB3AC_4000);
    let dict = DynamicDict::create(&mut disks, &mut DiskAllocator::new(cfg.disks), 0, params).unwrap();
    let mut shard = DictHandle::new(dict, disks);
    for i in 0..32_768 {
        shard.insert(key(0, i), &[i, !i, i << 1, i << 2][..sigma]).unwrap();
    }
    let disks = shard.disk_array();
    let written = |first_disk: usize, rows: std::ops::Range<usize>| {
        let blocks = (first_disk..first_disk + D).flat_map(|d| rows.clone().map(move |b| BlockAddr::new(d, b)));
        blocks.filter(|&a| disks.peek(a).iter().any(|&w| w != 0)).count()
    };
    // (region, blocks, blocks written): the membership fills disks 0..d
    // and, inline, the rest of it disks d..2d (stripe i's odd buckets on
    // disk i + d); chained, the levels sit one above the other there.
    let mut regions = Vec::new();
    let (lower, mut upper) = (disks.blocks_on(0), 0);
    for (region, blocks) in shard.dict().space_rows() {
        let rows = blocks / D;
        let n = if region == "membership" {
            written(0, 0..lower) + written(D, 0..rows - lower)
        } else {
            written(D, upper..upper + rows)
        };
        upper += rows - if region == "membership" { lower } else { 0 };
        regions.push((region, blocks, n));
    }
    assert_eq!(upper, disks.blocks_on(D), "the layout read above");
    let extent: usize = regions.iter().map(|r| r.1).sum();
    let held = disks.materialised_blocks().expect("a MemBackend counts its blocks");
    // Insertions never clear a word they wrote, so the blocks holding one
    // are exactly the blocks written to.
    assert_eq!(held, regions.iter().map(|r| r.2).sum::<usize>(), "materialised blocks are the written ones");
    println!(
        "engine_cold-shaped shard, {sigma}-word records: {held} of {extent} blocks materialised ({:.1} %)",
        100.0 * held as f64 / extent as f64
    );
    for (region, blocks, n) in &regions {
        println!("  {region}: {n} of {blocks} written");
    }
    (regions, held)
}

/// Append empty intents (a block rewritten with its own image, no owner's
/// metadata) until every slot of `disks`' ring has been written once, then
/// truncate them: the ring as a shard that has served a while holds it.
fn write_the_ring_through(disks: &mut DiskArray) {
    let region = disks.journal_region().expect("journaled");
    let slots = region.slots(disks.disks());
    let written = |disks: &DiskArray| {
        let ring = (0..slots).map(|g| region.slot_addr(g, disks.disks()));
        ring.filter(|&a| disks.peek(a).iter().any(|&w| w != 0)).count()
    };
    let a = BlockAddr::new(0, region.first_block + region.rows);
    let image = disks.peek(a);
    while written(disks) < slots {
        disks.journaled_delta_batch_checked(&[(a, &image)], &[pdm::journal::Delta::Base(&image)], &[]);
    }
    disks.journal_truncate();
}

/// A finished rebuild gives its old slot back, and the backend keeps the
/// slot's blocks, zeroed, on its spare list for the next writes. Records
/// are inline here, and an inline structure's deletions give their slots
/// back, so a steady live set opens no window: the stream grows to the 3/4
/// trigger (74 of 98 keys) and shrinks to the 1/8 one (18 of 148), one key
/// in and one out inside a window. The rebuilds then alternate between two
/// capacities, and each slot's tenants share one; once the first rebuilds
/// have brought both slots to what a tenant of their capacity writes (the
/// first holds 40 more blocks), a rebuild's window — from its start to the
/// swap, discard included — ends holding exactly the blocks it started
/// with: the replacement is laid out over blocks its slot's last tenant
/// gave back, and no block is allocated for it or freed after it. (Counted
/// as the blocks the array's backend holds memory for,
/// [`DiskArray::held_blocks`]: those in the extent and those on its spare
/// list.)
///
/// The journal ring (2 rows on 80 disks) is written through once before
/// the first window, as a shard that has served a while holds it. A
/// single-key update of this inline structure goes in place and appends
/// nothing, so otherwise the ring's 159 data slots would first be written
/// by the windows' migration intents, a few dozen a window, each taking a
/// block a discard had put on the spare list: the windows then read
/// `[68, 0, 40, 0, 39, 0, 43, 0, 9, 0]`, which sums to the replacement's
/// 40 and the ring's 159. (When every update appended an intent, the
/// stream had written 75 of the slots before the first window and that
/// window the rest: `[80, 19, 21, 0 × 7]`.)
#[test]
fn a_rebuild_at_the_capacity_of_the_last_allocates_no_block() {
    let params = DictParams::new(98, 1 << 40, 2).with_degree(20).with_epsilon(0.5).with_seed(0x5BA7E).with_journal(2);
    let mut dict = Dictionary::new(params, BLOCK_WORDS).unwrap();
    let live = 48;
    for i in 0..live {
        dict.insert(key(0, i), &[i, !i]).unwrap();
    }
    write_the_ring_through(Dict::disks_mut(&mut dict).unwrap());
    let (mut oldest, mut next) = (0, live);
    let mut step = |dict: &mut Dictionary| {
        assert!(next < 100_000, "ten rebuilds not crossed in {next} inserts");
        let (window, grow) = (dict.is_rebuilding(), dict.rebuilds().is_multiple_of(2));
        if window || grow {
            dict.insert(key(0, next), &[next, !next]).unwrap();
            next += 1;
        }
        if window || !grow {
            assert!(dict.delete(key(0, oldest)).unwrap().0);
            oldest += 1;
        }
    };
    // Blocks held after each of ten rebuilds less before it.
    let mut blocks = Vec::new();
    for _ in 0..10 {
        while !dict.is_rebuilding() {
            step(&mut dict);
        }
        let held = |dict: &Dictionary| dict.disks().held_blocks().expect("a MemBackend counts its blocks") as i64;
        let (before, rebuilds) = (held(&dict), dict.rebuilds());
        while dict.rebuilds() == rebuilds {
            step(&mut dict);
        }
        blocks.push(held(&dict) - before);
        let slot_capacity = if dict.rebuilds().is_multiple_of(2) { params.capacity } else { 148 };
        assert_eq!(dict.capacity(), slot_capacity, "every rebuild in a slot at one capacity");
    }
    println!("blocks each rebuild left held: {blocks:?}");
    assert!(blocks[0] > 0, "the first replacement's slot was never written: the count misses blocks");
    assert!(blocks[3..].iter().all(|&n| n == 0), "{blocks:?}");
}

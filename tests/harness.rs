//! Shared differential-test harness: the catalogue of fronts
//! (`bench::fronts` — every dictionary front-end described once as a
//! `dyn Dict` constructor plus explicit quirk flags), re-exported, and the
//! test-only helpers beside it. Included via `mod harness;` by the
//! integration test binaries (this file is not a test target itself), so
//! each binary uses a subset.
#![allow(dead_code, unused_imports)]

pub use bench::fronts::{
    dense_keys, front, front_with, fronts, fronts_with, padded_entries, sat, Front, JOURNAL_ROWS,
    KEY_SPACE, UNIVERSE,
};
use pdm::{BlockAddr, DiskArray, Word};
use pdm_dict::Dict;
use pdm_server::scheduler::OpResult;
use pdm_server::{DictClient, Op};
use std::sync::{Arc, Condvar, Mutex};

/// Snapshot every block of every disk (byte-identity witness).
pub fn disk_image(disks: &DiskArray) -> Vec<Vec<Word>> {
    (0..disks.disks())
        .flat_map(|d| (0..disks.blocks_on(d)).map(move |b| (d, b)))
        .map(|(d, b)| disks.peek(BlockAddr::new(d, b)).to_vec())
        .collect()
}

/// Kill one disk through the public fault API and leave the plan active:
/// the disk's data is lost at install, subsequent reads sanitize to
/// zeros, writes drop, and verified reads report
/// [`pdm::BlockHealth::DiskDead`] — which erasure-aware decoders (the
/// one-probe case (b)) use to recover records exactly.
pub fn kill_disk(disks: &mut DiskArray, disk: usize) {
    kill_disks(disks, &[disk]);
}

/// Kill several disks under one [`pdm::FaultPlan`].
pub fn kill_disks(disks: &mut DiskArray, dead: &[usize]) {
    let mut plan = pdm::FaultPlan::new();
    for &disk in dead {
        plan = plan.dead_disk(disk);
    }
    disks.set_fault_plan(plan);
}

/// A backend decorator that forwards only the trait's required methods over
/// a [`pdm::MemBackend`], as one written outside this workspace would. It
/// inherits `resident = None`, so every read of an array over it is copied
/// out through `submit`, as on a file; and `grow_disks`' default, so it
/// stays rectangular. It hides the residency of reads, not storage: it
/// forwards `materialised_blocks`.
#[derive(Debug)]
pub struct HiddenResidency(pub pdm::MemBackend);

impl pdm::StorageBackend for HiddenResidency {
    fn kind(&self) -> &'static str {
        "hidden"
    }
    fn disks(&self) -> usize {
        self.0.disks()
    }
    fn block_words(&self) -> usize {
        self.0.block_words()
    }
    fn blocks_on(&self, disk: usize) -> usize {
        self.0.blocks_on(disk)
    }
    fn grow(&mut self, blocks_per_disk: usize) {
        self.0.grow(blocks_per_disk);
    }
    fn submit(&mut self, batch: pdm::IoSubmission<'_>) -> pdm::CompletionSet {
        self.0.submit(batch)
    }
    fn submit_reads(&self, reads: &[BlockAddr]) -> pdm::CompletionSet {
        self.0.submit_reads(reads)
    }
    fn peek(&self, addr: BlockAddr) -> Vec<Word> {
        self.0.peek(addr)
    }
    fn poke(&mut self, addr: BlockAddr, data: &[Word]) {
        self.0.poke(addr, data);
    }
    fn snapshot(&self) -> Vec<Vec<Box<[Word]>>> {
        self.0.snapshot()
    }
    fn materialised_blocks(&self) -> Option<usize> {
        self.0.materialised_blocks()
    }
    fn flush_begin(&mut self) -> pdm::FlushTicket {
        self.0.flush_begin()
    }
    fn flush_join(&mut self, ticket: pdm::FlushTicket) {
        self.0.flush_join(ticket);
    }
}

/// What a test keeps of a shard it hands to a `ServeEngine` wrapped in
/// [`ShardProbe::wrap`]: the `Dict` calls the engine makes on it, and a
/// gate that holds its worker so that what is submitted meanwhile queues
/// up into one window.
#[derive(Clone)]
pub struct ShardProbe {
    /// `(method, keys)` of every call, in order.
    pub calls: Arc<Mutex<Vec<(&'static str, usize)>>>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl ShardProbe {
    pub fn new() -> Self {
        ShardProbe {
            calls: Arc::default(),
            gate: Arc::new((Mutex::new(true), Condvar::new())),
        }
    }

    pub fn wrap(&self, inner: Box<dyn Dict + Send>) -> Box<dyn Dict + Send> {
        Box::new(CountedShard { inner, probe: self.clone() })
    }

    /// Close the gate: the shard's worker waits in its next `lookup_batch`.
    pub fn hold(&self) {
        *self.gate.0.lock().unwrap() = false;
    }

    /// Open the gate and wake a held worker.
    pub fn release(&self) {
        *self.gate.0.lock().unwrap() = true;
        self.gate.1.notify_all();
    }

    /// Run `ops` as **one** window of the shard's worker: hold it inside a
    /// lookup of `decoy` (a key no cache holds, so it reaches the shard),
    /// submit everything, release. Replies in submission order. Clears
    /// [`calls`](Self::calls) first, so afterwards it lists the decoy's
    /// lookup and then the window's calls.
    pub fn one_window(&self, client: &DictClient, decoy: u64, ops: Vec<Op>) -> Vec<OpResult> {
        self.hold();
        self.calls.lock().unwrap().clear();
        let held = client.submit(Op::Lookup(decoy)).unwrap();
        while self.calls.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }
        let pending: Vec<_> = ops.into_iter().map(|op| client.submit(op).unwrap()).collect();
        self.release();
        held.wait().unwrap();
        pending.into_iter().map(|p| p.wait()).collect()
    }
}

/// A shard dictionary that reports to a [`ShardProbe`]: it counts the calls
/// the engine makes, and waits in `lookup_batch` while the gate is closed.
struct CountedShard {
    inner: Box<dyn Dict + Send>,
    probe: ShardProbe,
}

impl CountedShard {
    fn note(&self, call: &'static str, keys: usize) {
        self.probe.calls.lock().unwrap().push((call, keys));
    }
}

impl Dict for CountedShard {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn universe(&self) -> u64 {
        self.inner.universe()
    }
    fn lookup(&mut self, key: u64) -> pdm_dict::LookupOutcome {
        self.note("lookup", 1);
        self.inner.lookup(key)
    }
    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<pdm::OpCost, pdm_dict::DictError> {
        self.note("insert", 1);
        self.inner.insert(key, satellite)
    }
    fn delete(&mut self, key: u64) -> Result<(bool, pdm::OpCost), pdm_dict::DictError> {
        self.note("delete", 1);
        self.inner.delete(key)
    }
    fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, pdm::OpCost) {
        self.note("lookup_batch", keys.len());
        let (open, opened) = &*self.probe.gate;
        drop(opened.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
        self.inner.lookup_batch(keys)
    }
    fn insert_batch(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> (Vec<Result<(), pdm_dict::DictError>>, pdm::OpCost) {
        self.note("insert_batch", entries.len());
        self.inner.insert_batch(entries)
    }
    fn delete_batch(&mut self, keys: &[u64]) -> (Vec<Result<bool, pdm_dict::DictError>>, pdm::OpCost) {
        self.note("delete_batch", keys.len());
        self.inner.delete_batch(keys)
    }
    fn set_metrics(&mut self, registry: Option<Arc<pdm::metrics::MetricsRegistry>>) {
        self.inner.set_metrics(registry);
    }
    fn disks(&self) -> Option<&DiskArray> {
        self.inner.disks()
    }
    fn disks_mut(&mut self) -> Option<&mut DiskArray> {
        self.inner.disks_mut()
    }
    fn recover(&mut self) -> pdm::RecoveryReport {
        self.inner.recover()
    }
    fn checkpoint(&mut self) -> bool {
        self.inner.checkpoint()
    }
}

//! The disk array: `D` disks of `B`-word blocks with exact parallel-I/O
//! accounting, on top of a pluggable [`StorageBackend`].
//!
//! The array owns the *model*: cost charging, fault injection, integrity
//! checksums, sanitization, and the journal hook. Physical bytes live in
//! a [`StorageBackend`] — [`MemBackend`] by default (bit-compatible with
//! the original in-memory simulator), or a file-per-disk backend with
//! real overlapped I/O (`pdm::file_backend`). A read is charged the same
//! either way; what it hands back ([`Round`]) is the blocks where they lie
//! in a resident backend, or a sanitized copy anywhere else and whenever a
//! hazard could make the two differ.

use crate::backend::{BackendError, FlushTicket, IoSubmission, MemBackend, StorageBackend};
use crate::blocks::{BlockBuf, Round};
use crate::config::PdmConfig;
use crate::fault::{Fault, FaultPlan, FaultState};
use crate::integrity::{BlockCodec, BlockHealth, MixCodec, ScrubReport};
use crate::metrics::{IoEvent, IoEventSink};
use crate::stats::{IoStats, OpCost, OpScope};
use crate::{Word, WORD_BITS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Address of one block: `(disk, block index within the disk)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    /// Disk index, `0 ≤ disk < D`.
    pub disk: usize,
    /// Block index within the disk.
    pub block: usize,
}

impl BlockAddr {
    /// Construct an address.
    #[must_use]
    pub fn new(disk: usize, block: usize) -> Self {
        BlockAddr { disk, block }
    }
}

/// Options for [`DiskArray::read`] / [`DiskArray::read_shared`].
///
/// Marked `#[non_exhaustive]`: build with [`ReadOptions::default`] or a
/// named constructor and adjust fields.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOptions {
    /// Populate [`IoOutcome::healths`] with one [`BlockHealth`] per
    /// requested block. Sanitization (failed blocks read as zeros)
    /// happens regardless; this only controls whether the per-block
    /// classification is reported back.
    pub verify: bool,
}

impl ReadOptions {
    /// Read with per-block health reporting.
    #[must_use]
    pub fn verified() -> Self {
        ReadOptions { verify: true }
    }
}

/// Options for [`DiskArray::write`].
///
/// Marked `#[non_exhaustive]`: build with [`WriteOptions::default`] or a
/// named constructor and adjust fields.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOptions {
    /// Populate [`IoOutcome::healths`] with one [`BlockHealth`] per
    /// write (`Ok`, dropped on a dead disk, or torn).
    pub verify: bool,
    /// Request a durability barrier after the batch: when the call
    /// returns, the writes are durable on the backend's medium. A no-op
    /// on [`MemBackend`]; `fdatasync` per touched disk on the file
    /// backend.
    pub sync: bool,
}

impl WriteOptions {
    /// Write with per-write health reporting.
    #[must_use]
    pub fn checked() -> Self {
        WriteOptions {
            verify: true,
            sync: false,
        }
    }

    /// Request (or clear) a post-batch durability barrier.
    #[must_use]
    pub fn with_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }
}

/// The result of one [`DiskArray::read`] / [`DiskArray::write`] /
/// [`DiskArray::read_shared`] batch. A read's outcome may borrow the array
/// (see [`Round`]): decode from it, then let it go before the array's next
/// `&mut` use.
#[derive(Debug, Clone)]
pub struct IoOutcome<'a> {
    /// For reads: one block image per requested address, request order,
    /// failed blocks sanitized to zeros. Empty for writes.
    pub blocks: Round<'a>,
    /// Per-block health, request order. Populated only when the options
    /// asked for verification (`verify: true`); empty means "not
    /// requested", which callers may treat as all-`Ok` only if they
    /// didn't need the distinction in the first place.
    pub healths: Vec<BlockHealth>,
    /// The model cost of this batch. Charged calls ([`DiskArray::read`],
    /// [`DiskArray::write`]) have already added it to the global
    /// [`IoStats`]; [`DiskArray::read_shared`] has not (pass it to
    /// [`DiskArray::charge_cost`] to record it).
    pub cost: OpCost,
}

impl IoOutcome<'_> {
    /// Whether every reported health is `Ok` (vacuously true when
    /// verification was not requested).
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.healths.iter().all(|h| h.is_ok())
    }
}

/// The healths of a read no hazard could fail, if `opts` asks for them.
fn all_ok(addrs: &[BlockAddr], opts: ReadOptions) -> Vec<BlockHealth> {
    if opts.verify {
        vec![BlockHealth::Ok; addrs.len()]
    } else {
        Vec::new()
    }
}

/// `D` disks, each an array of `B`-word blocks.
///
/// All access goes through the batched [`read`](DiskArray::read) /
/// [`write`](DiskArray::write) calls (or their single-block
/// conveniences), which charge the exact model cost: in the parallel disk
/// model a batch costs the *maximum* number of blocks it touches on any one
/// disk; in the parallel disk head model it costs `ceil(touched / D)`.
///
/// Blocks are zero-initialized. Disks can be grown with
/// [`grow`](DiskArray::grow); growing performs no I/O (it models buying a
/// bigger disk, not moving data).
///
/// ## Faults and integrity
///
/// A [`FaultPlan`] can be installed with
/// [`set_fault_plan`](DiskArray::set_fault_plan) and per-block checksums
/// enabled with [`enable_integrity`](DiskArray::enable_integrity). With
/// either active, reads **sanitize**: a block that is dead, inside a
/// transient-error window, or fails checksum verification is returned as
/// all zeros — which every decoder in this workspace interprets as
/// "unoccupied" — and its [`BlockHealth`] is reported when the options
/// ask for verification. With neither active the fault machinery costs
/// one branch per batch.
///
/// ## Cloning
///
/// `Clone` snapshots the current disk image into a fresh
/// [`MemBackend`]-backed array (whatever backend the original uses), so
/// tests can fork an image at a crash point regardless of where the
/// bytes live. The clone allocates only the image's non-zero blocks.
pub struct DiskArray {
    cfg: PdmConfig,
    backend: Box<dyn StorageBackend>,
    stats: IoStats,
    // Scratch reused by batch cost computation to avoid per-call allocation.
    per_disk_scratch: Vec<usize>,
    // A batch executor's containers between two executors, for the same
    // reason (`crate::batch::Arena`).
    pub(crate) arena: crate::batch::Arena,
    // Observability hook; `None` (the default) costs one branch per batch.
    sink: Option<Arc<dyn IoEventSink>>,
    // Active fault plan plus its per-disk access clocks.
    fault: Option<FaultState>,
    // Sidecar checksums, per disk per block; `None` until
    // `enable_integrity` seals the current content.
    checksums: Option<Vec<Vec<Word>>>,
    // Blocks verified against (or sealed into) the sidecar since the last
    // event that could have silently damaged them; reads of a clean block
    // skip recomputing the checksum. Models verify-on-first-read into a
    // trusted cache: the checksum guards the *medium*, and the only paths
    // that can damage the medium behind the array's back — installing a
    // fault plan, `poke`, a torn write — all invalidate here. Sized in
    // lockstep with `checksums`; empty while integrity is off.
    verified_clean: Vec<Vec<bool>>,
    codec: Arc<dyn BlockCodec>,
    // Write-ahead intent journal state; `None` until
    // `enable_journal` / `reopen_journal` (see `crate::journal`).
    pub(crate) journal: Option<crate::journal::JournalState>,
    // Monotone count of blocks a read returned in less-than-healthy
    // state (dead disk, transient window, checksum mismatch — i.e. the
    // block was sanitized). Atomic so `read_shared` can count through a
    // shared reference. A batch across which this counter did not move
    // was answered entirely from clean reads — the batch-level witness
    // behind `pdm-dict`'s `Provenance::Exact` / absence certification.
    degraded_reads: AtomicU64,
}

impl std::fmt::Debug for DiskArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskArray")
            .field("cfg", &self.cfg)
            .field("backend", &self.backend.kind())
            .field("stats", &self.stats)
            .field("blocks", &(self.total_words() / self.cfg.block_words))
            .field("sink", &self.sink.as_ref().map(|_| "Arc<dyn IoEventSink>"))
            .field("fault", &self.fault)
            .field("integrity", &self.checksums.is_some())
            .finish_non_exhaustive()
    }
}

impl Clone for DiskArray {
    fn clone(&self) -> Self {
        DiskArray {
            cfg: self.cfg,
            backend: Box::new(MemBackend::from_image(
                self.cfg.block_words,
                self.backend.snapshot(),
            )),
            stats: self.stats,
            per_disk_scratch: self.per_disk_scratch.clone(),
            arena: self.arena.clone(),
            sink: self.sink.clone(),
            fault: self.fault.clone(),
            checksums: self.checksums.clone(),
            verified_clean: self.verified_clean.clone(),
            codec: Arc::clone(&self.codec),
            journal: self.journal.clone(),
            degraded_reads: AtomicU64::new(self.degraded_reads.load(Ordering::Relaxed)),
        }
    }
}

impl DiskArray {
    /// Create a disk array with `blocks_per_disk` zeroed blocks on each of
    /// the `cfg.disks` disks, backed by an in-memory [`MemBackend`].
    #[must_use]
    pub fn new(cfg: PdmConfig, blocks_per_disk: usize) -> Self {
        Self::with_backend(
            cfg,
            Box::new(MemBackend::new(cfg.disks, cfg.block_words, blocks_per_disk)),
        )
        .expect("a freshly built MemBackend always matches its config")
    }

    /// Create a disk array over an existing backend.
    ///
    /// # Errors
    /// Returns a typed [`BackendError`] if the backend's geometry does not
    /// match `cfg` (wrong disk count or block size).
    pub fn with_backend(
        cfg: PdmConfig,
        backend: Box<dyn StorageBackend>,
    ) -> Result<Self, BackendError> {
        if backend.disks() != cfg.disks {
            return Err(BackendError::misconfigured(
                0,
                format!(
                    "backend has {} disks but the config needs D = {}",
                    backend.disks(),
                    cfg.disks
                ),
            ));
        }
        if backend.block_words() != cfg.block_words {
            return Err(BackendError::misconfigured(
                0,
                format!(
                    "backend block size is {} words but the config needs B = {}",
                    backend.block_words(),
                    cfg.block_words
                ),
            ));
        }
        Ok(DiskArray {
            cfg,
            backend,
            stats: IoStats::default(),
            per_disk_scratch: vec![0; cfg.disks],
            arena: crate::batch::Arena::default(),
            sink: None,
            fault: None,
            checksums: None,
            verified_clean: Vec::new(),
            codec: Arc::new(MixCodec),
            journal: None,
            degraded_reads: AtomicU64::new(0),
        })
    }

    /// Monotone count of sanitized (unhealthy) blocks returned by reads
    /// since this array was created. A caller that snapshots this before
    /// and after a batch and sees no movement knows every block of the
    /// batch read cleanly — each miss inside it is a *certified* absence
    /// (the one-probe unsuccessful-search guarantee), safe to cache
    /// negatively. Shared reads ([`read_shared`](DiskArray::read_shared))
    /// count too.
    #[must_use]
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads.load(Ordering::Relaxed)
    }

    /// The backend's stable tag (`"mem"`, `"file"`).
    #[must_use]
    pub fn backend_kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// Whether the backend keeps its blocks in memory
    /// ([`StorageBackend::resident`]), so that reads complete as views
    /// while no hazard is active. A property of the medium, not of them.
    #[must_use]
    pub fn backend_resident(&self) -> bool {
        let first = (0..self.cfg.disks).find(|&d| self.backend.blocks_on(d) > 0);
        first.is_some_and(|d| self.backend.resident(BlockAddr::new(d, 0)).is_some())
    }

    /// Durability barrier: block until every write issued so far is
    /// durable on every disk of the backend (no-op on [`MemBackend`]).
    pub fn sync(&mut self) {
        self.backend.sync();
    }

    /// Start an asynchronous durability barrier covering every write
    /// issued so far; see [`StorageBackend::flush_begin`]. Work submitted
    /// after this call queues behind the barrier per disk.
    pub fn flush_begin(&mut self) -> FlushTicket {
        self.backend.flush_begin()
    }

    /// Wait for a barrier started with [`flush_begin`](DiskArray::flush_begin).
    pub fn flush_join(&mut self, ticket: FlushTicket) {
        self.backend.flush_join(ticket);
    }

    /// Install (or with `None` remove) an I/O event sink. Every charged
    /// batch, scheduled round, and executor cache event is reported to the
    /// sink; see [`crate::metrics`]. The sink observes this array only —
    /// clones made before or after do not share it.
    pub fn set_io_sink(&mut self, sink: Option<Arc<dyn IoEventSink>>) {
        self.sink = sink;
    }

    /// The currently installed I/O event sink, if any.
    #[must_use]
    pub fn io_sink(&self) -> Option<&Arc<dyn IoEventSink>> {
        self.sink.as_ref()
    }

    /// Fire an event at the installed sink (no-op without one). Used by the
    /// batch engine for cache and round events; harmless for external
    /// callers layering their own instrumentation.
    pub fn emit_io_event(&self, event: IoEvent<'_>) {
        if let Some(sink) = &self.sink {
            sink.on_io(event);
        }
    }

    /// The geometry this array was created with.
    #[must_use]
    pub fn config(&self) -> &PdmConfig {
        &self.cfg
    }

    /// Number of disks, `D`.
    #[must_use]
    pub fn disks(&self) -> usize {
        self.cfg.disks
    }

    /// Words per block, `B`.
    #[must_use]
    pub fn block_words(&self) -> usize {
        self.cfg.block_words
    }

    /// Number of blocks currently on disk `disk`.
    ///
    /// # Panics
    /// Panics if `disk >= D`.
    #[must_use]
    pub fn blocks_on(&self, disk: usize) -> usize {
        assert!(
            disk < self.cfg.disks,
            "disk index {disk} out of range (D = {})",
            self.cfg.disks
        );
        self.backend.blocks_on(disk)
    }

    /// Total space in words across all disks.
    #[must_use]
    pub fn total_words(&self) -> usize {
        (0..self.cfg.disks)
            .map(|d| self.backend.blocks_on(d))
            .sum::<usize>()
            * self.cfg.block_words
    }

    /// Blocks holding memory of their own, where the backend counts them
    /// ([`StorageBackend::materialised_blocks`]); at most the extent
    /// [`total_words`](DiskArray::total_words) ÷ `B`.
    #[must_use]
    pub fn materialised_blocks(&self) -> Option<usize> {
        self.backend.materialised_blocks()
    }

    /// [`StorageBackend::held_blocks`].
    #[must_use]
    pub fn held_blocks(&self) -> Option<usize> {
        self.backend.held_blocks()
    }

    /// Grow every disk to at least `blocks_per_disk` blocks (no I/O charged).
    pub fn grow(&mut self, blocks_per_disk: usize) {
        self.grow_disks(0, self.cfg.disks, blocks_per_disk);
    }

    /// Grow the disks `first_disk .. first_disk + disks` to at least
    /// `blocks` blocks each (no I/O charged); the others keep their length
    /// unless the backend can only grow all ([`StorageBackend::grow_disks`]).
    /// With integrity enabled the new (zeroed) blocks arrive sealed.
    pub fn grow_disks(&mut self, first_disk: usize, disks: usize, blocks: usize) {
        self.backend.grow_disks(first_disk, disks, blocks);
        if let Some(sums) = &mut self.checksums {
            let zeros = vec![0 as Word; self.cfg.block_words];
            for (d, disk_sums) in sums.iter_mut().enumerate() {
                while disk_sums.len() < self.backend.blocks_on(d) {
                    let b = disk_sums.len();
                    // New blocks are zeroed by the backend contract.
                    disk_sums.push(self.codec.checksum(BlockAddr::new(d, b), &zeros));
                    self.verified_clean[d].push(true);
                }
            }
        }
    }

    /// Give back every block at index `first_block` or above on the disks
    /// `first_disk .. first_disk + disks` (no I/O charged — the same
    /// standing as [`grow`](DiskArray::grow): it models handing space
    /// back, not moving data). The disks end at `first_block` afterwards
    /// ([`StorageBackend::discard_tail`]), their seals with them, and a
    /// later [`grow_disks`](DiskArray::grow_disks) brings the range back
    /// zeroed and sealed. A backend that keeps its lengths (the trait's
    /// default) reads zeros over the range instead: with integrity enabled
    /// those blocks are re-sealed over the zeros and lose their
    /// verified-clean bit, so a recycled block can never read as a
    /// checksum mismatch. Returns the number of blocks given up.
    ///
    /// The caller must first make sure no journal intent still names a
    /// block of the range ([`journal_checkpoint`](DiskArray::journal_checkpoint)):
    /// a later replay would write the stale image back over the zeros.
    ///
    /// A no-op once an installed crash point has fired: the machine is
    /// dead, and the surviving image must keep what the roll-back of the
    /// operation in flight still needs.
    ///
    /// # Panics
    /// Panics if the disk range exceeds the array.
    pub fn discard_tail(&mut self, first_disk: usize, disks: usize, first_block: usize) -> u64 {
        assert!(
            first_disk + disks <= self.cfg.disks,
            "disk range {}..{} exceeds array of {} disks",
            first_disk,
            first_disk + disks,
            self.cfg.disks
        );
        if self.crash_fired() {
            return 0;
        }
        let range = first_disk..first_disk + disks;
        let discarded = range.clone().map(|d| self.backend.blocks_on(d).saturating_sub(first_block) as u64).sum();
        self.backend.discard_tail(first_disk, disks, first_block);
        if let Some(sums) = &mut self.checksums {
            let zeros = vec![0 as Word; self.cfg.block_words];
            for d in range {
                let end = self.backend.blocks_on(d);
                sums[d].truncate(end);
                self.verified_clean[d].truncate(end);
                for (b, sum) in sums[d].iter_mut().enumerate().skip(first_block) {
                    *sum = self.codec.checksum(BlockAddr::new(d, b), &zeros);
                    self.verified_clean[d][b] = false;
                }
            }
        }
        discarded
    }

    /// Current global I/O counters.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// A full copy of the backend's current disk image (outer index =
    /// disk, inner = block). Uncharged and fault-free — this is the
    /// *physical* medium, for differential tests and offline inspection;
    /// it bypasses checksums, fault plans, and the journal alike.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Vec<Box<[Word]>>> {
        self.backend.snapshot()
    }

    /// Begin a per-operation cost scope.
    #[must_use]
    pub fn begin_op(&self) -> OpScope {
        OpScope::at(self.stats)
    }

    /// End a per-operation cost scope, returning the delta.
    #[must_use]
    pub fn end_op(&self, scope: OpScope) -> OpCost {
        scope.cost(self.stats)
    }

    fn check(&self, addr: BlockAddr) {
        assert!(
            addr.disk < self.cfg.disks,
            "disk index {} out of range (D = {})",
            addr.disk,
            self.cfg.disks
        );
        assert!(
            addr.block < self.backend.blocks_on(addr.disk),
            "block {} out of range on disk {} ({} blocks)",
            addr.block,
            addr.disk,
            self.backend.blocks_on(addr.disk)
        );
    }

    fn charge(&mut self, addrs: impl Iterator<Item = BlockAddr>) -> u64 {
        self.per_disk_scratch.fill(0);
        let mut any = false;
        for a in addrs {
            self.per_disk_scratch[a.disk] += 1;
            any = true;
        }
        if !any {
            return 0;
        }
        let cost = self.cfg.batch_cost(&self.per_disk_scratch);
        self.stats.parallel_ios += cost;
        self.stats.batches += 1;
        cost
    }

    /// Whether any fault or integrity machinery is active (the slow-path
    /// gate: with neither, reads and writes skip all health work).
    fn hazards_active(&self) -> bool {
        self.fault.is_some() || self.checksums.is_some()
    }

    /// Whether a read of `addrs` returns exactly what the medium holds: no
    /// fault plan is active, and under checksums every block is already
    /// verified clean. It then skips the health pass, and may be views.
    fn reads_clean(&self, addrs: &[BlockAddr]) -> bool {
        self.fault.is_none()
            && (self.checksums.is_none() || addrs.iter().all(|a| self.verified_clean[a.disk][a.block]))
    }

    /// Health of `addr` (whose current content is `content`) against the
    /// fault state and checksums. `read_index`, when given, is the
    /// per-disk read-batch index to test transient windows against;
    /// `None` uses the disk's current clock.
    fn health_of(&self, addr: BlockAddr, content: &[Word], read_index: Option<u64>) -> BlockHealth {
        if let Some(fs) = &self.fault {
            if fs.is_dead(addr.disk) {
                return BlockHealth::DiskDead;
            }
            let idx = read_index.unwrap_or_else(|| fs.read_clock(addr.disk));
            if fs.transient_at(addr.disk, idx) {
                return BlockHealth::TransientError;
            }
        }
        if let Some(sums) = &self.checksums {
            if !self.verified_clean[addr.disk][addr.block]
                && self.codec.checksum(addr, content) != sums[addr.disk][addr.block]
            {
                return BlockHealth::ChecksumMismatch;
            }
        }
        BlockHealth::Ok
    }

    /// Reseal the checksum of `addr` over `content` (its current bytes).
    fn reseal_content(&mut self, addr: BlockAddr, content: &[Word]) {
        if self.checksums.is_none() {
            return;
        }
        let sum = self.codec.checksum(addr, content);
        if let Some(sums) = &mut self.checksums {
            sums[addr.disk][addr.block] = sum;
            self.verified_clean[addr.disk][addr.block] = true;
        }
    }

    /// Drop every verified-clean bit: the next read of each block
    /// re-verifies it against the sidecar.
    pub(crate) fn invalidate_verified(&mut self) {
        for disk in &mut self.verified_clean {
            disk.fill(false);
        }
    }

    /// Number of blocks currently marked verified-clean (test hook for
    /// the recovery cache-invalidation contract: after
    /// [`recover`](DiskArray::recover) this must be zero).
    #[must_use]
    pub fn verified_clean_blocks(&self) -> u64 {
        self.verified_clean
            .iter()
            .map(|d| d.iter().filter(|b| **b).count() as u64)
            .sum()
    }

    /// The installed block-checksum codec (also used to checksum journal
    /// intent payloads).
    pub(crate) fn block_codec(&self) -> &Arc<dyn BlockCodec> {
        &self.codec
    }

    /// Whether an installed [`Fault::CrashPoint`] has fired: at least one
    /// physical write has been dropped because the crash budget was
    /// spent. The dying process cannot observe this (writes report `Ok`);
    /// it exists for the test harness playing the role of the outside
    /// world.
    #[must_use]
    pub fn crash_fired(&self) -> bool {
        self.fault.as_ref().is_some_and(FaultState::crash_fired)
    }

    /// Install a fault plan, replacing any active one.
    ///
    /// Install-time effects fire immediately: dead disks lose their data
    /// (zeroed, and — with integrity on — resealed, so that the *fault
    /// state* rather than a stale checksum is what reports the failure,
    /// and clearing the plan models a freshly formatted replacement
    /// disk); bit-rot flips land without resealing, leaving silent
    /// corruption only integrity verification can see. Access clocks
    /// (transient-read windows, torn-write counters) start at zero.
    ///
    /// A fault on a block past its disk's end (one may hold nothing)
    /// damages nothing.
    ///
    /// # Panics
    /// Panics if a fault names a disk out of range.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for fault in plan.faults() {
            match *fault {
                Fault::DeadDisk { disk } => {
                    assert!(
                        disk < self.cfg.disks,
                        "dead disk {disk} out of range (D = {})",
                        self.cfg.disks
                    );
                    let zeros = vec![0 as Word; self.cfg.block_words];
                    for b in 0..self.backend.blocks_on(disk) {
                        let addr = BlockAddr::new(disk, b);
                        self.backend.poke(addr, &zeros);
                        self.reseal_content(addr, &zeros);
                    }
                }
                Fault::BitRot { disk, block, bit } => {
                    let addr = BlockAddr::new(disk, block);
                    if block >= self.blocks_on(disk) {
                        continue; // past the disk's end: nothing there to damage
                    }
                    let bit = (bit as usize) % (self.cfg.block_words * WORD_BITS);
                    let mut content = self.backend.peek(addr);
                    content[bit / WORD_BITS] ^= 1 << (bit % WORD_BITS);
                    self.backend.poke(addr, &content);
                    // Checksum deliberately left stale: silent corruption.
                }
                _ => {}
            }
        }
        // Any plan may have damaged the medium behind sealed checksums
        // (bit rot): force re-verification of everything.
        self.invalidate_verified();
        self.fault = Some(FaultState::new(plan, self.cfg.disks));
    }

    /// Remove the active fault plan. Dead disks come back as freshly
    /// formatted replacements (their data stays lost until a scrub
    /// rebuilds it); bit-rot damage remains on disk.
    pub fn clear_fault_plan(&mut self) {
        self.fault = None;
    }

    /// The active fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(FaultState::plan)
    }

    /// Seal a checksum over every block's **current** content and verify
    /// on every subsequent read. Call after construction (or any trusted
    /// state); blocks damaged later fail verification and sanitize.
    pub fn enable_integrity(&mut self) {
        let sums: Vec<Vec<Word>> = (0..self.cfg.disks)
            .map(|d| {
                (0..self.backend.blocks_on(d))
                    .map(|b| {
                        let addr = BlockAddr::new(d, b);
                        self.codec.checksum(addr, &self.backend.peek(addr))
                    })
                    .collect()
            })
            .collect();
        self.verified_clean = (0..self.cfg.disks)
            .map(|d| vec![true; self.backend.blocks_on(d)])
            .collect();
        self.checksums = Some(sums);
    }

    /// Whether integrity checksums are active.
    #[must_use]
    pub fn integrity_enabled(&self) -> bool {
        self.checksums.is_some()
    }

    /// Install a checksum codec. If integrity is already enabled the
    /// current content is resealed under the new codec.
    pub fn set_block_codec(&mut self, codec: Arc<dyn BlockCodec>) {
        self.codec = codec;
        if self.integrity_enabled() {
            self.enable_integrity();
        }
    }

    /// Health of one block, **uncharged** (no I/O, no clock movement):
    /// dead-disk and transient state are evaluated against the disk's
    /// current read clock, and the checksum is verified if integrity is
    /// enabled.
    ///
    /// # Panics
    /// Panics on an out-of-range address.
    #[must_use]
    pub fn block_health(&self, addr: BlockAddr) -> BlockHealth {
        self.check(addr);
        if !self.hazards_active() {
            return BlockHealth::Ok;
        }
        if let Some(fs) = &self.fault {
            if fs.is_dead(addr.disk) {
                return BlockHealth::DiskDead;
            }
            if fs.transient_at(addr.disk, fs.read_clock(addr.disk)) {
                return BlockHealth::TransientError;
            }
        }
        if let Some(sums) = &self.checksums {
            if !self.verified_clean[addr.disk][addr.block]
                && self.codec.checksum(addr, &self.backend.peek(addr))
                    != sums[addr.disk][addr.block]
            {
                return BlockHealth::ChecksumMismatch;
            }
        }
        BlockHealth::Ok
    }

    /// Read a batch of blocks, charging the model cost.
    ///
    /// Returns an [`IoOutcome`] with the block images in request order,
    /// **sanitized** under any active fault plan or integrity failure
    /// (failed blocks read as all zeros); with
    /// [`ReadOptions::verified`] the per-block [`BlockHealth`] is
    /// reported too. Advances the per-disk read clocks that
    /// transient-fault windows are measured in — so retrying a transient
    /// failure with a second call can succeed.
    ///
    /// # Panics
    /// Panics on any out-of-range address.
    pub fn read(&mut self, addrs: &[BlockAddr], opts: ReadOptions) -> IoOutcome<'_> {
        let cost = self.charge_read(addrs);
        self.complete_read(addrs, opts, cost)
    }

    /// The accounting half of [`read`](DiskArray::read): bounds, model cost,
    /// counters, [`IoEvent::BatchRead`]. Apart so that the batch engine can
    /// record its rounds before [`complete_read`](DiskArray::complete_read)
    /// borrows the array; that must follow, same `addrs`, nothing charged between.
    pub(crate) fn charge_read(&mut self, addrs: &[BlockAddr]) -> OpCost {
        for &a in addrs {
            self.check(a);
        }
        let before = self.stats;
        let cost = self.charge(addrs.iter().copied());
        self.stats.block_reads += addrs.len() as u64;
        if !addrs.is_empty() {
            self.emit_io_event(IoEvent::BatchRead {
                per_disk: &self.per_disk_scratch,
                blocks: addrs.len() as u64,
                parallel_ios: cost,
            });
        }
        self.stats.since(&before)
    }

    /// The data half of [`read`](DiskArray::read): the round, and with
    /// hazards active its sanitizing pass and the fault clocks.
    pub(crate) fn complete_read(&mut self, addrs: &[BlockAddr], opts: ReadOptions, cost: OpCost) -> IoOutcome<'_> {
        if self.reads_clean(addrs) {
            // Views where the backend is memory; else the copy it hands out.
            let blocks = if addrs.first().is_some_and(|&a| self.backend.resident(a).is_some()) {
                self.views(addrs)
            } else {
                Round::Copied(self.backend.submit(IoSubmission::reads(addrs)).reads)
            };
            return IoOutcome { blocks, healths: all_ok(addrs, opts), cost };
        }
        // What is read may differ from what the medium holds: a copy. Every
        // address in the batch shares its disk's current (not yet advanced)
        // read index, then the clocks of all touched disks tick.
        let mut blocks = self.backend.submit(IoSubmission::reads(addrs)).reads;
        let healths = self.sanitize(addrs, &mut blocks);
        if self.checksums.is_some() {
            // A block that read clean stays clean until the medium can be
            // damaged again; skip re-verifying it on later reads.
            for (&a, h) in addrs.iter().zip(&healths) {
                if h.is_ok() {
                    self.verified_clean[a.disk][a.block] = true;
                }
            }
        }
        if !addrs.is_empty() {
            if let Some(fs) = self.fault.as_mut() {
                // Still the per-disk counts `charge_read` left.
                fs.tick_reads(&self.per_disk_scratch);
            }
        }
        IoOutcome {
            blocks: Round::Copied(blocks),
            healths: if opts.verify { healths } else { Vec::new() },
            cost,
        }
    }

    /// [`complete_read`](DiskArray::complete_read) for a reader that keeps
    /// what it reads itself (the batch executor): a clean read of a resident
    /// array completes as nothing — its blocks stay where they lie, for
    /// [`resident`](DiskArray::resident) — and any clean read with no health,
    /// every one being `Ok`. Any other read is copied out, with each block's
    /// health.
    pub(crate) fn complete_read_held(&mut self, addrs: &[BlockAddr], cost: OpCost) -> (Option<BlockBuf>, Vec<BlockHealth>) {
        if !self.reads_clean(addrs) {
            let out = self.complete_read(addrs, ReadOptions::verified(), cost);
            return (out.blocks.copied(), out.healths);
        }
        if addrs.first().is_some_and(|&a| self.backend.resident(a).is_some()) {
            return (None, Vec::new());
        }
        (Some(self.backend.submit(IoSubmission::reads(addrs)).reads), Vec::new())
    }

    /// [`resident`](DiskArray::resident), beside the batch executor's arena.
    pub(crate) fn resident_and_arena(&mut self, addr: BlockAddr) -> (Option<&[Word]>, &mut crate::batch::Arena) {
        let clean = self.reads_clean(&[addr]);
        (self.backend.resident(addr).filter(|_| clean), &mut self.arena)
    }

    /// The block at `addr` where it lies in the backend, when a read of it
    /// completes as a view: the backend is resident and neither a fault plan
    /// nor a pending checksum verification could change what is read. For
    /// an address a read or a write has bounds-checked already.
    pub(crate) fn resident(&self, addr: BlockAddr) -> Option<&[Word]> {
        self.backend.resident(addr).filter(|_| self.reads_clean(&[addr]))
    }

    fn views(&self, addrs: &[BlockAddr]) -> Round<'_> {
        let block = |&a| self.backend.resident(a).expect("a resident backend holds every block in memory");
        Round::Resident(addrs.iter().map(block).collect())
    }

    /// The hazard pass of a read: classify every block against the fault
    /// state and checksums, zero the failed ones in place, and count them
    /// as degraded reads.
    fn sanitize(&self, addrs: &[BlockAddr], blocks: &mut BlockBuf) -> Vec<BlockHealth> {
        let healths: Vec<BlockHealth> = addrs
            .iter()
            .zip(blocks.iter())
            .map(|(&a, content)| self.health_of(a, content, None))
            .collect();
        let mut bad = 0;
        for (i, h) in healths.iter().enumerate() {
            if !h.is_ok() {
                blocks.block_mut(i).fill(0);
                bad += 1;
            }
        }
        if bad > 0 {
            self.degraded_reads.fetch_add(bad, Ordering::Relaxed);
        }
        healths
    }

    /// Write a batch of blocks, charging the model cost.
    ///
    /// Each payload must be at most `B` words; a shorter payload leaves
    /// the block's tail untouched (the model reads a block before
    /// partially writing it, so partial writes are only issued by callers
    /// that already hold the block — all code in this workspace writes
    /// full blocks).
    ///
    /// Under an active fault plan, writes to dead disks are silently
    /// dropped and torn writes land a prefix; with
    /// [`WriteOptions::checked`] each write's [`BlockHealth`] is reported
    /// (`Ok` when the payload landed fully). With integrity enabled,
    /// landed writes are resealed; a torn write seals the checksum over
    /// the *intended* content, so the damage is caught at next read.
    /// [`WriteOptions::sync`] adds a durability barrier after the batch.
    ///
    /// # Panics
    /// Panics on any out-of-range address or an over-long payload.
    pub fn write(&mut self, writes: &[(BlockAddr, &[Word])], opts: WriteOptions) -> IoOutcome<'static> {
        for &(a, data) in writes {
            self.check(a);
            assert!(
                data.len() <= self.cfg.block_words,
                "payload of {} words exceeds block size B = {}",
                data.len(),
                self.cfg.block_words
            );
        }
        let before = self.stats;
        let cost = self.charge(writes.iter().map(|&(a, _)| a));
        self.stats.block_writes += writes.len() as u64;
        if !writes.is_empty() {
            self.emit_io_event(IoEvent::BatchWrite {
                per_disk: &self.per_disk_scratch,
                blocks: writes.len() as u64,
                parallel_ios: cost,
            });
        }
        if !self.hazards_active() {
            self.backend
                .submit(IoSubmission::writes(writes).with_sync(opts.sync));
            return IoOutcome {
                blocks: Round::Copied(BlockBuf::default()),
                healths: if opts.verify {
                    vec![BlockHealth::Ok; writes.len()]
                } else {
                    Vec::new()
                },
                cost: self.stats.since(&before),
            };
        }
        // Advance the per-disk write clocks (torn-write faults key on the
        // write-batch index of their disk).
        let write_indexes: Vec<u64> = {
            let scratch = std::mem::take(&mut self.per_disk_scratch);
            let indexes = match self.fault.as_mut() {
                Some(fs) => fs.tick_writes(&scratch),
                None => Vec::new(),
            };
            self.per_disk_scratch = scratch;
            indexes
        };
        // Decide each write's physical fate BEFORE anything reaches the
        // backend: crash points and dead disks drop writes here, so crash
        // semantics are identical on every backend.
        #[derive(Clone, Copy)]
        enum Fate {
            /// Dropped: crash point fired or the disk is dead.
            Skip,
            /// Lands fully; reseal over the payload afterwards.
            Full,
            /// A prefix lands; the sealed checksum covers the *intended*
            /// content (computed before the damage is applied).
            Torn(Option<Word>),
        }
        let mut healths = vec![BlockHealth::Ok; writes.len()];
        let mut first_on_disk = vec![true; self.cfg.disks];
        let mut fates = Vec::with_capacity(writes.len());
        let mut effective: Vec<(BlockAddr, &[Word])> = Vec::with_capacity(writes.len());
        for (i, &(a, data)) in writes.iter().enumerate() {
            if let Some(fs) = self.fault.as_mut() {
                // Crash point: physical writes are counted globally in
                // slice order; once the budget is spent the machine is
                // dead — this write and every later one are lost, and the
                // dying process still observes `Ok` (a real crash never
                // delivers a failure acknowledgement). No reseal either:
                // the old content keeps its old (consistent) checksum.
                if fs.note_physical_write() {
                    fates.push(Fate::Skip);
                    continue;
                }
            }
            let is_first = std::mem::replace(&mut first_on_disk[a.disk], false);
            let mut torn = false;
            if let Some(fs) = self.fault.as_mut() {
                if fs.is_dead(a.disk) {
                    healths[i] = BlockHealth::DiskDead;
                    fates.push(Fate::Skip);
                    continue; // dropped
                }
                torn = is_first && fs.consume_torn(a.disk, write_indexes[a.disk]);
            }
            if torn {
                let intended_sum = self.checksums.as_ref().map(|_| {
                    let mut intended = self.backend.peek(a);
                    intended[..data.len()].copy_from_slice(data);
                    self.codec.checksum(a, &intended)
                });
                effective.push((a, &data[..data.len() / 2]));
                fates.push(Fate::Torn(intended_sum));
                healths[i] = BlockHealth::TornWrite;
            } else {
                effective.push((a, data));
                fates.push(Fate::Full);
            }
        }
        self.backend
            .submit(IoSubmission::writes(&effective).with_sync(opts.sync));
        for (&(a, data), fate) in writes.iter().zip(&fates) {
            match *fate {
                Fate::Skip => {}
                Fate::Full => {
                    if self.checksums.is_some() {
                        if data.len() == self.cfg.block_words {
                            // Full-block write: the payload IS the content.
                            let sum = self.codec.checksum(a, data);
                            self.checksums.as_mut().expect("integrity enabled")[a.disk]
                                [a.block] = sum;
                            self.verified_clean[a.disk][a.block] = true;
                        } else {
                            let content = self.backend.peek(a);
                            self.reseal_content(a, &content);
                        }
                    }
                }
                Fate::Torn(intended_sum) => {
                    if let Some(sum) = intended_sum {
                        self.checksums.as_mut().expect("integrity enabled")[a.disk][a.block] =
                            sum;
                        self.verified_clean[a.disk][a.block] = false;
                    }
                }
            }
        }
        IoOutcome {
            blocks: Round::Copied(BlockBuf::default()),
            healths: if opts.verify { healths } else { Vec::new() },
            cost: self.stats.since(&before),
        }
    }

    /// Read a batch through a **shared** reference: the outcome carries
    /// the blocks and the parallel-I/O cost the batch *would* be charged,
    /// without touching the global counters.
    ///
    /// This is what makes the paper's concurrency argument concrete: the
    /// dictionaries never move data once written and probe addresses are
    /// pure functions of the key, so any number of readers can probe the
    /// same array simultaneously — see `pdm-dict`'s
    /// `OneProbeStatic::lookup_shared` and the `concurrent_reads` example.
    /// Callers that want the cost recorded pass [`IoOutcome::cost`] to
    /// [`charge_cost`](DiskArray::charge_cost).
    ///
    /// Shared reads cannot advance the per-disk read clocks (they hold no
    /// exclusive reference), so transient-fault windows are evaluated
    /// against each disk's *current* clock — an approximation that errs
    /// toward reporting the window for as long as charged traffic has not
    /// moved past it.
    ///
    /// # Panics
    /// Panics on any out-of-range address.
    #[must_use]
    pub fn read_shared(&self, addrs: &[BlockAddr], opts: ReadOptions) -> IoOutcome<'_> {
        let mut per_disk = vec![0usize; self.cfg.disks];
        for &a in addrs {
            self.check(a);
            per_disk[a.disk] += 1;
        }
        let cost = OpCost {
            parallel_ios: self.cfg.batch_cost(&per_disk),
            block_reads: addrs.len() as u64,
            block_writes: 0,
        };
        if self.reads_clean(addrs) {
            let blocks = match addrs.first().and_then(|&a| self.backend.resident(a)) {
                Some(_) => self.views(addrs),
                None => Round::Copied(self.backend.submit_reads(addrs).reads),
            };
            return IoOutcome { blocks, healths: all_ok(addrs, opts), cost };
        }
        let mut blocks = self.backend.submit_reads(addrs).reads;
        let healths = self.sanitize(addrs, &mut blocks);
        IoOutcome {
            blocks: Round::Copied(blocks),
            healths: if opts.verify { healths } else { Vec::new() },
            cost,
        }
    }

    /// Walk every block in striped (row-major) order as charged, verified
    /// read batches, counting checksum failures. This is the base-layer
    /// scrub: it detects damage but repairs nothing — front-ends with
    /// redundancy layer repair on top (see `pdm-dict`'s `Dict::scrub`).
    pub fn scrub_verify(&mut self) -> ScrubReport {
        let scope = self.begin_op();
        // A scrub is by definition a full medium walk: bypass (and then
        // repopulate) the verified-clean cache.
        self.invalidate_verified();
        let mut report = ScrubReport::default();
        let rows = (0..self.cfg.disks)
            .map(|d| self.backend.blocks_on(d))
            .max()
            .unwrap_or(0);
        for row in 0..rows {
            let addrs: Vec<BlockAddr> = (0..self.cfg.disks)
                .filter(|&d| row < self.backend.blocks_on(d))
                .map(|d| BlockAddr::new(d, row))
                .collect();
            let out = self.read(&addrs, ReadOptions::verified());
            report.blocks_scanned += addrs.len() as u64;
            report.checksum_failures += out
                .healths
                .iter()
                .filter(|h| **h == BlockHealth::ChecksumMismatch)
                .count() as u64;
        }
        report.cost = self.end_op(scope);
        report
    }

    /// Record a cost computed elsewhere (e.g. by
    /// [`read_shared`](DiskArray::read_shared)) into the global
    /// counters.
    pub fn charge_cost(&mut self, cost: OpCost) {
        self.stats.parallel_ios += cost.parallel_ios;
        self.stats.block_reads += cost.block_reads;
        self.stats.block_writes += cost.block_writes;
        self.stats.batches += 1;
        // Shared-read costs carry no per-disk breakdown; the event reports
        // an empty per-disk slice so totals stay exact while per-disk
        // attribution is limited to directly charged batches.
        if cost.block_reads > 0 {
            self.emit_io_event(IoEvent::BatchRead {
                per_disk: &[],
                blocks: cost.block_reads,
                parallel_ios: cost.parallel_ios,
            });
        }
        if cost.block_writes > 0 {
            self.emit_io_event(IoEvent::BatchWrite {
                per_disk: &[],
                blocks: cost.block_writes,
                parallel_ios: if cost.block_reads > 0 {
                    0 // already attributed to the read event above
                } else {
                    cost.parallel_ios
                },
            });
        }
    }

    /// Record `rounds` scheduled parallel rounds into the global counters.
    ///
    /// Called by the batch engine ([`crate::batch`]) after executing a
    /// plan; plain `read_batch` / `write_batch` traffic does not move the
    /// round counter.
    pub fn record_rounds(&mut self, rounds: u64) {
        self.stats.rounds += rounds;
        if rounds > 0 {
            self.emit_io_event(IoEvent::RoundsScheduled { rounds });
        }
    }

    /// Read one block (one parallel I/O).
    pub fn read_block(&mut self, addr: BlockAddr) -> Vec<Word> {
        self.read(&[addr], ReadOptions::default())
            .blocks
            .into_buf()
            .into_words()
    }

    /// Write one block (one parallel I/O).
    pub fn write_block(&mut self, addr: BlockAddr, data: &[Word]) {
        let _ = self.write(&[(addr, data)], WriteOptions::default());
    }

    /// Inspect a block **without** charging I/O. For tests, debugging, and
    /// invariant checks only; production data-structure code must not use
    /// this to answer queries.
    ///
    /// # Panics
    /// Panics on an out-of-range address.
    #[must_use]
    pub fn peek(&self, addr: BlockAddr) -> Vec<Word> {
        self.check(addr);
        self.backend.peek(addr)
    }

    /// Mutate a block **without** charging I/O. Counterpart of
    /// [`peek`](DiskArray::peek) for test setup.
    ///
    /// Deliberately does **not** reseal the block's checksum: a poke
    /// models out-of-band corruption, which integrity verification is
    /// supposed to catch.
    pub fn poke(&mut self, addr: BlockAddr, data: &[Word]) {
        self.check(addr);
        assert!(data.len() <= self.cfg.block_words);
        self.backend.poke(addr, data);
        if !self.verified_clean.is_empty() {
            self.verified_clean[addr.disk][addr.block] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockView;
    use crate::config::Model;

    fn small() -> DiskArray {
        DiskArray::new(PdmConfig::new(4, 8), 4)
    }

    #[test]
    fn blocks_start_zeroed() {
        let disks = small();
        assert_eq!(disks.peek(BlockAddr::new(3, 3)), &[0; 8]);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut disks = small();
        let data: Vec<Word> = (0..8).collect();
        disks.write_block(BlockAddr::new(1, 2), &data);
        assert_eq!(disks.read_block(BlockAddr::new(1, 2)), data);
    }

    #[test]
    fn one_block_per_disk_is_one_parallel_io() {
        let mut disks = small();
        let addrs: Vec<_> = (0..4).map(|d| BlockAddr::new(d, 0)).collect();
        disks.read(&addrs, ReadOptions::default());
        assert_eq!(disks.stats().parallel_ios, 1);
        assert_eq!(disks.stats().block_reads, 4);
    }

    #[test]
    fn same_disk_blocks_serialize() {
        let mut disks = small();
        let addrs: Vec<_> = (0..3).map(|b| BlockAddr::new(2, b)).collect();
        disks.read(&addrs, ReadOptions::default());
        assert_eq!(disks.stats().parallel_ios, 3);
    }

    #[test]
    fn head_model_packs_same_disk_blocks() {
        let cfg = PdmConfig::new(4, 8).with_model(Model::ParallelDiskHead);
        let mut disks = DiskArray::new(cfg, 4);
        let addrs: Vec<_> = (0..3).map(|b| BlockAddr::new(2, b)).collect();
        disks.read(&addrs, ReadOptions::default());
        assert_eq!(disks.stats().parallel_ios, 1);
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let mut disks = small();
        disks.read(&[], ReadOptions::default());
        disks.write(&[], WriteOptions::default());
        assert_eq!(disks.stats().parallel_ios, 0);
        assert_eq!(disks.stats().batches, 0);
    }

    #[test]
    fn partial_write_preserves_tail() {
        let mut disks = small();
        disks.write_block(BlockAddr::new(0, 0), &[9; 8]);
        disks.write_block(BlockAddr::new(0, 0), &[1, 2]);
        assert_eq!(disks.peek(BlockAddr::new(0, 0)), &[1, 2, 9, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn grow_adds_zeroed_blocks_without_io() {
        let mut disks = small();
        let before = disks.stats();
        disks.grow(10);
        assert_eq!(disks.stats(), before);
        assert_eq!(disks.blocks_on(0), 10);
        assert_eq!(disks.peek(BlockAddr::new(0, 9)), &[0; 8]);
    }

    #[test]
    fn grow_never_shrinks() {
        let mut disks = small();
        disks.grow(2);
        assert_eq!(disks.blocks_on(0), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_disk_panics() {
        let mut disks = small();
        let _ = disks.read_block(BlockAddr::new(7, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_block_panics() {
        let mut disks = small();
        let _ = disks.read_block(BlockAddr::new(0, 99));
    }

    #[test]
    #[should_panic(expected = "exceeds block size")]
    fn overlong_payload_panics() {
        let mut disks = small();
        disks.write_block(BlockAddr::new(0, 0), &[0; 9]);
    }

    #[test]
    fn shared_reads_cost_but_do_not_charge() {
        let mut disks = small();
        disks.write_block(BlockAddr::new(1, 2), &[5; 8]);
        let before = disks.stats();
        let out = disks.read_shared(
            &[
                BlockAddr::new(1, 2),
                BlockAddr::new(1, 3),
                BlockAddr::new(2, 0),
            ],
            ReadOptions::default(),
        );
        assert_eq!(out.blocks[0], [5; 8]);
        let cost = out.cost;
        assert_eq!(cost.parallel_ios, 2); // two blocks on disk 1
        assert_eq!(cost.block_reads, 3);
        assert_eq!(disks.stats(), before, "shared reads must not charge");
        disks.charge_cost(cost);
        assert_eq!(disks.stats().parallel_ios, before.parallel_ios + 2);
        assert_eq!(disks.stats().block_reads, before.block_reads + 3);
    }

    #[test]
    fn shared_reads_agree_with_mutable_reads() {
        let mut disks = small();
        disks.write_block(BlockAddr::new(0, 1), &[7; 8]);
        let addrs = [BlockAddr::new(0, 1), BlockAddr::new(3, 0)];
        let shared = disks.read_shared(&addrs, ReadOptions::default());
        let (shared_blocks, shared_cost) = (shared.blocks.into_buf(), shared.cost);
        let scope = disks.begin_op();
        let counted = disks.read(&addrs, ReadOptions::default());
        assert_eq!(shared_blocks, counted.blocks.into_buf());
        assert_eq!(shared_cost, counted.cost);
        assert_eq!(shared_cost, disks.end_op(scope));
    }

    #[test]
    fn op_scope_measures_delta() {
        let mut disks = small();
        disks.read_block(BlockAddr::new(0, 0));
        let scope = disks.begin_op();
        disks.read(&[BlockAddr::new(0, 1), BlockAddr::new(1, 1)], ReadOptions::default());
        disks.write_block(BlockAddr::new(2, 0), &[1]);
        let cost = disks.end_op(scope);
        assert_eq!(cost.parallel_ios, 2);
        assert_eq!(cost.block_reads, 2);
        assert_eq!(cost.block_writes, 1);
    }

    #[test]
    fn total_words_reflects_geometry() {
        let disks = small();
        assert_eq!(disks.total_words(), 4 * 4 * 8);
    }

    #[test]
    fn dead_disk_sanitizes_reads_and_drops_writes() {
        let mut disks = small();
        let dead = BlockAddr::new(2, 1);
        let live = BlockAddr::new(1, 1);
        disks.write_block(dead, &[7; 8]);
        disks.write_block(live, &[9; 8]);
        disks.set_fault_plan(FaultPlan::new().dead_disk(2));
        let out = disks.read(&[dead, live], ReadOptions::verified());
        assert_eq!(out.blocks[0], [0; 8], "dead-disk read sanitizes to zeros");
        assert_eq!(out.blocks[1], [9; 8]);
        assert_eq!(out.healths, vec![BlockHealth::DiskDead, BlockHealth::Ok]);
        let wh = disks
            .write(&[(dead, &[3; 8][..]), (live, &[4; 8][..])], WriteOptions::checked())
            .healths;
        assert_eq!(wh, vec![BlockHealth::DiskDead, BlockHealth::Ok]);
        // Replacement disk: accesses recover, data stays lost.
        disks.clear_fault_plan();
        assert_eq!(disks.read_block(dead), vec![0; 8]);
        assert_eq!(disks.block_health(dead), BlockHealth::Ok);
        assert_eq!(disks.read_block(live), vec![4; 8]);
    }

    #[test]
    fn transient_read_window_clears_on_retry() {
        let mut disks = small();
        let a = BlockAddr::new(1, 0);
        disks.write_block(a, &[5; 8]);
        // First read batch touching disk 1 fails; the next succeeds.
        disks.set_fault_plan(FaultPlan::new().transient_read(1, 0, 1));
        let out = disks.read(&[a], ReadOptions::verified());
        assert_eq!(out.healths[0], BlockHealth::TransientError);
        assert_eq!(out.blocks[0], [0; 8]);
        let out = disks.read(&[a], ReadOptions::verified());
        assert_eq!(out.healths[0], BlockHealth::Ok, "data was intact underneath");
        assert_eq!(out.blocks[0], [5; 8]);
    }

    #[test]
    fn bit_rot_is_silent_without_integrity_and_caught_with_it() {
        let run = |integrity: bool| {
            let mut disks = small();
            let a = BlockAddr::new(0, 2);
            disks.write_block(a, &[1; 8]);
            if integrity {
                disks.enable_integrity();
            }
            disks.set_fault_plan(FaultPlan::new().bit_rot(0, 2, 3));
            let out = disks.read(&[a], ReadOptions::verified());
            (out.blocks.into_buf(), out.healths)
        };
        let (blocks, healths) = run(false);
        assert_eq!(healths[0], BlockHealth::Ok, "no integrity: rot is silent");
        assert_eq!(blocks[0][0], 1 ^ (1 << 3), "garbage decodes as-is");
        let (blocks, healths) = run(true);
        assert_eq!(healths[0], BlockHealth::ChecksumMismatch);
        assert_eq!(blocks[0], [0; 8], "integrity sanitizes the rot");
    }

    #[test]
    fn torn_write_lands_a_prefix_and_is_caught_by_integrity() {
        let mut disks = small();
        let a = BlockAddr::new(3, 0);
        disks.write_block(a, &[9; 8]);
        disks.enable_integrity();
        disks.set_fault_plan(FaultPlan::new().torn_write(3, 0));
        let wh = disks.write(&[(a, &[2; 8][..])], WriteOptions::checked()).healths;
        assert_eq!(wh, vec![BlockHealth::TornWrite]);
        assert_eq!(
            disks.peek(a),
            &[2, 2, 2, 2, 9, 9, 9, 9],
            "only the prefix landed"
        );
        let out = disks.read(&[a], ReadOptions::verified());
        assert_eq!(out.healths[0], BlockHealth::ChecksumMismatch);
        assert_eq!(out.blocks[0], [0; 8]);
        // Torn writes are one-shot: the retry lands fully and reseals.
        let wh = disks.write(&[(a, &[2; 8][..])], WriteOptions::checked()).healths;
        assert_eq!(wh, vec![BlockHealth::Ok]);
        let out = disks.read(&[a], ReadOptions::verified());
        assert_eq!(out.healths[0], BlockHealth::Ok);
        assert_eq!(out.blocks[0], [2; 8]);
    }

    #[test]
    fn poke_leaves_checksums_stale() {
        let mut disks = small();
        let a = BlockAddr::new(0, 0);
        disks.write_block(a, &[4; 8]);
        disks.enable_integrity();
        disks.poke(a, &[5; 8]);
        assert_eq!(disks.block_health(a), BlockHealth::ChecksumMismatch);
        assert_eq!(disks.read_block(a), vec![0; 8], "sanitized");
        // A charged write reseals.
        disks.write_block(a, &[6; 8]);
        assert_eq!(disks.block_health(a), BlockHealth::Ok);
        assert_eq!(disks.read_block(a), vec![6; 8]);
    }

    #[test]
    fn shared_verified_reads_match_exclusive_reads() {
        let mut disks = small();
        let good = BlockAddr::new(0, 0);
        let bad = BlockAddr::new(1, 0);
        disks.write_block(good, &[3; 8]);
        disks.write_block(bad, &[8; 8]);
        disks.enable_integrity();
        disks.poke(bad, &[1; 8]);
        let shared = disks.read_shared(&[good, bad], ReadOptions::verified());
        let (shared_blocks, shared_healths) = (shared.blocks.into_buf(), shared.healths);
        assert_eq!(shared.cost.parallel_ios, 1);
        let excl = disks.read(&[good, bad], ReadOptions::verified());
        assert_eq!(shared_healths, excl.healths);
        assert_eq!(shared_blocks, excl.blocks.into_buf());
    }

    #[test]
    fn scrub_verify_counts_checksum_failures() {
        let mut disks = small();
        disks.write_block(BlockAddr::new(0, 0), &[1; 8]);
        disks.write_block(BlockAddr::new(2, 3), &[2; 8]);
        disks.enable_integrity();
        disks.poke(BlockAddr::new(2, 3), &[9; 8]);
        disks.poke(BlockAddr::new(1, 1), &[9; 8]);
        let report = disks.scrub_verify();
        assert_eq!(report.blocks_scanned, 16);
        assert_eq!(report.checksum_failures, 2);
        assert_eq!(report.cost.block_reads, 16);
        assert_eq!(report.cost.parallel_ios, 4, "one round per row");
    }

    #[test]
    fn grow_seals_new_blocks() {
        let mut disks = small();
        disks.enable_integrity();
        disks.grow(6);
        assert_eq!(disks.block_health(BlockAddr::new(0, 5)), BlockHealth::Ok);
        assert_eq!(disks.scrub_verify().checksum_failures, 0);
    }

    #[test]
    fn grow_disks_lengthens_and_seals_its_range_only() {
        let mut disks = small();
        disks.write_block(BlockAddr::new(3, 3), &[5; 8]);
        disks.enable_integrity();
        let before = disks.stats();
        disks.grow_disks(1, 2, 7);
        disks.grow_disks(2, 2, 5); // overlaps: disk 2 is already longer
        assert_eq!(disks.stats(), before, "growing is uncharged");
        let lens: Vec<usize> = (0..4).map(|d| disks.blocks_on(d)).collect();
        assert_eq!(lens, [4, 7, 7, 5]);
        assert_eq!(disks.verified_clean_blocks(), 4 + 7 + 7 + 5, "new blocks arrive sealed");
        let out = disks.read(&[BlockAddr::new(1, 6), BlockAddr::new(3, 4)], ReadOptions::verified());
        assert!(out.all_ok());
        assert_eq!(disks.read_block(BlockAddr::new(3, 3)), vec![5; 8]);
        let report = disks.scrub_verify();
        assert_eq!((report.blocks_scanned, report.checksum_failures), (23, 0));
        assert_eq!(report.cost.parallel_ios, 7, "one round per row of the tallest disk");
    }

    #[test]
    fn a_fault_on_a_disk_that_holds_nothing_damages_nothing() {
        let mut disks = DiskArray::new(PdmConfig::new(4, 8), 0);
        disks.grow_disks(0, 2, 3);
        disks.write_block(BlockAddr::new(1, 2), &[9; 8]);
        disks.enable_integrity();
        // Disks 2 and 3 hold no block; disk 1 ends before block 3.
        disks.set_fault_plan(FaultPlan::new().bit_rot(3, 0, 5).bit_rot(1, 3, 5).dead_disk(2));
        assert_eq!(disks.read_block(BlockAddr::new(1, 2)), vec![9; 8]);
        let report = disks.scrub_verify();
        assert_eq!((report.blocks_scanned, report.checksum_failures), (6, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_fault_on_a_disk_out_of_range_panics() {
        small().set_fault_plan(FaultPlan::new().bit_rot(4, 0, 0));
    }

    #[test]
    fn discard_tail_zeroes_reseals_and_charges_nothing() {
        let mut disks = small();
        for d in 0..4 {
            for b in 0..4 {
                disks.write_block(BlockAddr::new(d, b), &[3; 8]);
            }
        }
        disks.enable_integrity();
        let before = disks.stats();
        assert_eq!(disks.discard_tail(2, 2, 1), 6);
        assert_eq!(disks.stats(), before, "discard is uncharged");
        let lens: Vec<usize> = (0..4).map(|d| disks.blocks_on(d)).collect();
        assert_eq!(lens, [4, 4, 1, 1], "the range is given back");
        assert_eq!(disks.verified_clean_blocks(), 4 + 4 + 1 + 1, "its seals with it");
        assert_eq!(disks.materialised_blocks(), Some(10));
        assert_eq!(disks.scrub_verify().checksum_failures, 0);
        // Regrown, the range reads zeros, sealed; and takes writes.
        disks.grow_disks(2, 2, 4);
        let gone = BlockAddr::new(3, 2);
        let out = disks.read(&[gone, BlockAddr::new(2, 0), BlockAddr::new(1, 3)], ReadOptions::verified());
        assert!(out.all_ok(), "a recycled block must not read as a mismatch: {:?}", out.healths);
        assert_eq!(out.blocks.into_buf().into_words(), [[0; 8], [3; 8], [3; 8]].concat());
        assert_eq!(disks.scrub_verify().checksum_failures, 0);
        disks.write_block(gone, &[4; 8]);
        assert_eq!(disks.read_block(gone), vec![4; 8]);
    }

    #[test]
    fn discard_tail_is_skipped_once_the_crash_point_fired() {
        let mut disks = small();
        let a = BlockAddr::new(1, 2);
        disks.write_block(a, &[6; 8]);
        disks.set_fault_plan(FaultPlan::new().crash_after(0));
        disks.write_block(BlockAddr::new(0, 0), &[1; 8]); // dropped: the crash fires
        assert!(disks.crash_fired());
        assert_eq!(disks.discard_tail(0, 4, 0), 0);
        assert_eq!(disks.peek(a), vec![6; 8], "a dead machine discards nothing");
    }

    #[test]
    fn clean_array_has_zero_overhead_branches_only() {
        // No plan, no integrity: verified reads report all-Ok without
        // touching any fault machinery.
        let mut disks = small();
        disks.write_block(BlockAddr::new(0, 0), &[1; 8]);
        let out = disks.read(&[BlockAddr::new(0, 0)], ReadOptions::verified());
        assert_eq!(out.blocks[0], [1; 8]);
        assert_eq!(out.healths, vec![BlockHealth::Ok]);
        assert_eq!(disks.fault_plan(), None);
        assert!(!disks.integrity_enabled());
    }

    #[test]
    fn outcome_carries_cost_and_skips_healths_unless_asked() {
        let mut disks = small();
        let out = disks.read(
            &[BlockAddr::new(0, 0), BlockAddr::new(1, 0)],
            ReadOptions::default(),
        );
        assert!(out.healths.is_empty(), "healths only on request");
        assert_eq!(out.cost.parallel_ios, 1);
        assert_eq!(out.cost.block_reads, 2);
        let out = disks.write(&[(BlockAddr::new(0, 0), &[1; 8][..])], WriteOptions::default());
        assert!(out.blocks.is_empty());
        assert!(out.healths.is_empty());
        assert_eq!(out.cost.parallel_ios, 1);
        assert_eq!(out.cost.block_writes, 1);
        assert!(out.all_ok());
    }

    #[test]
    fn clone_snapshots_into_a_mem_backend() {
        let mut disks = small();
        disks.write_block(BlockAddr::new(2, 1), &[6; 8]);
        let snap = disks.clone();
        assert_eq!(snap.backend_kind(), "mem");
        assert_eq!(snap.peek(BlockAddr::new(2, 1)), vec![6; 8]);
        assert_eq!(snap.stats(), disks.stats());
        // The snapshot is independent storage.
        disks.write_block(BlockAddr::new(2, 1), &[7; 8]);
        assert_eq!(snap.peek(BlockAddr::new(2, 1)), vec![6; 8]);
    }

    #[test]
    fn with_backend_rejects_mismatched_geometry() {
        use crate::backend::MemBackend;
        let cfg = PdmConfig::new(4, 8);
        let wrong_d = MemBackend::new(3, 8, 4);
        let err = DiskArray::with_backend(cfg, Box::new(wrong_d)).unwrap_err();
        assert_eq!(err.kind, crate::IoFaultKind::Misconfigured);
        assert!(err.message.contains("disks"), "{}", err.message);
        let wrong_b = MemBackend::new(4, 16, 4);
        let err = DiskArray::with_backend(cfg, Box::new(wrong_b)).unwrap_err();
        assert_eq!(err.kind, crate::IoFaultKind::Misconfigured);
        assert!(err.message.contains("block size"), "{}", err.message);
    }

    #[test]
    fn sync_and_flush_are_noops_on_mem() {
        let mut disks = small();
        disks.write_block(BlockAddr::new(0, 0), &[2; 8]);
        disks.sync();
        let t = disks.flush_begin();
        disks.write_block(BlockAddr::new(0, 1), &[3; 8]);
        disks.flush_join(t);
        assert_eq!(disks.backend_kind(), "mem");
    }

    #[test]
    fn synced_write_options_round_trip() {
        let mut disks = small();
        let out = disks.write(
            &[(BlockAddr::new(1, 1), &[8; 8][..])],
            WriteOptions::checked().with_sync(true),
        );
        assert_eq!(out.healths, vec![BlockHealth::Ok]);
        assert_eq!(disks.read_block(BlockAddr::new(1, 1)), vec![8; 8]);
    }
}

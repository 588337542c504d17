//! Deterministic fault injection beneath the disk array.
//!
//! A [`FaultPlan`] is a declarative list of [`Fault`]s installed on a
//! [`crate::DiskArray`] with [`crate::DiskArray::set_fault_plan`]. Every
//! fault is deterministic: the same plan against the same access sequence
//! produces the same failures, so a failing test seed replays exactly.
//!
//! Fault semantics (matching what real hardware does, scaled to the
//! simulator):
//!
//! * [`Fault::DeadDisk`] — the disk's data is destroyed **at install
//!   time** and, while the plan is active, reads of the disk report
//!   [`BlockHealth::DiskDead`](crate::integrity::BlockHealth) and writes
//!   to it are dropped (and reported failed by checked writes). Clearing
//!   the plan models swapping in a freshly formatted replacement disk:
//!   accesses succeed again, but the data is gone until a scrub rebuilds
//!   it from redundancy.
//! * [`Fault::TransientRead`] — a window of read errors on one disk,
//!   measured in *charged read batches touching that disk*: the
//!   `first_read`-th through `first_read + duration - 1`-th such batches
//!   see sanitized zeros and `TransientError` health. The data is intact,
//!   so a retry after the window succeeds — this is what the
//!   dictionaries' retry-once policy exercises.
//! * [`Fault::TornWrite`] — the `nth_write`-th charged write batch
//!   touching the disk writes only a **prefix** of the first payload it
//!   carries to that disk, then reports the block failed. With integrity
//!   enabled the sealed checksum covers the *intended* content, so an
//!   unchecked writer's torn block is caught at next read. One-shot: the
//!   fault consumes itself, so a retried write lands fully.
//! * [`Fault::BitRot`] — flips one bit of one block **at install time**
//!   without resealing its checksum: silent corruption that only
//!   integrity verification can see.
//! * [`Fault::CrashPoint`] — process death after the `k`-th physical
//!   block write: every write from index `k` on (counted globally, in
//!   each batch's slice order) is **silently dropped** — the dying
//!   process observes `Ok` health, exactly like a real crash where the
//!   acknowledgement never reaches anyone who could act on it. A plan
//!   with a crash point for every `k` in an operation's write sequence
//!   is an exhaustive *crash matrix* (the FoundationDB-style
//!   schedule-enumeration trick); see `DiskArray::recover` for the
//!   replay side.

/// One injected failure. See the [module docs](self) for exact semantics.
///
/// Marked `#[non_exhaustive]`: richer fault models (latency spikes,
/// misdirected writes, …) may be added without a semver break.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Destroy a disk: data zeroed at install, reads/writes fail while
    /// the plan is active.
    DeadDisk {
        /// The failed disk.
        disk: usize,
    },
    /// A window of failed reads on one disk (data intact underneath).
    TransientRead {
        /// The affected disk.
        disk: usize,
        /// Index (0-based) of the first failing charged read batch that
        /// touches this disk, counted from plan installation.
        first_read: u64,
        /// Number of consecutive failing read batches.
        duration: u64,
    },
    /// Tear one write: the `nth_write`-th charged write batch touching
    /// `disk` (0-based, counted from installation) writes only a prefix
    /// of the first block it carries to that disk.
    TornWrite {
        /// The affected disk.
        disk: usize,
        /// Which write batch to tear.
        nth_write: u64,
    },
    /// Flip one bit of one block at install time (silent bit rot).
    BitRot {
        /// The affected disk.
        disk: usize,
        /// The affected block on that disk.
        block: usize,
        /// Which bit of the block to flip (taken modulo the block's bit
        /// width at install).
        bit: u32,
    },
    /// Kill the virtual machine after the `after_writes`-th physical
    /// block write (0-based, counted globally from plan installation, in
    /// slice order within each write batch): that write and every later
    /// one are silently dropped. With several crash points the earliest
    /// wins.
    CrashPoint {
        /// Number of physical block writes that still land; write index
        /// `after_writes` is the first one lost.
        after_writes: u64,
    },
}

/// A deterministic, composable set of injected failures.
///
/// Built either explicitly with the fluent constructors or pseudo-randomly
/// (but reproducibly) from a seed with [`FaultPlan::random`].
///
/// ```
/// use pdm::FaultPlan;
/// let plan = FaultPlan::new()
///     .dead_disk(3)
///     .transient_read(1, 0, 2)
///     .torn_write(2, 0)
///     .bit_rot(0, 7, 13);
/// assert_eq!(plan.faults().len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a [`Fault::DeadDisk`].
    #[must_use]
    pub fn dead_disk(mut self, disk: usize) -> Self {
        self.faults.push(Fault::DeadDisk { disk });
        self
    }

    /// Add a [`Fault::TransientRead`].
    #[must_use]
    pub fn transient_read(mut self, disk: usize, first_read: u64, duration: u64) -> Self {
        self.faults.push(Fault::TransientRead {
            disk,
            first_read,
            duration,
        });
        self
    }

    /// Add a [`Fault::TornWrite`].
    #[must_use]
    pub fn torn_write(mut self, disk: usize, nth_write: u64) -> Self {
        self.faults.push(Fault::TornWrite { disk, nth_write });
        self
    }

    /// Add a [`Fault::BitRot`].
    #[must_use]
    pub fn bit_rot(mut self, disk: usize, block: usize, bit: u32) -> Self {
        self.faults.push(Fault::BitRot { disk, block, bit });
        self
    }

    /// Add a [`Fault::CrashPoint`]: the first `after_writes` physical
    /// block writes after installation land, everything later is lost.
    /// `FaultPlan::new().crash_after(k)` for every `k` in an operation's
    /// write sequence is the exhaustive crash matrix.
    #[must_use]
    pub fn crash_after(mut self, after_writes: u64) -> Self {
        self.faults.push(Fault::CrashPoint { after_writes });
        self
    }

    /// Add an already-constructed fault.
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// `count` pseudo-random faults over disks of `blocks_on[disk]` blocks
    /// each, deterministic in `seed`; a block fault drawn for a disk that
    /// holds nothing names its block 0, which damages nothing
    /// ([`crate::DiskArray::set_fault_plan`]). Dead disks are drawn from the
    /// mix like every other kind but capped at one so the plan never
    /// destroys more redundancy than the single-failure guarantees cover;
    /// ask for more explicitly via [`dead_disk`](FaultPlan::dead_disk).
    #[must_use]
    pub fn random(seed: u64, blocks_on: &[usize], count: usize) -> Self {
        assert!(!blocks_on.is_empty(), "need at least one disk");
        let mut state = seed ^ 0x5DEE_CE66_D051_F00D;
        let mut next = || {
            // SplitMix64: full-period, seed-deterministic.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new();
        let mut dead_used = false;
        for _ in 0..count {
            let disk = (next() % blocks_on.len() as u64) as usize;
            let block = (next() % blocks_on[disk].max(1) as u64) as usize;
            match next() % 4 {
                0 if !dead_used => {
                    dead_used = true;
                    plan = plan.dead_disk(disk);
                }
                1 => plan = plan.transient_read(disk, next() % 4, 1 + next() % 4),
                2 => plan = plan.torn_write(disk, next() % 4),
                _ => plan = plan.bit_rot(disk, block, (next() % 64) as u32),
            }
        }
        plan
    }

    /// The faults in this plan, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Runtime fault state held by a `DiskArray` while a plan is installed:
/// the plan plus per-disk access clocks and one-shot consumption flags.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Charged read batches that have touched each disk since install.
    reads_seen: Vec<u64>,
    /// Charged write batches that have touched each disk since install.
    writes_seen: Vec<u64>,
    /// Whether each `TornWrite` in `plan.faults` has fired (parallel
    /// vector; entries for other fault kinds stay `false`).
    torn_consumed: Vec<bool>,
    /// Per-disk dead flag (precomputed from the plan).
    dead: Vec<bool>,
    /// Physical block writes seen globally since install (crash points
    /// are measured on this clock).
    writes_total: u64,
    /// Earliest `CrashPoint` budget in the plan, if any.
    crash_after: Option<u64>,
    /// Whether the crash point has been reached.
    crashed: bool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, disks: usize) -> Self {
        let mut dead = vec![false; disks];
        for fault in plan.faults() {
            if let Fault::DeadDisk { disk } = *fault {
                assert!(disk < disks, "dead disk {disk} out of range (D = {disks})");
                dead[disk] = true;
            }
        }
        let torn_consumed = vec![false; plan.faults().len()];
        let crash_after = plan
            .faults()
            .iter()
            .filter_map(|f| match *f {
                Fault::CrashPoint { after_writes } => Some(after_writes),
                _ => None,
            })
            .min();
        FaultState {
            plan,
            reads_seen: vec![0; disks],
            writes_seen: vec![0; disks],
            torn_consumed,
            dead,
            writes_total: 0,
            crash_after,
            crashed: false,
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn is_dead(&self, disk: usize) -> bool {
        self.dead[disk]
    }

    /// Whether the `read_index`-th read batch on `disk` falls inside a
    /// transient-error window.
    pub(crate) fn transient_at(&self, disk: usize, read_index: u64) -> bool {
        self.plan.faults().iter().any(|f| {
            matches!(*f, Fault::TransientRead { disk: d, first_read, duration }
                if d == disk && read_index >= first_read && read_index < first_read + duration)
        })
    }

    /// Current read clock for `disk` (the index the *next* charged read
    /// batch touching it will carry).
    pub(crate) fn read_clock(&self, disk: usize) -> u64 {
        self.reads_seen[disk]
    }

    /// Advance the read clock of every disk marked in `touched`.
    pub(crate) fn tick_reads(&mut self, touched: &[usize]) {
        for (disk, &count) in touched.iter().enumerate() {
            if count > 0 {
                self.reads_seen[disk] += 1;
            }
        }
    }

    /// For each disk marked in `touched`: return its current write-batch
    /// index and advance its clock.
    pub(crate) fn tick_writes(&mut self, touched: &[usize]) -> Vec<u64> {
        let mut indexes = self.writes_seen.clone();
        for (disk, &count) in touched.iter().enumerate() {
            if count > 0 {
                indexes[disk] = self.writes_seen[disk];
                self.writes_seen[disk] += 1;
            }
        }
        indexes
    }

    /// Count one physical block write against the crash budget. Returns
    /// `true` when the write must be **dropped**: the crash point has
    /// been reached (this write's global index is `>= after_writes`).
    /// Without a crash point in the plan this only advances the clock.
    pub(crate) fn note_physical_write(&mut self) -> bool {
        let index = self.writes_total;
        self.writes_total += 1;
        if let Some(k) = self.crash_after {
            if index >= k {
                self.crashed = true;
                return true;
            }
        }
        false
    }

    /// Whether the plan's crash point has fired.
    pub(crate) fn crash_fired(&self) -> bool {
        self.crashed
    }

    /// If an unconsumed torn-write fault fires for `disk` at write-batch
    /// index `write_index`, consume it and report `true`.
    pub(crate) fn consume_torn(&mut self, disk: usize, write_index: u64) -> bool {
        for (i, fault) in self.plan.faults().iter().enumerate() {
            if self.torn_consumed[i] {
                continue;
            }
            if let Fault::TornWrite { disk: d, nth_write } = *fault {
                if d == disk && nth_write == write_index {
                    self.torn_consumed[i] = true;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(42, &[16; 8], 6);
        let b = FaultPlan::random(42, &[16; 8], 6);
        let c = FaultPlan::random(43, &[16; 8], 6);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should draw different plans");
        assert_eq!(a.faults().len(), 6);
        assert!(
            a.faults()
                .iter()
                .filter(|f| matches!(f, Fault::DeadDisk { .. }))
                .count()
                <= 1,
            "random plans cap dead disks at one"
        );
    }

    #[test]
    fn transient_window_bounds_are_half_open() {
        let state = FaultState::new(FaultPlan::new().transient_read(2, 3, 2), 4);
        assert!(!state.transient_at(2, 2));
        assert!(state.transient_at(2, 3));
        assert!(state.transient_at(2, 4));
        assert!(!state.transient_at(2, 5));
        assert!(!state.transient_at(1, 3), "other disks unaffected");
    }

    #[test]
    fn torn_write_is_one_shot() {
        let mut state = FaultState::new(FaultPlan::new().torn_write(1, 0), 4);
        assert!(!state.consume_torn(0, 0), "wrong disk");
        assert!(state.consume_torn(1, 0));
        assert!(!state.consume_torn(1, 0), "consumed");
    }

    #[test]
    fn crash_budget_drops_exactly_the_suffix() {
        let mut state = FaultState::new(FaultPlan::new().crash_after(2), 4);
        assert!(!state.note_physical_write(), "write 0 lands");
        assert!(!state.crash_fired());
        assert!(!state.note_physical_write(), "write 1 lands");
        assert!(state.note_physical_write(), "write 2 is the first lost");
        assert!(state.crash_fired());
        assert!(state.note_physical_write(), "everything after stays lost");
    }

    #[test]
    fn earliest_crash_point_wins() {
        let state = FaultState::new(FaultPlan::new().crash_after(7).crash_after(3), 2);
        assert_eq!(state.crash_after, Some(3));
    }

    #[test]
    fn crash_after_zero_drops_everything() {
        let mut state = FaultState::new(FaultPlan::new().crash_after(0), 2);
        assert!(state.note_physical_write());
    }

    #[test]
    fn read_clocks_advance_only_on_touched_disks() {
        let mut state = FaultState::new(FaultPlan::new(), 3);
        state.tick_reads(&[1, 0, 2]);
        state.tick_reads(&[0, 0, 1]);
        assert_eq!(state.read_clock(0), 1);
        assert_eq!(state.read_clock(1), 0);
        assert_eq!(state.read_clock(2), 2);
    }

    #[test]
    fn write_clocks_report_pre_increment_indexes() {
        let mut state = FaultState::new(FaultPlan::new(), 2);
        let first = state.tick_writes(&[1, 1]);
        let second = state.tick_writes(&[0, 3]);
        assert_eq!(first, vec![0, 0]);
        assert_eq!(second[1], 1);
    }
}

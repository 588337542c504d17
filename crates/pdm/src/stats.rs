//! I/O accounting: global counters plus per-operation scopes.
//!
//! Dictionaries report their cost in *parallel I/Os per operation*; this
//! module provides the bookkeeping. [`IoStats`] is the monotone global
//! counter set owned by a [`crate::DiskArray`]; an [`OpScope`] snapshots the
//! counters so the cost of one logical operation (a lookup, an insertion,
//! a construction phase) can be extracted as an [`OpCost`] delta.

/// Monotone global I/O counters of a disk array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Parallel I/O steps charged so far (the PDM cost measure).
    pub parallel_ios: u64,
    /// Individual blocks read (across all disks).
    pub block_reads: u64,
    /// Individual blocks written (across all disks).
    pub block_writes: u64,
    /// Batched access calls issued (each ≥ 0 parallel I/Os).
    pub batches: u64,
    /// Parallel rounds scheduled by the batch engine ([`crate::batch`]).
    ///
    /// Unlike `parallel_ios`, which every access charges, this counter
    /// only moves when a [`crate::BatchPlan`] is executed (or a
    /// [`crate::BatchExecutor`] commits); in the `ParallelDisk` model the
    /// rounds recorded for a plan equal the parallel I/Os it charges.
    pub rounds: u64,
}

impl IoStats {
    /// Difference `self - earlier`, field-wise.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is not actually earlier.
    #[must_use]
    pub fn since(&self, earlier: &IoStats) -> OpCost {
        debug_assert!(self.parallel_ios >= earlier.parallel_ios);
        OpCost {
            parallel_ios: self.parallel_ios - earlier.parallel_ios,
            block_reads: self.block_reads - earlier.block_reads,
            block_writes: self.block_writes - earlier.block_writes,
        }
    }
}

/// The I/O cost of one logical operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Parallel I/O steps.
    pub parallel_ios: u64,
    /// Blocks read.
    pub block_reads: u64,
    /// Blocks written.
    pub block_writes: u64,
}

impl OpCost {
    /// Sum of two costs (parts executed one after another on the same
    /// set of disks).
    #[must_use]
    pub fn plus(self, other: OpCost) -> OpCost {
        OpCost {
            parallel_ios: self.parallel_ios + other.parallel_ios,
            block_reads: self.block_reads + other.block_reads,
            block_writes: self.block_writes + other.block_writes,
        }
    }
}

/// Snapshot of counters at the start of a logical operation.
///
/// ```
/// use pdm::{DiskArray, PdmConfig, BlockAddr, ReadOptions};
/// let mut disks = DiskArray::new(PdmConfig::new(2, 4), 4);
/// let scope = disks.begin_op();
/// disks.read(&[BlockAddr::new(0, 0), BlockAddr::new(1, 0)], ReadOptions::default());
/// let cost = disks.end_op(scope);
/// assert_eq!(cost.parallel_ios, 1);
/// assert_eq!(cost.block_reads, 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OpScope {
    pub(crate) at: IoStats,
}

impl OpScope {
    /// Create a scope from a counter snapshot.
    #[must_use]
    pub fn at(stats: IoStats) -> Self {
        OpScope { at: stats }
    }

    /// Cost accumulated between the snapshot and `now`.
    #[must_use]
    pub fn cost(&self, now: IoStats) -> OpCost {
        now.since(&self.at)
    }
}

/// Accumulates per-operation costs into average / worst-case summaries.
///
/// Used by the benchmark harness and by dictionaries that expose their own
/// running cost profile (e.g. the Theorem 7 structure's `1 + ɛ` average).
#[derive(Debug, Clone, Default)]
pub struct CostProfile {
    /// Number of operations recorded.
    pub ops: u64,
    /// Total parallel I/Os over all recorded operations.
    pub total_parallel_ios: u64,
    /// Worst single-operation parallel I/O count.
    pub worst_parallel_ios: u64,
    /// Histogram: `histogram[c]` = number of ops that cost exactly `c`
    /// parallel I/Os (saturating at the last bucket).
    pub histogram: Vec<u64>,
}

impl CostProfile {
    /// Record one operation's cost.
    pub fn record(&mut self, cost: OpCost) {
        self.ops += 1;
        self.total_parallel_ios += cost.parallel_ios;
        self.worst_parallel_ios = self.worst_parallel_ios.max(cost.parallel_ios);
        let idx = cost.parallel_ios as usize;
        if self.histogram.len() <= idx {
            self.histogram.resize(idx + 1, 0);
        }
        self.histogram[idx] += 1;
    }

    /// Average parallel I/Os per operation (0 if none recorded).
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total_parallel_ios as f64 / self.ops as f64
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100) of per-operation parallel
    /// I/Os, computed from the histogram (nearest-rank).
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.ops == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.ops as f64).ceil() as u64;
        let mut seen = 0u64;
        for (cost, &count) in self.histogram.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return cost as u64;
            }
        }
        self.worst_parallel_ios
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &CostProfile) {
        self.ops += other.ops;
        self.total_parallel_ios += other.total_parallel_ios;
        self.worst_parallel_ios = self.worst_parallel_ios.max(other.worst_parallel_ios);
        if self.histogram.len() < other.histogram.len() {
            self.histogram.resize(other.histogram.len(), 0);
        }
        for (i, c) in other.histogram.iter().enumerate() {
            self.histogram[i] += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = IoStats {
            parallel_ios: 10,
            block_reads: 20,
            block_writes: 5,
            batches: 7,
            rounds: 0,
        };
        let b = IoStats {
            parallel_ios: 14,
            block_reads: 26,
            block_writes: 6,
            batches: 9,
            rounds: 3,
        };
        let d = b.since(&a);
        assert_eq!(d.parallel_ios, 4);
        assert_eq!(d.block_reads, 6);
        assert_eq!(d.block_writes, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "parallel_ios >= earlier.parallel_ios")]
    fn since_rejects_reversed_snapshots_in_debug() {
        let earlier = IoStats {
            parallel_ios: 3,
            ..Default::default()
        };
        let later = IoStats {
            parallel_ios: 7,
            ..Default::default()
        };
        let _ = earlier.since(&later);
    }

    #[test]
    fn opcost_plus() {
        let a = OpCost {
            parallel_ios: 1,
            block_reads: 2,
            block_writes: 3,
        };
        let b = OpCost {
            parallel_ios: 10,
            block_reads: 20,
            block_writes: 30,
        };
        let c = a.plus(b);
        assert_eq!(c.parallel_ios, 11);
        assert_eq!(c.block_reads, 22);
        assert_eq!(c.block_writes, 33);
    }

    #[test]
    fn profile_average_and_worst() {
        let mut p = CostProfile::default();
        for ios in [1u64, 1, 1, 5] {
            p.record(OpCost {
                parallel_ios: ios,
                ..Default::default()
            });
        }
        assert_eq!(p.ops, 4);
        assert!((p.average() - 2.0).abs() < 1e-12);
        assert_eq!(p.worst_parallel_ios, 5);
        assert_eq!(p.histogram[1], 3);
        assert_eq!(p.histogram[5], 1);
    }

    #[test]
    fn profile_merge() {
        let mut p = CostProfile::default();
        p.record(OpCost {
            parallel_ios: 2,
            ..Default::default()
        });
        let mut q = CostProfile::default();
        q.record(OpCost {
            parallel_ios: 4,
            ..Default::default()
        });
        p.merge(&q);
        assert_eq!(p.ops, 2);
        assert_eq!(p.total_parallel_ios, 6);
        assert_eq!(p.worst_parallel_ios, 4);
    }

    #[test]
    fn empty_profile_average_is_zero() {
        assert_eq!(CostProfile::default().average(), 0.0);
        assert_eq!(CostProfile::default().percentile(50.0), 0);
    }

    #[test]
    fn percentiles_from_histogram() {
        let mut p = CostProfile::default();
        for ios in [1u64; 90] {
            p.record(OpCost {
                parallel_ios: ios,
                ..Default::default()
            });
        }
        for ios in [7u64; 10] {
            p.record(OpCost {
                parallel_ios: ios,
                ..Default::default()
            });
        }
        assert_eq!(p.percentile(50.0), 1);
        assert_eq!(p.percentile(90.0), 1);
        assert_eq!(p.percentile(91.0), 7);
        assert_eq!(p.percentile(100.0), 7);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_bounds_checked() {
        let _ = CostProfile::default().percentile(0.0);
    }
}

//! Uniform measurement harness over all dictionary implementations.
//!
//! Every structure — deterministic or randomized — is wrapped in the
//! [`Subject`] trait, built over the same key sets, and measured in
//! **parallel I/Os per operation** on its own simulated disk array.

use baselines::{CuckooDict, DghpDict, FolkloreDict, PdmBTree, StripedHashTable};
use pdm::{CostProfile, DiskArray, OpCost, PdmConfig, Word};
use pdm_dict::basic::{BasicDict, BasicDictConfig};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::one_probe::{OneProbeStatic, OneProbeVariant};
use pdm_dict::wide::{WideDict, WideDictConfig};
use pdm_dict::{DictParams, DynamicDict};

/// How a subject is populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildStyle {
    /// Keys inserted one at a time (per-insert costs are meaningful).
    Incremental,
    /// Built once from the full key set (construction cost is reported
    /// instead of per-insert costs).
    Static,
}

/// A dictionary under measurement.
pub trait Subject {
    /// Display name (matches the Figure 1 row it reproduces).
    fn name(&self) -> String;
    /// Incremental or static.
    fn style(&self) -> BuildStyle;
    /// Populate with `entries`. Returns `(total build parallel I/Os,
    /// per-insert profile if incremental)`.
    fn build(&mut self, entries: &[(u64, Vec<Word>)])
        -> Result<(u64, Option<CostProfile>), String>;
    /// Lookup; returns whether found and the cost.
    fn lookup(&mut self, key: u64) -> (bool, OpCost);
    /// Delete if supported.
    fn delete(&mut self, key: u64) -> Option<(bool, OpCost)>;
    /// Space in words.
    fn space_words(&self) -> usize;
    /// Satellite bandwidth in words (how much data one lookup returns).
    fn bandwidth_words(&self) -> usize;
    /// Disks the structure occupies.
    fn disks_used(&self) -> usize;
}

/// Everything measured about one method on one workload.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MethodReport {
    /// Method name.
    pub name: String,
    /// Keys stored.
    pub n: usize,
    /// Total parallel I/Os to build.
    pub build_ios: u64,
    /// Average insert I/Os (incremental subjects).
    pub insert_avg: Option<f64>,
    /// Worst insert I/Os.
    pub insert_worst: Option<u64>,
    /// Average successful-lookup I/Os.
    pub lookup_avg: f64,
    /// Worst successful-lookup I/Os.
    pub lookup_worst: u64,
    /// Average unsuccessful-lookup I/Os.
    pub miss_avg: f64,
    /// Worst unsuccessful-lookup I/Os.
    pub miss_worst: u64,
    /// Average delete I/Os (when supported).
    pub delete_avg: Option<f64>,
    /// Space in words.
    pub space_words: usize,
    /// Bandwidth in words.
    pub bandwidth_words: usize,
    /// Disks occupied.
    pub disks_used: usize,
    /// Lookup correctness failures (should always be 0).
    pub failures: usize,
}

/// Build `subject` from `entries`, probe all present keys and
/// `miss_probes`, optionally delete `delete_sample`, and report.
pub fn evaluate(
    subject: &mut dyn Subject,
    entries: &[(u64, Vec<Word>)],
    miss_probes: &[u64],
    delete_sample: &[u64],
) -> Result<MethodReport, String> {
    let (build_ios, insert_profile) = subject.build(entries)?;
    let mut lookup_hit = CostProfile::default();
    let mut failures = 0usize;
    for (k, _) in entries {
        let (found, cost) = subject.lookup(*k);
        if !found {
            failures += 1;
        }
        lookup_hit.record(cost);
    }
    let mut lookup_miss = CostProfile::default();
    for &k in miss_probes {
        let (found, cost) = subject.lookup(k);
        if found {
            failures += 1;
        }
        lookup_miss.record(cost);
    }
    let mut delete_profile: Option<CostProfile> = None;
    for &k in delete_sample {
        if let Some((_, cost)) = subject.delete(k) {
            delete_profile
                .get_or_insert_with(CostProfile::default)
                .record(cost);
        }
    }
    Ok(MethodReport {
        name: subject.name(),
        n: entries.len(),
        build_ios,
        insert_avg: insert_profile.as_ref().map(CostProfile::average),
        insert_worst: insert_profile.as_ref().map(|p| p.worst_parallel_ios),
        lookup_avg: lookup_hit.average(),
        lookup_worst: lookup_hit.worst_parallel_ios,
        miss_avg: lookup_miss.average(),
        miss_worst: lookup_miss.worst_parallel_ios,
        delete_avg: delete_profile.as_ref().map(CostProfile::average),
        space_words: subject.space_words(),
        bandwidth_words: subject.bandwidth_words(),
        disks_used: subject.disks_used(),
        failures,
    })
}

// ---------------------------------------------------------------------------
// Deterministic subjects (this paper)
// ---------------------------------------------------------------------------

/// Section 4.1 basic dictionary.
pub struct BasicSubject {
    disks: DiskArray,
    dict: BasicDict,
    sigma: usize,
}

impl BasicSubject {
    /// `d` disks of `block_words`-word blocks, capacity `n`.
    #[must_use]
    pub fn new(n: usize, sigma: usize, degree: usize, block_words: usize, seed: u64) -> Self {
        let mut disks = DiskArray::new(PdmConfig::new(degree, block_words), 0);
        let mut alloc = DiskAllocator::new(degree);
        let cfg = BasicDictConfig::log_load(n, 1 << 40, degree, sigma, seed);
        let dict = BasicDict::create(&mut disks, &mut alloc, 0, cfg).expect("valid config");
        BasicSubject { disks, dict, sigma }
    }
}

impl Subject for BasicSubject {
    fn name(&self) -> String {
        "§4.1 basic (det.)".into()
    }
    fn style(&self) -> BuildStyle {
        BuildStyle::Incremental
    }
    fn build(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<(u64, Option<CostProfile>), String> {
        let mut profile = CostProfile::default();
        let before = self.disks.stats().parallel_ios;
        for (k, s) in entries {
            let cost = self
                .dict
                .insert(&mut self.disks, *k, s)
                .map_err(|e| e.to_string())?;
            profile.record(cost);
        }
        Ok((self.disks.stats().parallel_ios - before, Some(profile)))
    }
    fn lookup(&mut self, key: u64) -> (bool, OpCost) {
        let out = self.dict.lookup(&mut self.disks, key);
        (out.found(), out.cost)
    }
    fn delete(&mut self, key: u64) -> Option<(bool, OpCost)> {
        Some(self.dict.delete(&mut self.disks, key))
    }
    fn space_words(&self) -> usize {
        self.dict.space_words(&self.disks)
    }
    fn bandwidth_words(&self) -> usize {
        self.sigma
    }
    fn disks_used(&self) -> usize {
        self.disks.disks()
    }
}

/// Theorem 6 one-probe static dictionary (either case).
pub struct OneProbeSubject {
    disks: DiskArray,
    dict: Option<OneProbeStatic>,
    params: DictParams,
    variant: OneProbeVariant,
}

impl OneProbeSubject {
    /// Case (a) or (b) with the given geometry.
    #[must_use]
    pub fn new(
        n: usize,
        sigma: usize,
        degree: usize,
        block_words: usize,
        variant: OneProbeVariant,
        seed: u64,
    ) -> Self {
        let disks_needed = match variant {
            OneProbeVariant::CaseA => 2 * degree,
            OneProbeVariant::CaseB => degree,
        };
        let disks = DiskArray::new(PdmConfig::new(disks_needed, block_words), 0);
        let params = DictParams::new(n, 1 << 40, sigma)
            .with_degree(degree)
            .with_seed(seed);
        OneProbeSubject {
            disks,
            dict: None,
            params,
            variant,
        }
    }
}

impl Subject for OneProbeSubject {
    fn name(&self) -> String {
        match self.variant {
            OneProbeVariant::CaseA => "§4.2 one-probe a (det., static)".into(),
            OneProbeVariant::CaseB => "§4.2 one-probe b (det., static)".into(),
        }
    }
    fn style(&self) -> BuildStyle {
        BuildStyle::Static
    }
    fn build(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<(u64, Option<CostProfile>), String> {
        let mut alloc = DiskAllocator::new(self.disks.disks());
        let (dict, stats) = OneProbeStatic::build(
            &mut self.disks,
            &mut alloc,
            0,
            &self.params,
            self.variant,
            entries,
        )
        .map_err(|e| e.to_string())?;
        self.dict = Some(dict);
        Ok((stats.cost.parallel_ios, None))
    }
    fn lookup(&mut self, key: u64) -> (bool, OpCost) {
        let out = self
            .dict
            .as_ref()
            .expect("built")
            .lookup(&mut self.disks, key);
        (out.found(), out.cost)
    }
    fn delete(&mut self, _key: u64) -> Option<(bool, OpCost)> {
        None // static structure
    }
    fn space_words(&self) -> usize {
        self.dict.as_ref().map_or(0, |d| d.space_words(&self.disks))
    }
    fn bandwidth_words(&self) -> usize {
        self.params.satellite_words
    }
    fn disks_used(&self) -> usize {
        self.disks.disks()
    }
}

/// Theorem 7 dynamic dictionary.
pub struct DynamicSubject {
    disks: DiskArray,
    dict: DynamicDict,
    sigma: usize,
}

impl DynamicSubject {
    /// `2d` disks; capacity 2n for headroom.
    #[must_use]
    pub fn new(
        n: usize,
        sigma: usize,
        degree: usize,
        block_words: usize,
        epsilon: f64,
        seed: u64,
    ) -> Self {
        let mut disks = DiskArray::new(PdmConfig::new(2 * degree, block_words), 0);
        let mut alloc = DiskAllocator::new(2 * degree);
        let params = DictParams::new(2 * n, 1 << 40, sigma)
            .with_degree(degree)
            .with_epsilon(epsilon)
            .with_seed(seed);
        let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).expect("valid params");
        DynamicSubject { disks, dict, sigma }
    }

    /// Level occupancy (for the THM7 experiment).
    #[must_use]
    pub fn level_population(&self) -> Vec<usize> {
        self.dict.level_population().to_vec()
    }

    /// The array's space ledger and the capacity it was laid out for.
    #[must_use]
    pub fn space_ledger(&self) -> (Vec<(String, usize)>, usize) {
        let ledger = pdm_dict::layout::space_ledger(&self.disks, self.dict.space_rows());
        (ledger, self.dict.capacity())
    }
}

impl Subject for DynamicSubject {
    fn name(&self) -> String {
        "§4.3 dynamic (det.)".into()
    }
    fn style(&self) -> BuildStyle {
        BuildStyle::Incremental
    }
    fn build(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<(u64, Option<CostProfile>), String> {
        let mut profile = CostProfile::default();
        let before = self.disks.stats().parallel_ios;
        for (k, s) in entries {
            let cost = self
                .dict
                .insert(&mut self.disks, *k, s)
                .map_err(|e| e.to_string())?;
            profile.record(cost);
        }
        Ok((self.disks.stats().parallel_ios - before, Some(profile)))
    }
    fn lookup(&mut self, key: u64) -> (bool, OpCost) {
        let out = self.dict.lookup(&mut self.disks, key);
        (out.found(), out.cost)
    }
    fn delete(&mut self, key: u64) -> Option<(bool, OpCost)> {
        self.dict.delete(&mut self.disks, key).ok()
    }
    fn space_words(&self) -> usize {
        self.dict.space_words(&self.disks)
    }
    fn bandwidth_words(&self) -> usize {
        self.sigma
    }
    fn disks_used(&self) -> usize {
        self.disks.disks()
    }
}

/// Section 4.1's wide-bandwidth variant (`k = d/2`).
pub struct WideSubject {
    disks: DiskArray,
    dict: WideDict,
}

impl WideSubject {
    /// `d` disks; chunk size chosen so the satellite is `k·chunk_words`.
    #[must_use]
    pub fn new(n: usize, chunk_words: usize, degree: usize, block_words: usize, seed: u64) -> Self {
        let mut disks = DiskArray::new(PdmConfig::new(degree, block_words), 0);
        let mut alloc = DiskAllocator::new(degree);
        let cfg = WideDictConfig::paper(n, 1 << 40, degree, chunk_words, seed);
        let dict = WideDict::create(&mut disks, &mut alloc, 0, cfg).expect("valid config");
        WideSubject { disks, dict }
    }

    /// Satellite words per key for this instance.
    #[must_use]
    pub fn satellite_words(&self) -> usize {
        self.dict.bandwidth_words()
    }
}

impl Subject for WideSubject {
    fn name(&self) -> String {
        "§4.1 wide k=d/2 (det.)".into()
    }
    fn style(&self) -> BuildStyle {
        BuildStyle::Incremental
    }
    fn build(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<(u64, Option<CostProfile>), String> {
        let mut profile = CostProfile::default();
        let before = self.disks.stats().parallel_ios;
        for (k, s) in entries {
            let cost = self
                .dict
                .insert(&mut self.disks, *k, s)
                .map_err(|e| e.to_string())?;
            profile.record(cost);
        }
        Ok((self.disks.stats().parallel_ios - before, Some(profile)))
    }
    fn lookup(&mut self, key: u64) -> (bool, OpCost) {
        let out = self.dict.lookup(&mut self.disks, key);
        (out.found(), out.cost)
    }
    fn delete(&mut self, key: u64) -> Option<(bool, OpCost)> {
        Some(self.dict.delete(&mut self.disks, key))
    }
    fn space_words(&self) -> usize {
        self.dict.space_words(&self.disks)
    }
    fn bandwidth_words(&self) -> usize {
        self.dict.bandwidth_words()
    }
    fn disks_used(&self) -> usize {
        self.disks.disks()
    }
}

// ---------------------------------------------------------------------------
// Randomized subjects (Figure 1's comparators) and the B-tree
// ---------------------------------------------------------------------------

macro_rules! baseline_subject {
    ($wrapper:ident, $inner:ty, $name:expr, $bandwidth:expr) => {
        /// Baseline wrapper (see the inner type's docs).
        pub struct $wrapper {
            inner: $inner,
            sigma: usize,
        }

        impl Subject for $wrapper {
            fn name(&self) -> String {
                $name.into()
            }
            fn style(&self) -> BuildStyle {
                BuildStyle::Incremental
            }
            fn build(
                &mut self,
                entries: &[(u64, Vec<Word>)],
            ) -> Result<(u64, Option<CostProfile>), String> {
                let mut profile = CostProfile::default();
                let before = self.inner.disks().stats().parallel_ios;
                for (k, s) in entries {
                    let cost = self.inner.insert(*k, s).map_err(|e| e.to_string())?;
                    profile.record(cost);
                }
                Ok((
                    self.inner.disks().stats().parallel_ios - before,
                    Some(profile),
                ))
            }
            fn lookup(&mut self, key: u64) -> (bool, OpCost) {
                let (found, cost) = self.inner.lookup(key);
                (found.is_some(), cost)
            }
            fn delete(&mut self, key: u64) -> Option<(bool, OpCost)> {
                Some(self.inner.delete(key))
            }
            fn space_words(&self) -> usize {
                self.inner.disks().total_words()
            }
            fn bandwidth_words(&self) -> usize {
                #[allow(clippy::redundant_closure_call)]
                ($bandwidth)(&self.inner, self.sigma)
            }
            fn disks_used(&self) -> usize {
                self.inner.disks().disks()
            }
        }
    };
}

baseline_subject!(
    StripedSubject,
    StripedHashTable,
    "hashing + striping (rand.)",
    |_inner: &StripedHashTable, sigma| sigma
);
baseline_subject!(
    CuckooSubject,
    CuckooDict,
    "cuckoo [13] (rand.)",
    |inner: &CuckooDict, _| inner.bandwidth_words()
);
baseline_subject!(
    DghpSubject,
    DghpDict,
    "[7] dghp-style (rand.)",
    |_inner: &DghpDict, sigma| sigma
);
baseline_subject!(
    BTreeSubject,
    PdmBTree,
    "B-tree (§1.2 incumbent)",
    |_inner: &PdmBTree, sigma| sigma
);

impl StripedSubject {
    /// Construct with the given geometry.
    #[must_use]
    pub fn new(n: usize, sigma: usize, disks: usize, block_words: usize, seed: u64) -> Self {
        StripedSubject {
            inner: StripedHashTable::new(n, sigma, disks, block_words, seed),
            sigma,
        }
    }
}

impl CuckooSubject {
    /// Construct with the given geometry.
    #[must_use]
    pub fn new(n: usize, sigma: usize, disks: usize, block_words: usize, seed: u64) -> Self {
        CuckooSubject {
            inner: CuckooDict::new(n, sigma, disks, block_words, seed),
            sigma,
        }
    }
}

impl DghpSubject {
    /// Construct with the given geometry.
    #[must_use]
    pub fn new(n: usize, sigma: usize, disks: usize, block_words: usize, seed: u64) -> Self {
        DghpSubject {
            inner: DghpDict::new(n, sigma, disks, block_words, seed),
            sigma,
        }
    }
}

impl BTreeSubject {
    /// Construct with the given geometry.
    #[must_use]
    pub fn new(sigma: usize, disks: usize, block_words: usize) -> Self {
        BTreeSubject {
            inner: PdmBTree::new(sigma, disks, block_words),
            sigma,
        }
    }
}

/// The "\[7\] + trick" folklore structure (two component arrays, so it
/// needs a hand-rolled wrapper).
pub struct FolkloreSubject {
    inner: FolkloreDict,
    sigma: usize,
}

impl FolkloreSubject {
    /// Construct with the given geometry and primary slack.
    #[must_use]
    pub fn new(
        n: usize,
        sigma: usize,
        disks: usize,
        block_words: usize,
        slack: usize,
        seed: u64,
    ) -> Self {
        FolkloreSubject {
            inner: FolkloreDict::new(n, sigma, disks, block_words, slack, seed),
            sigma,
        }
    }
}

impl Subject for FolkloreSubject {
    fn name(&self) -> String {
        "[7] + trick folklore (rand.)".into()
    }
    fn style(&self) -> BuildStyle {
        BuildStyle::Incremental
    }
    fn build(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<(u64, Option<CostProfile>), String> {
        let mut profile = CostProfile::default();
        let before = self.inner.io_stats().parallel_ios;
        for (k, s) in entries {
            let cost = self.inner.insert(*k, s).map_err(|e| e.to_string())?;
            profile.record(cost);
        }
        Ok((self.inner.io_stats().parallel_ios - before, Some(profile)))
    }
    fn lookup(&mut self, key: u64) -> (bool, OpCost) {
        let (found, cost) = self.inner.lookup(key);
        (found.is_some(), cost)
    }
    fn delete(&mut self, key: u64) -> Option<(bool, OpCost)> {
        Some(self.inner.delete(key))
    }
    fn space_words(&self) -> usize {
        self.inner.space_words()
    }
    fn bandwidth_words(&self) -> usize {
        let _ = self.sigma;
        self.inner.bandwidth_words()
    }
    fn disks_used(&self) -> usize {
        self.inner.primary_disks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{entries_for, miss_probes, uniform_keys};

    fn check_subject(subject: &mut dyn Subject, n: usize, sigma: usize) -> MethodReport {
        let keys = uniform_keys(n, 1 << 30, 11);
        let entries = entries_for(&keys, sigma);
        let misses = miss_probes(&keys, 1 << 30, 50, 12);
        let report = evaluate(subject, &entries, &misses, &keys[..10.min(n)]).unwrap();
        assert_eq!(report.failures, 0, "{}: correctness failures", report.name);
        report
    }

    #[test]
    fn basic_subject_measures() {
        let mut s = BasicSubject::new(200, 1, 13, 64, 1);
        let r = check_subject(&mut s, 200, 1);
        assert_eq!(r.lookup_worst, 1);
        assert_eq!(r.insert_avg, Some(2.0));
    }

    #[test]
    fn one_probe_subjects_measure() {
        for variant in [OneProbeVariant::CaseA, OneProbeVariant::CaseB] {
            let mut s = OneProbeSubject::new(150, 1, 13, 64, variant, 2);
            let r = check_subject(&mut s, 150, 1);
            assert_eq!(r.lookup_worst, 1, "{}", r.name);
            assert!(r.build_ios > 0);
            assert!(r.insert_avg.is_none());
        }
    }

    #[test]
    fn dynamic_subject_measures() {
        let mut s = DynamicSubject::new(200, 1, 20, 64, 0.5, 3);
        let r = check_subject(&mut s, 200, 1);
        assert!(r.lookup_avg <= 1.5);
        assert!(r.insert_avg.unwrap() <= 2.5);
        assert_eq!(r.miss_worst, 1);
    }

    #[test]
    fn baseline_subjects_measure() {
        let n = 150;
        let mut subjects: Vec<Box<dyn Subject>> = vec![
            Box::new(StripedSubject::new(n, 1, 8, 16, 4)),
            Box::new(CuckooSubject::new(n, 1, 8, 16, 5)),
            Box::new(DghpSubject::new(n, 1, 8, 16, 6)),
            Box::new(FolkloreSubject::new(n, 1, 8, 16, 4, 7)),
            Box::new(BTreeSubject::new(1, 8, 16)),
        ];
        for s in &mut subjects {
            let r = check_subject(s.as_mut(), n, 1);
            assert!(r.lookup_avg >= 1.0, "{}", r.name);
        }
    }
}

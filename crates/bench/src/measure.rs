//! Uniform measurement over all dictionary implementations.
//!
//! Every structure of the catalogue ([`crate::fronts`]) — deterministic or
//! randomized — is driven through `&mut dyn Dict` over the same key sets
//! and measured in **parallel I/Os per operation** on its own simulated
//! disk array.

use crate::fronts::{Descriptor, Entries};
use pdm::CostProfile;
use pdm_dict::{Dict, DictError};

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

/// Populate `dict` from `entries` (a static structure arrives built over
/// them), probe all present keys and `miss_probes`, delete `delete_sample`
/// where the structure allows it, and report.
///
/// # Errors
/// The first insert that fails.
pub fn evaluate(
    dict: &mut dyn Dict,
    desc: &Descriptor,
    entries: &Entries,
    miss_probes: &[u64],
    delete_sample: &[u64],
) -> Result<MethodReport, DictError> {
    let mut insert_profile = None;
    if desc.construction_ios.is_none() {
        let mut profile = CostProfile::default();
        for (k, s) in entries {
            profile.record(dict.insert(*k, s)?);
        }
        insert_profile = Some(profile);
    }
    let mut failures = 0usize;
    let mut probe = |keys: &mut dyn Iterator<Item = u64>, present: bool| {
        let mut profile = CostProfile::default();
        for k in keys {
            let out = dict.lookup(k);
            failures += usize::from(out.found() != present);
            profile.record(out.cost);
        }
        profile
    };
    let lookup_hit = probe(&mut entries.iter().map(|(k, _)| *k), true);
    let lookup_miss = probe(&mut miss_probes.iter().copied(), false);
    let mut delete_profile: Option<CostProfile> = None;
    for &k in delete_sample {
        if let Ok((_, cost)) = dict.delete(k) {
            delete_profile.get_or_insert_with(CostProfile::default).record(cost);
        }
    }
    Ok(MethodReport {
        name: desc.name.into(),
        n: entries.len(),
        build_ios: desc.construction_ios.or(insert_profile.as_ref().map(|p| p.total_parallel_ios)).unwrap_or(0),
        insert_avg: insert_profile.as_ref().map(CostProfile::average),
        insert_worst: insert_profile.as_ref().map(|p| p.worst_parallel_ios),
        lookup_avg: lookup_hit.average(),
        lookup_worst: lookup_hit.worst_parallel_ios,
        miss_avg: lookup_miss.average(),
        miss_worst: lookup_miss.worst_parallel_ios,
        delete_avg: delete_profile.as_ref().map(CostProfile::average),
        space_words: desc.space_words(dict),
        bandwidth_words: desc.bandwidth_words,
        disks_used: dict.disks().map_or(0, pdm::DiskArray::disks),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fronts::{front, Figure1, Front, Measured};
    use crate::workloads::{entries_for, miss_probes, uniform_keys};

    /// Evaluate what `build` makes of `n` uniform keys of `sigma` words.
    fn check(n: usize, sigma: usize, build: impl FnOnce(&Entries) -> Measured) -> MethodReport {
        let keys = uniform_keys(n, 1 << 30, 11);
        let entries = entries_for(&keys, sigma);
        let misses = miss_probes(&keys, 1 << 30, 50, 12);
        let Measured { mut dict, desc } = build(&entries);
        let report = evaluate(dict.as_mut(), &desc, &entries, &misses, &keys[..10.min(n)]).unwrap();
        assert_eq!(report.failures, 0, "{}: correctness failures", report.name);
        report
    }

    /// Catalogue front `name` at degree `d`, one-word satellites, `B = 64`.
    fn small(name: &str, d: usize) -> Front {
        Front { degree: d, universe: 1 << 40, sigma: 1, ..front(name) }
    }

    #[test]
    fn basic_subject_measures() {
        let r = check(200, 1, |_| small("basic", 13).measured(200, &[], 1).unwrap());
        assert_eq!(r.lookup_worst, 1);
        assert_eq!(r.insert_avg, Some(2.0));
    }

    #[test]
    fn one_probe_subjects_measure() {
        for name in ["one_probe_a", "one_probe_b"] {
            let r = check(150, 1, |entries| small(name, 13).measured(150, entries, 2).unwrap());
            assert_eq!(r.lookup_worst, 1, "{}", r.name);
            assert!(r.build_ios > 0);
            assert!(r.insert_avg.is_none());
        }
    }

    #[test]
    fn dynamic_subject_measures() {
        let r = check(200, 1, |_| small("dynamic", 20).measured(400, &[], 3).unwrap());
        assert!(r.lookup_avg <= 1.5);
        assert!(r.insert_avg.unwrap() <= 2.5);
        assert_eq!(r.miss_worst, 1);
    }

    #[test]
    fn baseline_subjects_measure() {
        let shape = Figure1 { n: 150, sigma: 1, block_words: 16, disks: 8 };
        for method in &Figure1::METHODS[4..] {
            let r = check(150, 1, |_| shape.build(method, &[]).unwrap());
            assert!(r.lookup_avg >= 1.0, "{}", r.name);
            assert!(r.space_words > 0 && r.disks_used == 8, "{}", r.name);
        }
    }
}

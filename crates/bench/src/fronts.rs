//! The catalogue: every structure this repo tests or measures, described
//! once.
//!
//! A [`Front`] is one of the paper's dictionaries with its shape (degree,
//! block size, universe, satellite width, hash family, journal ring) and
//! the quirks the differential suites branch on; [`Front::try_build`] puts
//! it behind `Box<dyn Dict + Send>`. [`fronts_with`] lists the nine the
//! suites and the drill binaries run; a caller that wants another shape
//! overrides the fields it means (`Front { degree: 20, ..front("basic") }`).
//! [`Figure1`] is the paper's comparison table: four of those fronts at the
//! table's own shapes and the five randomized or incumbent structures of
//! [`baselines`], each behind the one [`Dict`] adapter defined here.
//! [`crate::evaluate`] measures any of them through `&mut dyn Dict` and the
//! [`Descriptor`] its constructor returns.

use baselines::{CuckooDict, DghpDict, FolkloreDict, PdmBTree, StripedHashTable};
use expander::{FamilyKind, NeighborFamily};
use pdm::metrics::MetricsRegistry;
use pdm::{DiskArray, JournalRegion, OpCost, PdmConfig, Word};
use pdm_dict::basic::{BasicDict, BasicDictConfig};
use pdm_dict::handle::RawDict;
use pdm_dict::layout::DiskAllocator;
use pdm_dict::one_probe::{OneProbeStatic, OneProbeVariant, BUILD_ATTEMPTS};
use pdm_dict::wide::{WideDict, WideDictConfig};
use pdm_dict::{Dict, DictError, DictHandle, DictParams, Dictionary, DynamicDict, LookupOutcome};
use std::sync::Arc;

/// Keys the suites generate stay below this; padding keys (see
/// [`Front::min_keys`]) live above it, so neither collides.
pub const KEY_SPACE: u64 = 1 << 20;
/// Universe the catalogue's fronts are laid out for.
pub const UNIVERSE: u64 = 1 << 21;
/// Ring rows of the journaled dynamic front (rows × 2d disks slots).
pub const JOURNAL_ROWS: usize = 2;

/// `(key, satellite)` pairs.
pub type Entries = [(u64, Vec<Word>)];

/// `n` distinct deterministic keys below [`KEY_SPACE`].
#[must_use]
pub fn dense_keys(n: usize) -> Vec<u64> {
    // Odd multiplier: `i ↦ i·C mod 2^20` is injective for `i < 2^20`.
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % KEY_SPACE)
        .collect()
}

/// Deterministic satellite for `key`, `sigma` words wide.
#[must_use]
pub fn sat(key: u64, sigma: usize) -> Vec<Word> {
    (0..sigma as u64).map(|i| key ^ (i << 32)).collect()
}

/// Insert `entries` one at a time.
///
/// # Errors
/// The first insert that fails.
pub fn preload(dict: &mut dyn Dict, entries: &Entries) -> Result<(), DictError> {
    entries.iter().try_for_each(|(k, s)| dict.insert(*k, s).map(drop))
}

/// Key set → entries, padded up to `f.min_keys` from above [`KEY_SPACE`].
#[must_use]
pub fn padded_entries(f: &Front, keys: &[u64]) -> Vec<(u64, Vec<Word>)> {
    let padding = (0..f.min_keys.saturating_sub(keys.len()) as u64).map(|i| KEY_SPACE + 1 + i);
    keys.iter().copied().chain(padding).map(|k| (k, sat(k, f.sigma))).collect()
}

/// What [`crate::evaluate`] prints about a structure beside the I/Os it
/// counts: Figure 1's name, bandwidth and space columns.
#[derive(Debug, Clone, Copy)]
pub struct Descriptor {
    /// The Figure 1 row the structure reproduces.
    pub name: &'static str,
    /// For a structure built once from its key set, the parallel I/Os of
    /// that construction (reported in place of per-insert costs); `None`
    /// for one populated an insert at a time.
    pub construction_ios: Option<u64>,
    /// For a structure built once, the build attempt whose graph expanded
    /// (`pdm_dict::one_probe::attempt_seed`); 0 for every other.
    pub build_attempt: u32,
    /// Satellite words one lookup returns.
    pub bandwidth_words: usize,
    /// Words laid out once, at construction: all of one of the paper's
    /// structures.
    pub fixed_words: usize,
    /// Whether the array [`Dict::disks`] shows holds the rest and grows with
    /// the key set (the comparators', the rebuilding front's): it is
    /// counted when the space is asked for.
    pub array_grows: bool,
}

impl Descriptor {
    /// Words `dict`, the structure described, occupies now.
    #[must_use]
    pub fn space_words(&self, dict: &dyn Dict) -> usize {
        let array = dict.disks().filter(|_| self.array_grows).map_or(0, DiskArray::total_words);
        self.fixed_words + array
    }
}

/// A built structure and its [`Descriptor`].
pub struct Measured {
    /// The structure.
    pub dict: Box<dyn Dict + Send>,
    /// What Figure 1 says of it.
    pub desc: Descriptor,
}

/// Which of the paper's dictionaries a [`Front`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Section 4.1.
    Basic,
    /// Theorem 7.
    Dynamic,
    /// Theorem 6, either case.
    OneProbe(OneProbeVariant),
    /// Theorem 7 under global rebuilding ([`Dictionary`]).
    Rebuild,
    /// Section 4.1 with `k = d/2`.
    Wide,
}

/// One dictionary front-end: its shape, and as explicit flags the
/// behavioural differences the differential suites branch on.
#[derive(Debug, Clone)]
pub struct Front {
    /// Catalogue name.
    pub name: &'static str,
    /// Figure 1's name for it.
    pub title: &'static str,
    /// The structure underneath.
    pub structure: Structure,
    /// Expander hash family.
    pub family: FamilyKind,
    /// Expander degree `d`.
    pub degree: usize,
    /// Words per block.
    pub block_words: usize,
    /// Universe size.
    pub universe: u64,
    /// Satellite words per key.
    pub sigma: usize,
    /// Rows of the write-ahead ring; 0 for none. A journaled front can be
    /// [reopened](Front::reopen) from its disk image alone.
    pub journal_rows: usize,
    /// Lay out for this capacity whatever the caller asks: the rebuilding
    /// front starts small so that batches regularly land mid-rebuild.
    pub start_capacity: Option<usize>,
    /// Build with at least this many keys (static peeling needs mass;
    /// [`padded_entries`] pads small key sets from above [`KEY_SPACE`]).
    pub min_keys: usize,
    /// Theorem 6 statics: mutation after build is `UnsupportedParams`.
    pub is_static: bool,
    /// Whether twin insert orders (sequential vs. one batch) must leave
    /// byte-identical disk images. Off for the rebuilding front, whose
    /// migration *pacing* differs between the two paths, and the journaled
    /// one, whose ring holds n intents against 1 (contents still must match).
    pub byte_identical: bool,
    /// Whether a duplicate appended *within* the batch must fail exactly
    /// like the sequential loop. Off for the rebuilding front, whose
    /// re-routing dedupes against the committed state only.
    pub intra_batch_dup: bool,
    /// Whether a delete fails typed (`DictError::Io`) rather than report
    /// "absent" when the key is not found and a membership probe stayed
    /// unreadable. On for the Theorem 7 fronts; the plain Section 4.1
    /// fronts read their probe unverified.
    pub typed_delete: bool,
}

/// Every front over the default hash family.
#[must_use]
pub fn fronts() -> Vec<Front> {
    fronts_with(FamilyKind::default())
}

/// Every front, with its quirks declared, built over `family` — the whole
/// differential suite can thus be rotated across hash families.
#[must_use]
pub fn fronts_with(family: FamilyKind) -> Vec<Front> {
    let plain = |name, title, structure, degree, block_words, sigma| Front {
        name,
        title,
        structure,
        family,
        degree,
        block_words,
        universe: UNIVERSE,
        sigma,
        journal_rows: 0,
        start_capacity: None,
        min_keys: 0,
        is_static: false,
        byte_identical: true,
        intra_batch_dup: true,
        typed_delete: false,
    };
    let dynamic = Front { typed_delete: true, ..plain("dynamic", "§4.3 dynamic (det.)", Structure::Dynamic, 20, 64, 2) };
    // Four-word records outgrow a 64-word bucket at every capacity the
    // suites use (16 slots of 6 words at 192 keys, more above), so these
    // keep Theorem 7's chains where the two-word fronts store records
    // inline below 256 keys.
    let chained = Front {
        name: "dynamic_chained",
        title: "§4.3 dynamic, chained records (det.)",
        sigma: 4,
        ..dynamic.clone()
    };
    let journaled = |front: &Front, name, title| Front {
        name,
        title,
        journal_rows: JOURNAL_ROWS,
        byte_identical: false,
        ..front.clone()
    };
    let one_probe = |name, title, variant| Front {
        min_keys: 20,
        is_static: true,
        byte_identical: false,
        intra_batch_dup: false,
        ..plain(name, title, Structure::OneProbe(variant), 13, 64, 2)
    };
    vec![
        plain("basic", "§4.1 basic (det.)", Structure::Basic, 8, 64, 1),
        dynamic.clone(),
        plain("wide", "§4.1 wide k=d/2 (det.)", Structure::Wide, 16, 128, 16),
        journaled(&dynamic, "dynamic_journaled", "§4.3 dynamic, journaled (det.)"),
        one_probe("one_probe_b", "§4.2 one-probe b (det., static)", OneProbeVariant::CaseB),
        one_probe("one_probe_a", "§4.2 one-probe a (det., static)", OneProbeVariant::CaseA),
        Front {
            start_capacity: Some(16),
            byte_identical: false,
            intra_batch_dup: false,
            typed_delete: true,
            ..plain("rebuild", "§4.3 + global rebuilding (det.)", Structure::Rebuild, 20, 64, 1)
        },
        chained.clone(),
        journaled(&chained, "dynamic_chained_journaled", "§4.3 dynamic, chained records, journaled (det.)"),
    ]
}

/// The front named `name` over the default family (panics if unknown).
#[must_use]
pub fn front(name: &str) -> Front {
    front_with(name, FamilyKind::default())
}

/// The front named `name` built over `family` (panics if unknown).
#[must_use]
pub fn front_with(name: &str, family: FamilyKind) -> Front {
    fronts_with(family)
        .into_iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no front named {name}"))
}

/// Front `name` as the drill binaries (`workload_replay`, `chaos`) run it:
/// the rebuilding one starts at capacity 64 where the suites start it at 16.
#[must_use]
pub fn drill_front(name: &str) -> Front {
    let f = front(name);
    Front { start_capacity: f.start_capacity.map(|_| 64), ..f }
}

impl Front {
    fn params(&self, capacity: usize, seed: u64) -> DictParams {
        DictParams::new(capacity.max(4), self.universe, self.sigma)
            .with_degree(self.degree)
            .with_epsilon(0.5)
            .with_seed(seed)
            .with_family(self.family)
            .with_journal(self.journal_rows)
    }

    /// Build the front holding exactly `entries`, sized for `capacity`,
    /// deterministic in `seed`, with what Figure 1 says of it.
    ///
    /// # Errors
    /// What the structure's constructor or an insert of `entries` reports.
    pub fn measured(&self, capacity: usize, entries: &Entries, seed: u64) -> Result<Measured, DictError> {
        let (d, b) = (self.degree, self.block_words);
        let capacity = self.start_capacity.unwrap_or(capacity);
        // An array of `nd` disks, the structure `create` lays out on it, and
        // the words it says it occupies.
        fn on<T: RawDict + Send + 'static>(
            nd: usize,
            b: usize,
            create: impl FnOnce(&mut DiskArray, &mut DiskAllocator) -> Result<T, DictError>,
            space: impl FnOnce(&T, &DiskArray) -> usize,
        ) -> Result<(Box<dyn Dict + Send>, Option<usize>), DictError> {
            let mut disks = DiskArray::new(PdmConfig::new(nd, b), 0);
            let dict = create(&mut disks, &mut DiskAllocator::new(nd))?;
            let words = space(&dict, &disks);
            Ok((Box::new(DictHandle::new(dict, disks)), Some(words)))
        }
        let (mut construction_ios, mut build_attempt) = (None, 0);
        let (mut dict, words) = match self.structure {
            Structure::Basic => {
                let cfg = BasicDictConfig::log_load(capacity.max(4), self.universe, d, self.sigma, seed)
                    .with_family(self.family);
                on(d, b, |disks, alloc| BasicDict::create(disks, alloc, 0, cfg), BasicDict::space_words)?
            }
            Structure::Dynamic => {
                let h = DictHandle::in_memory(self.params(capacity, seed), b)?;
                let words = h.dict().space_words(h.disk_array());
                (Box::new(h) as Box<dyn Dict + Send>, Some(words))
            }
            Structure::OneProbe(variant) => {
                let nd = if variant == OneProbeVariant::CaseA { 2 * d } else { d };
                let params = self.params(entries.len(), seed);
                on(
                    nd,
                    b,
                    |disks, alloc| {
                        let (dict, stats) = OneProbeStatic::build(disks, alloc, 0, &params, variant, entries)?;
                        (construction_ios, build_attempt) = (Some(stats.cost.parallel_ios), dict.attempt());
                        Ok(dict)
                    },
                    OneProbeStatic::space_words,
                )?
            }
            Structure::Rebuild => (Box::new(Dictionary::new(self.params(capacity, seed), b)?) as _, None),
            Structure::Wide => {
                let chunk = self.sigma / (d / 2).max(1);
                let cfg = WideDictConfig::paper(capacity.max(4), self.universe, d, chunk, seed)
                    .with_family(self.family);
                on(d, b, |disks, alloc| WideDict::create(disks, alloc, 0, cfg), WideDict::space_words)?
            }
        };
        if !self.is_static {
            preload(dict.as_mut(), entries)?;
        }
        let desc = Descriptor {
            name: self.title,
            construction_ios,
            build_attempt,
            bandwidth_words: self.sigma,
            fixed_words: words.unwrap_or(0),
            array_grows: words.is_none(),
        };
        Ok(Measured { dict, desc })
    }

    /// [`measured`](Front::measured), the structure alone.
    ///
    /// # Errors
    /// As [`measured`](Front::measured).
    pub fn try_build(&self, capacity: usize, entries: &Entries, seed: u64) -> Result<Box<dyn Dict + Send>, DictError> {
        self.measured(capacity, entries, seed).map(|m| m.dict)
    }

    /// [`try_build`](Front::try_build) for a caller with nothing to do about
    /// a failure.
    ///
    /// # Panics
    /// On a failed build, naming the front, family, seed and key count, and
    /// when the failure is the sampled graph's, the attempts it made.
    #[must_use]
    pub fn build(&self, capacity: usize, entries: &Entries, seed: u64) -> Box<dyn Dict + Send> {
        self.try_build(capacity, entries, seed).unwrap_or_else(|e| {
            // A static build redraws its graph; nothing else does.
            let attempts = if self.is_static { BUILD_ATTEMPTS } else { 1 };
            let why = if e.is_expansion_failure() {
                format!(" — no sampled graph expanded in {attempts} attempt(s) from this seed")
            } else {
                String::new()
            };
            panic!(
                "front {} over {} at seed {seed:#x} with {} keys: {e}{why}",
                self.name,
                self.family.name(),
                entries.len()
            )
        })
    }

    /// Crash-reopen a journaled front from a (possibly crashed) disk image
    /// alone: adopt the persisted journal superblock, replay in-flight
    /// intents, restore counters. `capacity` and `seed` must equal the
    /// build's (the layout is a pure function of them); nothing else from
    /// the pre-crash process survives.
    ///
    /// # Errors
    /// What [`DynamicDict::reopen`] reports.
    ///
    /// # Panics
    /// If the front has no journal, or a replayed delta landed on a block in
    /// neither of the states it was taken across (the crash model's block
    /// atomicity, checked).
    pub fn reopen(&self, capacity: usize, seed: u64, mut disks: DiskArray) -> Result<Box<dyn Dict + Send>, DictError> {
        assert!(self.journal_rows > 0, "{}: only a journaled front reopens", self.name);
        // The journal ring is allocated first, so it deterministically sits
        // at block 0 of every disk.
        let region = JournalRegion { first_block: 0, rows: self.journal_rows };
        let mut alloc = DiskAllocator::new(disks.disks());
        let (dict, report) = DynamicDict::reopen(&mut disks, &mut alloc, 0, self.params(capacity, seed), region)?;
        assert_eq!((report.stalled, report.mismatched), (0, 0), "{report:?}");
        Ok(Box::new(DictHandle::new(dict, disks)))
    }
}

/// The shape Figure 1 is drawn at: `n` keys of `sigma` words, blocks of
/// `block_words`, each comparator on `disks` disks (the paper's own rows
/// take the degrees their theorems ask for).
#[derive(Debug, Clone, Copy)]
pub struct Figure1 {
    /// Keys.
    pub n: usize,
    /// Satellite words per key.
    pub sigma: usize,
    /// Words per block.
    pub block_words: usize,
    /// Disks under each comparator.
    pub disks: usize,
}

impl Figure1 {
    /// The table's rows in order: the paper's four, then the structures it
    /// is compared with.
    pub const METHODS: [&'static str; 9] =
        ["basic", "one_probe_a", "one_probe_b", "dynamic", "striped", "cuckoo", "dghp", "folklore", "btree"];

    /// The table as `fig1_table` prints it: comparators on 16 disks.
    #[must_use]
    pub fn table(n: usize, sigma: usize, block_words: usize) -> Self {
        Figure1 { n, sigma, block_words, disks: 16 }
    }

    /// One of the paper's own rows at this shape: `name` of the catalogue at
    /// `degree`, over a universe of 2^40.
    #[must_use]
    pub fn paper(&self, name: &str, degree: usize) -> Front {
        Front { degree, block_words: self.block_words, universe: 1 << 40, sigma: self.sigma, ..front(name) }
    }

    /// Build row `method`: empty, or for a static structure over `entries`.
    ///
    /// # Errors
    /// What the structure's constructor reports.
    ///
    /// # Panics
    /// If `method` is not one of [`METHODS`](Self::METHODS).
    pub fn build(&self, method: &str, entries: &Entries) -> Result<Measured, DictError> {
        let Figure1 { n, sigma, block_words: b, disks } = *self;
        match method {
            "basic" => self.paper("basic", 20).measured(n, &[], 1),
            "one_probe_a" => self.paper("one_probe_a", 13).measured(n, entries, 2),
            "one_probe_b" => self.paper("one_probe_b", 13).measured(n, entries, 3),
            // Capacity 2n for headroom.
            "dynamic" => self.paper("dynamic", 20).measured(2 * n, &[], 4),
            "striped" => Ok(comparator("hashing + striping (rand.)", sigma, 0, StripedHashTable::new(n, sigma, disks, b, 5))),
            "cuckoo" => {
                let inner = CuckooDict::new(n, sigma, disks, b, 6);
                Ok(comparator("cuckoo [13] (rand.)", inner.bandwidth_words(), 0, inner))
            }
            "dghp" => Ok(comparator("[7] dghp-style (rand.)", sigma, 0, DghpDict::new(n, sigma, disks, b, 7))),
            "folklore" => {
                let inner = FolkloreDict::new(n, sigma, disks, b, 4, 8);
                let primary = inner.space_words() - inner.secondary().disks().total_words();
                Ok(comparator("[7] + trick folklore (rand.)", inner.bandwidth_words(), primary, inner))
            }
            "btree" => Ok(comparator("B-tree (§1.2 incumbent)", sigma, 0, PdmBTree::new(sigma, disks, b))),
            _ => panic!("no Figure 1 row named {method}"),
        }
    }
}

/// `inner` behind [`Dict`], occupying its array and `fixed_words` more.
fn comparator<T>(name: &'static str, bandwidth_words: usize, fixed_words: usize, inner: T) -> Measured
where
    Comparator<T>: Dict + Send + 'static,
{
    Measured {
        dict: Box::new(Comparator(inner)),
        desc: Descriptor { name, construction_ios: None, build_attempt: 0, bandwidth_words, fixed_words, array_grows: true },
    }
}

/// One of Figure 1's comparators behind [`Dict`] (the adapter lives here so
/// that `baselines` stays clear of `pdm-dict`): no capacity of its own, no
/// metrics, every answer [`Exact`](pdm_dict::Provenance::Exact).
struct Comparator<T>(T);

/// `Dict for Comparator<$ty>` in `baselines`' own spelling of the operations:
/// the type, its insert error, its `kind` tag, and the array it grows on.
macro_rules! comparators {
    ($($ty:ty, $err:path, $kind:literal, $($array:ident()).+;)*) => {$(
        impl Dict for Comparator<$ty> {
            fn kind(&self) -> &'static str {
                $kind
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn capacity(&self) -> usize {
                usize::MAX
            }
            fn lookup(&mut self, key: u64) -> LookupOutcome {
                let (satellite, cost) = self.0.lookup(key);
                LookupOutcome::new(satellite, cost)
            }
            // Two of the five error types have a "full" variant beside these.
            #[allow(unreachable_patterns)]
            fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
                use $err as E;
                self.0.insert(key, satellite).map_err(|e| match e {
                    E::Duplicate(k) => DictError::DuplicateKey(k),
                    E::PayloadWidth { expected, got } => DictError::SatelliteWidth { expected, got },
                    full => DictError::UnsupportedParams(full.to_string()),
                })
            }
            fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
                Ok(self.0.delete(key))
            }
            fn set_metrics(&mut self, _registry: Option<Arc<MetricsRegistry>>) {}
            fn disks(&self) -> Option<&DiskArray> {
                Some(self.0.$($array()).+)
            }
        }
    )*};
}

comparators! {
    StripedHashTable, baselines::striped_table::TableError, "striped", disks();
    CuckooDict, baselines::cuckoo::CuckooError, "cuckoo", disks();
    DghpDict, baselines::dghp::DghpError, "dghp", disks();
    // The primary table is laid out once on an array of its own; the
    // secondary structure's is the one that grows.
    FolkloreDict, baselines::folklore::FolkloreError, "folklore", secondary().disks();
    PdmBTree, baselines::btree::BTreeError, "btree", disks();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_front_builds_and_answers_through_dyn_dict() {
        for f in fronts() {
            let entries = padded_entries(&f, &dense_keys(60));
            let mut dict = f.build(entries.len() + 8, &entries, 7);
            assert_eq!(dict.len(), entries.len(), "{}", f.name);
            for (k, s) in &entries {
                assert_eq!(dict.lookup(*k).satellite.as_ref(), Some(s), "{}", f.name);
            }
            assert_eq!(dict.insert(KEY_SPACE - 1, &sat(0, f.sigma)).is_err(), f.is_static, "{}", f.name);
        }
    }

    #[test]
    fn a_failed_build_is_an_error_and_a_comparator_error_is_typed() {
        // d = 2 is below every theorem's side condition.
        let cramped = Front { degree: 2, ..front("dynamic") };
        assert!(cramped.try_build(64, &[], 1).is_err());
        let mut striped = Figure1::table(32, 1, 16).build("striped", &[]).unwrap().dict;
        striped.insert(5, &[1]).unwrap();
        assert_eq!(striped.insert(5, &[1]), Err(DictError::DuplicateKey(5)));
        assert_eq!(striped.insert(6, &[1, 2]), Err(DictError::SatelliteWidth { expected: 1, got: 2 }));
    }
}

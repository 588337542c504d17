//! The parallel disk *head* model variant of the one-probe dictionary.
//!
//! Section 5's closing remark: "Like all mentioned explicit expander
//! constructions, our construction does not yield a striped expander. If
//! we implement the described dictionaries in the parallel disk head
//! model, we do not need the striped property. To get an algorithm for
//! the parallel disk model we may stripe an expander in a trivial manner
//! ... This incurs a factor d increase in the size of the right part of
//! the expander, and hence a factor d larger external memory space usage."
//!
//! [`HeadModelOneProbe`] is that first option: a Theorem 6(b) dictionary
//! over an **unstriped** expander, with fields laid out flat across the
//! `D` heads. In the head model any `d ≤ D` blocks cost one parallel I/O
//! wherever they sit, so lookups stay one probe — and the factor-`d`
//! striping overhead disappears. The SEC5b experiment quantifies the
//! space difference against the striped PDM build.

use crate::config::DictParams;
use crate::layout::{DiskAllocator, Region};
use crate::one_probe::encoding::CaseB;
use crate::traits::{DictError, LookupOutcome};
use expander::NeighborFn;
use pdm::bits::{copy_bits, extract_bits};
use pdm::{BlockAddr, DiskArray, Model, ReadOptions, Word, WORD_BITS};

/// Flat (unstriped) field storage: field `y` lives in global block
/// `y / fields_per_block`, placed round-robin across the disks.
#[derive(Debug)]
struct FlatFields {
    region: Region,
    field_bits: usize,
    fields_per_block: usize,
    num_fields: usize,
}

impl FlatFields {
    fn create(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        width: usize,
        num_fields: usize,
        field_bits: usize,
    ) -> Result<Self, DictError> {
        let block_bits = disks.block_words() * WORD_BITS;
        if field_bits == 0 || field_bits > block_bits {
            return Err(DictError::UnsupportedParams(format!(
                "field of {field_bits} bits cannot fit a block of {block_bits} bits"
            )));
        }
        let fields_per_block = block_bits / field_bits;
        let blocks = num_fields.div_ceil(fields_per_block);
        let blocks_per_disk = blocks.div_ceil(width);
        let region = alloc.alloc(disks, first_disk, width, blocks_per_disk);
        Ok(FlatFields {
            region,
            field_bits,
            fields_per_block,
            num_fields,
        })
    }

    fn addr_of(&self, y: usize) -> BlockAddr {
        debug_assert!(y < self.num_fields);
        let g = y / self.fields_per_block;
        self.region
            .addr(g % self.region.disks, g / self.region.disks)
    }

    fn bit_offset(&self, y: usize) -> usize {
        (y % self.fields_per_block) * self.field_bits
    }

    fn space_words(&self, disks: &DiskArray) -> usize {
        self.region.space_words(disks)
    }
}

/// Theorem 6(b) over an unstriped expander in the parallel disk head
/// model.
#[derive(Debug)]
pub struct HeadModelOneProbe<G: NeighborFn> {
    graph: G,
    /// The build attempt whose graph this is ([`super::attempt_seed`]).
    attempt: u32,
    fields: FlatFields,
    enc: CaseB,
    n: usize,
    sigma_words: usize,
}

impl<G: NeighborFn> HeadModelOneProbe<G> {
    /// Build over the graph `graph(seed)` draws (striped or not) on a disk
    /// array that **must** use [`Model::ParallelDiskHead`] with `D ≥ d`
    /// heads. The first attempt draws at `params.seed`; a graph that fails
    /// to expand for `entries` is redrawn at the next attempt's seed
    /// ([`super::BUILD_ATTEMPTS`]), and [`attempt`](Self::attempt) says
    /// which one the structure holds.
    ///
    /// Construction uses the recursive unique-neighbor assignment
    /// (Lemmas 4–5) computed in memory; the I/O-accounted sort-based
    /// construction is exercised by the striped variant, and this model's
    /// point is lookup cost and space, which are reported exactly.
    pub fn build(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        params: &DictParams,
        graph: impl Fn(u64) -> G,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<Self, DictError> {
        let (dict, attempt) = super::with_retries(disks, alloc, |disks, alloc, attempt| {
            let graph = graph(super::attempt_seed(params.seed, attempt));
            Self::build_over(disks, alloc, first_disk, params, graph, entries)
        })?;
        Ok(HeadModelOneProbe { attempt, ..dict })
    }

    /// One attempt of [`build`](Self::build), over `graph`.
    fn build_over(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        params: &DictParams,
        graph: G,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<Self, DictError> {
        if disks.config().model != Model::ParallelDiskHead {
            return Err(DictError::UnsupportedParams(
                "unstriped one-probe dictionaries need the parallel disk head model; use \
                 OneProbeStatic with a striped expander for the parallel disk model"
                    .into(),
            ));
        }
        if disks.config().disks < graph.degree() {
            return Err(DictError::UnsupportedParams(format!(
                "need D ≥ d = {} heads, have {}",
                graph.degree(),
                disks.config().disks
            )));
        }
        let n = entries.len().max(1);
        let sigma_words = params.satellite_words;
        if entries.iter().any(|(_, s)| s.len() != sigma_words) {
            return Err(DictError::UnsupportedParams(
                "all satellites must have the configured width".into(),
            ));
        }
        let m = expander::params::fields_per_key(graph.degree());
        let enc = CaseB::new(n, sigma_words * WORD_BITS, graph.degree());
        let width = disks.config().disks - first_disk;
        let fields = FlatFields::create(
            disks,
            alloc,
            first_disk,
            width,
            graph.right_size(),
            enc.field_bits(),
        )?;

        // Rank assignment (case (b) identifiers) by sorted key order.
        let mut keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        let rank_of = |key: u64| keys.binary_search(&key).expect("present") as u64;
        let by_key: std::collections::HashMap<u64, &Vec<Word>> =
            entries.iter().map(|(k, s)| (*k, s)).collect();

        // Unique-neighbor peeling over the raw (unstriped) graph.
        let rounds = expander::unique::peel(&graph, &keys, m)
            .map_err(|e| DictError::ExpansionFailure(e.to_string()))?;
        for round in &rounds {
            for a in round {
                let satellite = by_key[&a.key];
                let rank = rank_of(a.key);
                for (t, &y) in a.fields.iter().enumerate() {
                    let bits = enc.encode(rank, satellite, t);
                    let addr = fields.addr_of(y);
                    let mut block = disks.read_block(addr);
                    copy_bits(&mut block, fields.bit_offset(y), &bits, 0, enc.field_bits());
                    disks.write_block(addr, &block);
                }
            }
        }
        Ok(HeadModelOneProbe {
            graph,
            attempt: 0,
            fields,
            enc,
            n: entries.len(),
            sigma_words,
        })
    }

    /// Number of keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// The build attempt whose graph this structure holds: 0 for the graph
    /// drawn at the configured seed.
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Whether empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Space in words — compare with the striped build's factor-`d` more.
    #[must_use]
    pub fn space_words(&self, disks: &DiskArray) -> usize {
        self.fields.space_words(disks)
    }

    /// One-probe lookup: `d` blocks anywhere cost `⌈d/D⌉` head-model
    /// parallel I/Os — 1 when `D ≥ d`.
    pub fn lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        let scope = disks.begin_op();
        // Canonical (ascending) field order: the construction assigns
        // chunk t to the t-th *smallest* assigned vertex, and without
        // stripes the edge order is arbitrary, so sort before decoding.
        let mut ys = self.graph.neighbors(key);
        ys.sort_unstable();
        let addrs: Vec<BlockAddr> = ys.iter().map(|&y| self.fields.addr_of(y)).collect();
        let blocks = disks.read(&addrs, ReadOptions::default()).blocks;
        let raw: Vec<Word> = ys
            .iter()
            .zip(blocks.iter())
            .flat_map(|(&y, b)| extract_bits(b, self.fields.bit_offset(y), self.enc.field_bits()))
            .collect();
        let satellite = self.enc.decode(&raw).map(|(_, mut s)| {
            s.truncate(self.sigma_words);
            s.resize(self.sigma_words, 0);
            s
        });
        LookupOutcome::new(satellite, disks.end_op(scope))
    }

    /// Cost-only accessor used by experiments: the lookup's worst case is
    /// `⌈d / D⌉` by the head-model batch rule.
    #[must_use]
    pub fn lookup_bound(&self, disks: &DiskArray) -> u64 {
        (self.graph.degree() as u64).div_ceil(disks.config().disks as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander::semi_explicit::{SemiExplicitConfig, SemiExplicitExpander};
    use expander::SeededExpander;
    use pdm::PdmConfig;

    fn entries(n: usize, sigma: usize, universe: u64) -> Vec<(u64, Vec<Word>)> {
        (0..n as u64)
            .map(|i| {
                let k = i.wrapping_mul(0x9E37_79B9) % universe;
                (k, vec![k; sigma])
            })
            .collect()
    }

    #[test]
    fn rejects_parallel_disk_model() {
        let mut disks = DiskArray::new(PdmConfig::new(16, 64), 0);
        let mut alloc = DiskAllocator::new(16);
        let g = |seed| SeededExpander::new(1 << 24, 1024, 13, seed);
        let params = DictParams::new(10, 1 << 24, 1).with_degree(13);
        let err = HeadModelOneProbe::build(
            &mut disks,
            &mut alloc,
            0,
            &params,
            g,
            &entries(10, 1, 1 << 24),
        )
        .unwrap_err();
        assert!(err.to_string().contains("head model"), "{err}");
    }

    /// The semi-explicit graph of `cfg`, drawn at `seed`.
    fn semi_at(cfg: SemiExplicitConfig) -> impl Fn(u64) -> SemiExplicitExpander {
        move |seed| SemiExplicitExpander::build(SemiExplicitConfig { seed, ..cfg }).unwrap()
    }

    #[test]
    fn one_probe_lookups_over_unstriped_semi_explicit_graph() {
        // The §5 end state: semi-explicit expander, NO striping, head model.
        let semi = semi_at(SemiExplicitConfig {
            universe: 1 << 20,
            capacity: 200,
            beta: 0.5,
            epsilon: 1.0 / 12.0,
            seed: 0x8EAD,
            stage_degree_cap: 6,
        });
        let d = semi(0x8EAD).degree();
        let cfg = PdmConfig::new(d, 64).with_model(Model::ParallelDiskHead);
        let mut disks = DiskArray::new(cfg, 0);
        let mut alloc = DiskAllocator::new(d);
        let es = entries(200, 2, 1 << 20);
        let params = DictParams::new(200, 1 << 20, 2).with_degree(d).with_seed(0x8EAD);
        let dict = HeadModelOneProbe::build(&mut disks, &mut alloc, 0, &params, semi, &es).unwrap();
        assert_eq!(dict.attempt(), 0);
        assert_eq!(dict.lookup_bound(&disks), 1);
        for (k, s) in &es {
            let out = dict.lookup(&mut disks, *k);
            assert_eq!(out.satellite.as_ref(), Some(s), "key {k}");
            assert_eq!(out.cost.parallel_ios, 1, "head-model one-probe violated");
        }
        // Misses are refused by the majority rule.
        let present: std::collections::HashSet<u64> = es.iter().map(|&(k, _)| k).collect();
        for probe in (0..(1u64 << 20)).step_by(2049) {
            if !present.contains(&probe) {
                assert!(
                    !dict.lookup(&mut disks, probe).found(),
                    "false positive {probe}"
                );
            }
        }
    }

    #[test]
    fn unstriped_build_saves_factor_d_space() {
        // Same graph, striped vs flat: the striped build's field array is
        // ~d× larger (the §5 trade).
        let semi_at = semi_at(SemiExplicitConfig {
            universe: 1 << 20,
            capacity: 128,
            beta: 0.5,
            epsilon: 1.0 / 12.0,
            seed: 0x8EAE,
            stage_degree_cap: 6,
        });
        let semi = semi_at(0x8EAE);
        let d = semi.degree();
        let v_unstriped = semi.right_size();
        let striped = expander::TriviallyStriped::new(semi);
        assert_eq!(striped.right_size(), v_unstriped * d);

        let cfg = PdmConfig::new(d, 64).with_model(Model::ParallelDiskHead);
        let mut disks = DiskArray::new(cfg, 0);
        let mut alloc = DiskAllocator::new(d);
        let es = entries(128, 1, 1 << 20);
        let params = DictParams::new(128, 1 << 20, 1).with_degree(d).with_seed(0x8EAE);
        let flat = HeadModelOneProbe::build(&mut disks, &mut alloc, 0, &params, semi_at, &es).unwrap();
        assert_eq!(flat.attempt(), 0);

        let mut disks2 = DiskArray::new(PdmConfig::new(d, 64), 0);
        let mut alloc2 = DiskAllocator::new(d);
        let (striped_dict, _) = crate::one_probe::OneProbeStatic::build_with_graph(
            &mut disks2,
            &mut alloc2,
            0,
            &params,
            crate::one_probe::OneProbeVariant::CaseB,
            striped,
            &es,
        )
        .unwrap();
        let flat_space = flat.space_words(&disks);
        let striped_space = striped_dict.space_words(&disks2);
        assert!(
            striped_space >= flat_space * (d / 2),
            "striping should cost ~d× space: flat {flat_space}, striped {striped_space}, d {d}"
        );
    }

    #[test]
    fn works_with_plain_seeded_graph_too() {
        let g = |seed| SeededExpander::new(1 << 24, 8 * 150, 13, seed);
        let cfg = PdmConfig::new(13, 64).with_model(Model::ParallelDiskHead);
        let mut disks = DiskArray::new(cfg, 0);
        let mut alloc = DiskAllocator::new(13);
        let es = entries(150, 1, 1 << 24);
        let params = DictParams::new(150, 1 << 24, 1).with_degree(13).with_seed(0x8EAF);
        let dict = HeadModelOneProbe::build(&mut disks, &mut alloc, 0, &params, g, &es).unwrap();
        for (k, s) in &es {
            assert_eq!(dict.lookup(&mut disks, *k).satellite.as_ref(), Some(s));
        }
    }

    /// A graph that fails to expand is redrawn at the next attempt's seed,
    /// and a failed attempt leaves nothing behind: the array and allocator
    /// end as a first-try build over the graph that expanded leaves them.
    /// A family that never expands is an error once every attempt failed,
    /// with every block given back.
    #[test]
    fn a_graph_that_does_not_expand_is_redrawn_at_the_next_seed() {
        let es = entries(150, 1, 1 << 24);
        let params = DictParams::new(150, 1 << 24, 1).with_degree(13).with_seed(0x8EB0);
        let run = |params: &DictParams, graph: &dyn Fn(u64) -> SeededExpander| {
            let mut disks = DiskArray::new(PdmConfig::new(13, 64).with_model(Model::ParallelDiskHead), 0);
            let mut alloc = DiskAllocator::new(13);
            let built = HeadModelOneProbe::build(&mut disks, &mut alloc, 0, params, graph, &es);
            (built, disks, alloc)
        };
        // 4 right vertices a stripe cannot give 150 keys 9 unique neighbours each.
        let first_fails = |seed| SeededExpander::new(1 << 24, if seed == 0x8EB0 { 4 } else { 8 * 150 }, 13, seed);
        let (built, mut disks, alloc) = run(&params, &first_fails);
        let dict = built.unwrap();
        assert_eq!(dict.attempt(), 1);
        for (k, s) in &es {
            assert_eq!(dict.lookup(&mut disks, *k).satellite.as_ref(), Some(s));
        }
        let (again, first_try, first_alloc) = run(&params.with_seed(super::super::attempt_seed(0x8EB0, 1)), &first_fails);
        assert_eq!(again.unwrap().attempt(), 0);
        assert_eq!(disks.snapshot(), first_try.snapshot(), "the failed attempt left nothing behind");
        assert!((0..13).all(|d| alloc.used_blocks(d) == first_alloc.used_blocks(d)));

        let never = |seed| SeededExpander::new(1 << 24, 4, 13, seed);
        let (built, disks, alloc) = run(&params, &never);
        assert!(built.unwrap_err().is_expansion_failure());
        assert!((0..13).all(|d| disks.blocks_on(d) == 0 && alloc.used_blocks(d) == 0));
    }
}

//! Theorem 6: the one-probe static dictionary.
//!
//! Lookups cost **one parallel I/O**, construction costs `O(sort(n·d))`
//! parallel I/Os, and the two cases trade block-size assumptions for
//! space:
//!
//! * **case (a)** — `O(log n)` keys fit in a block: `2d` disks; a
//!   Section 4.1 membership dictionary (with a `⌈lg d⌉`-bit head pointer
//!   per key) occupies half of them, the pointer-chain retrieval array the
//!   other half. Space `O(n(log u + σ))` bits — optimal.
//! * **case (b)** — tiny blocks: `d` disks, identifier-tagged fields with
//!   majority decoding. Space `O(n·log u·log n + n·σ)` bits.

use crate::basic::{BasicDict, BasicDictConfig};
use crate::config::DictParams;
use crate::fields::{FieldArray, FieldPos};
use crate::layout::{DiskAllocator, Region};
use crate::one_probe::construct::{sorted_construct, ConstructStats};
use crate::one_probe::encoding::{CaseB, Chain};
use crate::traits::{DictError, LookupOutcome};
use expander::{FamilyExpander, NeighborFamily, NeighborFn};
use pdm::{
    BatchPlan, BlockAddr, BlockBuf, BlockHealth, BlockView, DiskArray, OpCost, ReadOptions,
    ScrubReport, Word, WriteOptions, WORD_BITS,
};

/// Which Theorem 6 case to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneProbeVariant {
    /// Case (a): membership dictionary + pointer-chain retrieval
    /// (`2d` disks, needs `B = Ω(log n)`).
    CaseA,
    /// Case (b): identifier-tagged fields with majority decoding
    /// (`d` disks, any `B` that holds one field).
    CaseB,
}

#[derive(Debug)]
enum VariantImpl {
    B {
        fields: FieldArray,
        enc: CaseB,
        manifest: Option<Manifest>,
    },
    A {
        membership: BasicDict,
        fields: FieldArray,
        enc: Chain,
    },
}

/// Scrub manifest of case (b): the rank-ordered `(key, stripe-bitmap)`
/// records the repair pass needs to re-derive every key's field positions
/// (`neighbors(key)[s]` for each set stripe `s`). Two words per key, kept
/// in **two** replicas whose linear blocks rotate to different disks, so a
/// single dead disk never loses both copies of a record. Records are
/// self-validating: a genuine record's bitmap has exactly `m` set bits,
/// while an erased (zeroed) or padding slot has none.
#[derive(Debug)]
struct Manifest {
    replicas: [Region; 2],
    records: usize,
    recs_per_block: usize,
}

impl Manifest {
    /// Linear manifest blocks needed for `records` records.
    fn blocks(&self) -> usize {
        self.records.div_ceil(self.recs_per_block).max(1)
    }

    /// Address of linear block `j` in `replica` (0 or 1): row `j / d`,
    /// disk `(j + replica) % d` — the rotation that keeps the copies of
    /// any record on two different disks.
    fn addr(&self, replica: usize, j: usize) -> BlockAddr {
        let r = &self.replicas[replica];
        r.addr((j + replica) % r.disks, j / r.disks)
    }
}

/// The one-probe static dictionary of Theorem 6, generic over the
/// (striped) expander powering it. `G = FamilyExpander` is the default
/// (any of the pluggable hash families, chosen by `params.family`);
/// [`OneProbeStatic::build_with_graph`] accepts any striped
/// [`NeighborFn`] — in particular the Section 5 semi-explicit
/// construction after trivial striping, which yields the paper's fully
/// semi-explicit dictionary end to end.
#[derive(Debug)]
pub struct OneProbeStatic<G: NeighborFn = FamilyExpander> {
    variant: VariantImpl,
    graph: G,
    /// The build attempt whose graph this is ([`super::attempt_seed`]).
    attempt: u32,
    n: usize,
    sigma_words: usize,
}

impl OneProbeStatic<FamilyExpander> {
    /// Build the dictionary for `entries` (keys with equal-width
    /// satellite data) starting at `first_disk`, drawing an expander
    /// from `params.family` with seed `params.seed`. Case (a) uses `2d`
    /// disks, case (b) uses `d`. A graph that fails to expand for
    /// `entries` is redrawn at the next attempt's seed
    /// ([`super::BUILD_ATTEMPTS`]); [`attempt`](Self::attempt) says which
    /// one the structure holds.
    ///
    /// Returns the structure and the measured construction cost (of the
    /// attempt that succeeded).
    pub fn build(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        params: &DictParams,
        variant: OneProbeVariant,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<(Self, ConstructStats), DictError> {
        // (n, ε)-expander with v = slack·n·d, i.e. slack·n per stripe.
        let n = entries.len().max(1);
        let stripe = ((params.right_slack * n as f64).ceil() as usize).max(4);
        let ((dict, stats), attempt) = super::with_retries(disks, alloc, |disks, alloc, attempt| {
            let params = DictParams { seed: super::attempt_seed(params.seed, attempt), ..*params };
            let graph = params.family.build(params.universe, stripe, params.degree, params.seed);
            Self::build_with_graph(disks, alloc, first_disk, &params, variant, graph, entries)
        })?;
        Ok((OneProbeStatic { attempt, ..dict }, stats))
    }
}

impl<G: NeighborFn> OneProbeStatic<G> {
    /// Build over a caller-supplied striped expander.
    ///
    /// The graph must be striped with `degree == params.degree`; its
    /// stripe size determines the field arrays' size.
    pub fn build_with_graph(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        params: &DictParams,
        variant: OneProbeVariant,
        graph: G,
        entries: &[(u64, Vec<Word>)],
    ) -> Result<(Self, ConstructStats), DictError> {
        params.validate(disks.config(), matches!(variant, OneProbeVariant::CaseA))?;
        if !graph.is_striped() {
            return Err(DictError::UnsupportedParams(
                "the parallel disk model needs a striped expander (the parallel disk head \
                 model lifts this; see expander::TriviallyStriped)"
                    .into(),
            ));
        }
        if graph.degree() != params.degree {
            return Err(DictError::UnsupportedParams(format!(
                "graph degree {} does not match configured degree {}",
                graph.degree(),
                params.degree
            )));
        }
        let n = entries.len().max(1);
        let d = params.degree;
        let m = params.fields_per_key();
        let sigma_words = params.satellite_words;
        if entries.iter().any(|(_, s)| s.len() != sigma_words) {
            return Err(DictError::UnsupportedParams(
                "all satellites must have the configured width".into(),
            ));
        }
        let sigma_bits = sigma_words * WORD_BITS;
        let stripe = graph.stripe_size();

        match variant {
            OneProbeVariant::CaseB => {
                let enc = CaseB::new(n, sigma_bits, d);
                let fields =
                    FieldArray::create(disks, alloc, first_disk, d, stripe, enc.field_bits())?;
                let field_words = enc.field_bits().div_ceil(WORD_BITS);
                // Rank-ordered (key, stripe-bitmap) records for the scrub
                // manifest, filled as the construction assigns stripes.
                let mut records: Vec<(u64, u64)> = vec![(0, 0); entries.len()];
                let stats = sorted_construct(
                    disks,
                    &graph,
                    &fields,
                    entries,
                    m,
                    field_words,
                    |key, rank, stripes, satellite| {
                        if d <= WORD_BITS {
                            let bitmap = stripes.iter().fold(0u64, |b, &s| b | 1 << s);
                            records[rank as usize] = (key, bitmap);
                        }
                        (0..stripes.len())
                            .map(|t| (stripes[t], enc.encode(rank, satellite, t)))
                            .collect()
                    },
                )?;
                let mut stats = stats;
                let manifest = Self::write_manifest(
                    disks,
                    alloc,
                    first_disk,
                    d,
                    &records,
                    &mut stats.cost,
                );
                Ok((
                    OneProbeStatic {
                        variant: VariantImpl::B {
                            fields,
                            enc,
                            manifest,
                        },
                        graph,
                        attempt: 0,
                        n: entries.len(),
                        sigma_words,
                    },
                    stats,
                ))
            }
            OneProbeVariant::CaseA => {
                let enc = Chain::new(sigma_bits, d);
                // Membership on disks [first, first+d): key -> head stripe.
                let mcfg =
                    BasicDictConfig::log_load(n, params.universe, d, 1, params.seed ^ 0xA11C_E55E)
                        .with_family(params.family);
                let membership = BasicDict::create(disks, alloc, first_disk, mcfg)?;
                if membership.blocks_per_bucket() != 1 {
                    return Err(DictError::UnsupportedParams(format!(
                        "case (a) requires B = Ω(log n): a bucket of {} slots must fit one \
                         block of {} words",
                        membership.config().bucket_slots,
                        disks.block_words()
                    )));
                }
                // Retrieval on disks [first+d, first+2d).
                let fields =
                    FieldArray::create(disks, alloc, first_disk + d, d, stripe, enc.field_bits)?;
                let field_words = enc.field_words();
                let mut heads: Vec<(u64, Vec<Word>)> = Vec::with_capacity(entries.len());
                let stats = sorted_construct(
                    disks,
                    &graph,
                    &fields,
                    entries,
                    m,
                    field_words,
                    |key, _rank, stripes, satellite| {
                        heads.push((key, vec![stripes[0] as Word]));
                        let encoded = enc.encode(stripes, satellite);
                        let fields = encoded.chunks(field_words).map(<[Word]>::to_vec);
                        stripes.iter().copied().zip(fields).collect()
                    },
                )?;
                let mut membership = membership;
                let mcost = membership.bulk_build(disks, &heads)?;
                let mut stats = stats;
                stats.cost = stats.cost.plus(mcost);
                Ok((
                    OneProbeStatic {
                        variant: VariantImpl::A {
                            membership,
                            fields,
                            enc,
                        },
                        graph,
                        attempt: 0,
                        n: entries.len(),
                        sigma_words,
                    },
                    stats,
                ))
            }
        }
    }

    /// Allocate and write the case (b) scrub manifest: two rotated
    /// replicas of the rank-ordered `(key, stripe-bitmap)` records.
    /// `None` when the geometry cannot support it (blocks of fewer than
    /// two words, a single disk, or `d > 64` stripes per bitmap word).
    fn write_manifest(
        disks: &mut DiskArray,
        alloc: &mut DiskAllocator,
        first_disk: usize,
        d: usize,
        records: &[(u64, u64)],
        cost: &mut OpCost,
    ) -> Option<Manifest> {
        let bw = disks.block_words();
        if !(2..=WORD_BITS).contains(&d) || bw < 2 || records.is_empty() {
            return None;
        }
        let recs_per_block = bw / 2;
        let blocks = records.len().div_ceil(recs_per_block);
        let rows = blocks.div_ceil(d);
        let replicas = [
            alloc.alloc(disks, first_disk, d, rows),
            alloc.alloc(disks, first_disk, d, rows),
        ];
        let manifest = Manifest {
            replicas,
            records: records.len(),
            recs_per_block,
        };
        let scope = disks.begin_op();
        for j in 0..blocks {
            let mut img = vec![0 as Word; bw];
            for (k, &(key, bitmap)) in records
                .iter()
                .skip(j * recs_per_block)
                .take(recs_per_block)
                .enumerate()
            {
                img[2 * k] = key;
                img[2 * k + 1] = bitmap;
            }
            let writes = [
                (manifest.addr(0, j), img.as_slice()),
                (manifest.addr(1, j), img.as_slice()),
            ];
            disks.write(&writes, WriteOptions::default());
        }
        *cost = cost.plus(disks.end_op(scope));
        Some(manifest)
    }

    /// Number of keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dictionary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The build attempt whose graph this structure holds: 0 for a graph
    /// that expanded at the configured seed (always, over a caller's graph).
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Satellite width in words.
    #[must_use]
    pub fn satellite_words(&self) -> usize {
        self.sigma_words
    }

    /// Space usage in words.
    #[must_use]
    pub fn space_words(&self, disks: &DiskArray) -> usize {
        match &self.variant {
            VariantImpl::B { fields, .. } => fields.space_words(disks),
            VariantImpl::A {
                membership, fields, ..
            } => membership.space_words(disks) + fields.space_words(disks),
        }
    }

    /// One-probe lookup: a single batched parallel I/O.
    pub fn lookup(&self, disks: &mut DiskArray, key: u64) -> LookupOutcome {
        let out = self.lookup_shared(disks, key);
        disks.charge_cost(out.cost);
        out
    }

    /// Batched lookup: every key's single probe is planned as one batch,
    /// so `m` lookups cost the per-disk maximum of *unique* blocks rather
    /// than `m` parallel I/Os — with independent keys and `D` disks the
    /// probes stripe across the array and the whole batch approaches
    /// `⌈m·d/D⌉` (or better, when keys share blocks).
    ///
    /// Results are byte-identical to calling [`Self::lookup`] per key.
    pub fn lookup_batch(
        &self,
        disks: &mut DiskArray,
        keys: &[u64],
    ) -> (Vec<Option<Vec<Word>>>, OpCost) {
        let scope = disks.begin_op();
        let mut all: Vec<BlockAddr> = Vec::new();
        let mut meta = Vec::with_capacity(keys.len());
        for &key in keys {
            let start = all.len();
            let (positions, msplit) = self.probe(key, &mut all);
            meta.push((positions, start..all.len(), msplit));
        }
        let plan = BatchPlan::new(disks.disks(), &all);
        let reads = plan.execute_read(disks);
        let results = keys
            .iter()
            .zip(meta)
            .map(|(&key, (positions, range, msplit))| {
                let ok = |i: usize| reads.health(range.start + i).is_ok();
                self.decode_probe(key, &positions, msplit, &reads.sub(range.clone()), ok)
                    .0
            })
            .collect();
        (results, disks.end_op(scope))
    }

    /// Append `key`'s single probe to `addrs` — for case (a) the
    /// membership buckets on the first `d` disks, then for both cases its
    /// `d` fields — and return the fields' positions and how many of the
    /// appended addresses are membership addresses.
    fn probe(&self, key: u64, addrs: &mut Vec<BlockAddr>) -> (Vec<FieldPos>, usize) {
        let positions: Vec<FieldPos> = self
            .graph
            .neighbors(key)
            .into_iter()
            .map(|y| self.graph.stripe_of(y))
            .collect();
        let start = addrs.len();
        let fields = match &self.variant {
            VariantImpl::B { fields, .. } => fields,
            VariantImpl::A {
                membership, fields, ..
            } => {
                membership.extend_probe_addrs(key, addrs);
                fields
            }
        };
        let msplit = addrs.len() - start;
        addrs.extend(fields.probe_addrs(positions.iter().copied()));
        (positions, msplit)
    }

    /// Decode `key` from the blocks read for its [`probe`](Self::probe);
    /// `ok(i)` is whether block `i` of them read cleanly. Returns the
    /// satellite and whether parity had to complete it.
    fn decode_probe(
        &self,
        key: u64,
        positions: &[FieldPos],
        msplit: usize,
        blocks: &impl BlockView,
        ok: impl Fn(usize) -> bool,
    ) -> (Option<Vec<Word>>, bool) {
        let fblocks = blocks.sub(msplit..blocks.len());
        let mut raw = Vec::new();
        let sized = |mut s: Vec<Word>| {
            s.truncate(self.sigma_words);
            s.resize(self.sigma_words, 0);
            s
        };
        match &self.variant {
            VariantImpl::B { fields, enc, .. } => {
                fields.extract(positions.iter().copied(), &fblocks, &mut raw);
                let erased: Vec<bool> = (0..positions.len()).map(|i| !ok(i)).collect();
                match enc.decode_detail(&raw, &erased) {
                    Some((_, sat, repaired)) => (Some(sized(sat)), repaired),
                    None => (None, false),
                }
            }
            VariantImpl::A {
                membership,
                fields,
                enc,
            } => {
                // Damaged blocks arrive sanitized to zero, which every
                // decoder reads as absent/unoccupied — the chain format
                // has no parity, so damage fails closed to a miss.
                let head = membership.find_with(key, &blocks.sub(0..msplit), |p| p[0] as usize);
                let satellite = head.and_then(|head| {
                    fields.extract(positions.iter().copied(), &fblocks, &mut raw);
                    enc.decode(head, &raw).map(sized)
                });
                (satellite, false)
            }
        }
    }

    /// One-probe lookup through a **shared** reference — the paper's
    /// concurrency property made literal: the structure is static, probe
    /// addresses are pure functions of the key, and no data ever moves,
    /// so any number of threads may call this simultaneously (see the
    /// `concurrent_reads` example). The returned cost is computed but not
    /// recorded in the array's counters.
    ///
    /// One batch probes everything: for case (a) the membership buckets on
    /// the first `d` disks and the fields on the second `d` disks.
    #[must_use]
    pub fn lookup_shared(&self, disks: &DiskArray, key: u64) -> LookupOutcome {
        let mut addrs = Vec::new();
        let (positions, msplit) = self.probe(key, &mut addrs);
        let out = disks.read_shared(&addrs, ReadOptions::verified());
        let ok = |i: usize| out.healths[i].is_ok();
        let (satellite, parity_used) = self.decode_probe(key, &positions, msplit, &out.blocks, ok);
        if out.all_ok() && !parity_used {
            LookupOutcome::new(satellite, out.cost)
        } else {
            LookupOutcome::degraded(satellite, out.cost)
        }
    }

    /// Scrub-and-repair pass.
    ///
    /// Case (b) with a manifest: walks both manifest replicas and the
    /// whole field array with verified reads, re-derives every key's
    /// field positions from the expander (`neighbors(key)[s]` for each
    /// stripe in its bitmap), detects damaged fields *by parsing* (a
    /// genuine field carries `id == rank` and its slot index, so zeroed
    /// or rotted fields are identified even without checksums), erasure-
    /// decodes each damaged key's record through the XOR parity, re-
    /// encodes the lost fields, and rewrites repaired blocks — which
    /// reseals their checksums. Manifest replicas repair each other.
    ///
    /// Case (a) — the chain format has no field-level redundancy — falls
    /// back to [`DiskArray::scrub_verify`] (detection only).
    pub fn scrub(&self, disks: &mut DiskArray) -> ScrubReport {
        let VariantImpl::B {
            fields,
            enc,
            manifest: Some(manifest),
        } = &self.variant
        else {
            return disks.scrub_verify();
        };
        let scope = disks.begin_op();
        let mut report = ScrubReport::default();
        let d = enc.degree;
        let m = enc.fields_per_key;
        let count_bad = |report: &mut ScrubReport, healths: &[BlockHealth]| {
            report.checksum_failures += healths
                .iter()
                .filter(|h| matches!(h, BlockHealth::ChecksumMismatch))
                .count() as u64;
        };

        // Read both manifest replicas (damaged blocks arrive zeroed).
        let mblocks = manifest.blocks();
        let mut rep_imgs: Vec<BlockBuf> = Vec::with_capacity(2);
        for replica in 0..2 {
            let addrs: Vec<BlockAddr> = (0..mblocks).map(|j| manifest.addr(replica, j)).collect();
            let out = disks.read(&addrs, ReadOptions::verified());
            // Scrub patches what it read, and holds it across reads.
            let (imgs, healths) = (out.blocks.into_buf(), out.healths);
            report.blocks_scanned += mblocks as u64;
            count_bad(&mut report, &healths);
            rep_imgs.push(imgs);
        }

        // Reconstruct the record list, repairing one replica from the
        // other. A record is valid iff its bitmap has exactly m set bits
        // within the d stripes (zeroed and padding slots have none).
        let valid = |key_bm: (u64, u64)| {
            let bm = key_bm.1;
            bm.count_ones() as usize == m && (d == WORD_BITS || bm >> d == 0)
        };
        let mut records: Vec<Option<(u64, u64)>> = Vec::with_capacity(manifest.records);
        let mut dirty_manifest = [vec![false; mblocks], vec![false; mblocks]];
        for i in 0..manifest.records {
            let j = i / manifest.recs_per_block;
            let k = i % manifest.recs_per_block;
            let copies = [
                (rep_imgs[0][j][2 * k], rep_imgs[0][j][2 * k + 1]),
                (rep_imgs[1][j][2 * k], rep_imgs[1][j][2 * k + 1]),
            ];
            let rec = match (valid(copies[0]), valid(copies[1])) {
                (true, _) => Some(copies[0]),
                (false, true) => Some(copies[1]),
                (false, false) => {
                    report.unrepairable_keys += 1;
                    None
                }
            };
            if let Some(rec) = rec {
                for (r, &copy) in copies.iter().enumerate() {
                    if copy != rec {
                        rep_imgs[r].block_mut(j)[2 * k..2 * k + 2].copy_from_slice(&[rec.0, rec.1]);
                        dirty_manifest[r][j] = true;
                    }
                }
            }
            records.push(rec);
        }

        // Read the whole field array, row by row (one parallel I/O each).
        let rows = fields.region().blocks_per_disk;
        let mut imgs: Vec<BlockBuf> = Vec::with_capacity(rows); // [row][stripe]
        for row in 0..rows {
            let addrs: Vec<BlockAddr> = (0..d).map(|s| fields.addr_of_row(s, row)).collect();
            let out = disks.read(&addrs, ReadOptions::verified());
            let (blocks, healths) = (out.blocks.into_buf(), out.healths);
            report.blocks_scanned += d as u64;
            count_bad(&mut report, &healths);
            imgs.push(blocks);
        }

        // Per key: verify the m fields by parsing, erasure-decode the
        // record if any are damaged, re-encode and patch them in place.
        let fpb = fields.fields_per_block();
        let field_words = enc.field_bits().div_ceil(WORD_BITS);
        let mut repaired_per_block: std::collections::HashMap<(usize, usize), u64> =
            std::collections::HashMap::new();
        for (i, rec) in records.iter().enumerate() {
            let Some((key, bitmap)) = *rec else { continue };
            let stripes: Vec<usize> = (0..d).filter(|s| bitmap >> s & 1 == 1).collect();
            let neighbors = self.graph.neighbors(key);
            let positions: Vec<(usize, usize)> = stripes
                .iter()
                .map(|&s| self.graph.stripe_of(neighbors[s]))
                .collect();
            let mut probe = vec![0 as Word; d * field_words];
            let mut erased = vec![false; d];
            let mut damaged: Vec<usize> = Vec::new(); // slot indexes
            let mut f = Vec::new();
            for (t, &(s, j)) in positions.iter().enumerate() {
                fields.extract([(s, j)], &imgs[j / fpb].sub(s..s + 1), &mut f);
                let ok = enc
                    .parse_header(&f)
                    .is_some_and(|h| h.id == i as u64 && h.slot == t);
                if ok {
                    probe[s * field_words..(s + 1) * field_words].copy_from_slice(&f);
                } else {
                    erased[s] = true;
                    damaged.push(t);
                }
            }
            if damaged.is_empty() {
                continue;
            }
            match enc.decode_erasure(&probe, &erased) {
                Some((id, sat)) if id == i as u64 => {
                    for &t in &damaged {
                        let (s, j) = positions[t];
                        let new_field = enc.encode(i as u64, &sat, t);
                        fields.patch((s, j), imgs[j / fpb].block_mut(s), &new_field);
                        *repaired_per_block.entry((s, j / fpb)).or_insert(0) += 1;
                    }
                }
                _ => report.unrepairable_keys += 1,
            }
        }

        // Flush repaired blocks; checksums reseal on write. Writes the
        // fault plan still drops (an in-place dead disk) are not counted
        // as repairs — run the scrub again after the disk is replaced.
        let mut writes: Vec<(BlockAddr, &[Word], u64)> = Vec::new();
        for (&(s, row), &nf) in &repaired_per_block {
            writes.push((fields.addr_of_row(s, row), &imgs[row][s], nf));
        }
        for r in 0..2 {
            for j in 0..mblocks {
                if dirty_manifest[r][j] {
                    writes.push((manifest.addr(r, j), &rep_imgs[r][j], 0));
                }
            }
        }
        if !writes.is_empty() {
            let batch: Vec<(BlockAddr, &[Word])> = writes.iter().map(|&(a, w, _)| (a, w)).collect();
            // Route the repair flush through the intent journal when one
            // is enabled: a crash mid-flush must never leave a previously
            // Degraded-but-decodable block half-rewritten (and thus
            // unreadable) — recovery replays the whole repair or none.
            let healths = if disks.journal_enabled() {
                disks.journaled_write_batch_checked(&batch, &[])
            } else {
                disks.write(&batch, WriteOptions::checked()).healths
            };
            for (&(_, _, nf), h) in writes.iter().zip(&healths) {
                if h.is_ok() {
                    report.repaired_blocks += 1;
                    report.repaired_fields += nf;
                }
            }
        }
        report.cost = disks.end_op(scope);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::PdmConfig;

    fn entries(n: usize, sigma: usize) -> Vec<(u64, Vec<Word>)> {
        (0..n as u64)
            .map(|k| {
                let key = k.wrapping_mul(0x9E37_79B9).wrapping_add(7) % (1 << 30);
                (key, (0..sigma as u64).map(|i| key ^ (i << 32)).collect())
            })
            .collect()
    }

    fn params(n: usize, sigma: usize) -> DictParams {
        DictParams::new(n, 1 << 30, sigma)
            .with_degree(13)
            .with_seed(77)
    }

    fn build(
        variant: OneProbeVariant,
        n: usize,
        sigma: usize,
    ) -> (DiskArray, OneProbeStatic, ConstructStats) {
        let d = 13;
        let disks_needed = match variant {
            OneProbeVariant::CaseA => 2 * d,
            OneProbeVariant::CaseB => d,
        };
        let mut disks = DiskArray::new(PdmConfig::new(disks_needed, 64), 0);
        let mut alloc = DiskAllocator::new(disks_needed);
        let es = entries(n, sigma);
        let (dict, stats) =
            OneProbeStatic::build(&mut disks, &mut alloc, 0, &params(n, sigma), variant, &es)
                .unwrap();
        (disks, dict, stats)
    }

    #[test]
    fn case_b_lookups_are_one_io_and_correct() {
        let (mut disks, dict, _) = build(OneProbeVariant::CaseB, 150, 2);
        for (key, sat) in entries(150, 2) {
            let out = dict.lookup(&mut disks, key);
            assert_eq!(out.satellite, Some(sat), "key {key}");
            assert_eq!(out.cost.parallel_ios, 1, "one-probe violated");
        }
    }

    #[test]
    fn case_a_lookups_are_one_io_and_correct() {
        let (mut disks, dict, _) = build(OneProbeVariant::CaseA, 150, 3);
        for (key, sat) in entries(150, 3) {
            let out = dict.lookup(&mut disks, key);
            assert_eq!(out.satellite, Some(sat), "key {key}");
            assert_eq!(out.cost.parallel_ios, 1, "one-probe violated");
        }
    }

    #[test]
    fn case_a_misses_have_no_false_positives() {
        let (mut disks, dict, _) = build(OneProbeVariant::CaseA, 100, 1);
        let present: std::collections::HashSet<u64> =
            entries(100, 1).into_iter().map(|(k, _)| k).collect();
        for probe in 0..2000u64 {
            if !present.contains(&probe) {
                let out = dict.lookup(&mut disks, probe);
                assert!(out.satellite.is_none(), "false positive at {probe}");
                assert_eq!(out.cost.parallel_ios, 1);
            }
        }
    }

    #[test]
    fn case_b_misses_are_rejected_by_majority() {
        let (mut disks, dict, _) = build(OneProbeVariant::CaseB, 100, 1);
        let present: std::collections::HashSet<u64> =
            entries(100, 1).into_iter().map(|(k, _)| k).collect();
        let mut false_pos = 0;
        for probe in 0..2000u64 {
            if !present.contains(&probe) && dict.lookup(&mut disks, probe).found() {
                false_pos += 1;
            }
        }
        // Shared-neighbor bound makes a majority for an absent key
        // impossible when the graph has its parameters; the sampled graph
        // must match that here.
        assert_eq!(false_pos, 0, "{false_pos} false positives");
    }

    #[test]
    fn construction_cost_within_constant_of_sort_bound() {
        let n = 200;
        let d = 13;
        let (disks, _, stats) = build(OneProbeVariant::CaseB, n, 2);
        let bound = pdm::sort_io_bound(disks.config(), n * d, 2).max(1);
        let ratio = stats.cost.parallel_ios as f64 / bound as f64;
        assert!(
            ratio < 40.0,
            "construction {}, sort bound {bound}: ratio {ratio}",
            stats.cost.parallel_ios
        );
    }

    #[test]
    fn zero_sigma_membership_only() {
        let (mut disks, dict, _) = build(OneProbeVariant::CaseB, 80, 0);
        for (key, _) in entries(80, 0) {
            let out = dict.lookup(&mut disks, key);
            assert_eq!(out.satellite, Some(vec![]));
        }
    }

    #[test]
    fn case_b_survives_dead_disk_and_scrub_restores_exact() {
        let (mut disks, dict, _) = build(OneProbeVariant::CaseB, 150, 2);
        disks.enable_integrity();
        let es = entries(150, 2);

        // Kill one disk: every lookup must still return the exact record
        // (single field per key lost, parity covers it), flagged Degraded.
        disks.set_fault_plan(pdm::FaultPlan::new().dead_disk(4));
        let mut degraded = 0;
        for (key, sat) in &es {
            let out = dict.lookup(&mut disks, *key);
            assert_eq!(out.satellite.as_ref(), Some(sat), "key {key} under dead disk");
            if !out.is_exact() {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "some keys must have probed the dead disk");

        // Replace the disk (fault cleared, its data gone) and scrub: all
        // lost fields are re-encoded from parity and rewritten.
        disks.clear_fault_plan();
        let report = dict.scrub(&mut disks);
        assert_eq!(report.unrepairable_keys, 0, "{report:?}");
        assert!(report.repaired_fields > 0, "{report:?}");
        assert!(report.repaired_blocks > 0, "{report:?}");
        assert!(report.cost.parallel_ios > 0);

        // Post-scrub: every lookup is exact again.
        for (key, sat) in &es {
            let out = dict.lookup(&mut disks, *key);
            assert_eq!(out.satellite.as_ref(), Some(sat));
            assert!(out.is_exact(), "key {key} still degraded after scrub");
        }
        // And a second scrub finds nothing left to repair.
        let again = dict.scrub(&mut disks);
        assert_eq!(again.repaired_fields, 0, "{again:?}");
        assert_eq!(again.checksum_failures, 0, "{again:?}");
    }

    #[test]
    fn case_b_scrub_repairs_bit_rot() {
        let (mut disks, dict, _) = build(OneProbeVariant::CaseB, 120, 1);
        disks.enable_integrity();
        // Rot several blocks of ONE disk (a key owns at most one field
        // per disk, so parity covers every key; damage spread over many
        // disks can exceed the single-erasure budget and must instead
        // fail closed — see case_b_two_missing_chunks_fail_closed).
        let mut plan = pdm::FaultPlan::new();
        for b in 0..4usize.min(disks.blocks_on(3)) {
            plan = plan.bit_rot(3, b, (b * 97) as u32);
        }
        disks.set_fault_plan(plan);
        disks.clear_fault_plan();
        let report = dict.scrub(&mut disks);
        assert_eq!(report.unrepairable_keys, 0, "{report:?}");
        for (key, sat) in entries(120, 1) {
            let out = dict.lookup(&mut disks, key);
            assert_eq!(out.satellite, Some(sat), "key {key} after rot+scrub");
            assert!(out.is_exact());
        }
    }

    #[test]
    fn case_a_degrades_to_misses_never_garbage() {
        let (mut disks, dict, _) = build(OneProbeVariant::CaseA, 150, 2);
        disks.enable_integrity();
        disks.set_fault_plan(pdm::FaultPlan::new().dead_disk(3));
        let es = entries(150, 2);
        let mut found = 0;
        for (key, sat) in &es {
            let out = dict.lookup(&mut disks, *key);
            if let Some(got) = &out.satellite {
                assert_eq!(got, sat, "case (a) returned wrong data for {key}");
                found += 1;
            }
        }
        assert!(found < es.len(), "a dead disk must lose some chains");
        assert!(found > 0, "keys avoiding the dead disk must still decode");
    }

    /// The default family over 300 keys at seed 111 (the first seed the
    /// catalogue's seed sweep saw fail at d = 13) does not expand; the build
    /// redraws the graph, and a failed attempt leaves nothing behind: the
    /// array and allocator end exactly as a first-try build over the graph
    /// that expanded leaves them, in both cases.
    #[test]
    fn a_graph_that_does_not_expand_is_redrawn_and_the_failure_leaves_nothing() {
        let es: Vec<(u64, Vec<Word>)> = (0..300u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % (1 << 20))
            .map(|k| (k, vec![k, k ^ (1 << 32)]))
            .collect();
        for (variant, nd) in [(OneProbeVariant::CaseB, 13), (OneProbeVariant::CaseA, 26)] {
            let build = |seed| {
                let mut disks = DiskArray::new(PdmConfig::new(nd, 64), 0);
                let mut alloc = DiskAllocator::new(nd);
                let params = DictParams::new(300, 1 << 21, 2).with_degree(13).with_epsilon(0.5).with_seed(seed);
                let (dict, _) = OneProbeStatic::build(&mut disks, &mut alloc, 0, &params, variant, &es).unwrap();
                (disks, alloc, dict)
            };
            let (mut disks, alloc, dict) = build(111);
            assert!(dict.attempt() > 0, "{variant:?}: seed 111 expanded at once");
            let (first_try, first_alloc, again) = build(super::super::attempt_seed(111, dict.attempt()));
            assert_eq!(again.attempt(), 0);
            assert_eq!(disks.snapshot(), first_try.snapshot(), "{variant:?}");
            assert!((0..nd).all(|d| alloc.used_blocks(d) == first_alloc.used_blocks(d)), "{variant:?}");
            for (key, sat) in &es {
                assert_eq!(dict.lookup_shared(&disks, *key).satellite.as_ref(), Some(sat), "{variant:?}");
            }
            let report = dict.scrub(&mut disks);
            assert_eq!((report.checksum_failures, report.unrepairable_keys), (0, 0), "{variant:?}");
        }
    }

    #[test]
    fn case_a_rejects_tiny_blocks() {
        // B = 4 words cannot hold a log-load bucket: case (a) must refuse.
        let d = 13;
        let mut disks = DiskArray::new(PdmConfig::new(2 * d, 4), 0);
        let mut alloc = DiskAllocator::new(2 * d);
        let es = entries(200, 1);
        let err = OneProbeStatic::build(
            &mut disks,
            &mut alloc,
            0,
            &params(200, 1),
            OneProbeVariant::CaseA,
            &es,
        )
        .unwrap_err();
        assert!(err.to_string().contains("Ω(log n)"), "got: {err}");
    }

    #[test]
    fn mismatched_satellite_width_rejected() {
        let d = 13;
        let mut disks = DiskArray::new(PdmConfig::new(d, 64), 0);
        let mut alloc = DiskAllocator::new(d);
        let es = vec![(1u64, vec![1, 2]), (2u64, vec![3])];
        assert!(OneProbeStatic::build(
            &mut disks,
            &mut alloc,
            0,
            &params(2, 2),
            OneProbeVariant::CaseB,
            &es
        )
        .is_err());
    }
}

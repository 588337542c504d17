//! Field formats of the one-probe dictionaries.
//!
//! Every key owns `m = ⌈2d/3⌉` fields among its `d` neighbors (Theorem 6
//! with `λ = 1/3`). Two formats pack its `σ`-bit record into them:
//!
//! * **Case (b)** (small blocks): each field is
//!   `[present:1][identifier:⌈lg n⌉][slot:⌈lg m⌉][chunk:⌈σ/(m−1)⌉]`. A
//!   lookup reads all `d` fields of `Γ(x)` and looks for an identifier
//!   "that appears in more than half of the fields"; since distinct keys
//!   share at most `ε·d < d/12` neighbors, only the owner can reach the
//!   `m > d/2` majority. The explicit slot index (the paper stores the
//!   chunks "in stripe order"; carrying the index instead costs `⌈lg m⌉`
//!   extra bits) makes the format *erasure-tolerant*: slot `m−1` holds the
//!   XOR parity of the `m−1` data chunks, so any single lost or corrupted
//!   field — a dead disk under Theorem 6's "one field per disk" layout —
//!   is identified by its missing slot and reconstructed from parity.
//! * **Case (a)** (blocks hold `Ω(log n)` keys): membership and the head
//!   pointer live in a Section 4.1 dictionary, and the fields carry only
//!   `[occupied:1][unary pointer][data…]`: the unary value is the stripe
//!   *delta* to the key's next field, `0` marks the tail, and the rest of
//!   the field is record data — "the fraction of an array field dedicated
//!   to pointer data will vary among fields".

use pdm::bits::{bits_for, copy_bits, BitReader, BitWriter};
use pdm::{Word, WORD_BITS};

/// Case (b) field format with per-field slot indexes and XOR parity.
///
/// The `m = ⌈2d/3⌉` fields of a key hold `m−1` data chunks (slots
/// `0..m−1`) and one parity chunk (slot `m−1`, the XOR of all data
/// chunks), except in the degenerate `m = 1` case where the single field
/// carries the whole record and there is no parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseB {
    /// Identifier width `⌈lg n⌉`.
    pub id_bits: usize,
    /// Slot-index width `⌈lg m⌉`.
    pub slot_bits: usize,
    /// Chunk width `⌈σ/(m−1)⌉` (or `σ` when `m = 1`).
    pub chunk_bits: usize,
    /// Fields per key `m = ⌈2d/3⌉`.
    pub fields_per_key: usize,
    /// Record size `σ` in bits.
    pub sigma_bits: usize,
    /// Graph degree `d`.
    pub degree: usize,
}

/// A parsed case (b) field header: the owning key's identifier and the
/// slot index of the chunk it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldHeader {
    /// The identifier (construction rank) of the owning key.
    pub id: u64,
    /// Which of the key's `m` slots this field holds.
    pub slot: usize,
}

impl CaseB {
    /// Format for `n` keys with `σ = sigma_bits` on a degree-`d` graph.
    #[must_use]
    pub fn new(n: usize, sigma_bits: usize, degree: usize) -> Self {
        let fields_per_key = expander::params::fields_per_key(degree);
        let data_chunks = (fields_per_key - 1).max(1);
        CaseB {
            id_bits: bits_for(n.max(2) as u64),
            slot_bits: bits_for(fields_per_key.max(2) as u64),
            chunk_bits: sigma_bits.div_ceil(data_chunks),
            fields_per_key,
            sigma_bits,
            degree,
        }
    }

    /// Number of data-carrying chunks (`m−1`, or `1` when `m = 1`).
    #[must_use]
    pub fn data_chunks(&self) -> usize {
        (self.fields_per_key - 1).max(1)
    }

    /// Whether the format has a parity slot (`m ≥ 2`).
    #[must_use]
    pub fn has_parity(&self) -> bool {
        self.fields_per_key >= 2
    }

    /// Total bits per field.
    #[must_use]
    pub fn field_bits(&self) -> usize {
        1 + self.id_bits + self.slot_bits + self.chunk_bits
    }

    /// Words one field occupies in a flat field buffer
    /// ([`crate::fields::FieldArray::extract`]).
    #[must_use]
    pub fn field_words(&self) -> usize {
        self.field_bits().div_ceil(WORD_BITS)
    }

    /// Bit `b` of data chunk `t` of `satellite` (bits past `σ` read 0).
    fn data_bit(&self, satellite: &[Word], t: usize, b: usize) -> bool {
        let bit = t * self.chunk_bits + b;
        bit < self.sigma_bits && (satellite[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1 == 1
    }

    /// Bit `b` of the chunk at slot `t`: a data chunk for `t < m−1`, the
    /// XOR parity of all data chunks for `t = m−1`.
    fn chunk_bit(&self, satellite: &[Word], t: usize, b: usize) -> bool {
        if self.has_parity() && t == self.fields_per_key - 1 {
            (0..self.data_chunks()).fold(false, |acc, c| acc ^ self.data_bit(satellite, c, b))
        } else {
            self.data_bit(satellite, t, b)
        }
    }

    /// Encode slot `t` of `satellite` for the key with identifier `id`.
    #[must_use]
    pub fn encode(&self, id: u64, satellite: &[Word], t: usize) -> Vec<Word> {
        debug_assert!(t < self.fields_per_key);
        let mut w = BitWriter::new();
        w.write_bit(true); // present
        w.write_bits(id, self.id_bits);
        w.write_bits(t as u64, self.slot_bits);
        for b in 0..self.chunk_bits {
            w.write_bit(self.chunk_bit(satellite, t, b));
        }
        let mut words = w.into_words();
        words.resize(self.field_words(), 0);
        words
    }

    /// Parse a field's header. `None` for an unoccupied field (present bit
    /// clear — which is how an erased, all-zero field parses) or a field
    /// claiming an out-of-range slot (only possible under corruption).
    #[must_use]
    pub fn parse_header(&self, field: &[Word]) -> Option<FieldHeader> {
        let mut r = BitReader::new(field);
        if !r.read_bit() {
            return None;
        }
        let id = r.read_bits(self.id_bits);
        let slot = r.read_bits(self.slot_bits) as usize;
        (slot < self.fields_per_key).then_some(FieldHeader { id, slot })
    }

    /// Decode a lookup from the `d` fields of `Γ(x)`, back to back in
    /// stripe order ([`field_words`](CaseB::field_words) each) — the
    /// healthy-read path, equivalent to
    /// [`decode_erasure`](CaseB::decode_erasure) with no erasures.
    #[must_use]
    pub fn decode(&self, fields: &[Word]) -> Option<(u64, Vec<Word>)> {
        self.decode_erasure(fields, &vec![false; self.degree])
    }

    /// Decode a lookup when some probed fields are *erasures* — reads the
    /// disk layer reported unhealthy (dead disk, checksum mismatch), whose
    /// content arrives sanitized to zero. `erased[i]` flags field `i`.
    ///
    /// The majority rule is adapted for `e` erasures: an identifier with
    /// `c` surviving fields wins iff `2c > d − e` (a majority of the
    /// *readable* fields) **and** `12c > d` (still above the `ε·d < d/12`
    /// overlap bound, so no impostor key can be promoted by erasing the
    /// owner's fields). With `e = 0` this is exactly the paper's
    /// `c > d/2` rule.
    ///
    /// Chunks are placed by their explicit slot index; a single missing
    /// data chunk is reconstructed from the parity slot. Returns `None`
    /// when no identifier wins or more chunks are missing than parity can
    /// repair (fail closed: never fabricate satellite bits).
    #[must_use]
    pub fn decode_erasure(&self, fields: &[Word], erased: &[bool]) -> Option<(u64, Vec<Word>)> {
        self.decode_detail(fields, erased).map(|(id, sat, _)| (id, sat))
    }

    /// [`decode_erasure`](CaseB::decode_erasure) plus a `repaired` flag:
    /// `true` when any of the winner's fields was missing (erased, wiped,
    /// or claimed by corruption) and the record was completed from parity
    /// — i.e. the answer is correct but the stored fields need repair.
    #[must_use]
    pub fn decode_detail(
        &self,
        fields: &[Word],
        erased: &[bool],
    ) -> Option<(u64, Vec<Word>, bool)> {
        debug_assert_eq!(fields.len(), self.degree * self.field_words());
        debug_assert_eq!(erased.len(), self.degree);
        let fields = fields.chunks_exact(self.field_words());
        let e = erased.iter().filter(|&&x| x).count();
        // Parse surviving headers.
        let parsed: Vec<Option<FieldHeader>> = fields
            .clone()
            .zip(erased)
            .map(|(f, &gone)| if gone { None } else { self.parse_header(f) })
            .collect();
        // Majority identifier among survivors.
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for h in parsed.iter().flatten() {
            *counts.entry(h.id).or_insert(0) += 1;
        }
        let (&winner, &count) = counts.iter().max_by_key(|&(_, &c)| c)?;
        if 2 * count <= self.degree - e || 12 * count <= self.degree {
            return None;
        }
        // Collect the winner's chunks by slot.
        let mut chunks: Vec<Option<&[Word]>> = vec![None; self.fields_per_key];
        for (f, h) in fields.zip(&parsed) {
            if let Some(h) = h {
                if h.id == winner && chunks[h.slot].is_none() {
                    chunks[h.slot] = Some(f);
                }
            }
        }
        let missing: Vec<usize> = (0..self.data_chunks())
            .filter(|&t| chunks[t].is_none())
            .collect();
        let parity_slot = self.fields_per_key - 1;
        if missing.len() > 1
            || (missing.len() == 1 && !self.has_parity())
            || (missing.len() == 1 && chunks[parity_slot].is_none())
        {
            return None; // beyond single-erasure repair: fail closed
        }
        let repaired = chunks.iter().any(Option::is_none);
        // Merge chunks into the record, reconstructing at most one from
        // parity (missing data bit = parity bit XOR all other data bits).
        let mut out = vec![0 as Word; self.sigma_bits.div_ceil(WORD_BITS).max(1)];
        let chunk_payload = |f: &[Word], b: usize| {
            let mut r = BitReader::new(f);
            r.seek(1 + self.id_bits + self.slot_bits + b);
            r.read_bit()
        };
        for t in 0..self.data_chunks() {
            for b in 0..self.chunk_bits {
                let bit = t * self.chunk_bits + b;
                if bit >= self.sigma_bits {
                    break;
                }
                let val = match chunks[t] {
                    Some(f) => chunk_payload(f, b),
                    None => (0..self.fields_per_key)
                        .filter(|&s| s != t)
                        .filter_map(|s| chunks[s])
                        .fold(false, |acc, f| acc ^ chunk_payload(f, b)),
                };
                if val {
                    out[bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
                }
            }
        }
        if self.sigma_bits == 0 {
            out.clear();
        }
        Some((winner, out, repaired))
    }
}

/// Case (a) / dynamic field format: occupied bit, unary stripe-delta
/// chain, then data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    /// Total bits per field.
    pub field_bits: usize,
    /// Record size `σ` in bits.
    pub sigma_bits: usize,
    /// Fields per key `m = ⌈2d/3⌉`.
    pub fields_per_key: usize,
    /// Graph degree `d`.
    pub degree: usize,
}

impl Chain {
    /// Format for `σ = sigma_bits` on a degree-`d` graph.
    ///
    /// Field size is exactly what the worst chain needs. A chain's deltas
    /// sum to at most `d−1`, every field spends an occupied bit and a
    /// terminator, so the `m` fields carry at most `d−1 + 2m` pointer bits
    /// beside the `σ` data bits (the paper's "less than 2d bits per
    /// element"): `⌈(σ + d−1 + 2m)/m⌉` bits a field always has room. And a
    /// single field must hold its own pointer: the largest delta is
    /// `d−m+1` (the other hops are at least 1), `d−m+3` bits in all.
    #[must_use]
    pub fn new(sigma_bits: usize, degree: usize) -> Self {
        let fields_per_key = expander::params::fields_per_key(degree);
        let (m, d) = (fields_per_key, degree);
        let field_bits = (sigma_bits + d - 1 + 2 * m).div_ceil(m).max(d - m + 3);
        Chain {
            field_bits,
            sigma_bits,
            fields_per_key,
            degree,
        }
    }

    /// Words needed to hold one field.
    #[must_use]
    pub fn field_words(&self) -> usize {
        self.field_bits.div_ceil(WORD_BITS)
    }

    /// Encode the record into the fields at `stripes` (strictly
    /// increasing, length `m`). Returns the `m` fields back to back,
    /// [`field_words`](Chain::field_words) each: field `t` belongs at
    /// stripe `stripes[t]`.
    ///
    /// # Panics
    /// Panics if `stripes` is not strictly increasing, has the wrong
    /// length, or the data does not fit (impossible for parameters built
    /// by [`Chain::new`] — enforced by a debug assertion).
    #[must_use]
    pub fn encode(&self, stripes: &[usize], satellite: &[Word]) -> Vec<Word> {
        assert_eq!(stripes.len(), self.fields_per_key, "need m fields");
        assert!(
            stripes.windows(2).all(|w| w[0] < w[1]),
            "stripes must be strictly increasing"
        );
        assert!(*stripes.last().expect("non-empty") < self.degree);
        let mut out = vec![0 as Word; stripes.len() * self.field_words()];
        let mut bit_cursor = 0usize;
        for (t, field) in out.chunks_exact_mut(self.field_words()).enumerate() {
            let delta = stripes.get(t + 1).map_or(0, |next| next - stripes[t]);
            // Occupied bit, then `delta` in unary: `delta + 1` ones and
            // the terminating zero.
            for bit in 0..=delta {
                field[bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
            }
            let data_bits = self.field_bits - (delta + 2);
            let take = data_bits.min(self.sigma_bits.saturating_sub(bit_cursor));
            if take > 0 {
                copy_bits(field, delta + 2, satellite, bit_cursor, take);
            }
            bit_cursor += data_bits;
        }
        debug_assert!(
            bit_cursor >= self.sigma_bits,
            "field capacity miscomputed: wrote {bit_cursor} of {} bits",
            self.sigma_bits
        );
        out
    }

    /// Whether a raw field is occupied.
    #[must_use]
    pub fn is_occupied(&self, field: &[Word]) -> bool {
        field[0] & 1 == 1
    }

    /// Decode a chain starting at `head_stripe`, given all `d` fields of
    /// `Γ(x)` back to back in stripe order
    /// ([`field_words`](Chain::field_words) each). Returns `None` on a
    /// malformed chain (e.g. an unoccupied link — the key was never
    /// stored here).
    #[must_use]
    pub fn decode(&self, head_stripe: usize, fields_by_stripe: &[Word]) -> Option<Vec<Word>> {
        let w = self.field_words();
        debug_assert_eq!(fields_by_stripe.len(), self.degree * w);
        let mut out = vec![0 as Word; self.sigma_bits.div_ceil(WORD_BITS).max(1)];
        let mut bit_cursor = 0usize;
        let mut stripe = head_stripe;
        for _hop in 0..self.fields_per_key {
            if stripe >= self.degree {
                return None;
            }
            let f = &fields_by_stripe[stripe * w..(stripe + 1) * w];
            let mut r = BitReader::new(f);
            if !r.read_bit() {
                return None; // unoccupied link: not a valid chain
            }
            let delta = r.read_unary() as usize;
            // A pointer running past the field is not one `encode` wrote.
            let data_bits = self.field_bits.checked_sub(r.position())?;
            let take = data_bits.min(self.sigma_bits - bit_cursor);
            if take > 0 {
                copy_bits(&mut out, bit_cursor, f, r.position(), take);
            }
            bit_cursor += take;
            if delta == 0 {
                break;
            }
            stripe += delta;
        }
        if bit_cursor < self.sigma_bits {
            return None; // chain ended early
        }
        if self.sigma_bits == 0 {
            out.clear();
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `d` fields of a key's neighborhood, zero except for `encoded`
    /// (the fields [`Chain::encode`] made for `stripes`).
    fn lay_out(enc: &Chain, stripes: &[usize], encoded: &[Word]) -> Vec<Word> {
        let w = enc.field_words();
        let mut fields = vec![0; enc.degree * w];
        for (&s, bits) in stripes.iter().zip(encoded.chunks(w)) {
            fields[s * w..(s + 1) * w].copy_from_slice(bits);
        }
        fields
    }

    fn sat(words: usize, seed: u64) -> Vec<Word> {
        (0..words)
            .map(|i| expander::mix::mix64(seed.wrapping_add(i as u64)))
            .collect()
    }

    #[test]
    fn case_b_roundtrip() {
        let enc = CaseB::new(1000, 256, 15); // m = 10, chunks of 26 bits
        let satellite = sat(4, 7);
        // Simulate: key owns fields at stripes {0,1,2,4,5,7,8,10,12,14}.
        let owner_stripes = [0usize, 1, 2, 4, 5, 7, 8, 10, 12, 14];
        let mut fields = vec![vec![0; enc.field_bits().div_ceil(WORD_BITS)]; 15];
        for (t, &s) in owner_stripes.iter().enumerate() {
            fields[s] = enc.encode(123, &satellite, t);
        }
        // Unrelated keys occupy two other stripes.
        fields[3] = enc.encode(77, &sat(4, 9), 0);
        fields[6] = enc.encode(78, &sat(4, 10), 1);
        let (id, got) = enc.decode(&fields.concat()).expect("majority must be found");
        assert_eq!(id, 123);
        assert_eq!(got, satellite);
    }

    #[test]
    fn case_b_no_false_positive_without_majority() {
        let enc = CaseB::new(1000, 64, 15);
        let mut fields = vec![vec![0; enc.field_bits().div_ceil(WORD_BITS)]; 15];
        // Seven fields of id 5 (not a majority of 15), rest empty.
        for (t, f) in fields.iter_mut().enumerate().take(7) {
            *f = enc.encode(5, &sat(1, 3), t % enc.fields_per_key);
        }
        assert!(enc.decode(&fields.concat()).is_none());
    }

    #[test]
    fn case_b_zero_sigma() {
        let enc = CaseB::new(16, 0, 15);
        let mut fields = vec![vec![0; 1]; 15];
        for (t, &s) in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9].iter().enumerate() {
            fields[s] = enc.encode(3, &[], t);
        }
        let (id, got) = enc.decode(&fields.concat()).unwrap();
        assert_eq!(id, 3);
        assert!(got.is_empty());
    }

    #[test]
    fn case_b_single_erasure_recovers_exact_record() {
        let enc = CaseB::new(1000, 256, 15); // m = 10, 9 data chunks + parity
        let satellite = sat(4, 7);
        let owner_stripes = [0usize, 1, 2, 4, 5, 7, 8, 10, 12, 14];
        let base: Vec<Vec<Word>> = {
            let mut fields = vec![vec![0; enc.field_bits().div_ceil(WORD_BITS)]; 15];
            for (t, &s) in owner_stripes.iter().enumerate() {
                fields[s] = enc.encode(123, &satellite, t);
            }
            fields
        };
        // Erase each owner field in turn — including the parity field —
        // and require the exact record back every time.
        for &s in &owner_stripes {
            let mut fields = base.clone();
            fields[s] = vec![0; fields[s].len()]; // sanitized read
            let mut erased = vec![false; 15];
            erased[s] = true;
            let (id, got) = enc
                .decode_erasure(&fields.concat(), &erased)
                .expect("single erasure must be repairable");
            assert_eq!(id, 123);
            assert_eq!(got, satellite, "erasing stripe {s} corrupted the record");
        }
    }

    #[test]
    fn case_b_zeroed_field_without_erasure_flag_still_recovers() {
        // A wiped field parses as absent (present bit 0) even when the
        // caller has no health information — the explicit slot index
        // identifies the missing chunk and parity fills it in.
        let enc = CaseB::new(1000, 128, 15);
        let satellite = sat(2, 11);
        let owner_stripes = [0usize, 1, 2, 4, 5, 7, 8, 10, 12, 14];
        let mut fields = vec![vec![0; enc.field_bits().div_ceil(WORD_BITS)]; 15];
        for (t, &s) in owner_stripes.iter().enumerate() {
            fields[s] = enc.encode(9, &satellite, t);
        }
        fields[4] = vec![0; fields[4].len()]; // silently lost data chunk
        let (id, got) = enc.decode(&fields.concat()).expect("parity covers one loss");
        assert_eq!(id, 9);
        assert_eq!(got, satellite);
    }

    #[test]
    fn case_b_two_missing_chunks_fail_closed() {
        let enc = CaseB::new(1000, 128, 15);
        let satellite = sat(2, 5);
        let owner_stripes = [0usize, 1, 2, 4, 5, 7, 8, 10, 12, 14];
        let mut fields = vec![vec![0; enc.field_bits().div_ceil(WORD_BITS)]; 15];
        for (t, &s) in owner_stripes.iter().enumerate() {
            fields[s] = enc.encode(9, &satellite, t);
        }
        fields[1] = vec![0; fields[1].len()];
        fields[4] = vec![0; fields[4].len()];
        // Two data chunks gone: majority still holds (8 of 15) but the
        // value is unrecoverable — must return None, never garbage.
        assert!(enc.decode(&fields.concat()).is_none());
    }

    #[test]
    fn case_b_erasures_cannot_promote_an_impostor() {
        let enc = CaseB::new(1000, 64, 15);
        let mut fields = vec![vec![0; enc.field_bits().div_ceil(WORD_BITS)]; 15];
        // An impostor with a single shared field (the ε·d overlap bound);
        // 14 of 15 reads erased, so 2c > d − e would hold for c = 1.
        fields[0] = enc.encode(55, &sat(1, 1), 0);
        let erased: Vec<bool> = (0..15).map(|i| i != 0).collect();
        assert!(
            enc.decode_erasure(&fields.concat(), &erased).is_none(),
            "12c > d guard must reject a 1-field impostor"
        );
    }

    #[test]
    fn case_b_header_parses_slot_and_rejects_out_of_range() {
        let enc = CaseB::new(1000, 64, 15);
        let f = enc.encode(42, &sat(1, 2), 3);
        let h = enc.parse_header(&f).unwrap();
        assert_eq!(h.id, 42);
        assert_eq!(h.slot, 3);
        assert!(enc.parse_header(&vec![0; f.len()]).is_none());
        // Forge a field with slot = m (out of range).
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(42, enc.id_bits);
        w.write_bits(enc.fields_per_key as u64, enc.slot_bits);
        for _ in 0..enc.chunk_bits {
            w.write_bit(false);
        }
        let mut forged = w.into_words();
        forged.resize(enc.field_bits().div_ceil(WORD_BITS), 0);
        assert!(enc.parse_header(&forged).is_none());
    }

    #[test]
    fn chain_roundtrip() {
        let enc = Chain::new(300, 13); // m = 9
        let satellite = sat(5, 42);
        let stripes = [0usize, 1, 3, 4, 6, 8, 9, 11, 12];
        let fields = lay_out(&enc, &stripes, &enc.encode(&stripes, &satellite));
        let got = enc.decode(0, &fields).expect("chain decodes");
        // Compare only the σ bits.
        for bit in 0..300 {
            assert_eq!(
                (got[bit / 64] >> (bit % 64)) & 1,
                (satellite[bit / 64] >> (bit % 64)) & 1,
                "bit {bit} differs"
            );
        }
    }

    #[test]
    fn chain_head_at_nonzero_stripe() {
        let enc = Chain::new(64, 13);
        let satellite = sat(1, 1);
        let stripes: Vec<usize> = (4..13).collect(); // m = 9 fields
        let fields = lay_out(&enc, &stripes, &enc.encode(&stripes, &satellite));
        let got = enc.decode(4, &fields).unwrap();
        assert_eq!(got[0], satellite[0]);
    }

    #[test]
    fn chain_decode_rejects_unoccupied_head() {
        let enc = Chain::new(64, 13);
        let fields = vec![0; 13 * enc.field_words()];
        assert!(enc.decode(0, &fields).is_none());
    }

    #[test]
    fn chain_occupancy_flag() {
        let enc = Chain::new(64, 13);
        let stripes: Vec<usize> = (0..9).collect();
        let encoded = enc.encode(&stripes, &sat(1, 2));
        assert!(enc.is_occupied(&encoded));
        assert!(!enc.is_occupied(&vec![0; enc.field_words()]));
    }

    #[test]
    fn chain_field_is_exactly_as_wide_as_the_worst_chain_needs() {
        for d in [13usize, 16, 20, 24, 48] {
            for sigma in [0usize, 1, 64, 128, 1000, 4096] {
                let enc = Chain::new(sigma, d);
                let m = enc.fields_per_key;
                // Any one field holds the largest pointer: a delta of
                // d - m + 1 in unary, the occupied bit, the terminator.
                let per_field = d - m + 3;
                // All of them hold the record beside the most pointer bits.
                let total = sigma + (d - 1) + 2 * m;
                let bits = enc.field_bits;
                assert!(bits >= per_field && m * bits >= total, "d = {d}, σ = {sigma}: {bits} bits too few");
                assert!(
                    bits - 1 < per_field || m * (bits - 1) < total,
                    "d = {d}, σ = {sigma}: {bits} bits, one fewer would do"
                );
            }
        }
        assert_eq!(Chain::new(128, 20).field_bits, 13, "the served shape");
    }

    /// The σ bits of `satellite`, as [`Chain::decode`] returns them.
    fn first_bits(satellite: &[Word], sigma: usize) -> Vec<Word> {
        let mut out = satellite[..sigma.div_ceil(WORD_BITS)].to_vec();
        if let (Some(last), rem @ 1..) = (out.last_mut(), sigma % WORD_BITS) {
            *last &= (1 << rem) - 1;
        }
        out
    }

    #[test]
    fn chain_roundtrips_over_every_stripe_set_of_the_served_shape() {
        let (d, m) = (20, 14);
        for sigma in [0usize, 1, 128] {
            let enc = Chain::new(sigma, d);
            assert_eq!(enc.fields_per_key, m);
            let satellite = sat(2, sigma as u64);
            let want = first_bits(&satellite, sigma);
            let mut stripes: Vec<usize> = (0..m).collect();
            let mut sets = 0;
            loop {
                let fields = lay_out(&enc, &stripes, &enc.encode(&stripes, &satellite));
                assert_eq!(enc.decode(stripes[0], &fields).as_ref(), Some(&want), "σ = {sigma}, {stripes:?}");
                sets += 1;
                // The next m-subset of 0..d in lexicographic order.
                let Some(i) = (0..m).rev().find(|&i| stripes[i] < d - m + i) else {
                    break;
                };
                stripes[i] += 1;
                for j in i + 1..m {
                    stripes[j] = stripes[j - 1] + 1;
                }
            }
            assert_eq!(sets, 38_760, "C(20, 14) stripe sets");
        }
    }

    #[test]
    fn chain_pointer_running_past_its_field_decodes_none() {
        let enc = Chain::new(128, 20);
        let stripes: Vec<usize> = (0..14).collect();
        let mut fields = lay_out(&enc, &stripes, &enc.encode(&stripes, &sat(2, 3)));
        assert!(enc.decode(0, &fields).is_some());
        // Forge the head: occupied, then ones to the field's last bit, so
        // the unary pointer has no terminator inside the 13 bits.
        fields[0] = (1 << enc.field_bits) - 1;
        assert_eq!(enc.decode(0, &fields), None);
    }

    #[test]
    fn chain_total_capacity_covers_sigma() {
        for d in [13usize, 21, 33] {
            for sigma in [1usize, 100, 777, 4096] {
                let enc = Chain::new(sigma, d);
                let m = enc.fields_per_key;
                // Worst-case pointer bits: deltas sum ≤ d-1, m terminators,
                // m occupied bits.
                let overhead = (d - 1) + 2 * m;
                assert!(
                    m * enc.field_bits >= sigma + overhead,
                    "d = {d}, σ = {sigma}: capacity short"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn chain_rejects_unsorted_stripes() {
        let enc = Chain::new(64, 13);
        let mut stripes: Vec<usize> = (0..9).collect();
        stripes.swap(0, 1);
        let _ = enc.encode(&stripes, &sat(1, 0));
    }
}

//! Property-based tests of the one-probe field encodings — the
//! bit-level formats of Theorem 6 must round-trip for *every* parameter
//! combination, not just the ones the dictionaries happen to pick.

use pdm::{Word, WORD_BITS};
use pdm_dict::one_probe::encoding::{CaseB, Chain};
use proptest::prelude::*;

/// A strictly increasing selection of `m` stripes out of `d`.
fn stripes_strategy(d: usize, m: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::sample::subsequence((0..d).collect::<Vec<_>>(), m)
}

fn sigma_words(sigma_bits: usize) -> usize {
    sigma_bits.div_ceil(WORD_BITS).max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Chain encoding round-trips for arbitrary degree, σ, stripe
    /// selection, and payload.
    #[test]
    fn chain_roundtrip(
        d in 13usize..40,
        sigma_bits in 0usize..600,
        seed in any::<u64>(),
    ) {
        let enc = Chain::new(sigma_bits, d);
        let m = enc.fields_per_key;
        prop_assume!(m <= d);
        // Deterministic stripe choice from the seed (any m-subset).
        let mut stripes: Vec<usize> = (0..d).collect();
        let mut s = seed;
        for i in (1..d).rev() {
            s = expander::mix::mix64(s);
            stripes.swap(i, (s % (i as u64 + 1)) as usize);
        }
        stripes.truncate(m);
        stripes.sort_unstable();

        let satellite: Vec<Word> = (0..sigma_words(sigma_bits) as u64)
            .map(|i| expander::mix::mix64(seed ^ i))
            .collect();
        let encoded = enc.encode(&stripes, &satellite);
        let w = enc.field_words();
        prop_assert_eq!(encoded.len(), m * w);
        let mut fields = vec![0; d * w];
        for (&stripe, bits) in stripes.iter().zip(encoded.chunks(w)) {
            fields[stripe * w..(stripe + 1) * w].copy_from_slice(bits);
        }
        let got = enc.decode(stripes[0], &fields).expect("valid chain decodes");
        for bit in 0..sigma_bits {
            prop_assert_eq!(
                (got[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1,
                (satellite[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1,
                "bit {} differs", bit
            );
        }
    }

    /// The chains with the most pointer bits — deltas summing to `d−1`, one
    /// of them the largest a chain can hold (`d−m+1`), at every position —
    /// still carry all of σ: the field width is exact, not merely enough
    /// for a typical chain.
    #[test]
    fn chain_roundtrip_at_the_widest_pointers(
        d in 13usize..40,
        sigma_bits in 0usize..600,
        seed in any::<u64>(),
    ) {
        let enc = Chain::new(sigma_bits, d);
        let m = enc.fields_per_key;
        let satellite: Vec<Word> = (0..sigma_words(sigma_bits) as u64)
            .map(|i| expander::mix::mix64(seed ^ i))
            .collect();
        let w = enc.field_words();
        for long_hop in 0..m - 1 {
            // Stripes 0..=long_hop, then the last m-1-long_hop stripes.
            let stripes: Vec<usize> = (0..=long_hop).chain(d - (m - 1 - long_hop)..d).collect();
            let mut fields = vec![0; d * w];
            for (&stripe, bits) in stripes.iter().zip(enc.encode(&stripes, &satellite).chunks(w)) {
                fields[stripe * w..(stripe + 1) * w].copy_from_slice(bits);
            }
            let got = enc.decode(0, &fields).expect("valid chain decodes");
            for bit in 0..sigma_bits {
                prop_assert_eq!(
                    (got[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1,
                    (satellite[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1,
                    "hop {}: bit {} differs", long_hop, bit
                );
            }
        }
    }

    /// Every encoded chain field is marked occupied; zeroed fields are not.
    #[test]
    fn chain_occupancy_consistent(d in 13usize..30, sigma_bits in 0usize..200) {
        let enc = Chain::new(sigma_bits, d);
        let m = enc.fields_per_key;
        let stripes: Vec<usize> = (0..m).collect();
        let encoded = enc.encode(&stripes, &vec![0; sigma_words(sigma_bits)]);
        for bits in encoded.chunks(enc.field_words()) {
            prop_assert!(enc.is_occupied(bits));
        }
        prop_assert!(!enc.is_occupied(&vec![0; enc.field_words()]));
    }

    /// Case (b) round-trips under arbitrary interference from other keys'
    /// fields, as long as the owner holds a strict majority.
    #[test]
    fn case_b_roundtrip_with_interference(
        d in 13usize..32,
        n in 2usize..5000,
        sigma_bits_w in 0usize..6,
        id in 0u64..1000,
        other_id in 0u64..1000,
        seed in any::<u64>(),
        owner_stripes_seed in any::<u64>(),
    ) {
        let sigma_bits = sigma_bits_w * 64;
        let enc = CaseB::new(n.max(1001), sigma_bits, d);
        let m = enc.fields_per_key;
        prop_assume!(2 * m > d); // the majority premise
        prop_assume!(id != other_id);
        // Owner takes m stripes chosen from the seed.
        let mut all: Vec<usize> = (0..d).collect();
        let mut s = owner_stripes_seed;
        for i in (1..d).rev() {
            s = expander::mix::mix64(s);
            all.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let owner: Vec<usize> = {
            let mut v = all[..m].to_vec();
            v.sort_unstable();
            v
        };
        let satellite: Vec<Word> = (0..sigma_words(sigma_bits) as u64)
            .map(|i| expander::mix::mix64(seed ^ (i << 7)))
            .collect();
        let fw = enc.field_bits().div_ceil(WORD_BITS);
        let mut fields = vec![vec![0; fw]; d];
        for (t, &stripe) in owner.iter().enumerate() {
            fields[stripe] = enc.encode(id, &satellite, t);
        }
        // The remaining d - m stripes belong to one other key.
        let other_sat: Vec<Word> = vec![!0; sigma_words(sigma_bits)];
        for (t, stripe) in (0..d).filter(|s| !owner.contains(s)).enumerate() {
            fields[stripe] = enc.encode(other_id, &other_sat, t % m.max(1));
        }
        let (got_id, got_sat) = enc.decode(&fields.concat()).expect("majority holds");
        prop_assert_eq!(got_id, id);
        for bit in 0..sigma_bits {
            prop_assert_eq!(
                (got_sat[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1,
                (satellite[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1,
                "bit {} differs", bit
            );
        }
    }

    /// Without a majority, decode refuses — no matter how the minority
    /// identifiers are arranged.
    #[test]
    fn case_b_no_majority_no_answer(
        d in 13usize..32,
        split_seed in any::<u64>(),
    ) {
        let enc = CaseB::new(1000, 64, d);
        let fw = enc.field_bits().div_ceil(WORD_BITS);
        let mut fields = vec![vec![0; fw]; d];
        // Fill at most d/2 fields per identifier: no majority possible.
        let half = d / 2;
        let mut s = split_seed;
        for (i, field) in fields.iter_mut().enumerate().take(half) {
            s = expander::mix::mix64(s);
            *field = enc.encode(u64::from(i as u32 % 3), &[s], i % enc.fields_per_key);
        }
        prop_assert!(enc.decode(&fields.concat()).is_none());
    }
}

#[test]
fn stripes_strategy_is_used() {
    // Keep the helper exercised (subsequence draws are covered indirectly
    // by the seeded permutations above; this pins the helper's contract).
    let strat = stripes_strategy(10, 4);
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let tree = strat.new_tree(&mut runner).expect("tree");
    let v = proptest::strategy::ValueTree::current(&tree);
    assert_eq!(v.len(), 4);
    assert!(v.windows(2).all(|w| w[0] < w[1]));
}

//! Cross-module integration tests of the PDM substrate: striping, record
//! files, external sorting, and model-variant accounting working together.

use pdm::{
    external_sort, sort_io_bound, BlockAddr, DiskArray, KeyedRecord, Model, PdmConfig, ReadOptions,
    RecordFile, RecordLayout, StripedView,
};
use proptest::prelude::*;

#[test]
fn sort_of_file_written_via_striping_is_correct_and_accounted() {
    let cfg = PdmConfig::new(4, 16).with_mem_words(512);
    let mut disks = DiskArray::new(cfg, 0);
    let n = 3000usize;
    let mut file = RecordFile::allocate_at_end(&mut disks, RecordLayout::keyed(2), n);
    let recs: Vec<KeyedRecord> = (0..n as u64)
        .map(|i| KeyedRecord::new((i * 48_271) % 65_537, vec![i, i * 2]))
        .collect();
    file.write_all(&mut disks, &recs);

    let before = disks.stats().parallel_ios;
    let out = external_sort(&mut disks, &file);
    let sorted = out.output.read_all(&disks);
    assert_eq!(sorted.len(), n);
    assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
    // Satellite integrity through the sort.
    for r in &sorted {
        assert_eq!(r.satellite[1], r.satellite[0] * 2);
    }
    // The returned cost covers the sort itself (the read-back above is
    // extra), and sits within a small factor of the textbook bound.
    assert!(out.cost.parallel_ios <= disks.stats().parallel_ios - before);
    assert!(out.cost.parallel_ios > 0);
    let bound = sort_io_bound(&cfg, n, 3);
    assert!(out.cost.parallel_ios <= 4 * bound);
}

#[test]
fn head_model_never_costs_more_than_parallel_disk_model() {
    let mk = |model| {
        let cfg = PdmConfig::new(4, 8).with_model(model);
        let mut disks = DiskArray::new(cfg, 16);
        // A deliberately skewed batch: five blocks on disk 0, one elsewhere.
        let addrs = [
            BlockAddr::new(0, 0),
            BlockAddr::new(0, 1),
            BlockAddr::new(0, 2),
            BlockAddr::new(0, 3),
            BlockAddr::new(0, 4),
            BlockAddr::new(1, 0),
        ];
        let _ = disks.read(&addrs, ReadOptions::default()).blocks;
        disks.stats().parallel_ios
    };
    let pd = mk(Model::ParallelDisk);
    let head = mk(Model::ParallelDiskHead);
    assert_eq!(pd, 5);
    assert_eq!(head, 2);
}

#[test]
fn striped_view_and_record_file_agree_on_layout() {
    let mut disks = DiskArray::new(PdmConfig::new(2, 8), 0);
    let mut file = RecordFile::allocate_at_end(&mut disks, RecordLayout::keyed(0), 16);
    let recs: Vec<KeyedRecord> = (100..116).map(|k| KeyedRecord::new(k, vec![])).collect();
    file.write_all(&mut disks, &recs);
    // Reading the raw words back through the striped view must yield the
    // same keys in order.
    let words = StripedView::new(&mut disks).read_words(0, 16);
    assert_eq!(words, (100..116).collect::<Vec<u64>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// External sort sorts any input and preserves the multiset.
    #[test]
    fn prop_external_sort_is_a_sorting_function(
        keys in proptest::collection::vec(0u64..10_000, 0..400),
        disks_n in 1usize..5,
        block in 4usize..32,
    ) {
        let cfg = PdmConfig::new(disks_n, block);
        let mut disks = DiskArray::new(cfg, 0);
        let mut file = RecordFile::allocate_at_end(&mut disks, RecordLayout::keyed(1), keys.len());
        let recs: Vec<KeyedRecord> = keys
            .iter()
            .map(|&k| KeyedRecord::new(k, vec![k ^ 0xFF]))
            .collect();
        file.write_all(&mut disks, &recs);
        let out = external_sort(&mut disks, &file);
        let sorted = out.output.read_all(&disks);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let got: Vec<u64> = sorted.iter().map(|r| r.key).collect();
        prop_assert_eq!(got, expect);
        for r in &sorted {
            prop_assert_eq!(r.satellite[0], r.key ^ 0xFF);
        }
    }

    /// Striped word I/O round-trips at any offset and length.
    #[test]
    fn prop_striped_words_roundtrip(
        start in 0usize..200,
        data in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut disks = DiskArray::new(PdmConfig::new(3, 8), 0);
        let mut view = StripedView::new(&mut disks);
        view.ensure_stripes((start + data.len()) / 24 + 2);
        view.write_words(start, &data);
        prop_assert_eq!(view.read_words(start, data.len()), data);
    }

    /// Bit-level copy round-trips through arbitrary offsets.
    #[test]
    fn prop_bit_copy_roundtrip(
        src_off in 0usize..64,
        dst_off in 0usize..64,
        len in 1usize..120,
        seed in any::<u64>(),
    ) {
        let src: Vec<u64> = (0..4).map(|i| seed.wrapping_mul(i + 1)).collect();
        let mut dst = vec![0u64; 4];
        if src_off + len <= 256 && dst_off + len <= 256 {
            pdm::bits::copy_bits(&mut dst, dst_off, &src, src_off, len);
            let a = pdm::bits::extract_bits(&src, src_off, len);
            let b = pdm::bits::extract_bits(&dst, dst_off, len);
            prop_assert_eq!(a, b);
        }
    }
}

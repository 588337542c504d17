//! Order statistics used by every metric: the median, the tail rule, the
//! median over slices and the spread figures.

/// Median of `values` (mean of the two middle ones for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Value at quantile `q` (0..=1) of an ascending slice, nearest rank.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[quantile_index(sorted.len(), q)]
}

fn quantile_index(len: usize, q: f64) -> usize {
    (((len - 1) as f64 * q).round() as usize).min(len - 1)
}

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, and the value there. With about twenty samples or fewer even
/// the median has fewer than ten beyond it, and the median is reported.
pub fn tail(sorted: &[u32]) -> (f64, u32) {
    let beyond = |pct: f64| sorted.len() - 1 - quantile_index(sorted.len(), pct / 100.0);
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&pct| !sorted.is_empty() && beyond(pct) >= 10)
        .unwrap_or(TAIL_LADDER[0]);
    (pct, quantile_sorted(sorted, pct / 100.0))
}

/// `(max - min) / median`, the figure printed as a spread; 0 when the median
/// is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 || values.is_empty() {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Largest `|v - median| / median` over `values`; what `--aa` compares with a
/// metric's bound.
pub fn max_rel_deviation(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    values
        .iter()
        .map(|v| (v - m).abs() / m.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_slices_ignores_one_ruined_slice() {
        // Eleven quiet slices and one hit by a neighbour's burst.
        let mut slices = vec![1000.0; 11];
        slices.push(10.0);
        assert_eq!(median(&slices), 1000.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let samples = |n: u32| (0..n).collect::<Vec<u32>>();
        // 19 samples: not even the median has ten beyond it.
        assert_eq!(tail(&samples(19)).0, 50.0);
        assert_eq!(tail(&[]), (50.0, 0));
        // 100 samples: p90 leaves exactly ten beyond; p99 would leave one.
        assert_eq!(tail(&samples(100)), (90.0, 89));
        assert_eq!(tail(&samples(900)).0, 90.0);
        assert_eq!(tail(&samples(1000)).0, 99.0);
        assert_eq!(tail(&samples(10_000)).0, 99.9);
        assert_eq!(tail(&samples(1_000_000)).0, 99.999);
        let (pct, value) = tail(&samples(1000));
        assert_eq!((pct, value), (99.0, 989));
    }

    #[test]
    fn deviation_and_spread() {
        assert!((max_rel_deviation(&[90.0, 100.0, 115.0]) - 0.15).abs() < 1e-12);
        assert!((spread(&[90.0, 100.0, 115.0]) - 0.25).abs() < 1e-12);
        assert_eq!(max_rel_deviation(&[0.0, 0.0]), 0.0);
    }
}

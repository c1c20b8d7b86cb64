//! Order statistics over latency samples.
//!
//! Percentiles are nearest-rank and expressed in basis points (1/100 of a
//! percent) so that rank arithmetic is exact: `p99` is 9900, `p99.9` is
//! 9990. A tail percentile is only meaningful when enough samples lie
//! beyond it, so [`highest_supported`] picks the highest percentile of a
//! fixed ladder that has at least [`MIN_BEYOND`] samples above it.

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in basis points, lowest first.
pub const LADDER: [u32; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// 1-based nearest rank of percentile `bp` among `n` samples: the smallest
/// rank with at least `bp / 10000` of the samples at or below it.
pub fn nearest_rank(n: usize, bp: u32) -> usize {
    assert!(n > 0, "no samples");
    assert!(bp <= 10_000, "percentile above 100%");
    let rank = (n as u128 * bp as u128).div_ceil(10_000) as usize;
    rank.clamp(1, n)
}

/// Number of samples strictly beyond the nearest rank of `bp`.
pub fn beyond(n: usize, bp: u32) -> usize {
    n - nearest_rank(n, bp)
}

/// Nearest-rank percentile `bp` of an ascending slice.
pub fn percentile(sorted: &[u64], bp: u32) -> u64 {
    sorted[nearest_rank(sorted.len(), bp) - 1]
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n` samples, or `None` when even the median
/// lacks them.
pub fn highest_supported(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&bp| beyond(n, bp) >= MIN_BEYOND)
}

/// Median of unordered values (mean of the two middle values for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Label such as `p99` or `p99.9` for a percentile in basis points.
pub fn label(bp: u32) -> String {
    let whole = bp / 100;
    let frac = bp % 100;
    if frac == 0 {
        format!("p{whole}")
    } else if frac.is_multiple_of(10) {
        format!("p{whole}.{}", frac / 10)
    } else {
        format!("p{whole}.{frac:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        // 0.99 * 1000 in floating point is 990.0000000000001; the integer
        // rank must still be 990, leaving exactly 10 samples beyond.
        assert_eq!(nearest_rank(1000, 9900), 990);
        assert_eq!(beyond(1000, 9900), 10);
        assert_eq!(nearest_rank(1001, 9900), 991);
        assert_eq!(nearest_rank(1, 9999), 1);
        assert_eq!(nearest_rank(10, 5000), 5);
        assert_eq!(nearest_rank(7, 0), 1);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 5000), 50);
        assert_eq!(percentile(&v, 9500), 95);
        assert_eq!(percentile(&v, 9900), 99);
        assert_eq!(percentile(&v, 10_000), 100);
        assert_eq!(percentile(&[7], 9900), 7);
    }

    #[test]
    fn highest_supported_needs_ten_beyond() {
        // Fewer than 20 samples: even the median has < 10 beyond.
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(5000));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(highest_supported(100), Some(9000));
        assert_eq!(highest_supported(199), Some(9000));
        assert_eq!(highest_supported(200), Some(9500));
        assert_eq!(highest_supported(999), Some(9500));
        assert_eq!(highest_supported(1000), Some(9900));
        assert_eq!(highest_supported(10_000), Some(9990));
        assert_eq!(highest_supported(100_000), Some(9999));
        // The boundary holds for every count: the chosen percentile has at
        // least ten beyond, and the next rung up has fewer.
        for n in 1..5000 {
            match highest_supported(n) {
                None => assert!(beyond(n, LADDER[0]) < MIN_BEYOND),
                Some(bp) => {
                    assert!(beyond(n, bp) >= MIN_BEYOND);
                    if let Some(&next) = LADDER.iter().find(|&&l| l > bp) {
                        assert!(beyond(n, next) < MIN_BEYOND, "n={n} bp={bp}");
                    }
                }
            }
        }
    }

    #[test]
    fn median_and_labels() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(label(9500), "p95");
        assert_eq!(label(9990), "p99.9");
        assert_eq!(label(9999), "p99.99");
    }
}

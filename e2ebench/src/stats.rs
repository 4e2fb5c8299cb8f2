//! Order statistics for latency samples: medians and the tail percentile rule.

/// Percentiles considered for a tail, highest first, in tenths of a percent.
const TAIL_PERMILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// A tail needs at least this many samples strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Below this many samples no percentile has ten beyond it that is worth calling a
/// tail, and only the median is reported.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The median of `values` (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile with at least [`MIN_BEYOND`] of `n` samples beyond it, as
/// `(percentile, 1-based nearest rank)`; `None` under [`MIN_TAIL_SAMPLES`] samples.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    TAIL_PERMILLE.iter().find_map(|&permille| {
        let rank = (permille * n as u64).div_ceil(1000) as usize;
        (n - rank >= MIN_BEYOND).then_some((permille as f64 / 10.0, rank))
    })
}

/// A tail figure: the percentile chosen by [`tail_rank`], its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The tail of `values` by the rule of [`tail_rank`].
pub fn tail(values: &[f64]) -> Option<Tail> {
    let (percentile, rank) = tail_rank(values.len())?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile,
        value: sorted[rank - 1],
        samples: values.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(39), None);
        // 40 samples: p75 is rank 30 with 10 beyond; p90 would leave only 4.
        assert_eq!(tail_rank(40), Some((75.0, 30)));
        assert_eq!(tail_rank(99), Some((75.0, 75)));
        assert_eq!(tail_rank(100), Some((90.0, 90)));
        assert_eq!(tail_rank(200), Some((95.0, 190)));
        assert_eq!(tail_rank(1000), Some((99.0, 990)));
        assert_eq!(tail_rank(10_000), Some((99.9, 9990)));
        for n in MIN_TAIL_SAMPLES..3000 {
            let (_, rank) = tail_rank(n).expect("a tail from 40 samples on");
            assert!(n - rank >= MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn tail_picks_the_nearest_rank_value() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&values).expect("100 samples have a tail");
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        assert_eq!(tail(&values[..20]), None);
    }
}

//! Order statistics for host-time samples.

/// Percentiles a tail is reported at, highest first, in per-mille.
const TAIL_PER_MILLE: [u64; 4] = [999, 990, 900, 500];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: u64 = 10;

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated
/// between closest ranks; `NaN` when there are no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`; `NaN` when there are none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples`; `NaN` when there are none.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest reportable tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the set holds.
    pub samples: usize,
    /// How many samples lie beyond the percentile's rank.
    pub beyond: u64,
}

/// The highest of p99.9, p99, p90 and p50 that has at least
/// [`MIN_BEYOND`] samples beyond it, with the sample count; `None` when
/// even the median has fewer.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len() as u64;
    TAIL_PER_MILLE.into_iter().find_map(|per_mille| {
        let beyond = n * (1_000 - per_mille) / 1_000;
        (beyond >= MIN_BEYOND).then(|| {
            let p = per_mille as f64 / 10.0;
            Tail {
                percentile: p,
                value: percentile(samples, p),
                samples: samples.len(),
                beyond,
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: u32| (0..n).map(f64::from).collect::<Vec<_>>();
        let t = tail(&samples(1_000)).unwrap();
        assert_eq!((t.percentile, t.samples, t.beyond), (99.0, 1_000, 10));
        let t = tail(&samples(999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 99));
        let t = tail(&samples(10_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
        assert_eq!(tail(&samples(20)).unwrap().percentile, 50.0);
        assert!(tail(&samples(19)).is_none());
        // Exactly `beyond` samples exceed the reported value.
        let v = samples(1_000);
        let t = tail(&v).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > t.value).count() as u64, t.beyond);
    }
}

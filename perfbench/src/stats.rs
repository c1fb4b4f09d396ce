//! Order statistics for repeated measurements.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (the mean of the two middle values for an even
/// count); `NaN` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Interquartile range as a share of the median, with quartiles taken as
/// Python's `statistics.quantiles(xs, n=4)` takes them (the exclusive
/// method). Zero for fewer than two samples.
#[must_use]
pub fn relative_iqr(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let s = sorted(xs);
    let q = |p: f64| {
        let m = s.len() as f64 + 1.0;
        let pos = (p * m).clamp(1.0, s.len() as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(s.len());
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    let med = median(xs);
    if med == 0.0 {
        return 0.0;
    }
    ((q(0.75) - q(0.25)) / med).abs()
}

/// A percentile together with the samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples measured.
    pub samples: usize,
    /// Samples ranked above the percentile.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples rank above it: a percentile resting on fewer
/// samples is noise.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    let s = sorted(xs);
    let n = s.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: s[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn relative_iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25].
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[7.0; 5]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 95.0),
            None,
            "199 samples leave 9 beyond p95"
        );
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&xs, 95.0).expect("200 samples leave 10 beyond p95");
        assert_eq!((p95.value, p95.samples, p95.beyond), (190.0, 200, 10));
        assert_eq!(xs.iter().filter(|&&x| x > p95.value).count(), p95.beyond);
        let p50 = percentile(&xs[..20], 50.0).expect("20 samples leave 10 beyond p50");
        assert_eq!(p50.value, 10.0);
        assert_eq!(percentile(&xs[..19], 50.0), None);
    }
}

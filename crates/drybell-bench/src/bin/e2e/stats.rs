//! Order statistics over raw samples.
//!
//! Every percentile here is an exact order statistic of the samples the
//! benchmark took itself — never a histogram bucket ceiling — and a
//! percentile is refused when fewer than [`MIN_BEYOND`] samples lie beyond
//! it, because such a tail is one scheduler hiccup, not a distribution.

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorted copy of `samples`; NaNs (never produced by a timer) sort last.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` on an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (nearest rank, `0 < p < 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples are strictly above that
/// rank — the sample does not support a percentile that high.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile must be inside (0, 100)");
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Cut `samples` (in arrival order) into `segments` equal runs and take
/// the `p`-th percentile of each. `None` when a segment cannot support the
/// percentile.
pub fn segment_percentiles(samples: &[f64], segments: usize, p: f64) -> Option<Vec<f64>> {
    assert!(segments > 0, "at least one segment");
    let len = samples.len() / segments;
    if len == 0 {
        return None;
    }
    samples
        .chunks_exact(len)
        .take(segments)
        .map(|segment| percentile(segment, p))
        .collect()
}

/// Minimum, median and maximum over repetitions of one measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reps {
    /// How many repetitions were taken.
    pub count: usize,
    /// Fastest repetition.
    pub min: f64,
    /// Median repetition.
    pub median: f64,
    /// Slowest repetition.
    pub max: f64,
}

impl Reps {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Reps> {
        let v = sorted(values);
        Some(Reps {
            count: v.len(),
            min: *v.first()?,
            median: median(&v)?,
            max: *v.last()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        // 1..=200: nearest-rank p90 is the 180th value, p50 the 100th.
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(180.0));
        assert_eq!(percentile(&samples, 50.0), Some(100.0));
        // A value between power-of-two bucket edges comes back as itself.
        let mut odd = vec![143.0; 100];
        odd.extend(vec![229.0; 100]);
        assert_eq!(percentile(&odd, 50.0), Some(143.0));
        assert_eq!(percentile(&odd, 90.0), Some(229.0));
    }

    #[test]
    fn percentile_refuses_a_tail_of_fewer_than_ten_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly ten beyond: supported.
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // p91 leaves nine, p99 leaves one: refused.
        assert_eq!(percentile(&samples, 91.0), None);
        assert_eq!(percentile(&samples, 99.0), None);
        // Nineteen samples cannot even support a median.
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn segment_percentiles_keep_arrival_order_and_refuse_thin_segments() {
        // Three segments of 100: 1..=100 shifted by 0, 1000, 2000.
        let samples: Vec<f64> = (0..300)
            .map(|i| f64::from(i % 100 + 1) + 1000.0 * f64::from(i / 100))
            .collect();
        assert_eq!(
            segment_percentiles(&samples, 3, 90.0),
            Some(vec![90.0, 1090.0, 2090.0])
        );
        // Segments too short for the percentile are refused, not guessed.
        assert_eq!(segment_percentiles(&samples[..150], 3, 90.0), None);
        assert_eq!(segment_percentiles(&[], 3, 50.0), None);
    }

    #[test]
    fn reps_reports_min_median_max() {
        let r = Reps::of(&[5.0, 3.0, 9.0]).unwrap();
        assert_eq!(
            r,
            Reps {
                count: 3,
                min: 3.0,
                median: 5.0,
                max: 9.0
            }
        );
        assert_eq!(Reps::of(&[]), None);
    }
}

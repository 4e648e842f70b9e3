//! Order statistics and the q-error score.

/// The percentile ladder a tail report climbs: each rung is reported
/// only when the sample has at least [`MIN_BEYOND`] values above it.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// True when `p` leaves at least [`MIN_BEYOND`] of `count` samples
/// strictly above its rank.
pub fn supports(count: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * count as f64).ceil() as usize;
    count >= rank + MIN_BEYOND
}

/// A sample's median, its highest supported percentile and its size.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub count: usize,
    pub p50: f64,
    /// The highest ladder percentile with at least [`MIN_BEYOND`]
    /// samples beyond it, and its value; `None` below 11 samples.
    pub top: Option<(f64, f64)>,
}

impl Tail {
    /// Summarises `values` (any order).
    pub fn of(values: &[f64]) -> Tail {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let top = LADDER
            .iter()
            .copied()
            .rfind(|&p| supports(sorted.len(), p))
            .map(|p| (p, percentile(&sorted, p)));
        let p50 = if sorted.is_empty() { f64::NAN } else { percentile(&sorted, 50.0) };
        Tail { count: sorted.len(), p50, top }
    }

    /// One line: `p50=… p99.9=… (n=…)`.
    pub fn describe(&self, unit: &str) -> String {
        match self.top {
            Some((p, v)) => {
                format!("p50={:.3}{unit} p{p}={v:.3}{unit} (n={})", self.p50, self.count)
            }
            None => format!("p50={:.3}{unit} (n={}, too few for a tail)", self.p50, self.count),
        }
    }
}

/// The q-error of one estimate: `max(e/t, t/e)` with both sides
/// floored at 1, so a zero estimate of a rare twig scores `t`, not ∞.
pub fn qerror(estimate: f64, truth: u64) -> f64 {
    let e = if estimate.is_finite() { estimate.max(1.0) } else { f64::MAX };
    let t = (truth as f64).max(1.0);
    (e / t).max(t / e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = Tail::of(&values);
        assert_eq!(tail.count, 1000);
        assert_eq!(tail.p50, 500.0);
        // p99 leaves exactly 10 samples above rank 990; p99.9 leaves 1.
        assert_eq!(tail.top, Some((99.0, 990.0)));

        let tail = Tail::of(&values[..999]);
        assert_eq!(tail.top.map(|(p, _)| p), Some(90.0), "p99 needs 1000 samples");

        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(Tail::of(&big).top, Some((99.99, 99_990.0)));
    }

    #[test]
    fn tail_of_a_tiny_sample_has_no_top() {
        let tail = Tail::of(&[3.0, 1.0, 2.0]);
        assert_eq!((tail.count, tail.p50, tail.top), (3, 2.0, None));
        assert!(Tail::of(&[]).p50.is_nan());
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn qerror_floors_zero_estimates_and_truths() {
        assert_eq!(qerror(0.0, 40), 40.0);
        assert_eq!(qerror(0.0, 0), 1.0);
        assert_eq!(qerror(0.25, 1), 1.0);
        assert_eq!(qerror(80.0, 0), 80.0);
        assert_eq!(qerror(10.0, 40), 4.0);
        assert_eq!(qerror(40.0, 10), 4.0);
        assert_eq!(qerror(f64::NAN, 10), f64::MAX / 10.0);
    }
}

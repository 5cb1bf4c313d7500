//! Order statistics used by every report: median, quartiles, percentiles
//! and the tail-percentile rule.

/// Ascending copy of `values` (NaN-free by construction: every input is a
/// measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending slice;
/// 0 for an empty one.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is what the driver uses to
/// judge spread, so `check-repeat` judges the same way.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// The tail of a timing distribution: the highest percentile that still has
/// ten samples beyond it, with that percentile's number.  With fewer than 22
/// samples no percentile above the median qualifies, and the median is
/// reported (`pct` = 50) so the reader sees that the run has no tail to
/// speak of.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
}

pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    if n < 22 {
        return Tail {
            pct: 50.0,
            value: percentile_sorted(&s, 50.0),
        };
    }
    Tail {
        pct: 100.0 * (n - 10) as f64 / n as f64,
        value: s[n - 11],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_degenerate_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, q3) = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 45.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; clamped
        // interpolation on two points extrapolates the same way.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_reported_percentile() {
        // 100 samples 1..=100: ten samples (91..=100) lie beyond 90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(v.iter().filter(|x| **x > t.value).count(), 10);
        // 22 samples: the 12th value still has ten beyond it.
        let v: Vec<f64> = (1..=22).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 12.0);
        assert!((t.pct - 100.0 * 12.0 / 22.0).abs() < 1e-12);
        // Too few samples for any tail above the median.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                pct: 50.0,
                value: 11.0
            }
        );
    }
}

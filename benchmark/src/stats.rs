//! Order statistics: median, quartiles, and the tail-percentile rule.

/// Sorted copy of `xs` (NaNs are a caller bug and sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// First quartile, median and third quartile, computed the way
/// Python's `statistics.quantiles(xs, n=4)` (exclusive method) does, so
/// the spreads printed here match what the driver computes. A single
/// sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped into the data.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// The tail statistic of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile `value` is (e.g. 99.0).
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile that still has at least ten samples beyond
/// it: with 1000 samples the 990th smallest (p99), with 200 the 190th
/// (p95). Below 20 samples no percentile above the median qualifies, so
/// the median is reported (as percentile 50) rather than a low one.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n < 20 {
        return Tail {
            percentile: 50.0,
            value: median(&v),
            samples: n,
        };
    }
    let rank = n - 10; // 1-based rank with exactly ten samples above it
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile), (190.0, 95.0));

        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile), (10.0, 50.0));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 5.5, 10));
    }
}

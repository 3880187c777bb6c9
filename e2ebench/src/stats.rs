//! Order statistics over the benchmark's samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it. `q` is in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[rank(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// `ceil(q · n)`, immune to the float error in products like `0.99 · 100`.
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// Median and tail of one sample set, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary { n: sorted.len(), p50: percentile(&sorted, 0.50), p99: percentile(&sorted, 0.99) }
    }

    /// Samples strictly above the p99 rank. A tail percentile is only
    /// reported as such when at least ten samples lie beyond it.
    pub fn beyond_p99(&self) -> usize {
        self.n - rank(0.99, self.n)
    }
}

/// Median (nearest rank) of an unsorted sample set.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s, Summary { n: 3, p50: 2.0, p99: 3.0 });
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_sample_count() {
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&thousand).beyond_p99(), 10);
        assert_eq!(Summary::of(&thousand[..100]).beyond_p99(), 1);
        assert_eq!(Summary::of(&[1.0]).beyond_p99(), 0);
    }
}

//! Percentiles within a run and quartiles across runs.

/// The nearest-rank `q`-th percentile (`0 < q <= 100`) of sorted data.
///
/// # Panics
///
/// Panics on empty data.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` with fewer than eleven samples. A timing's tail is reported
/// at this percentile: p99 needs 1000 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > 10).then(|| 100.0 * (n - 10) as f64 / n as f64)
}

/// A sorted set of latency samples, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The nearest-rank `q`-th percentile, whatever the sample count.
    pub fn at(&self, q: f64) -> f64 {
        percentile(&self.0, q)
    }

    pub fn p50(&self) -> f64 {
        self.at(50.0)
    }

    /// p99, or `None` when fewer than ten samples would lie beyond it.
    pub fn p99(&self) -> Option<f64> {
        let p = tail_percentile(self.len())?;
        (p >= 99.0).then(|| percentile(&self.0, 99.0))
    }

    /// The value at [`tail_percentile`], capped at p99; the largest
    /// sample when there are too few for any percentile.
    pub fn tail(&self) -> f64 {
        match tail_percentile(self.len()) {
            Some(p) => self.at(p.min(99.0)),
            None => *self.0.last().expect("tail of no samples"),
        }
    }
}

/// `(q1, median, q3)` the way Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method), so spreads printed here
/// match that definition.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (data[0], data[0], data[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(2000), Some(99.5));
        // p99 is reported from 1000 samples on, and then exactly ten (or
        // more) samples lie above the reported value's rank.
        let ms = |n: usize| Samples::new((1..=n).map(|i| i as f64).collect());
        assert_eq!(ms(999).p99(), None);
        assert_eq!(ms(1000).p99(), Some(990.0));
        assert_eq!(ms(1000).0.iter().filter(|&&v| v > 990.0).count(), 10);
        assert_eq!(ms(100).tail(), 90.0);
        assert_eq!(ms(5000).tail(), 4950.0);
        assert_eq!(ms(5).tail(), 5.0);
        assert_eq!(ms(101).p50(), 51.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}

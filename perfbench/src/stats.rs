//! Order statistics over timing samples.

/// Median of `values` (mean of the middle two for an even count; NaN when
/// empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0–100) of ascending `sorted`.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 10th percentile (nearest rank) of `values`; NaN when empty.
///
/// The gated timings use it instead of the median. The shared host slows
/// every operation for seconds at a time, by up to 60 % and for a varying
/// share of each run; those slow stretches move a run's median by up to a
/// third from one run to the next, while the fastest tenth of a run's
/// operations, timed in its calm stretches, moves with the code.
#[must_use]
pub fn low_decile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 10.0)
}

/// A latency distribution summary: median and a tail percentile.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile used.
    pub tail_q: f64,
    /// Its value.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples`. The tail is the highest of p99, p90 and p50
    /// that has at least ten samples beyond it (p50 when none has).
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let beyond = |q: f64| (n as f64) * (1.0 - q / 100.0);
        let tail_q = [99.0, 90.0]
            .into_iter()
            .find(|&q| beyond(q) >= 10.0)
            .unwrap_or(50.0);
        Summary {
            n,
            p50: median(&v),
            tail_q,
            tail: percentile(&v, tail_q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(low_decile(&v), 100.0);
        assert_eq!(low_decile(&[5.0, 1.0, 3.0]), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_q, s.tail), (99.0, 990.0));
        let s = Summary::of(&v[..500]);
        assert_eq!(s.tail_q, 90.0);
        let s = Summary::of(&v[..15]);
        assert_eq!(s.tail_q, 50.0);
    }
}

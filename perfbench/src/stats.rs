//! Sample summaries: median, a fixed percentile, and the highest
//! percentile that still has at least ten samples beyond it.

/// Samples needed beyond a percentile before it is reported as a tail.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of `xs`; `NaN` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    v[rank(v.len(), p)]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest whole percentile with at least [`TAIL_SAMPLES`] samples
/// beyond it, with its value; `None` below eleven samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    let p = (1..100u32)
        .rev()
        .find(|&p| beyond(n, f64::from(p)) >= TAIL_SAMPLES)?;
    Some((p, percentile(xs, f64::from(p))))
}

/// One timing as the benchmark prints it: median, tail and count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        Self {
            n: xs.len(),
            median: median(xs),
            tail: tail(xs),
        }
    }

    /// `median 1.23 · p86 4.56 · n 72` (the tail reads `p- -` when
    /// there are too few samples for one).
    pub fn describe(&self, digits: usize) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.digits$}"),
            None => "p- -".to_string(),
        };
        format!("median {:.digits$} · {tail} · n {}", self.median, self.n)
    }
}

fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(p, 91);
        assert!(beyond(120, f64::from(p)) >= TAIL_SAMPLES);
        assert!(beyond(120, f64::from(p + 1)) < TAIL_SAMPLES);
        assert_eq!(v, percentile(&xs, 91.0));
        assert!(tail(&xs[..10]).is_none());
        assert_eq!(tail(&xs[..11]).unwrap().0, 9);
    }
}

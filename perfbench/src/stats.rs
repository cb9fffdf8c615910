//! Order statistics for timing samples.

/// Median, upper tail and count of one timing series.
///
/// The tail is the highest percentile that still has at least ten samples
/// beyond it (`p = 100·(1 − 10/n)`, floored to a whole percent), so it is
/// only reported once a run holds more than ten samples. No samples give a
/// NaN median, which the caller refuses to report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail_pct: Option<u32>,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                median: f64::NAN,
                ..Summary::default()
            };
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = quantile_sorted(&v, 0.5);
        let tail_pct = (n > 10).then(|| (100.0 * (1.0 - 10.0 / n as f64)).floor() as u32);
        let tail = tail_pct.map_or(f64::NAN, |p| quantile_sorted(&v, p as f64 / 100.0));
        Summary {
            n,
            median,
            tail_pct,
            tail,
        }
    }

    /// `median (pXX tail; n=..)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail_pct {
            Some(p) => format!(
                "{:.6} {unit} median; p{p} {:.6}; n={}",
                self.median, self.tail, self.n
            ),
            None => format!(
                "{:.6} {unit} median; n={} (no tail below 11 samples)",
                self.median, self.n
            ),
        }
    }
}

/// Linearly interpolated quantile of sorted data.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Mean after dropping `floor(n·frac)` values from each end.
pub fn trimmed_mean(samples: &[f64], frac: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * frac) as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 20);
        assert_eq!(s.median, 10.5);
        assert_eq!(s.tail_pct, Some(50));
        assert_eq!(Summary::of(&v[..10]).tail_pct, None);
        assert_eq!(
            Summary::of(&(0..100).map(f64::from).collect::<Vec<_>>()).tail_pct,
            Some(90)
        );
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v: Vec<f64> = vec![1.0; 18];
        v.extend([100.0, -50.0]);
        assert_eq!(trimmed_mean(&v, 0.1), 1.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.1), 3.0);
    }
}

//! Order statistics over small samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, linearly
/// interpolated between neighbours. 0 for an empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median / quartiles / extremes of one metric over the reps of a run.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        min: v.first().copied().unwrap_or(0.0),
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        max: v.last().copied().unwrap_or(0.0),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Client-observed latencies of one closed-loop slice, in nanoseconds.
///
/// The buffer is allocated and touched up front, so the slice's memory
/// does not depend on how many operations the server managed to answer
/// (it would otherwise leak the request rate into `peak_rss_mib`); once
/// full, further samples are counted but not kept.
pub struct Latencies {
    ns: Vec<u32>,
    len: usize,
    pub dropped: u64,
}

impl Latencies {
    pub fn with_capacity(cap: usize) -> Self {
        Latencies {
            ns: vec![0; cap],
            len: 0,
            dropped: 0,
        }
    }

    pub fn push(&mut self, ns: u64) {
        if self.len < self.ns.len() {
            self.ns[self.len] = u32::try_from(ns).unwrap_or(u32::MAX);
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// `(p50, p99, samples beyond p99)` in microseconds.
    pub fn percentiles_us(&mut self) -> (f64, f64, usize) {
        let kept = &mut self.ns[..self.len];
        kept.sort_unstable();
        let at = |q: f64| -> f64 {
            if kept.is_empty() {
                return 0.0;
            }
            let idx = ((kept.len() as f64 * q).ceil() as usize).clamp(1, kept.len()) - 1;
            f64::from(kept[idx]) / 1e3
        };
        let beyond = kept.len() - ((kept.len() as f64 * 0.99).ceil() as usize).min(kept.len());
        (at(0.5), at(0.99), beyond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_like_numpy() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.75, 2.5, 3.25, 4.0)
        );
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert_eq!(summarize(&[]).median, 0.0);
    }

    #[test]
    fn p99_counts_the_samples_beyond_it() {
        let mut l = Latencies::with_capacity(2000);
        (1..=1000u64).for_each(|us| l.push(us * 1000));
        assert_eq!(l.percentiles_us(), (500.0, 990.0, 10));
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut l = Latencies::with_capacity(2);
        (0..5).for_each(|_| l.push(1));
        assert_eq!(l.dropped, 3);
    }
}

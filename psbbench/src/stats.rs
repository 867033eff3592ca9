//! Seeded randomness and exact order statistics over raw samples.

/// splitmix64: a tiny seeded stream; the whole input of every workload
/// is a pure function of the benchmark seed through it.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5053_4242_454e_4348)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponentially distributed with the given mean (Poisson gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Latency summary of one phase: exact order statistics over every
/// raw sample, never a bucketed histogram.
#[derive(Clone, Debug, Default)]
pub struct Latency {
    pub count: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p99: f64,
    pub mean: f64,
    /// Samples strictly above the reported p99 (the fewest of any
    /// window).
    pub beyond_p99: usize,
    /// Samples per window (all of them when not windowed).
    pub window: usize,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Latency::default();
        }
        // Nearest rank: the smallest sample with at least 99% of the
        // samples at or below it.
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        let p99 = v[rank - 1];
        Latency {
            count: n,
            p25: v[n / 4],
            p50: median(&v),
            p75: v[3 * n / 4],
            p99,
            mean: v.iter().sum::<f64>() / n as f64,
            beyond_p99: v.iter().filter(|&&x| x > p99).count(),
            window: n,
        }
    }

    /// The samples cut into `windows` consecutive windows: each order
    /// statistic is the median of its per-window values, so one window
    /// that a burst of host noise hit does not set the result.
    pub fn windowed(samples: &[f64], windows: usize) -> Latency {
        let size = samples.len() / windows.max(1);
        let parts: Vec<Latency> = samples
            .chunks(size.max(1))
            .take(windows)
            .map(Latency::of)
            .collect();
        let mid = |f: fn(&Latency) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        let all = Latency::of(samples);
        Latency {
            count: all.count,
            p25: mid(|l| l.p25),
            p50: mid(|l| l.p50),
            p75: mid(|l| l.p75),
            p99: mid(|l| l.p99),
            mean: all.mean,
            beyond_p99: parts.iter().map(|l| l.beyond_p99).min().unwrap_or(0),
            window: size,
        }
    }

    /// A p99 is reported only when at least ten samples lie beyond the
    /// rank it names, in every window.
    pub fn p99_supported(&self) -> bool {
        self.window >= MIN_P99_SAMPLES
    }
}

/// The sample count at which ten samples lie beyond the 99th rank.
pub const MIN_P99_SAMPLES: usize = 1000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn p99_is_exact_and_counts_the_tail() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&xs);
        assert_eq!((l.p50, l.p99, l.beyond_p99), (500.5, 990.0, 10));
        assert!(l.p99_supported());
        assert!(!Latency::of(&xs[..999]).p99_supported());
    }

    #[test]
    fn a_burst_in_one_window_does_not_set_the_windowed_p99() {
        let mut xs: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut xs[..30] {
            *x = 1e6;
        }
        let w = Latency::windowed(&xs, 3);
        assert_eq!((w.p99, w.window, w.count), (989.0, 1000, 3000));
        assert!(w.p99_supported());
        assert!(Latency::of(&xs).p99 > 989.0);
    }

    #[test]
    fn one_seed_one_stream() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

//! The metrics registry: named counters, gauges, and log-bucketed
//! histograms with percentile readout.
//!
//! The histogram is also the one the machine's `CountersSink`
//! (`psb-core`) keeps, re-exported there: value `v` lands in bucket
//! `ceil(log2(v + 1))`, so bucket 0 holds 0, bucket 1 holds 1, bucket 2
//! holds 2–3, and so on.  Buckets are coarse, but the histogram also
//! tracks exact count/sum/min/max, and every percentile estimate comes
//! with a proven bracket: the true nearest-rank percentile always lies
//! within [`Histogram::percentile_bounds`] (property-tested in
//! `tests/percentile_proptest.rs`).

use std::collections::BTreeMap;
use std::sync::Mutex;

/// A power-of-two-bucketed histogram of `u64` samples with exact
/// count/sum/min/max and bracketed percentile estimates.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index for `v` (`ceil(log2(v + 1))`).
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive value range `[lo, hi]` covered by bucket `i`
    /// (bucket 64, the last, is `[2^63, u64::MAX]`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            let i = i.min(64);
            let hi = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
            (1u64 << (i - 1), hi)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = Histogram::bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket counts, lowest bucket first (no trailing zeros).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The bucket holding the nearest-rank `p`-th percentile sample
    /// (`None` when empty).  `p` is clamped to `[0, 100]`; the rank is
    /// `ceil(p/100 · count)`, clamped to at least 1.
    fn percentile_bucket(&self, p: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(i);
            }
        }
        Some(self.buckets.len().saturating_sub(1))
    }

    /// An inclusive bracket `[lo, hi]` guaranteed to contain the true
    /// nearest-rank `p`-th percentile of the recorded samples: the
    /// percentile's bucket range, tightened by the exact min/max.
    /// Returns `(0, 0)` when empty.
    pub fn percentile_bounds(&self, p: f64) -> (u64, u64) {
        match self.percentile_bucket(p) {
            None => (0, 0),
            Some(i) => {
                let (lo, hi) = Histogram::bucket_range(i);
                (
                    lo.max(self.min).min(self.max),
                    hi.min(self.max).max(self.min),
                )
            }
        }
    }

    /// The upper-bound estimate of the `p`-th percentile (the `hi` side
    /// of [`Histogram::percentile_bounds`]) — never below the true
    /// percentile, so latency SLO readouts are conservative.
    pub fn percentile(&self, p: f64) -> u64 {
        self.percentile_bounds(p).1
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// A point-in-time summary (the exporter payload).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            buckets: self.buckets.clone(),
        }
    }
}

/// Exporter-facing snapshot of one histogram: exact count/sum/min/max,
/// the mean, and upper-bound p50/p90/p99 estimates.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact smallest sample.
    pub min: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// Upper-bound estimate of the 50th percentile.
    pub p50: u64,
    /// Upper-bound estimate of the 90th percentile.
    pub p90: u64,
    /// Upper-bound estimate of the 99th percentile.
    pub p99: u64,
    /// Raw bucket counts (power-of-two ranges, lowest first).
    pub buckets: Vec<u64>,
}

/// A thread-safe bank of named counters, gauges, and histograms.
///
/// Names are sorted (BTreeMap) so snapshots drain in a deterministic
/// order regardless of registration order — half of the determinism
/// contract; the other half is that callers only feed it
/// jobs-deterministic values in `--deterministic` mode (the [`Recorder`]
/// enforces this by dropping host-dependent records).
///
/// [`Recorder`]: crate::Recorder
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, i64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named counter (created at 0).
    pub fn counter(&self, name: &str, delta: u64) {
        let mut c = self.counters.lock().expect("registry poisoned");
        match c.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                c.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: i64) {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .insert(name.to_string(), value);
    }

    /// Records `value` into the named histogram (created empty).
    pub fn observe(&self, name: &str, value: u64) {
        let mut h = self.histograms.lock().expect("registry poisoned");
        match h.get_mut(name) {
            Some(hist) => hist.record(value),
            None => {
                let mut hist = Histogram::new();
                hist.record(value);
                h.insert(name.to_string(), hist);
            }
        }
    }

    /// Snapshot of every counter, name-sorted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Snapshot of every gauge, name-sorted.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Summary of every histogram, name-sorted.
    pub fn histograms(&self) -> Vec<(String, HistogramSummary)> {
        self.histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_the_power_of_two_idiom() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_range(0), (0, 0));
        assert_eq!(Histogram::bucket_range(1), (1, 1));
        assert_eq!(Histogram::bucket_range(3), (4, 7));
        let mut h = Histogram::new();
        for v in [0, 1, 3, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.buckets(), &[1, 1, 2, 0, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 9);
        assert!((h.mean() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn percentiles_bracket_simple_streams() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        // nearest-rank p50 of 1..=10 is 5 (rank 5); its bucket is 4..7.
        let (lo, hi) = h.percentile_bounds(50.0);
        assert!(lo <= 5 && 5 <= hi, "[{lo}, {hi}]");
        assert!(h.percentile(50.0) >= 5);
        // p100 must be exactly the max — the bracket collapses on it.
        assert_eq!(h.percentile(100.0), 10);
        assert_eq!(h.percentile_bounds(100.0), (8, 10));
        // p0 clamps to rank 1 (the min's bucket).
        let (lo, hi) = h.percentile_bounds(0.0);
        assert!(lo <= 1 && 1 <= hi);
    }

    #[test]
    fn empty_and_single_sample_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile_bounds(50.0), (0, 0));
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.percentile(50.0), 42);
        assert_eq!(h.percentile_bounds(99.0), (42, 42));
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [0u64, 1, 5, 9, 100] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 64, 2] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_snapshots_sort_by_name() {
        let r = Registry::new();
        r.counter("z", 2);
        r.counter("a", 1);
        r.counter("z", 3);
        r.gauge("g", -4);
        r.observe("h", 7);
        r.observe("h", 9);
        assert_eq!(
            r.counters(),
            vec![("a".to_string(), 1), ("z".to_string(), 5)]
        );
        assert_eq!(r.gauges(), vec![("g".to_string(), -4)]);
        let h = r.histograms();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].0, "h");
        assert_eq!(h[0].1.count, 2);
        assert_eq!(h[0].1.sum, 16);
    }
}

//! Host-speed scaling of the timed metrics.
//!
//! The benchmark runs on shared hosts whose speed for this code moves
//! by up to 1.9x within minutes as other tenants load them, while a
//! run lasts half a minute: no statistic over one run's raw times
//! removes a change that lasts longer than the run.  So the benchmark
//! times slices of fixed reference work of its own between the units
//! of timed work, and scales each unit's seconds by [`REF_SLICE_S`]
//! over the median of the slices taken before it, between its parts
//! and after it.  A scaled time is the unit's time on a host on which
//! one slice takes [`REF_SLICE_S`].  The slice is the benchmark's code,
//! not the program's, so a change to the program moves a scaled time as
//! it moves the raw one on any one host.  Client-side serve latencies,
//! which mostly wait on timers and the network stack, are not scaled.
//!
//! The slice churns an ordered map of small heap blocks: of the
//! reference loops tried (register-only arithmetic, pointer chases over
//! 1, 8 and 64 MB, a table-driven interpreter, this churn), the churn's
//! time followed the paper and sweep passes' most closely as the host's
//! speed moved (`spec.json`, "host_scaling").

use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds one slice takes on the reference host: about its median on
/// the 2-vCPU host the bounds were measured on.
pub const REF_SLICE_S: f64 = 0.0035;

/// Map operations per slice.
const CHURN_OPS: usize = 15_000;
/// Entries the map holds at most; the smallest key goes first.
const CHURN_LIVE: usize = 4096;

/// The reference work: inserts of 0 to 15-word blocks under pseudo-random
/// keys, evicting the smallest key beyond [`CHURN_LIVE`] entries.
fn churn(ops: usize) -> usize {
    let mut map = BTreeMap::new();
    let mut x = 7u64;
    for i in 0..ops {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, vec![i as u32; (x & 15) as usize]);
        if map.len() > CHURN_LIVE {
            map.pop_first();
        }
    }
    map.len()
}

/// Seconds one slice of the reference work takes now.
pub fn slice() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(churn(std::hint::black_box(CHURN_OPS)));
    t0.elapsed().as_secs_f64()
}

/// Slices taken between units of timed work.
pub struct Speed {
    /// Every slice's seconds, in the order taken.
    slices: Vec<f64>,
}

impl Speed {
    /// Starts with a slice, the "before" of the first unit.
    pub fn new() -> Speed {
        Speed {
            slices: vec![slice()],
        }
    }

    /// Takes `n` slices.
    pub fn sample(&mut self, n: usize) {
        self.slices.extend((0..n).map(|_| slice()));
    }

    /// Where the slices around a unit start: the latest slice, taken
    /// before it.
    pub fn mark(&self) -> usize {
        self.mark_last(1)
    }

    /// Where the latest `n` slices start, when the unit that follows
    /// has `n` slices before it.
    pub fn mark_last(&self, n: usize) -> usize {
        self.slices.len() - n
    }

    /// The scale factor of the work since `mark`: [`REF_SLICE_S`] over
    /// the median of the slices from the mark on, the one before the
    /// work, those between its parts and those after it.  A median, so
    /// one slice that an interrupt or a burst of noise hit does not set
    /// it.
    pub fn since(&self, mark: usize) -> f64 {
        REF_SLICE_S / crate::stats::median(&self.slices[mark..])
    }

    /// The scale factor of every slice taken so far.
    pub fn overall(&self) -> f64 {
        self.since(0)
    }

    /// The median slice and the factor it gives.
    pub fn summary(&self) -> String {
        format!(
            "{} host slices, median {:.3} ms (reference {:.3} ms): times scaled by about {:.3}",
            self.slices.len(),
            crate::stats::median(&self.slices) * 1e3,
            REF_SLICE_S * 1e3,
            self.overall()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slow_slice_does_not_set_the_factor() {
        let s = Speed {
            slices: vec![0.002, 0.004, 0.004, 0.1, 0.004],
        };
        assert_eq!(s.mark(), 4);
        assert_eq!(s.mark_last(3), 2);
        assert_eq!(s.since(1), REF_SLICE_S / 0.004);
        assert_eq!(s.overall(), REF_SLICE_S / 0.004);
    }

    #[test]
    fn every_slice_does_the_same_work() {
        assert_eq!(churn(CHURN_OPS), churn(CHURN_OPS));
        assert_eq!(churn(CHURN_OPS), CHURN_LIVE);
    }
}

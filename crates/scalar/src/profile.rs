//! Edge profiles, static branch prediction, and the successive-branch
//! prediction-accuracy statistic of Table 3.

use crate::machine::BranchRecord;
use psb_isa::BlockId;

/// Taken/not-taken counts per branch block, gathered by a scalar run.
///
/// The schedulers use profiles from a *training* input to form static
/// predictions and to drive trace/region growth; the evaluation then runs a
/// different input, exactly as profile-guided static prediction works.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct EdgeProfile {
    taken: Vec<u64>,
    not_taken: Vec<u64>,
}

impl EdgeProfile {
    /// An empty profile for a program with `num_blocks` blocks.
    pub fn new(num_blocks: usize) -> EdgeProfile {
        EdgeProfile {
            taken: vec![0; num_blocks],
            not_taken: vec![0; num_blocks],
        }
    }

    /// Records one dynamic outcome of `block`'s branch.
    pub fn record(&mut self, block: BlockId, taken: bool) {
        if taken {
            self.taken[block.index()] += 1;
        } else {
            self.not_taken[block.index()] += 1;
        }
    }

    /// `(taken, not_taken)` counts for a block.
    pub fn counts(&self, block: BlockId) -> (u64, u64) {
        (self.taken[block.index()], self.not_taken[block.index()])
    }

    /// Static prediction for a block: `true` = predict taken.  Blocks never
    /// executed predict not-taken (the static default).
    pub fn predict_taken(&self, block: BlockId) -> bool {
        self.taken[block.index()] > self.not_taken[block.index()]
    }

    /// Probability (0..=1) that the branch follows its predicted direction;
    /// 1.0 for never-executed branches.
    pub fn confidence(&self, block: BlockId) -> f64 {
        let (t, n) = self.counts(block);
        if t + n == 0 {
            1.0
        } else {
            t.max(n) as f64 / (t + n) as f64
        }
    }

    /// Probability (0..=1) that the taken edge is followed; 0.0 for
    /// never-executed branches.
    pub fn taken_fraction(&self, block: BlockId) -> f64 {
        let (t, n) = self.counts(block);
        if t + n == 0 {
            0.0
        } else {
            t as f64 / (t + n) as f64
        }
    }

    /// Execution count of the block's branch.
    pub fn executions(&self, block: BlockId) -> u64 {
        self.taken[block.index()] + self.not_taken[block.index()]
    }

    /// Total dynamic branches recorded.
    pub fn total(&self) -> u64 {
        self.taken.iter().sum::<u64>() + self.not_taken.iter().sum::<u64>()
    }

    /// Number of blocks this profile covers (the length of the count
    /// vectors), for codecs that serialize the profile block by block.
    pub fn num_blocks(&self) -> usize {
        self.taken.len()
    }

    /// Rebuilds a profile from per-block `(taken, not_taken)` counts —
    /// the inverse of reading every block's [`EdgeProfile::counts`].
    /// Used by the on-disk artifact store's codec.
    pub fn from_counts(counts: Vec<(u64, u64)>) -> EdgeProfile {
        let (taken, not_taken) = counts.into_iter().unzip();
        EdgeProfile { taken, not_taken }
    }
}

/// Computes the prediction accuracy for `1..=max_n` *successive* branches:
/// entry `n-1` is the fraction of length-`n` windows of the dynamic branch
/// trace in which every branch goes its statically predicted direction.
///
/// This reproduces Table 3 of the paper, which reports how quickly the
/// probability of correctly predicting a whole path decays with path depth
/// — the quantity that separates trace predicating from region
/// predicating.
///
/// Predictions come from `predictor` (typically
/// [`EdgeProfile::predict_taken`] on a training profile).
///
/// Returns an empty vector if the trace has fewer than `max_n` branches.
pub fn successive_accuracy(
    trace: &[BranchRecord],
    predictor: impl Fn(BlockId) -> bool,
    max_n: usize,
) -> Vec<f64> {
    if trace.len() < max_n || max_n == 0 {
        return Vec::new();
    }
    let correct: Vec<bool> = trace
        .iter()
        .map(|b| predictor(b.block) == b.taken)
        .collect();
    // run[i] = number of consecutive correct predictions starting at i.
    let mut run = vec![0u32; correct.len() + 1];
    for i in (0..correct.len()).rev() {
        run[i] = if correct[i] { run[i + 1] + 1 } else { 0 };
    }
    (1..=max_n)
        .map(|n| {
            let windows = correct.len() + 1 - n;
            let hits = (0..windows).filter(|&i| run[i] as usize >= n).count();
            hits as f64 / windows as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(block: u32, taken: bool) -> BranchRecord {
        BranchRecord {
            block: BlockId(block),
            taken,
        }
    }

    #[test]
    fn profile_counts_and_prediction() {
        let mut p = EdgeProfile::new(2);
        for _ in 0..7 {
            p.record(BlockId(0), true);
        }
        for _ in 0..3 {
            p.record(BlockId(0), false);
        }
        assert_eq!(p.counts(BlockId(0)), (7, 3));
        assert!(p.predict_taken(BlockId(0)));
        assert!((p.confidence(BlockId(0)) - 0.7).abs() < 1e-12);
        assert!((p.taken_fraction(BlockId(0)) - 0.7).abs() < 1e-12);
        assert!(!p.predict_taken(BlockId(1)));
        assert_eq!(p.confidence(BlockId(1)), 1.0);
        assert_eq!(p.total(), 10);
    }

    #[test]
    fn successive_accuracy_perfect() {
        let trace: Vec<BranchRecord> = (0..10).map(|_| rec(0, true)).collect();
        let acc = successive_accuracy(&trace, |_| true, 4);
        assert_eq!(acc, vec![1.0; 4]);
    }

    #[test]
    fn successive_accuracy_alternating() {
        // Prediction always-taken; trace alternates T,F,T,F,...
        let trace: Vec<BranchRecord> = (0..8).map(|i| rec(0, i % 2 == 0)).collect();
        let acc = successive_accuracy(&trace, |_| true, 2);
        assert!((acc[0] - 0.5).abs() < 1e-12);
        assert_eq!(acc[1], 0.0); // never two correct in a row
    }

    #[test]
    fn successive_accuracy_decays_multiplicatively() {
        // Deterministic pattern: 3 correct then 1 wrong, repeated.
        let trace: Vec<BranchRecord> = (0..400).map(|i| rec(0, i % 4 != 3)).collect();
        let acc = successive_accuracy(&trace, |_| true, 3);
        assert!((acc[0] - 0.75).abs() < 0.01);
        assert!(acc[1] < acc[0]);
        assert!(acc[2] < acc[1]);
    }

    #[test]
    fn short_trace_returns_empty() {
        let trace = vec![rec(0, true)];
        assert!(successive_accuracy(&trace, |_| true, 4).is_empty());
        assert!(successive_accuracy(&trace, |_| true, 0).is_empty());
    }

    #[test]
    fn per_block_predictor() {
        // Block 0 biased taken, block 1 biased not-taken.
        let mut trace = Vec::new();
        for _ in 0..10 {
            trace.push(rec(0, true));
            trace.push(rec(1, false));
        }
        let acc = successive_accuracy(&trace, |b| b == BlockId(0), 2);
        assert_eq!(acc, vec![1.0, 1.0]);
    }
}

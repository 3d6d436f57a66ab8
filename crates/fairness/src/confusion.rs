//! Per-group confusion statistics underlying every fairness metric.
//!
//! # The empty-denominator contract
//!
//! Every rate on [`Confusion`] is a ratio of counts, and each
//! denominator can legitimately be zero: an empty group
//! (`selection_rate`, `base_rate`, `accuracy`), a group with no
//! positive labels (`tpr`), none negative (`fpr`), or — predictive
//! parity's everyday case — no positive *predictions* (`ppv`). The
//! contract, pinned by tests here and at the metric layer, is that an
//! empty denominator rates **0.0**, never NaN or ±∞. Metrics built as
//! rate differences therefore stay finite and inside `[-1, 1]` on any
//! input, degenerate or not, and downstream evaluators (the core
//! `NonFiniteAttribution` boundary) never see a NaN born here.

/// Confusion counts of one sensitive group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: u32,
    /// False positives.
    pub fp: u32,
    /// True negatives.
    pub tn: u32,
    /// False negatives.
    pub fn_: u32,
}

impl Confusion {
    /// Group size.
    pub fn total(&self) -> u32 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction predicted positive: `P(Ŷ=1)` within the group. Empty
    /// groups rate 0.
    pub fn selection_rate(&self) -> f64 {
        ratio(self.tp + self.fp, self.total())
    }

    /// True-positive rate `P(Ŷ=1 | Y=1)`.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// False-positive rate `P(Ŷ=1 | Y=0)`.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// Positive predictive value `P(Y=1 | Ŷ=1)`.
    pub fn ppv(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Base rate `P(Y=1)` within the group.
    pub fn base_rate(&self) -> f64 {
        ratio(self.tp + self.fn_, self.total())
    }

    /// Accuracy within the group.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }
}

#[inline]
fn ratio(num: u32, den: u32) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Confusion counts split by group membership:
/// `privileged` (the paper's `S = 1`) vs `protected` (`S = 0`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupConfusion {
    /// Counts over privileged rows.
    pub privileged: Confusion,
    /// Counts over protected rows.
    pub protected: Confusion,
}

impl GroupConfusion {
    /// Tallies predictions against labels, split by `privileged_mask`.
    /// All three slices must have equal length.
    pub fn tally(preds: &[bool], labels: &[bool], privileged_mask: &[bool]) -> Self {
        assert_eq!(preds.len(), labels.len());
        assert_eq!(preds.len(), privileged_mask.len());
        let mut out = Self::default();
        for ((&p, &y), &is_priv) in preds.iter().zip(labels).zip(privileged_mask) {
            let c = if is_priv { &mut out.privileged } else { &mut out.protected };
            match (p, y) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_splits_by_group() {
        let preds = [true, true, false, false, true, false];
        let labels = [true, false, false, true, true, false];
        let mask = [true, true, true, false, false, false];
        let g = GroupConfusion::tally(&preds, &labels, &mask);
        assert_eq!(g.privileged, Confusion { tp: 1, fp: 1, tn: 1, fn_: 0 });
        assert_eq!(g.protected, Confusion { tp: 1, fp: 0, tn: 1, fn_: 1 });
    }

    #[test]
    fn rates() {
        let c = Confusion { tp: 3, fp: 1, tn: 4, fn_: 2 };
        assert_eq!(c.total(), 10);
        assert!((c.selection_rate() - 0.4).abs() < 1e-12);
        assert!((c.tpr() - 0.6).abs() < 1e-12);
        assert!((c.fpr() - 0.2).abs() < 1e-12);
        assert!((c.ppv() - 0.75).abs() < 1e-12);
        assert!((c.base_rate() - 0.5).abs() < 1e-12);
        assert!((c.accuracy() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_group_rates_are_zero() {
        let c = Confusion::default();
        assert_eq!(c.selection_rate(), 0.0);
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.ppv(), 0.0);
        assert_eq!(c.base_rate(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn partial_empty_denominators_rate_zero_not_nan() {
        // Non-empty group, but every per-rate denominator empty in turn.
        // No positive predictions: PPV's denominator `tp + fp` is 0.
        let no_pos_pred = Confusion { tp: 0, fp: 0, tn: 3, fn_: 2 };
        assert_eq!(no_pos_pred.ppv(), 0.0, "empty Ŷ=1 set must not NaN");
        // No positive labels: TPR's denominator `tp + fn_` is 0.
        let no_pos_label = Confusion { tp: 0, fp: 2, tn: 3, fn_: 0 };
        assert_eq!(no_pos_label.tpr(), 0.0);
        // No negative labels: FPR's denominator `fp + tn` is 0.
        let no_neg_label = Confusion { tp: 2, fp: 0, tn: 0, fn_: 3 };
        assert_eq!(no_neg_label.fpr(), 0.0);
        for c in [no_pos_pred, no_pos_label, no_neg_label] {
            for rate in
                [c.selection_rate(), c.tpr(), c.fpr(), c.ppv(), c.base_rate(), c.accuracy()]
            {
                assert!(rate.is_finite() && (0.0..=1.0).contains(&rate), "{c:?}: {rate}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        GroupConfusion::tally(&[true], &[true, false], &[true, false]);
    }
}

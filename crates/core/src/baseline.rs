//! The paper's baseline **DropUnprivUnfavor** (§6.1.4): retrain after
//! removing every training instance where the unprivileged group received
//! the unfavorable outcome.

use fume_fairness::FairnessMetric;
use fume_forest::{DareConfig, DareForest};
use fume_tabular::{Classifier, Dataset, GroupSpec};

/// Outcome of the DropUnprivUnfavor baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// Fraction of training data removed.
    pub removed_fraction: f64,
    /// `|F|` of the original model on the test data.
    pub bias_before: f64,
    /// `|F|` after removal + retraining.
    pub bias_after: f64,
    /// Parity reduction achieved (can be negative when the removal
    /// overshoots and flips the disparity, as the paper observes on SQF).
    pub parity_reduction: f64,
    /// Test accuracy before.
    pub accuracy_before: f64,
    /// Test accuracy after.
    pub accuracy_after: f64,
}

/// Runs DropUnprivUnfavor: remove all `(protected, unfavorable)` training
/// rows, retrain with the same hyperparameters, and measure the fairness
/// and accuracy change on `test`.
pub fn drop_unpriv_unfavor(
    train: &Dataset,
    test: &Dataset,
    group: GroupSpec,
    metric: FairnessMetric,
    forest_cfg: &DareConfig,
) -> BaselineResult {
    let original = DareForest::fit(train, forest_cfg.clone());
    let bias_before = metric.bias(&original, test, group);
    let accuracy_before = original.accuracy(test);

    let removed: Vec<u32> = (0..train.num_rows() as u32)
        .filter(|&r| !train.is_privileged(r as usize, group) && !train.label(r as usize))
        .collect();
    let surviving: Vec<u32> = (0..train.num_rows() as u32)
        .filter(|&r| train.is_privileged(r as usize, group) || train.label(r as usize))
        .collect();
    let removed_fraction = removed.len() as f64 / train.num_rows().max(1) as f64;

    let retrained = DareForest::fit_on(train, surviving, forest_cfg.clone());
    let bias_after = metric.bias(&retrained, test, group);
    let accuracy_after = retrained.accuracy(test);

    let parity_reduction = if bias_before <= f64::EPSILON {
        0.0
    } else {
        (bias_before - bias_after) / bias_before
    };

    BaselineResult {
        removed_fraction,
        bias_before,
        bias_after,
        parity_reduction,
        accuracy_before,
        accuracy_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::split::train_test_split;

    #[test]
    fn baseline_removes_protected_unfavorable_rows() {
        let (data, group) = planted_toy().generate_scaled(0.5, 91).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 91).unwrap();
        let r = drop_unpriv_unfavor(
            &train,
            &test,
            group,
            FairnessMetric::StatisticalParity,
            &DareConfig::small(91),
        );
        // The protected-unfavorable fraction of the toy is roughly
        // protected (50%) × unfavorable (≈55%).
        assert!(
            (0.15..0.45).contains(&r.removed_fraction),
            "removed {}",
            r.removed_fraction
        );
        assert!(r.bias_before > 0.0);
        assert!((0.0..=1.0).contains(&r.accuracy_after));
    }

    #[test]
    fn removing_protected_negatives_shifts_disparity_up() {
        // With all protected-unfavorable examples gone, the retrained
        // model sees a protected group with only positive labels — its
        // predictions for that group shift favorably (possibly
        // overshooting, as the paper reports for SQF).
        let (data, group) = planted_toy().generate_scaled(0.5, 92).unwrap();
        let (train, test) = train_test_split(&data, 0.3, 92).unwrap();
        let metric = FairnessMetric::StatisticalParity;
        let r = drop_unpriv_unfavor(&train, &test, group, metric, &DareConfig::small(92));
        // Signed check: retrain and compare selection-rate difference.
        let surviving: Vec<u32> = (0..train.num_rows() as u32)
            .filter(|&x| train.is_privileged(x as usize, group) || train.label(x as usize))
            .collect();
        let retrained = DareForest::fit_on(&train, surviving, DareConfig::small(92));
        let f_after = metric.evaluate(&retrained, &test, group);
        let original = DareForest::fit(&train, DareConfig::small(92));
        let f_before = metric.evaluate(&original, &test, group);
        assert!(
            f_after > f_before,
            "protected selection rate should rise: {f_before} -> {f_after}"
        );
        assert_eq!(r.bias_after, f_after.abs());
    }
}

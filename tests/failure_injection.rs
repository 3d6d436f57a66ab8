//! Failure injection: degenerate inputs must produce errors or sane
//! degenerate outputs — never panics or silent nonsense.

use std::sync::Arc;

use fume::core::{drop_unpriv_unfavor, ExplainRequest, Fume, FumeConfig, FumeError};
use fume::fairness::{fairness_report, FairnessMetric};
use fume::forest::{DareConfig, DareForest};
use fume::lattice::SupportRange;
use fume::tabular::classifier::ConstantClassifier;
use fume::tabular::datasets::planted_toy;
use fume::tabular::split::train_test_split;
use fume::tabular::{Attribute, Classifier, Dataset, GroupSpec, Schema};

fn single_attr_data(codes: Vec<u16>, labels: Vec<bool>) -> Dataset {
    let schema = Arc::new(
        Schema::with_default_label(vec![Attribute::categorical(
            "g",
            vec!["a".into(), "b".into()],
        )])
        .unwrap(),
    );
    Dataset::new(schema, vec![codes], labels).unwrap()
}

#[test]
fn single_class_training_data_yields_constant_forest() {
    let d = single_attr_data(vec![0, 1, 0, 1, 0, 1], vec![true; 6]);
    let forest = DareForest::fit(&d, DareConfig::small(1).with_trees(3));
    for p in forest.predict_proba(&d) {
        assert_eq!(p, 1.0);
    }
    // Deleting from a constant forest stays consistent.
    let mut f = forest;
    f.delete(&[0, 1], &d).unwrap();
    assert_eq!(f.num_instances(), 4);
}

#[test]
fn depth_zero_forest_is_a_prior() {
    let d = single_attr_data(
        vec![0, 1, 0, 1],
        vec![true, true, true, false],
    );
    let cfg = DareConfig { n_trees: 3, max_depth: 0, seed: 2, ..DareConfig::default() };
    let forest = DareForest::fit(&d, cfg);
    for p in forest.predict_proba(&d) {
        assert!((p - 0.75).abs() < 1e-12);
    }
}

#[test]
fn metrics_on_one_sided_groups_do_not_panic() {
    // All rows privileged: the protected side is empty everywhere.
    let d = single_attr_data(vec![1, 1, 1, 1], vec![true, false, true, false]);
    let group = GroupSpec::new(0, 1);
    let r = fairness_report(&ConstantClassifier { proba: 0.9 }, &d, group);
    assert!(r.statistical_parity.is_finite());
    assert!(r.equalized_odds.is_finite());
    assert!(r.predictive_parity.is_finite());
}

#[test]
fn fume_errors_cleanly_when_support_range_excludes_everything() {
    let (data, group) = planted_toy().generate_scaled(0.3, 3).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 3).unwrap();
    // Nothing has support in [0.90, 0.95] at level 1 except huge literals;
    // all are oversized or undersized → zero evaluations, empty top-k.
    let fume = Fume::new(
        FumeConfig::default()
            .with_support(SupportRange::new(0.90, 0.95).unwrap())
            .with_forest(DareConfig::small(3).with_trees(5)),
    );
    match fume.run(&ExplainRequest::new(&train, &test, group)) {
        Ok(report) => {
            assert!(report.top_k.is_empty());
            assert_eq!(report.unlearning_operations, 0);
        }
        Err(FumeError::NoViolation { .. }) => {} // also acceptable
        Err(e) => panic!("unexpected: {e}"),
    }
}

#[test]
fn fume_with_all_attributes_excluded_finds_nothing() {
    let (data, group) = planted_toy().generate_scaled(0.3, 4).unwrap();
    let (train, test) = train_test_split(&data, 0.3, 4).unwrap();
    let mut cfg = FumeConfig::default()
        .with_support(SupportRange::new(0.01, 0.9).unwrap())
        .with_forest(DareConfig::small(4).with_trees(5));
    cfg.exclude_attrs = (0..train.num_attributes() as u16).collect();
    match Fume::new(cfg).run(&ExplainRequest::new(&train, &test, group)) {
        Ok(report) => assert!(report.top_k.is_empty()),
        Err(FumeError::NoViolation { .. }) => {}
        Err(e) => panic!("unexpected: {e}"),
    }
}

#[test]
fn baseline_with_no_protected_unfavorable_rows_is_a_noop_removal() {
    // Protected rows all have favorable outcomes.
    let d = single_attr_data(
        vec![0, 0, 1, 1, 1, 1],
        vec![true, true, true, false, true, false],
    );
    let group = GroupSpec::new(0, 1);
    let b = drop_unpriv_unfavor(
        &d,
        &d,
        group,
        FairnessMetric::StatisticalParity,
        &DareConfig::small(5).with_trees(3),
    );
    assert_eq!(b.removed_fraction, 0.0);
}

#[test]
fn unlearning_below_min_samples_split_collapses_gracefully() {
    let (data, _) = planted_toy().generate_scaled(0.1, 6).unwrap();
    let cfg = DareConfig {
        n_trees: 3,
        max_depth: 5,
        min_samples_split: 50,
        min_samples_leaf: 20,
        seed: 6,
        ..DareConfig::default()
    };
    let mut forest = DareForest::fit(&data, cfg);
    // Delete until every node must be below min_samples_split.
    let n = data.num_rows() as u32;
    let del: Vec<u32> = (0..n - 30).collect();
    forest.delete(&del, &data).unwrap();
    assert_eq!(forest.num_instances(), 30);
    let v = fume::forest::validate::validate_forest(&forest, &data);
    assert!(v.is_empty(), "{v:?}");
    for t in forest.trees() {
        assert!(t.root().is_leaf());
    }
}

#[test]
fn explaining_with_train_equals_test_works() {
    // Evaluating fairness on the training data itself is legitimate
    // (the paper notes metrics can be computed on either).
    let (data, group) = planted_toy().generate_scaled(0.4, 7).unwrap();
    let fume = Fume::new(
        FumeConfig::default()
            .with_support(SupportRange::new(0.02, 0.3).unwrap())
            .with_forest(DareConfig::small(7).with_trees(10)),
    );
    match fume.run(&ExplainRequest::new(&data, &data, group)) {
        Ok(report) => assert!(report.original_bias > 0.0),
        Err(FumeError::NoViolation { .. }) => {}
        Err(e) => panic!("unexpected: {e}"),
    }
}

#[test]
fn single_row_dataset_edge_cases() {
    let d = single_attr_data(vec![1], vec![true]);
    let forest = DareForest::fit(&d, DareConfig::small(8).with_trees(2));
    assert_eq!(forest.predict(&d), vec![true]);
    assert!(train_test_split(&d, 0.5, 0).is_err(), "cannot split one row into two non-empty sides");
}

#[test]
fn predict_on_foreign_schema_sized_data_is_fine() {
    // Prediction only reads codes; a dataset with the same column count
    // but different rows works (documented contract: same schema).
    let (data, _) = planted_toy().generate_scaled(0.1, 9).unwrap();
    let (train, test) = train_test_split(&data, 0.4, 9).unwrap();
    let forest = DareForest::fit(&train, DareConfig::small(9).with_trees(3));
    let probs = forest.predict_proba(&test);
    assert_eq!(probs.len(), test.num_rows());
}
